/**
 * @file
 * Generic set-associative cache array with LRU replacement.
 *
 * The array is templated on the per-line protocol state so the token
 * substrate and DirectoryCMP reuse the same structure. Geometry follows
 * the paper's Table 3 (L1: 128 kB 4-way; L2 bank: 2 MB 4-way; 64 B
 * blocks).
 */

#ifndef TOKENCMP_MEM_CACHE_ARRAY_HH
#define TOKENCMP_MEM_CACHE_ARRAY_HH

#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace tokencmp {

/** One cache line: tag bookkeeping plus protocol state. */
template <typename StateT>
struct CacheLine
{
    Addr tag = 0;               //!< block address (block-aligned)
    bool valid = false;         //!< line holds protocol state for tag
    std::uint64_t lruStamp = 0; //!< monotone use counter for LRU
    StateT st{};                //!< protocol-specific state
};

/**
 * Set-associative array of CacheLine<StateT> with strict-LRU victims.
 */
template <typename StateT>
class CacheArray
{
  public:
    using Line = CacheLine<StateT>;

    /**
     * @param size_bytes total capacity
     * @param assoc      associativity (ways)
     */
    CacheArray(std::uint64_t size_bytes, unsigned assoc)
        : _assoc(assoc)
    {
        if (assoc == 0 || size_bytes % (assoc * blockBytes) != 0)
            fatal("CacheArray: bad geometry (%llu bytes, %u-way)",
                  static_cast<unsigned long long>(size_bytes), assoc);
        _numSets = size_bytes / (assoc * blockBytes);
        if ((_numSets & (_numSets - 1)) != 0)
            fatal("CacheArray: set count must be a power of two");
        _lines.assign(_numSets * _assoc, Line{});
    }

    unsigned numSets() const { return _numSets; }
    unsigned assoc() const { return _assoc; }

    /** Find the valid line holding `addr`'s block, or nullptr. */
    Line *
    probe(Addr addr)
    {
        const Addr blk = blockAlign(addr);
        Line *set = setFor(blk);
        for (unsigned w = 0; w < _assoc; ++w) {
            if (set[w].valid && set[w].tag == blk)
                return &set[w];
        }
        return nullptr;
    }

    const Line *
    probe(Addr addr) const
    {
        return const_cast<CacheArray *>(this)->probe(addr);
    }

    /**
     * Choose a victim way in `addr`'s set: an invalid line if one
     * exists, otherwise the least-recently-used valid line. The caller
     * must evict a valid victim's contents before reusing it.
     */
    Line *
    victim(Addr addr)
    {
        Line *set = setFor(blockAlign(addr));
        Line *lru = &set[0];
        for (unsigned w = 0; w < _assoc; ++w) {
            if (!set[w].valid)
                return &set[w];
            if (set[w].lruStamp < lru->lruStamp)
                lru = &set[w];
        }
        return lru;
    }

    /**
     * Like victim(), but a valid line is only eligible when
     * `ok(line)` holds (e.g., not pinned by an outstanding miss).
     * Returns nullptr if every way is valid and ineligible.
     */
    template <typename Pred>
    Line *
    victimWhere(Addr addr, Pred ok)
    {
        Line *set = setFor(blockAlign(addr));
        Line *best = nullptr;
        for (unsigned w = 0; w < _assoc; ++w) {
            if (!set[w].valid)
                return &set[w];
            if (ok(set[w]) &&
                (best == nullptr || set[w].lruStamp < best->lruStamp)) {
                best = &set[w];
            }
        }
        return best;
    }

    /** Mark a line most-recently-used. */
    void touch(Line *line) { line->lruStamp = ++_useCounter; }

    /** Bind a (victim) line to a new block and mark it used. */
    void
    install(Line *line, Addr addr)
    {
        line->tag = blockAlign(addr);
        line->valid = true;
        line->st = StateT{};
        touch(line);
    }

    /** Invalidate a line. */
    void
    invalidate(Line *line)
    {
        line->valid = false;
        line->st = StateT{};
    }

    /** Apply `fn(line)` to every valid line. */
    template <typename Fn>
    void
    forEachValid(Fn fn)
    {
        for (auto &line : _lines) {
            if (line.valid)
                fn(line);
        }
    }

    /** Number of valid lines (for tests). */
    std::size_t
    numValid() const
    {
        std::size_t n = 0;
        for (const auto &line : _lines)
            n += line.valid ? 1 : 0;
        return n;
    }

  private:
    Line *
    setFor(Addr blk)
    {
        const std::size_t set =
            static_cast<std::size_t>(blockNumber(blk)) & (_numSets - 1);
        return &_lines[set * _assoc];
    }

    unsigned _assoc;
    std::size_t _numSets;
    std::uint64_t _useCounter = 0;
    std::vector<Line> _lines;
};

} // namespace tokencmp

#endif // TOKENCMP_MEM_CACHE_ARRAY_HH
