/**
 * @file
 * Generic set-associative cache array with exact LRU replacement.
 *
 * The array is templated on the per-line protocol state so the token
 * substrate and DirectoryCMP reuse the same structure. Geometry follows
 * the paper's Table 3 (L1: 128 kB 4-way; L2 bank: 2 MB 4-way; 64 B
 * blocks), so one 4-CMP System holds 32 L1 arrays and 16 L2-bank
 * arrays, about 196k lines, of which a short run touches a small part.
 *
 * Storage layout and costs:
 *  - **All-zero bytes are an invalid line.** `valid` is false and
 *    `lruRank` is 0 in zeroed memory, every reader checks `valid`
 *    first, and install() assigns `StateT{}` before the state is used.
 *    A state whose default is not all-zero (DirL2St::ownerSlot is -1)
 *    is therefore still correct on a line that was never touched.
 *  - **Lazy pages.** The lines and tag words come from `calloc`, not
 *    from a constructor loop. glibc hands an L2 bank's arrays (about
 *    1.3 MB) over as fresh mapped pages that the kernel zeroes on first
 *    touch, so building a System no longer writes 24 MB of untouched
 *    lines; an L1's smaller arrays come from the heap, zeroed at once,
 *    which keeps their first-touch faults out of the run (a direct
 *    `mmap` of every array built faster but ran slower). This is why a
 *    line must be a trivially copyable aggregate (an implicit-lifetime
 *    type).
 *  - **Probe tags.** probe() reads a separate per-set array of tag
 *    words, `tag | 1` for a valid way and 0 for an invalid one, so a
 *    4-way lookup reads one 32-byte run instead of four lines. In the
 *    perfbench workloads 69-88% of probes miss (mostly an L1 answering
 *    a relayed request it does not hold), and a miss never touches the
 *    lines. install() and invalidate() keep each word equal to its
 *    line's `tag` and `valid`.
 *  - **Rank LRU.** Each valid way stores how many valid ways of its set
 *    were used more recently, so the valid ranks of a set are exactly
 *    0..v-1. A use moves the way to 0 and bumps the ways ranked ahead
 *    of it; an invalidation closes the gap; the LRU victim is the valid
 *    way with the largest rank. This picks the same victims as a global
 *    use stamp without a counter that can wrap, and one byte replaces
 *    the eight-byte stamp.
 *  - **Pinned sizes.** The protocol states order their fields widest
 *    first, and `static_assert`s beside each state type pin the line
 *    sizes (token 40 bytes, directory L1 40, directory L2 32).
 */

#ifndef TOKENCMP_MEM_CACHE_ARRAY_HH
#define TOKENCMP_MEM_CACHE_ARRAY_HH

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <type_traits>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace tokencmp {

/**
 * One cache line: tag bookkeeping plus protocol state. All-zero bytes
 * encode an invalid line, so the struct has no default initializers.
 */
template <typename StateT>
struct CacheLine
{
    Addr tag;             //!< block address (block-aligned)
    bool valid;           //!< line holds protocol state for tag
    std::uint8_t lruRank; //!< valid ways in the set used more recently
    StateT st;            //!< protocol-specific state
};

/**
 * Set-associative array of CacheLine<StateT> with strict-LRU victims.
 */
template <typename StateT>
class CacheArray
{
  public:
    using Line = CacheLine<StateT>;
    static_assert(std::is_trivially_copyable_v<Line> &&
                      std::is_aggregate_v<Line>,
                  "zeroed storage must be a valid array of lines");

    /**
     * @param size_bytes total capacity
     * @param assoc      associativity (ways, at most 256 so a rank
     *                   fits lruRank)
     */
    CacheArray(std::uint64_t size_bytes, unsigned assoc)
        : _assoc(assoc)
    {
        if (assoc == 0 || assoc > 256 ||
            size_bytes % (assoc * blockBytes) != 0)
            fatal("CacheArray: bad geometry (%llu bytes, %u-way)",
                  static_cast<unsigned long long>(size_bytes), assoc);
        _numSets = size_bytes / (assoc * blockBytes);
        if ((_numSets & (_numSets - 1)) != 0)
            fatal("CacheArray: set count must be a power of two");
        _lines = zeroed<Line>(_numSets * _assoc);
        _tags = zeroed<Addr>(_numSets * _assoc);
    }

    unsigned numSets() const { return _numSets; }
    unsigned assoc() const { return _assoc; }

    /** Find the valid line holding `addr`'s block, or nullptr. */
    Line *
    probe(Addr addr)
    {
        const Addr blk = blockAlign(addr);
        const std::size_t first = setIndex(blk) * _assoc;
        for (unsigned w = 0; w < _assoc; ++w) {
            if (_tags[first + w] == (blk | 1))
                return &_lines[first + w];
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
            if (set[w].lruRank > lru->lruRank)
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
                (best == nullptr || set[w].lruRank > best->lruRank)) {
                best = &set[w];
            }
        }
        return best;
    }

    /**
     * Mark a line most-recently-used. A no-op on an invalid line, whose
     * rank is 0 and which install() ranks when it is reused.
     */
    void
    touch(Line *line)
    {
        if (line->lruRank != 0)
            promote(setFor(line->tag), line, line->lruRank);
    }

    /** Bind a (victim) line to a new block and mark it used. */
    void
    install(Line *line, Addr addr)
    {
        const Addr blk = blockAlign(addr);
        // An invalid line ranks behind every valid way of its set.
        promote(setFor(blk), line, line->valid ? line->lruRank : _assoc);
        line->tag = blk;
        line->valid = true;
        line->st = StateT{};
        _tags[line - _lines.get()] = blk | 1;
    }

    /** Invalidate a line. */
    void
    invalidate(Line *line)
    {
        if (line->valid) {
            Line *set = setFor(line->tag);
            for (unsigned w = 0; w < _assoc; ++w) {
                if (set[w].valid && set[w].lruRank > line->lruRank)
                    --set[w].lruRank;
            }
        }
        line->valid = false;
        line->lruRank = 0;
        line->st = StateT{};
        _tags[line - _lines.get()] = 0;
    }

    /**
     * Number of valid lines (for tests; it reads, and so maps, every
     * page of the array).
     */
    std::size_t
    numValid() const
    {
        std::size_t n = 0;
        for (std::size_t i = 0; i < _numSets * _assoc; ++i)
            n += _lines[i].valid ? 1 : 0;
        return n;
    }

  private:
    struct Free
    {
        void operator()(void *p) const { std::free(p); }
    };
    template <typename T>
    using Zeroed = std::unique_ptr<T[], Free>;

    /** `n` zero-filled elements. */
    template <typename T>
    static Zeroed<T>
    zeroed(std::size_t n)
    {
        void *p = std::calloc(n, sizeof(T));
        if (p == nullptr)
            fatal("CacheArray: cannot allocate %zu bytes", n * sizeof(T));
        return Zeroed<T>(static_cast<T *>(p));
    }

    std::size_t
    setIndex(Addr blk) const
    {
        return static_cast<std::size_t>(blockNumber(blk)) & (_numSets - 1);
    }

    Line *setFor(Addr blk) const { return &_lines[setIndex(blk) * _assoc]; }

    /** Rank `line` 0 and bump the valid ways ranked below `rank`. */
    void
    promote(Line *set, Line *line, unsigned rank)
    {
        for (unsigned w = 0; w < _assoc; ++w) {
            if (set[w].valid && set[w].lruRank < rank)
                ++set[w].lruRank;
        }
        line->lruRank = 0;
    }

    unsigned _assoc;
    std::size_t _numSets;
    Zeroed<Line> _lines;
    Zeroed<Addr> _tags;  //!< per way: tag | 1 if valid, else 0
};

} // namespace tokencmp

#endif // TOKENCMP_MEM_CACHE_ARRAY_HH
