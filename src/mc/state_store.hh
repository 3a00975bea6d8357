/**
 * @file
 * Flat interning store for serialized model states.
 *
 * Every distinct state is copied once into a single byte arena and
 * named by a dense 32-bit id, handed out in insertion order. Lookup
 * goes through an open-addressing, linear-probe table of 64-bit
 * slots, each packing {32-bit hash tag, id + 1} (0 marks an empty
 * slot), kept at no more than 50% load. Ids never depend on the hash,
 * so neither does anything computed from them. The store holds at
 * most 2^32 - 1 states; callers bound it (Checker's constructor
 * does).
 *
 * Cost per state: its bytes, an 8-byte arena offset and 2-4 table
 * slots (16-32 bytes).
 */

#ifndef TOKENCMP_MC_STATE_STORE_HH
#define TOKENCMP_MC_STATE_STORE_HH

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "mc/model.hh"

namespace tokencmp::mc {

class StateStore
{
  public:
    using Id = std::uint32_t;

    StateStore() { _slots.assign(std::size_t(1) << _bits, 0); }

    /** Number of stored states; the next fresh id. */
    std::size_t size() const { return _offset.size() - 1; }

    /** The id of `s`, inserting it if new; `second` is true if new. */
    std::pair<Id, bool>
    intern(const State &s)
    {
        return intern(s.data(), s.size(), hash(s.data(), s.size()));
    }

    /** intern() of the `n` bytes at `s`, whose hash(s, n) is `h`. */
    std::pair<Id, bool>
    intern(const std::uint8_t *s, std::size_t n, std::uint64_t h)
    {
        const std::uint32_t tag = std::uint32_t(h);
        const std::size_t mask = _slots.size() - 1;
        std::size_t i = std::size_t(h >> (64 - _bits));
        for (;; i = (i + 1) & mask) {
            const std::uint64_t slot = _slots[i];
            if (slot == 0)
                break;
            if (std::uint32_t(slot >> 32) == tag) {
                const Id id = Id(slot) - 1;
                if (equals(id, s, n))
                    return {id, false};
            }
        }
        const Id id = Id(size());
        _arena.insert(_arena.end(), s, s + n);
        _offset.push_back(_arena.size());
        _slots[i] = std::uint64_t(tag) << 32 | (std::uint64_t(id) + 1);
        if (2 * size() > _slots.size())
            grow();
        return {id, true};
    }

    /** Start loading the home slot of a state with hash `h`. */
    void
    prefetch(std::uint64_t h) const
    {
        __builtin_prefetch(&_slots[std::size_t(h >> (64 - _bits))]);
    }

    /** Copy state `id` into `out`. */
    void
    get(Id id, State &out) const
    {
        out.assign(_arena.begin() + _offset[id],
                   _arena.begin() + _offset[id + 1]);
    }

    State
    get(Id id) const
    {
        State s;
        get(id, s);
        return s;
    }

    /**
     * Word-at-a-time hash: each 8-byte word (the tail zero-padded) is
     * folded in with a multiply and xor-shift, then the splitmix64
     * finalizer spreads the result over all 64 bits.
     */
    static std::uint64_t
    hash(const std::uint8_t *p, std::size_t n)
    {
        constexpr std::uint64_t k = 0xbf58476d1ce4e5b9ull;
        std::uint64_t h = 0x9e3779b97f4a7c15ull ^ (n * k);
        auto mix = [&h](std::uint64_t w) {
            h = (h ^ w) * k;
            h ^= h >> 29;
        };
        for (; n >= 8; p += 8, n -= 8) {
            std::uint64_t w;
            std::memcpy(&w, p, 8);
            mix(w);
        }
        if (n) {
            std::uint64_t w = 0;
            std::memcpy(&w, p, n);
            mix(w);
        }
        h ^= h >> 30;
        h *= k;
        h ^= h >> 27;
        h *= 0x94d049bb133111ebull;
        h ^= h >> 31;
        return h;
    }

  private:
    bool
    equals(Id id, const std::uint8_t *s, std::size_t n) const
    {
        const std::uint64_t b = _offset[id];
        return _offset[id + 1] - b == n &&
               (n == 0 || std::memcmp(_arena.data() + b, s, n) == 0);
    }

    /** Double the table, re-hashing every state from the arena. */
    void
    grow()
    {
        ++_bits;
        _slots.assign(std::size_t(1) << _bits, 0);
        const std::size_t mask = _slots.size() - 1;
        for (Id id = 0; id < size(); ++id) {
            const std::uint64_t b = _offset[id];
            const std::uint64_t h =
                hash(_arena.data() + b, _offset[id + 1] - b);
            std::size_t i = std::size_t(h >> (64 - _bits));
            while (_slots[i] != 0)
                i = (i + 1) & mask;
            _slots[i] =
                (h & 0xffffffffull) << 32 | (std::uint64_t(id) + 1);
        }
    }

    std::vector<std::uint8_t> _arena;          //!< state bytes, by id
    std::vector<std::uint64_t> _offset{0};     //!< id -> arena start
    std::vector<std::uint64_t> _slots;         //!< {tag, id + 1}
    unsigned _bits = 10;                       //!< log2(slot count)
};

} // namespace tokencmp::mc

#endif // TOKENCMP_MC_STATE_STORE_HH
