/**
 * @file
 * TokenCMP-dst1-pred contention predictor (Section 4): a four-way
 * set-associative, 256-entry table of 2-bit saturating counters.
 * A counter is allocated/incremented when a transient request is
 * retried (times out); when the counter saturates, the policy skips
 * the transient request and issues a persistent request immediately.
 * Counters are reset pseudo-randomly to adapt to phase changes.
 *
 * The table organization (sets, tags, LRU victim order) lives in
 * SetAssocTable; this class owns only the counter policy. The lru
 * stamp is bumped on allocation alone — hits deliberately do not
 * refresh it, so a block that keeps hitting still ages out of a busy
 * set (the pre-refactor behavior, pinned by fixed-seed dst1-pred
 * figures).
 */

#ifndef TOKENCMP_CORE_CONTENTION_PREDICTOR_HH
#define TOKENCMP_CORE_CONTENTION_PREDICTOR_HH

#include <cstdint>

#include "core/set_assoc_table.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace tokencmp {

/** 256-entry, 4-way, 2-bit-counter contention predictor. */
class ContentionPredictor
{
  public:
    explicit ContentionPredictor(unsigned entries = 256,
                                 unsigned ways = 4)
        : _table("ContentionPredictor", entries, ways)
    {}

    /** Should the requester go straight to a persistent request? */
    bool
    predictContended(Addr addr) const
    {
        const Table::Entry *e = _table.find(addr);
        return e != nullptr && e->data.counter >= 2;
    }

    /** A transient request for `addr` timed out: allocate/increment. */
    void
    recordRetry(Addr addr, Random &rng)
    {
        Table::Entry *e = _table.find(addr);
        if (e == nullptr) {
            e = _table.allocate(addr);
            _table.touch(*e);
        }
        if (e->data.counter < 3)
            ++e->data.counter;
        // Pseudo-random reset for phase adaptation.
        if (rng.chance(1.0 / 64.0)) {
            Table::Entry &victim =
                _table.entryAt(rng.uniform(_table.capacity()));
            victim.data.counter = 0;
        }
    }

    /** A transient request succeeded without retry: mild decay. */
    void
    recordSuccess(Addr addr)
    {
        Table::Entry *e = _table.find(addr);
        if (e != nullptr && e->data.counter > 0)
            --e->data.counter;
    }

  private:
    struct Counter
    {
        std::uint8_t counter = 0; //!< 2-bit saturating (0..3)
    };
    using Table = SetAssocTable<Counter>;

    Table _table;
};

} // namespace tokencmp

#endif // TOKENCMP_CORE_CONTENTION_PREDICTOR_HH
