/**
 * @file
 * The hier shim's residency queue: which chip-resident block to give
 * up when the shim holds more blocks than its soft cap.
 *
 * The victim choice is a FIFO queue scanned from the front for at most
 * one lap. A visited entry is dropped if its item is no longer
 * resident (the queue is lazy: leaving residency does not remove the
 * entry), rotated to the back if the item is not evictable, and
 * evicted otherwise; the scan stops once the cap is met. This class
 * keeps exactly that victim sequence while making it cheap:
 *
 *  - Entries point at their item, so a visit costs no lookup.
 *  - A lap that ends over the cap has visited every entry, so it
 *    leaves behind only live entries, all of them not evictable and
 *    in unchanged order. The queue then *watches*: it records every
 *    item touched (see touch()) until the next call. If no touched
 *    item has become evictable, the next lap would change nothing but
 *    dropping stale entries, so it is skipped and only counted.
 *  - A skipped lap's stale-entry drops are applied lazily: an item
 *    that left residency before a skipped lap and re-enters later
 *    starts a new epoch, which kills its older entries.
 *
 * Contract for callers: an item's evictability may change only
 * between evict() calls, and only for items passed to touch() or
 * enter() since the last call (touches of items that merely became
 * *less* evictable may be omitted); the evict callback may change its
 * victim and nothing else. T must expose a public
 * `ResidencySlot residency`.
 */

#ifndef TOKENCMP_HIER_RESIDENCY_QUEUE_HH
#define TOKENCMP_HIER_RESIDENCY_QUEUE_HH

#include <cstdint>
#include <deque>
#include <vector>

namespace tokencmp {

/** Per-item residency state, embedded in the queue's items. */
struct ResidencySlot
{
    bool in = false;           //!< resident (counted against the cap)
    bool touched = false;      //!< on the watch list
    std::uint32_t epoch = 0;   //!< entries of older epochs are dead
    std::uint64_t leftAt = 0;  //!< skipped-lap count when it last left
};

template <class T>
class ResidencyQueue
{
  public:
    /** Items currently resident. */
    unsigned resident() const { return _resident; }

    /** True while touches are being recorded (after an over-cap lap). */
    bool watching() const { return _watching; }

    /**
     * Queue entries examined so far: entries popped by real laps plus
     * watched items re-checked before a skip. A test-only cost probe,
     * not a simulated statistic.
     */
    std::uint64_t visits() const { return _visits; }

    /** Make `item` resident; a no-op if it already is. */
    void
    enter(T &item)
    {
        ResidencySlot &s = item.residency;
        if (s.in)
            return;
        // A lap skipped while the item was away dropped its entries.
        if (s.leftAt != _skipped)
            ++s.epoch;
        s.in = true;
        ++_resident;
        _q.push_back({&item, s.epoch});
        touch(item);
    }

    /** Drop `item` from residency; its entries go stale lazily. */
    void
    leave(T &item)
    {
        ResidencySlot &s = item.residency;
        if (!s.in)
            return;
        s.in = false;
        s.leftAt = _skipped;
        --_resident;
    }

    /** `item` may have become evictable since the last evict(). */
    void
    touch(T &item)
    {
        ResidencySlot &s = item.residency;
        if (!_watching || s.touched)
            return;
        s.touched = true;
        _watched.push_back(&item);
    }

    /**
     * Evict until at most `cap` items are resident or one lap is done.
     * `pinned` (may be null) is never evicted by this call.
     * `evictable(const T &)` is the caller's eligibility test; a victim
     * leaves residency and is then passed to `evict(T &)`.
     */
    template <class Evictable, class Evict>
    void
    evict(unsigned cap, T *pinned, Evictable &&evictable, Evict &&evict)
    {
        if (_resident <= cap)
            return;
        const auto victim = [&](const T &t) {
            return &t != pinned && t.residency.in && evictable(t);
        };
        if (_watching) {
            bool changed = false;
            for (const T *t : _watched) {
                ++_visits;
                if (victim(*t)) {
                    changed = true;
                    break;
                }
            }
            clearWatched();
            if (!changed) {
                ++_skipped;
                if (pinned != nullptr)
                    touch(*pinned);
                return;
            }
            _watching = false;
        }

        std::size_t scans = _q.size();
        while (_resident > cap && scans-- > 0) {
            const Entry e = _q.front();
            _q.pop_front();
            ++_visits;
            const ResidencySlot &s = e.item->residency;
            if (!s.in || e.epoch != s.epoch)
                continue;  // stale or dead entry
            if (!victim(*e.item)) {
                _q.push_back(e);  // rotate; soft cap
                continue;
            }
            leave(*e.item);
            evict(*e.item);
        }
        if (_resident > cap) {
            // Full lap, cap still exceeded: every entry left is live
            // and not evictable until something is touched.
            _watching = true;
            if (pinned != nullptr)
                touch(*pinned);
        }
    }

    /**
     * Visit, in queue order, every entry the unskipped algorithm would
     * still hold: live entries plus stale ones that a re-entry of their
     * item would revive.
     */
    template <class F>
    void
    forEachEntry(F &&f) const
    {
        for (const Entry &e : _q) {
            const ResidencySlot &s = e.item->residency;
            if (e.epoch == s.epoch && (s.in || s.leftAt == _skipped))
                f(*e.item);
        }
    }

  private:
    struct Entry
    {
        T *item;
        std::uint32_t epoch;
    };

    void
    clearWatched()
    {
        for (T *t : _watched)
            t->residency.touched = false;
        _watched.clear();
    }

    std::deque<Entry> _q;
    std::vector<T *> _watched;
    unsigned _resident = 0;
    bool _watching = false;
    std::uint64_t _skipped = 0;  //!< laps skipped so far
    std::uint64_t _visits = 0;
};

} // namespace tokencmp

#endif // TOKENCMP_HIER_RESIDENCY_QUEUE_HH
