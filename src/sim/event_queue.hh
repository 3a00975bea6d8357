/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue orders Events by (tick, sequence number), where
 * the sequence number is a monotone insertion counter. Equal-tick
 * events therefore execute in insertion order, which makes every
 * simulation deterministic for a given seed.
 *
 * Two interchangeable scheduler backends implement that contract:
 *
 *  - TimingWheel (default): a hierarchical timing wheel — three levels
 *    of 256 slots with 2^10/2^18/2^26-tick granularity, covering ~17 ms
 *    of simulated time relative to now — plus a binary-heap spillover
 *    for the rare farther-future event. Insertion and extraction are
 *    O(1) amortized; the protocol latencies that dominate scheduling
 *    (2/20 ns, i.e. 2000/20000 ticks) always land in the bottom two
 *    levels.
 *
 *  - ReferenceHeap: a plain binary heap. O(log n), kept as the ordering
 *    oracle for randomized cross-checks and determinism regression
 *    tests.
 *
 * Events due soon are drained bucket-at-a-time into a run queue sorted
 * by (tick, seq); same-tick events scheduled *while the tick executes*
 * are spliced into that run queue in order, preserving the exact
 * semantics of a (tick, seq) priority queue.
 *
 * The closure API (schedule(delay, lambda)) is a thin compatibility
 * layer over pooled InlineAction events: steady-state scheduling does
 * not allocate.
 */

#ifndef TOKENCMP_SIM_EVENT_QUEUE_HH
#define TOKENCMP_SIM_EVENT_QUEUE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "sim/event.hh"
#include "sim/types.hh"

namespace tokencmp {

/** Band-1 marker: the top bit of an event sequence number. Band-0
 *  (local) seqs come from the insertion counter and stay below it. */
inline constexpr std::uint64_t seqBandBit = std::uint64_t(1) << 63;

/** Bits of the per-source send sequence inside a band-1 key. */
inline constexpr unsigned handoffSeqBits = 40;

/**
 * Canonical band-1 key for a cross-domain handoff (see
 * EventQueue::scheduleKeyed): all band-1 keys sort after every band-0
 * key at the same tick, and among themselves by (srcDomain, sendSeq),
 * an order that depends only on the simulated execution, never on
 * which barrier or worker delivered the message. 2^23 domains x 2^40
 * sends per source.
 */
inline constexpr std::uint64_t
handoffKey(unsigned src_domain, std::uint64_t send_seq)
{
    return seqBandBit |
           (std::uint64_t(src_domain) << handoffSeqBits) |
           (send_seq & ((std::uint64_t(1) << handoffSeqBits) - 1));
}

/** True for keys of cross-domain handoffs (band 1). */
inline constexpr bool
isHandoffKey(std::uint64_t seq)
{
    return (seq & seqBandBit) != 0;
}

/** Selectable scheduler backend (see file comment). */
enum class SchedulerKind : std::uint8_t {
    TimingWheel,    //!< hierarchical wheel + far-future heap (default)
    ReferenceHeap,  //!< binary heap ordering oracle for tests
};

/** Printable backend name. */
const char *schedulerKindName(SchedulerKind k);

/**
 * Deterministic discrete-event queue.
 *
 * The queue owns the simulated clock. schedule()/scheduleEvent()
 * enqueue work at an absolute or relative tick; run() drains events
 * until the queue is empty or a configured horizon/stop condition
 * fires.
 */
class EventQueue
{
  public:
    explicit EventQueue(SchedulerKind kind = SchedulerKind::TimingWheel)
        : _kind(kind)
    {}
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick curTick() const { return _curTick; }

    /** Active scheduler backend. */
    SchedulerKind kind() const { return _kind; }

    /** Switch backends; only legal on a fresh/reset, empty queue. */
    void setKind(SchedulerKind k);

    /**
     * Schedule a typed event at absolute tick `when` (>= curTick).
     * The kernel invokes process() at that tick, then release()
     * (unless process() re-scheduled the event).
     */
    void scheduleEvent(Event *e, Tick when);

    /**
     * Schedule a typed event with an explicit sequence key instead of
     * the insertion counter. Used for cross-domain handoffs, whose
     * band-1 keys (handoffKey() above) give equal-tick deliveries a
     * canonical (srcDomain, sendSeq) order independent of which window
     * or worker performed the intake. Keys must be unique per queue;
     * the insertion counter is not consumed.
     */
    void scheduleKeyed(Event *e, Tick when, std::uint64_t key);

    /** Schedule a closure at absolute tick `when` (>= curTick). */
    template <typename F>
    void
    scheduleAbs(Tick when, F &&f)
    {
        static_assert(std::is_invocable_v<std::decay_t<F> &>,
                      "schedule() requires a nullary callable; use "
                      "scheduleEvent() for typed events");
        scheduleEvent(makeAction(std::forward<F>(f)), when);
    }

    /** Schedule a closure `delay` ticks from now. */
    template <typename F>
    void
    schedule(Tick delay, F &&f)
    {
        scheduleAbs(_curTick + delay, std::forward<F>(f));
    }

    /** Sentinel "no event pending" tick (all-ones). */
    static constexpr Tick noTick = ~Tick(0);

    /**
     * Frontier of the queue: the tick of the earliest pending event,
     * or `noTick` when the queue is empty. May stage internal state
     * (like a run() would) but executes nothing; used by the sharded
     * kernel's window coordinator to find the global next-event time.
     */
    Tick
    frontier()
    {
        Event *e = peekNext();
        return e == nullptr ? noTick : e->when();
    }

    /** True if no events are pending. */
    bool empty() const { return _pending == 0; }

    /** Number of pending events. */
    std::size_t size() const { return _pending; }

    /** Total events executed so far. */
    std::uint64_t executed() const { return _executed; }

    /**
     * Sequence number the next scheduled event will receive: the
     * insertion counter that reset() rewinds to 0 and that
     * scheduleKeyed() leaves untouched.
     */
    std::uint64_t nextSeq() const { return _nextSeq; }

    /**
     * Run until the queue is empty or the horizon is reached.
     *
     * @param horizon Stop once the next event lies beyond this tick
     *                (default: effectively unbounded).
     * @return true if the queue drained, false if stopped at horizon.
     */
    bool run(Tick horizon = ~Tick(0));

    /**
     * Run until the completion counter `finished` reaches `target`
     * (checked before the first event and after each), the queue
     * drains, or the horizon passes. A counter compare instead of a
     * callback keeps the per-event stop check to one load.
     *
     * @return true iff `finished` reached `target`.
     */
    bool runUntil(const std::atomic<std::uint32_t> &finished,
                  std::uint32_t target, Tick horizon = ~Tick(0));

    /**
     * Release every pending event (returning pooled events to their
     * pools) without touching the clock or counters. Used by owners of
     * event pools that are about to be destroyed.
     */
    void releaseAll();

    /**
     * Per-owner variant of releaseAll(): release only the pending
     * events for which `mine` returns true, leaving every other event
     * scheduled (relative order preserved). Lets an owner of pooled
     * events (e.g. ~Network and its DeliverEvents) retire its own
     * events without depending on whole-system teardown ordering.
     */
    void releaseAll(const std::function<bool(const Event &)> &mine);

    /**
     * Drop all pending events and reset the clock, the insertion
     * sequence counter and the executed count to zero, so back-to-back
     * runs in one process are bit-identical to fresh-process runs.
     */
    void reset();

    /** InlineAction pool growth (steady state: stops growing). */
    std::uint64_t actionsAllocated() const
    {
        return _actionPool.allocated();
    }

    /** InlineAction acquisitions served from the pool free list. */
    std::uint64_t actionsReused() const { return _actionPool.reused(); }

  private:
    friend class InlineAction;

    // Wheel geometry: 3 levels x 256 slots; level l covers ticks
    // [now, now + 2^(10 + 8*(l+1))) at 2^(10 + 8*l)-tick granularity.
    static constexpr unsigned slotBits = 8;
    static constexpr unsigned numSlots = 1u << slotBits;
    static constexpr unsigned baseShift = 10;
    static constexpr unsigned numLevels = 3;
    static constexpr unsigned occWords = numSlots / 64;

    static constexpr unsigned
    levelShift(unsigned level)
    {
        return baseShift + slotBits * level;
    }

    /** FIFO chain of events threaded through Event::_next. */
    struct Chain
    {
        Event *head = nullptr;
        Event *tail = nullptr;
    };

    template <typename F>
    InlineAction *
    makeAction(F &&f)
    {
        InlineAction *a = _actionPool.acquire();
        a->_owner = this;
        a->arm(std::forward<F>(f));
        return a;
    }

    void recycleAction(InlineAction *a);

    void insertPending(Event *e);
    void runqInsert(Event *e);
    void chainAppend(Chain &c, Event *e);
    int lowestSet(const std::uint64_t *occ) const;
    bool refill();           //!< make the run queue non-empty (slow path)

    /** Kind-aware insert of an event whose _when/_seq are set. */
    void insertScheduled(Event *e);

    /** Next event or nullptr; refills the run queue when staged dry. */
    Event *
    peekNext()
    {
        if (_runqHead < _runq.size()) [[likely]]
            return _runq[_runqHead];
        return refill() ? _runq[_runqHead] : nullptr;
    }

    /** Consume the event peekNext returned. */
    Event *
    popNext()
    {
        Event *e = _runq[_runqHead++];
        if (_runqHead == _runq.size()) {
            _runq.clear();
            _runqHead = 0;
        }
        return e;
    }

    /** Pop, clock-advance, process, release. */
    void
    executeOne(Event *e)
    {
        popNext();
        e->_sched = false;
        --_pending;
        _curTick = e->_when;
        ++_executed;
        e->process();
        if (!e->_sched)
            e->release();
    }
    void farPush(Event *e);
    Event *farPop();

    SchedulerKind _kind;
    Tick _curTick = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _executed = 0;
    std::size_t _pending = 0;

    /**
     * Events with when < _pos, sorted by (when, seq); _runqHead indexes
     * the next event to execute. The wheel and far heap only hold
     * events with when >= _pos.
     */
    std::vector<Event *> _runq;
    std::size_t _runqHead = 0;
    Tick _pos = 0;

    Chain _wheel[numLevels][numSlots];
    std::uint64_t _occ[numLevels][occWords] = {};

    /** Beyond-wheel events (and the whole store in ReferenceHeap
     *  mode), as a binary min-heap on (when, seq). */
    std::vector<Event *> _far;

    EventPool<InlineAction> _actionPool;
};

inline void
InlineAction::release()
{
    disarm();
    _owner->recycleAction(this);
}

} // namespace tokencmp

#endif // TOKENCMP_SIM_EVENT_QUEUE_HH
