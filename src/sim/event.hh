/**
 * @file
 * Typed simulation events and intrusive pooling.
 *
 * The kernel's unit of work is an Event: a polymorphic object the
 * EventQueue orders by (tick, insertion sequence) and invokes via
 * process(). Hot-path subsystems define concrete Event types (e.g. the
 * network's DeliverEvent) and recycle them through an EventPool, so
 * steady-state simulation performs no heap allocation per event.
 * Residual closure-style callers go through InlineAction, a pooled
 * event with a small-buffer-optimized callable.
 */

#ifndef TOKENCMP_SIM_EVENT_HH
#define TOKENCMP_SIM_EVENT_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/types.hh"

namespace tokencmp {

class EventQueue;
struct EventPoolAccess;

/**
 * Base class of everything the EventQueue can schedule.
 *
 * Lifecycle: schedule via EventQueue::scheduleEvent(); the kernel calls
 * process() at the event's tick and then release() — unless process()
 * re-scheduled the event. release() decides ownership: the default is a
 * no-op (caller-managed storage); pooled events override it to recycle
 * themselves.
 */
class Event
{
  public:
    Event() = default;
    virtual ~Event() = default;

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Execute the event at its scheduled tick. */
    virtual void process() = 0;

    /**
     * Dispose of the event once the kernel is done with it (after
     * process(), or when the queue is cleared). Pooled events recycle
     * themselves here; the default leaves ownership with the caller.
     */
    virtual void release() {}

    /** Scheduled tick (valid while scheduled). */
    Tick when() const { return _when; }

    /** Insertion sequence number (valid while scheduled). */
    std::uint64_t seq() const { return _seq; }

    /** True while the event sits in an EventQueue. */
    bool scheduled() const { return _sched; }

  private:
    friend class EventQueue;
    friend struct EventPoolAccess;

    Tick _when = 0;
    std::uint64_t _seq = 0;
    Event *_next = nullptr;  //!< bucket chain / free-list link
    bool _sched = false;
};

/** Pool internals' access to the intrusive link field. */
struct EventPoolAccess
{
    static Event *&next(Event &e) { return e._next; }
};

/**
 * Intrusive free-list pool for one concrete Event type.
 *
 * acquire() pops a recycled node (or default-constructs a fresh one);
 * recycled nodes come back exactly as release() left them, so types
 * re-initialize their own fields — which lets e.g. a message batch keep
 * its vector capacity across reuses. The pool owns every free-listed
 * node; nodes still scheduled when the pool dies must have been
 * released first (EventQueue::releaseAll()).
 */
template <typename T>
class EventPool
{
    static_assert(std::is_base_of_v<Event, T>,
                  "EventPool requires an Event subclass");

  public:
    EventPool() = default;
    EventPool(const EventPool &) = delete;
    EventPool &operator=(const EventPool &) = delete;

    ~EventPool()
    {
        while (_free != nullptr) {
            T *e = _free;
            _free = static_cast<T *>(EventPoolAccess::next(*e));
            delete e;
        }
    }

    /** Pop a recycled node, or allocate a fresh default-constructed one. */
    T *
    acquire()
    {
        if (_free != nullptr) {
            T *e = _free;
            _free = static_cast<T *>(EventPoolAccess::next(*e));
            EventPoolAccess::next(*e) = nullptr;
            ++_reused;
            return e;
        }
        ++_allocated;
        return new T();
    }

    /** Return a node to the free list. */
    void
    recycle(T *e)
    {
        EventPoolAccess::next(*e) = _free;
        _free = e;
    }

    /** Nodes ever heap-allocated (steady state: stops growing). */
    std::uint64_t allocated() const { return _allocated; }

    /** acquire() calls served from the free list. */
    std::uint64_t reused() const { return _reused; }

  private:
    T *_free = nullptr;
    std::uint64_t _allocated = 0;
    std::uint64_t _reused = 0;
};

/**
 * Pooled type-erased closure event for the schedule(tick, lambda)
 * compatibility path. Callables up to bufBytes live inline (no heap);
 * larger ones fall back to a heap-allocated holder. Owned and recycled
 * by the EventQueue that created it.
 */
class InlineAction final : public Event
{
  public:
    /** Inline capture capacity: fits a Msg plus a controller pointer. */
    static constexpr std::size_t bufBytes = 120;

    InlineAction() = default;

    ~InlineAction() override { disarm(); }

    void process() override { _invoke(_buf); }

    void release() override;  // defined with EventQueue (returns to pool)

    /** Install a callable; the previous one must be disarmed. */
    template <typename F>
    void
    arm(F &&f)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_v<Fn &>,
                      "InlineAction requires a nullary callable");
        if constexpr (sizeof(Fn) <= bufBytes &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            ::new (static_cast<void *>(_buf)) Fn(std::forward<F>(f));
            _invoke = [](void *buf) { (*static_cast<Fn *>(
                static_cast<void *>(buf)))(); };
            _destroy = [](void *buf) { static_cast<Fn *>(
                static_cast<void *>(buf))->~Fn(); };
        } else {
            // Oversized capture: heap fallback, still correct.
            auto **slot = reinterpret_cast<Fn **>(_buf);
            *slot = new Fn(std::forward<F>(f));
            _invoke = [](void *buf) {
                (**reinterpret_cast<Fn **>(buf))();
            };
            _destroy = [](void *buf) {
                delete *reinterpret_cast<Fn **>(buf);
            };
        }
    }

    /** Destroy the installed callable (idempotent). */
    void
    disarm()
    {
        if (_destroy != nullptr) {
            _destroy(_buf);
            _destroy = nullptr;
            _invoke = nullptr;
        }
    }

  private:
    friend class EventQueue;

    void (*_invoke)(void *) = nullptr;
    void (*_destroy)(void *) = nullptr;
    EventQueue *_owner = nullptr;
    alignas(std::max_align_t) unsigned char _buf[bufBytes];
};

} // namespace tokencmp

#endif // TOKENCMP_SIM_EVENT_HH
