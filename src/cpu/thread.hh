/**
 * @file
 * Continuation-based workload thread contexts.
 *
 * Workloads (Table 2 micro-benchmarks, synthetic commercial proxies)
 * are written as small continuation-passing programs over think(),
 * load(), store() and atomic RMW primitives running on a simulated
 * processor's sequencer. The primitives are templates over the
 * continuation type: lambdas flow into pooled kernel events and
 * small-buffer callbacks without ever materializing a std::function,
 * so the steady-state load/store path performs no heap allocation.
 */

#ifndef TOKENCMP_CPU_THREAD_HH
#define TOKENCMP_CPU_THREAD_HH

#include <atomic>
#include <cstdint>
#include <utility>

#include "cpu/sequencer.hh"
#include "net/controller.hh"
#include "sim/random.hh"

namespace tokencmp {

/**
 * Time-varying load shaping: maps a thread's requested think duration
 * to the duration actually slept, as a function of the current tick.
 * The phased workload wrapper installs one per thread to impose
 * burst/ramp/idle schedules on any inner workload without the inner
 * workload knowing. Implementations must be pure functions of
 * (dur, now) — a shaper is shared-read across a thread's whole run and
 * may be consulted from that thread's shard domain only.
 */
class LoadShaper
{
  public:
    virtual ~LoadShaper() = default;

    /** The shaped duration for a think() of `dur` issued at `now`. */
    virtual Tick shape(Tick dur, Tick now) const = 0;
};

/**
 * Base class for one software thread pinned to one processor.
 *
 * Derived classes implement start() and chain the protected
 * primitives; they call finish() when their share of work completes.
 */
class ThreadContext
{
  public:
    ThreadContext(SimContext &ctx, Sequencer &seq)
        : _ctx(ctx), _seq(seq), _rng(0x5eed0000 + seq.procId())
    {}
    virtual ~ThreadContext() = default;

    ThreadContext(const ThreadContext &) = delete;
    ThreadContext &operator=(const ThreadContext &) = delete;

    /** Begin executing; the thread schedules its own continuations. */
    virtual void start() = 0;

    bool done() const { return _done; }
    unsigned procId() const { return _seq.procId(); }
    Tick finishTick() const { return _finishTick; }

    /** Re-seed this thread's private RNG (multi-seed methodology). */
    void reseed(std::uint64_t s) { _rng.reseed(s); }

    /**
     * Bump `counter` when this thread finishes. The System's run loop
     * uses one shared counter as an O(1) completion check (one
     * comparison per event or per shard window, instead of scanning
     * every thread).
     */
    void
    notifyOnFinish(std::atomic<std::uint32_t> *counter)
    {
        _finishCounter = counter;
    }

    /** Install a think-time shaper (nullptr = passthrough). The
     *  shaper must outlive the thread; the phased wrapper owns its
     *  shapers alongside the threads it creates. */
    void setLoadShaper(const LoadShaper *shaper) { _shaper = shaper; }

  protected:
    /** Spend `dur` ticks of compute, then continue. */
    template <typename K>
    void
    think(Tick dur, K &&k)
    {
        if (_shaper != nullptr)
            dur = _shaper->shape(dur, _ctx.now());
        _ctx.eventq.schedule(dur, std::forward<K>(k));
    }

    /** Load a block; continuation receives its value. */
    template <typename K>
    void
    load(Addr a, K &&k)
    {
        _seq.load(a, [k = std::forward<K>(k)](const MemResult &r) mutable {
            k(r.value);
        });
    }

    template <typename K>
    void
    store(Addr a, std::uint64_t v, K &&k)
    {
        _seq.store(a, v,
                   [k = std::forward<K>(k)](const MemResult &) mutable {
                       k();
                   });
    }

    /** Atomic fetch-and-modify; continuation receives the old value. */
    template <typename F, typename K>
    void
    atomic(Addr a, F &&rmw, K &&k)
    {
        _seq.atomic(a, std::forward<F>(rmw),
                    [k = std::forward<K>(k)](const MemResult &r) mutable {
                        k(r.value);
                    });
    }

    /** Test-and-set: sets the block to 1, old value to continuation. */
    template <typename K>
    void
    testAndSet(Addr a, K &&k)
    {
        atomic(a, [](std::uint64_t) { return std::uint64_t(1); },
               std::forward<K>(k));
    }

    template <typename K>
    void
    ifetch(Addr a, K &&k)
    {
        _seq.ifetch(a,
                    [k = std::forward<K>(k)](const MemResult &) mutable {
                        k();
                    });
    }

    /** Mark this thread complete. */
    void
    finish()
    {
        _done = true;
        _finishTick = _ctx.now();
        if (_finishCounter != nullptr)
            _finishCounter->fetch_add(1, std::memory_order_relaxed);
    }

    SimContext &_ctx;
    Sequencer &_seq;
    Random _rng;

  private:
    bool _done = false;
    Tick _finishTick = 0;
    std::atomic<std::uint32_t> *_finishCounter = nullptr;
    const LoadShaper *_shaper = nullptr;
};

} // namespace tokencmp

#endif // TOKENCMP_CPU_THREAD_HH
