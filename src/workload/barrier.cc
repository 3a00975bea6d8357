#include "workload/barrier.hh"

#include <algorithm>

#include "workload/workload_registry.hh"

namespace tokencmp {

namespace {

const WorkloadRegistrar regBarrier(
    "barrier", [](const WorkloadParams &wp) {
        BarrierParams p;
        if (wp.opsPerProc != 0)
            p.phases = wp.opsPerProc;
        if (wp.thinkMean != 0)
            p.workTime = wp.thinkMean;
        return std::make_unique<BarrierWorkload>(p);
    });

/** One processor's work/barrier loop. */
class BarrierThread : public ThreadContext
{
  public:
    BarrierThread(SimContext &ctx, Sequencer &seq, BarrierWorkload &wl,
                  unsigned num_procs, std::uint64_t seed)
        : ThreadContext(ctx, seq), _wl(wl), _numProcs(num_procs)
    {
        reseed(seed);
    }

    void start() override { work(); }

  private:
    void
    work()
    {
        if (_phase >= _wl.params().phases) {
            finish();
            return;
        }
        Tick w = _wl.params().workTime;
        const Tick j = _wl.params().workJitter;
        if (j > 0)
            w = w - j + Tick(_rng.uniform(2 * j + 1));
        think(w, [this]() { acquire(); });
    }

    void
    acquire()
    {
        load(_wl.lockAddr(), [this](std::uint64_t v) {
            if (v != 0) {
                think(_wl.params().spinDelay,
                      [this]() { acquire(); });
                return;
            }
            testAndSet(_wl.lockAddr(), [this](std::uint64_t old) {
                if (old != 0) {
                    acquire();
                    return;
                }
                bumpCount();
            });
        });
    }

    void
    bumpCount()
    {
        load(_wl.countAddr(), [this](std::uint64_t count) {
            const std::uint64_t next = count + 1;
            if (next == _numProcs) {
                // Last arrival: reset the count, flip the sense,
                // release the lock.
                store(_wl.countAddr(), 0, [this]() {
                    store(_wl.flagAddr(), _sense ? 0 : 1, [this]() {
                        store(_wl.lockAddr(), 0,
                              [this]() { cross(); });
                    });
                });
            } else {
                store(_wl.countAddr(), next, [this]() {
                    store(_wl.lockAddr(), 0, [this]() { spinFlag(); });
                });
            }
        });
    }

    void
    spinFlag()
    {
        load(_wl.flagAddr(), [this](std::uint64_t f) {
            const std::uint64_t want = _sense ? 0 : 1;
            if (f != want) {
                think(_wl.params().spinDelay,
                      [this]() { spinFlag(); });
                return;
            }
            cross();
        });
    }

    void
    cross()
    {
        _sense = !_sense;
        ++_phase;
        _wl.notePhase(procId(), _phase);
        work();
    }

    BarrierWorkload &_wl;
    unsigned _numProcs;
    unsigned _phase = 0;
    bool _sense = false;  //!< current sense; flag starts at 0
};

} // namespace

std::unique_ptr<ThreadContext>
BarrierWorkload::makeThread(SimContext &ctx, Sequencer &seq,
                            unsigned num_procs, std::uint64_t seed)
{
    return std::make_unique<BarrierThread>(ctx, seq, *this, num_procs,
                                           seed);
}

void
BarrierWorkload::notePhase(unsigned proc, unsigned phase)
{
    // Threads on concurrent shard domains report through this hook.
    std::lock_guard<std::mutex> guard(_mu);
    if (_phaseOf.size() <= proc)
        _phaseOf.resize(proc + 1, 0);
    _phaseOf[proc] = phase;
    unsigned lo = phase, hi = phase;
    for (unsigned p : _phaseOf) {
        lo = std::min(lo, p);
        hi = std::max(hi, p);
    }
    // Sense-reversing barriers permit at most one phase of skew.
    if (hi > lo + 1)
        ++_violations;
}

} // namespace tokencmp
