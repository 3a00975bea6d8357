/**
 * @file
 * The paper's locking micro-benchmark (Table 2): each processor
 * thinks for 10 ns, acquires a random lock (different from the last
 * lock acquired) with test-and-test-and-set, holds it for 10 ns,
 * releases, and repeats until it reaches its acquire quota.
 * Contention is varied by the number of locks (2 = high contention,
 * 512 = low).
 *
 * The workload doubles as a protocol checker: it tracks lock holders
 * and counts mutual-exclusion violations.
 */

#ifndef TOKENCMP_WORKLOAD_LOCKING_HH
#define TOKENCMP_WORKLOAD_LOCKING_HH

#include <mutex>
#include <unordered_map>
#include <vector>

#include "workload/workload.hh"

namespace tokencmp {

/** Parameters of the locking micro-benchmark. */
struct LockingParams
{
    unsigned numLocks = 512;
    unsigned acquiresPerProc = 50;
    Tick thinkTime = ns(10);
    Tick holdTime = ns(10);
    Tick spinDelay = ns(4);     //!< cycles between spin reads
    Addr lockBase = 0x10000;    //!< locks at lockBase + i*64
    /**
     * Warm the caches first: each processor acquires and releases its
     * round-robin slice of the locks once, spreading them across the
     * machine's L1s before measurement begins — the paper's warmed
     * steady state ("the requested lock is often in an L1 cache in
     * another CMP").
     */
    bool warmup = true;
};

/** Table 2 locking micro-benchmark. */
class LockingWorkload : public Workload
{
  public:
    explicit LockingWorkload(const LockingParams &p = {}) : _p(p) {}

    std::unique_ptr<ThreadContext>
    makeThread(SimContext &ctx, Sequencer &seq, unsigned num_procs,
               std::uint64_t seed) override;

    void
    reset() override
    {
        _holder.clear();
        _violations = 0;
        _totalAcquires = 0;
        _measureStart = 0;
    }

    std::uint64_t violations() const override { return _violations; }
    std::uint64_t totalAcquires() const { return _totalAcquires; }
    std::string name() const override { return "locking"; }

    Tick measureStart() const override { return _measureStart; }

    /** A thread finished its warmup slice at `when`. */
    void
    noteWarmupDone(Tick when)
    {
        std::lock_guard<std::mutex> guard(_mu);
        _measureStart = std::max(_measureStart, when);
    }

    Addr
    lockAddr(unsigned i) const
    {
        return _p.lockBase + Addr(i) * blockBytes;
    }

    /** Called by threads at acquisition/release (checker hooks). */
    void noteAcquire(unsigned lock, unsigned proc);
    void noteRelease(unsigned lock, unsigned proc);

    const LockingParams &params() const { return _p; }

  private:
    LockingParams _p;
    /** Guards the checker state against concurrent shard domains. */
    std::mutex _mu;
    std::unordered_map<unsigned, unsigned> _holder;
    std::uint64_t _violations = 0;
    std::uint64_t _totalAcquires = 0;
    Tick _measureStart = 0;
};

} // namespace tokencmp

#endif // TOKENCMP_WORKLOAD_LOCKING_HH
