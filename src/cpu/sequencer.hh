/**
 * @file
 * Per-processor memory-operation sequencer.
 *
 * The sequencer is the boundary between workload code and the coherence
 * protocol: it issues loads, stores, atomic read-modify-writes and
 * instruction fetches to the processor's L1 caches and invokes a
 * completion callback when the protocol finishes the operation.
 *
 * The callback plumbing is allocation-free in steady state: callbacks
 * are SmallFunctions (inline small-buffer storage), the user's
 * continuation parks in a fixed per-sequencer slot while the one
 * outstanding operation is in flight, and the MemRequest the L1 sees
 * carries only a trivially-small completion thunk back to the
 * sequencer.
 *
 * Substitution note (see DESIGN.md §4): the paper drives its protocols
 * from 4-wide out-of-order SPARC cores under Simics. Here each
 * processor issues one demand operation at a time with explicit think
 * time, which preserves the dependence-limited behaviour of the
 * micro-benchmarks and the miss-class mix of the macro workloads.
 */

#ifndef TOKENCMP_CPU_SEQUENCER_HH
#define TOKENCMP_CPU_SEQUENCER_HH

#include <cstdint>

#include "net/controller.hh"
#include "sim/small_function.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tokencmp {

/** Memory operation kinds issued by processors. */
enum class MemOp : std::uint8_t {
    Load,    //!< read a block's value
    Store,   //!< overwrite a block's value
    Atomic,  //!< atomic read-modify-write (needs write permission)
    Ifetch,  //!< instruction fetch through the L1 I-cache
};

/** Completion result of a memory operation. */
struct MemResult
{
    std::uint64_t value = 0;  //!< loaded / pre-RMW value
    Tick latency = 0;         //!< issue-to-completion time
};

/** Completion continuation; 48 inline bytes covers workload lambdas. */
using MemCallback = SmallFunction<void(const MemResult &), 48>;

/** Atomic read-modify-write functor; typically a captureless lambda. */
using MemRmwFn = SmallFunction<std::uint64_t(std::uint64_t), 24>;

/** One in-flight memory operation. */
struct MemRequest
{
    Addr addr = 0;
    MemOp op = MemOp::Load;
    std::uint64_t operand = 0;  //!< store value
    /** For MemOp::Atomic: next_value = rmw(current_value). */
    MemRmwFn rmw;
    MemCallback callback;
    Tick issued = 0;
};

/**
 * Interface every protocol's L1 controller implements toward the CPU.
 */
class L1CacheIF
{
  public:
    virtual ~L1CacheIF() = default;

    /** Issue a memory operation; the L1 must eventually complete it. */
    virtual void cpuRequest(const MemRequest &req) = 0;
};

/**
 * Issues one memory operation at a time per processor and tracks
 * latency statistics.
 */
class Sequencer
{
  public:
    Sequencer(SimContext &ctx, unsigned proc_id)
        : _ctx(ctx), _procId(proc_id)
    {}

    /** Connect the protocol's L1 D and I controllers. */
    void
    bind(L1CacheIF *dcache, L1CacheIF *icache)
    {
        _dcache = dcache;
        _icache = icache;
    }

    unsigned procId() const { return _procId; }

    void load(Addr a, MemCallback cb);
    void store(Addr a, std::uint64_t v, MemCallback cb);
    void atomic(Addr a, MemRmwFn rmw, MemCallback cb);
    void ifetch(Addr a, MemCallback cb);

    /** Memory operations completed. */
    std::uint64_t opsCompleted() const { return _opsCompleted; }

    /** Latency summary across completed operations. */
    const RunningStat &latencyStat() const { return _latency; }

  private:
    void issue(MemRequest req, bool to_icache, MemCallback cb);
    void complete(const MemResult &res);

    SimContext &_ctx;
    unsigned _procId;
    L1CacheIF *_dcache = nullptr;
    L1CacheIF *_icache = nullptr;
    bool _busy = false;
    MemCallback _userCb;  //!< parked continuation of the in-flight op
    std::uint64_t _opsCompleted = 0;
    RunningStat _latency;
};

} // namespace tokencmp

#endif // TOKENCMP_CPU_SEQUENCER_HH
