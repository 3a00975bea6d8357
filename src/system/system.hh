/**
 * @file
 * System builder: constructs the full M-CMP target (processors,
 * caches, interconnects, protocol controllers) for any registered
 * protocol configuration and runs workloads on it.
 *
 * Protocol construction is pluggable: `System` resolves the protocol
 * name `cfg.protocol` through the `ProtocolRegistry` to a
 * `ProtocolBuilder` and hands it the builder-facing API (`adopt()`,
 * `sequencer()`, `context()`); it never names a concrete controller
 * type. White-box access for tests goes through the typed lookup
 * `system.controller<TokenL1>(cmp, proc)` which resolves the
 * controller's `MachineID` from the topology and down-casts, returning
 * nullptr when the running protocol family doesn't provide that type.
 *
 * Multi-seed experiments are driven by `ExperimentRunner` in
 * system/experiment.hh; a System itself is single-use.
 */

#ifndef TOKENCMP_SYSTEM_SYSTEM_HH
#define TOKENCMP_SYSTEM_SYSTEM_HH

#include <atomic>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/token_l1.hh"
#include "core/token_l2.hh"
#include "core/token_mem.hh"
#include "directory/dir_l1.hh"
#include "directory/dir_l2.hh"
#include "directory/dir_mem.hh"
#include "directory/perfect_l2.hh"
#include "hier/hier_dir_mem.hh"
#include "hier/hier_l1.hh"
#include "hier/hier_shim.hh"
#include "sim/stats.hh"
#include "system/config.hh"
#include "system/protocol_registry.hh"
#include "workload/workload.hh"

namespace tokencmp {

namespace detail {

/**
 * Maps a controller type to the MachineID it occupies in the topology;
 * specialize this to make a new controller type reachable through
 * `System::controller<C>()`.
 */
template <typename C>
struct ControllerKey;

template <typename C>
struct L1Key
{
    static MachineID
    id(const Topology &t, unsigned cmp, unsigned idx, bool icache)
    {
        return icache ? t.l1i(cmp, idx) : t.l1d(cmp, idx);
    }
};

template <typename C>
struct L2Key
{
    static MachineID
    id(const Topology &t, unsigned cmp, unsigned idx, bool)
    {
        return t.l2(cmp, idx);
    }
};

template <typename C>
struct MemKey
{
    static MachineID
    id(const Topology &t, unsigned cmp, unsigned, bool)
    {
        return t.mem(cmp);
    }
};

template <> struct ControllerKey<TokenL1> : L1Key<TokenL1> {};
template <> struct ControllerKey<DirL1> : L1Key<DirL1> {};
template <> struct ControllerKey<PerfectL1> : L1Key<PerfectL1> {};
template <> struct ControllerKey<TokenL2> : L2Key<TokenL2> {};
template <> struct ControllerKey<DirL2> : L2Key<DirL2> {};
template <> struct ControllerKey<TokenMem> : MemKey<TokenMem> {};
template <> struct ControllerKey<DirMem> : MemKey<DirMem> {};
template <> struct ControllerKey<HierL1> : L1Key<HierL1> {};
template <> struct ControllerKey<HierShim> : L2Key<HierShim> {};
template <> struct ControllerKey<HierDirMem> : MemKey<HierDirMem> {};

} // namespace detail

/** One fully built target machine. */
class System
{
  public:
    explicit System(const SystemConfig &cfg);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Result of running one workload to completion. */
    struct RunResult
    {
        bool completed = false;      //!< all threads finished
        Tick runtime = 0;            //!< tick of last thread finish
        std::uint64_t violations = 0;
        StatSet stats;               //!< traffic, misses, persistents
    };

    /**
     * Run a workload to completion (or `horizon` ticks) and gather
     * statistics. The system is single-use: build a fresh System for
     * each run.
     *
     * With `cfg.shards == 0` this drives the classic serial kernel;
     * otherwise it drives the sharded kernel: one shard domain per
     * CMP, advanced in lock-step windows under the network's
     * (src, dst) lookahead matrix, completion detected by a
     * finish-counter checked once per window barrier.
     */
    RunResult run(Workload &workload, Tick horizon = ns(500000000));

    /** Domain 0's context (the only one in serial mode). */
    SimContext &context() { return *_ctxs.front(); }

    /** Execution domains: 1 serial, one per CMP sharded. */
    unsigned numDomains() const { return unsigned(_ctxs.size()); }

    /** The context of shard domain `d` (domain 0 in serial mode). */
    SimContext &domainContext(unsigned d) { return *_ctxs.at(d); }

    /** The context a controller at `id` must run in (its CMP's
     *  shard domain); protocol builders construct each controller
     *  against this. */
    SimContext &
    contextFor(const MachineID &id)
    {
        return *_ctxs[_ctxs.size() == 1 ? 0 : id.cmp];
    }

    /** The context processor `proc`'s sequencer and thread run in
     *  (the domain of its CMP). */
    SimContext &
    contextForProc(unsigned proc)
    {
        return *_ctxs[_ctxs.size() == 1 ? 0
                                        : proc / _cfg.topo.procsPerCmp];
    }

    const SystemConfig &config() const { return _cfg; }
    Sequencer &sequencer(unsigned proc) { return *_sequencers.at(proc); }

    /**
     * Window-barrier rounds executed across all sharded phases of
     * run() (0 for serial runs). Deterministic for a fixed (config,
     * workload), so it measures lookahead quality — wider matrix
     * entries mean longer windows, fewer rounds, and less barrier
     * synchronization per simulated tick — without wall-clock noise.
     */
    std::uint64_t shardedWindows() const { return _shardedWindows; }

    TokenGlobals *tokenGlobals() { return _proto->tokenGlobals(); }

    /** Run the family's quiescence audit (token conservation per
     *  token space, owner uniqueness). Also runs at the end of every
     *  run(); exposed so scenario tests can audit between phases. */
    void
    verifyQuiescent(bool fatal_on_violation = true) const
    {
        _proto->verifyQuiescent(fatal_on_violation);
    }

    /**
     * Typed controller lookup: the controller of type `C` at the
     * topological position (cmp, idx), or nullptr if the running
     * protocol family doesn't provide one there.
     */
    template <typename C>
    C *
    controller(unsigned cmp, unsigned idx = 0, bool icache = false)
    {
        return dynamic_cast<C *>(controllerAt(
            detail::ControllerKey<C>::id(_cfg.topo, cmp, idx, icache)));
    }

    /** Untyped lookup by machine identity (nullptr if absent). */
    Controller *controllerAt(MachineID id) const;

    // -- Builder-facing API (used by ProtocolBuilder::build) ---------

    /**
     * Take ownership of a controller, index it for `controller<C>()`
     * lookup, and (when `on_network`) attach it to the interconnect.
     */
    void adopt(std::unique_ptr<Controller> c, bool on_network = true);

  private:
    void harvest(StatSet &out) const;

    /**
     * Window-barrier loop for sharded runs. With `num_threads > 0`
     * it runs until all threads finish (returns true) or the horizon
     * passes; with 0 it is the bounded post-run drain phase.
     */
    bool runSharded(unsigned num_threads, Tick horizon);

    /** Start `threads` and run until all finish (true) or `horizon`
     *  passes, on whichever kernel the config selects. */
    bool runThreads(std::vector<std::unique_ptr<ThreadContext>> &threads,
                    Tick horizon);

    /** Bounded drain of in-flight protocol traffic. */
    void drain();

    SystemConfig _cfg;
    std::vector<std::unique_ptr<SimContext>> _ctxs;
    std::unique_ptr<Network> _net;
    std::unique_ptr<ProtocolBuilder> _proto;

    /** Threads finished so far (the O(1) completion predicate). */
    std::atomic<std::uint32_t> _finished{0};

    std::uint64_t _shardedWindows = 0;  //!< see shardedWindows()

    std::vector<std::unique_ptr<Controller>> _controllers;
    std::vector<std::unique_ptr<Sequencer>> _sequencers;
    std::unordered_map<MachineID, Controller *> _byId;
};

} // namespace tokencmp

#endif // TOKENCMP_SYSTEM_SYSTEM_HH
