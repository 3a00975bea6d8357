/**
 * @file
 * Target-system configuration (paper Table 3) and the names of the
 * protocols the paper evaluates.
 */

#ifndef TOKENCMP_SYSTEM_CONFIG_HH
#define TOKENCMP_SYSTEM_CONFIG_HH

#include <cstdint>
#include <string>

#include "core/token_config.hh"
#include "directory/dir_config.hh"
#include "net/machine.hh"
#include "net/network.hh"
#include "workload/workload_params.hh"

namespace tokencmp {

/**
 * A protocol name: the one key that selects what a System runs. It is
 * a family name registered with the ProtocolRegistry ("directory",
 * "hier", ...) or any PolicyRegistry name, which runs the TokenCMP
 * family with that performance policy ("dst1", "dst-owner", ...).
 * The constants name the configurations the paper evaluates
 * (Sections 6-8); protocolName() gives their figure labels.
 */
struct Protocol : std::string
{
    using std::string::string;

    //! hierarchical MOESI directory, DRAM directory
    static constexpr const char *DirectoryCMP = "directory";
    //! unrealistic zero-cycle directory
    static constexpr const char *DirectoryCMPZero = "directory-zero";
    //! persistent-only, arbiter activation
    static constexpr const char *TokenArb0 = "arb0";
    //! persistent-only, distributed activation
    static constexpr const char *TokenDst0 = "dst0";
    //! 1 transient + 3 retries
    static constexpr const char *TokenDst4 = "dst4";
    //! 1 transient, then persistent
    static constexpr const char *TokenDst1 = "dst1";
    //! dst1 + contention predictor
    static constexpr const char *TokenDst1Pred = "dst1-pred";
    //! dst1 + external-request filter
    static constexpr const char *TokenDst1Filt = "dst1-filt";
    //! infinite shared L2 lower bound
    static constexpr const char *PerfectL2 = "perfect";
    //! directory between CMPs, tokens within
    static constexpr const char *HierCMP = "hier";
};

/**
 * How the machine decomposes into shard domains for the sharded
 * kernel. Every CMP is one domain, so the cross-domain lookahead
 * bottoms out at the 20 ns inter-CMP link.
 */
enum class ShardMapKind : unsigned char {
    PerCmp,  //!< one domain per CMP
};

/** Shard-domain assignment for the sharded kernel. */
struct ShardMap
{
    ShardMapKind kind = ShardMapKind::PerCmp;
};

/** Full system configuration; defaults reproduce Table 3. */
struct SystemConfig
{
    /** Protocol name (see Protocol); an unknown name is diagnosed,
     *  listing every registered name, by finalize(). */
    std::string protocol = Protocol::TokenDst1;
    Topology topo{};  //!< 4 CMPs x 4 processors, 4 L2 banks

    std::uint64_t l1Bytes = 128 * 1024;
    unsigned l1Assoc = 4;
    std::uint64_t l2BankBytes = 2 * 1024 * 1024;  //!< 8 MB / 4 banks
    unsigned l2Assoc = 4;

    NetworkParams net{};
    TokenParams token{};
    DirParams dir{};

    /**
     * HierCMP only: soft cap on the blocks a shim holds chip rights
     * for before it starts chip-level evictions/writebacks to the home
     * directory (0 = unbounded). Per shim (L2 bank slot), so a CMP's
     * effective capacity is l2BanksPerCmp x this many blocks.
     */
    unsigned hierResidencyCap = 1024;

    std::uint64_t seed = 1;
    bool audit = true;  //!< token-conservation auditing

    /**
     * Event-kernel backend. TimingWheel is the fast default;
     * ReferenceHeap is the ordering oracle used by determinism
     * regression tests — both execute events in identical (tick, seq)
     * order, so results must be bit-identical.
     */
    SchedulerKind scheduler = SchedulerKind::TimingWheel;

    /**
     * Worker threads for the sharded parallel kernel. 0 (default)
     * runs the classic serial kernel. Any value >= 1 partitions the
     * machine into one shard domain per CMP — each with its own
     * EventQueue, RNG and network-link state — advanced in lock-step
     * conservative lookahead windows by min(shards, numCmps) worker
     * threads. For a fixed seed the sharded run is bit-identical for
     * every worker count (the shard decomposition is fixed; `shards`
     * only chooses how many threads drive it). A protocol whose
     * registry entry is not shardable (PerfectL2: its magic L2
     * bypasses the network) cannot run sharded.
     */
    unsigned shards = 0;

    /** Shard-domain decomposition used when `shards > 0`. */
    ShardMap shardMap{};

    /**
     * Workload selection by WorkloadRegistry name ("locking", "zipf",
     * "phased", ...). Empty (the default) means the caller supplies a
     * workload object or factory directly, as before the registry
     * existed. When set, `Experiment` builds the workload from the
     * registry with `workloadParams`; finalize() validates the knob
     * table, and an unknown name is diagnosed (listing every
     * registered workload) when the workload is created.
     */
    std::string workloadName;

    /** Knob table for `workloadName` (skew, key count, write
     *  fraction, phase schedule, ...); validated in finalize(). */
    WorkloadParams workloadParams;

    /**
     * Validate the configuration: the protocol name, the policy knob
     * geometry and the named workload's knob table. Fatal, naming the
     * problem, on the first failure; writes nothing, so any caller
     * (System, Experiment, ParamGrid) may call it any number of times.
     */
    void finalize() const;
};

} // namespace tokencmp

#endif // TOKENCMP_SYSTEM_CONFIG_HH
