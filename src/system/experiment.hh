/**
 * @file
 * Multi-seed experiment driver: a fluent, parallel runner.
 *
 *   auto result = Experiment::of(cfg)
 *                     .workload([] { return std::make_unique<...>(); })
 *                     .seeds(20)
 *                     .parallelism(4)
 *                     .onSeedDone([](const SeedProgress &p) { ... })
 *                     .run();
 *
 * Seeds run on a std::thread pool (each on a fresh System, so nothing
 * is shared between workers); results are aggregated in seed order, so
 * any parallelism level produces bit-identical `ExperimentResult`s to
 * serial execution (Alameldeen & Wood perturbation methodology, HPCA
 * 2003). `ExperimentResult::toJson()` exports machine-readable results
 * for the bench harnesses.
 */

#ifndef TOKENCMP_SYSTEM_EXPERIMENT_HH
#define TOKENCMP_SYSTEM_EXPERIMENT_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "system/system.hh"

namespace tokencmp {

namespace json {

/** Format a double for JSON (round-trippable precision). */
std::string number(double v);

/** Escape and double-quote a string for JSON. */
std::string quote(const std::string &s);

} // namespace json

/** Creates one fresh Workload instance per seed. */
using WorkloadFactory = std::function<std::unique_ptr<Workload>()>;

/** Progress report delivered after each seed finishes. */
struct SeedProgress
{
    unsigned seedIndex = 0;       //!< 0-based index into the batch
    std::uint64_t seedValue = 0;  //!< RNG seed the run used
    unsigned seedsDone = 0;       //!< completed so far (including this)
    unsigned seedsTotal = 0;
    bool completed = false;       //!< finished within the horizon
    Tick runtime = 0;
};

/** Aggregated multi-seed experiment results (mean +/- 95% CI). */
struct ExperimentResult
{
    /** protocolName() of the configuration, suffixed with "@<hash>"
     *  when any tuning knob differs from its default (see
     *  system/knobs.hh) — two runs of the same policy under
     *  different knob overrides must not collide in reports. */
    std::string protocol;
    std::string knobHash;  //!< knobOverrideHash(); "" at defaults
    std::string workload;  //!< Workload::name() of the runs
    unsigned seedsRequested = 0;  //!< batch size (>= completed count)

    SeedSamples runtime;
    SeedSamples interBytes;
    SeedSamples intraBytes;
    std::uint64_t violations = 0;
    std::map<std::string, SeedSamples> stats;
    bool allCompleted = true;

    /** Per-seed raw results, in seed order (completed seeds only). */
    std::vector<System::RunResult> perSeed;

    /** Machine-readable export of the aggregate and per-seed runtimes. */
    std::string toJson(const std::string &label = "") const;
};

/** Fluent multi-seed experiment runner. */
class ExperimentRunner
{
  public:
    using ProgressFn = std::function<void(const SeedProgress &)>;

    /** Start describing an experiment over `cfg`. */
    static ExperimentRunner of(const SystemConfig &cfg);

    ExperimentRunner &workload(WorkloadFactory factory);
    ExperimentRunner &seeds(unsigned n);
    /**
     * Protocol sweep axis: run the whole experiment once per protocol
     * name ("dst1", "bw-adapt", "directory", ...), replacing the base
     * config's protocol. Execute with runSweep().
     */
    ExperimentRunner &policies(std::vector<std::string> names);
    /**
     * Workload sweep axis: run the whole experiment once per named
     * workload (WorkloadRegistry names, parameterized by the base
     * config's workloadParams). Crosses with a policies() sweep —
     * results are ordered workload-major — and overrides any
     * workload() factory. Execute with runSweep().
     */
    ExperimentRunner &workloads(std::vector<std::string> names);
    /** Worker threads; 1 (default) runs serially on this thread. */
    ExperimentRunner &parallelism(unsigned n);
    ExperimentRunner &horizon(Tick t);
    /** First seed value (default 1; seeds run first..first+n-1). */
    ExperimentRunner &firstSeed(std::uint64_t s);
    /**
     * Per-seed completion callback. Invoked serialized (never
     * concurrently) but, with parallelism > 1, from worker threads and
     * not necessarily in seed order.
     */
    ExperimentRunner &onSeedDone(ProgressFn fn);

    /** Execute all seeds and aggregate. The workload comes from the
     *  workload() factory, or — when none is set — from the base
     *  config's workloadName via the WorkloadRegistry. Fatal if
     *  neither names a workload, or a policies()/workloads() sweep is
     *  pending (use runSweep()). */
    ExperimentResult run() const;

    /**
     * Execute the policies() sweep: one aggregated ExperimentResult
     * per protocol name, in the order given (each labeled with its
     * protocolName(), e.g. "TokenCMP-<name>"). Without a pending
     * sweep this is {run()}.
     */
    std::vector<ExperimentResult> runSweep() const;

  private:
    explicit ExperimentRunner(const SystemConfig &cfg) : _cfg(cfg) {}

    SystemConfig _cfg;
    WorkloadFactory _factory;
    std::vector<std::string> _policies;
    std::vector<std::string> _workloads;
    unsigned _seeds = 1;
    unsigned _parallelism = 1;
    Tick _horizon = ns(500000000);
    std::uint64_t _firstSeed = 1;
    ProgressFn _progress;
};

/** Fluent entry point alias: Experiment::of(cfg).workload(...).run(). */
using Experiment = ExperimentRunner;

} // namespace tokencmp

#endif // TOKENCMP_SYSTEM_EXPERIMENT_HH
