/**
 * @file
 * Ablation (DESIGN.md A2): the robustness mechanisms of Section 3.2
 * under the high-contention locking micro-benchmark —
 *
 *  - the response-delay window (0 / 30 / 100 ns),
 *  - the timeout multiplier on the memory-latency EWMA,
 *  - the retry budget (dst1 vs dst2 vs dst4 behavior; the dst2 row
 *    is registered below, the others are Table 1 policies),
 *  - persistent *read* requests (disabled -> reads use full
 *    persistent requests) is covered implicitly by the variants.
 */

#include "bench_util.hh"
#include "core/policy.hh"
#include "workload/locking.hh"

using namespace tokencmp;
using namespace tokencmp::bench;

namespace {

WorkloadFactory
lockFactory(unsigned locks)
{
    return [locks]() -> std::unique_ptr<Workload> {
        LockingParams p;
        p.numLocks = locks;
        p.acquiresPerProc = 25;
        return std::make_unique<LockingWorkload>(p);
    };
}

ExperimentResult
runCfg(const SystemConfig &cfg, unsigned locks,
       const std::string &label)
{
    return runExperiment(cfg, lockFactory(locks),
                         label + "@" + std::to_string(locks) +
                             "locks");
}

/** dst1 with a budget of two transient requests: no Table 1 row has
 *  it, so this file registers it. */
const PolicyRegistrar regDst2("dst2", [](const PolicyEnv &env) {
    TokenPolicy row = token_variants::dst1();
    row.maxTransients = 2;
    return makeTable1Policy(row, env);
});

} // namespace

int
main(int argc, char **argv)
{
    tokencmp::bench::cli(argc, argv,
        "Ablation A2: Section 3.2 robustness mechanisms under high-contention locking.");
    JsonReport report("ablation_robustness");
    banner("Ablation: robustness knobs (locking @2 and @64 locks, "
           "runtime in ns)",
           "short critical sections need the response-delay window "
           "under contention; oversized timeouts slow conflict "
           "resolution; larger retry budgets hurt at high contention");

    printHeaderRow({"2 locks", "64 locks"});

    std::printf("\nresponse-delay window:\n");
    for (Tick delay : {Tick(0), ns(30), ns(100)}) {
        SystemConfig cfg;
        cfg.protocol = Protocol::TokenDst1;
        cfg.token.responseDelay = delay;
        cfg.dir.responseDelay = delay;
        const std::string label =
            "delay=" + std::to_string(delay / ticksPerNs) + "ns";
        const ExperimentResult hi = runCfg(cfg, 2, label);
        const ExperimentResult lo = runCfg(cfg, 64, label);
        if (!hi.allCompleted || !lo.allCompleted)
            return 1;
        printRow("delay=" + std::to_string(delay / ticksPerNs) + "ns",
                 {hi.runtime.mean() / double(ticksPerNs),
                  lo.runtime.mean() / double(ticksPerNs)},
                 {});
    }

    std::printf("\ntimeout multiplier (x EWMA of memory latency):\n");
    for (double mult : {1.0, 2.0, 4.0, 8.0}) {
        SystemConfig cfg;
        cfg.protocol = Protocol::TokenDst1;
        cfg.token.timeoutMult = mult;
        char label[32];
        std::snprintf(label, sizeof(label), "timeout-x%.0f", mult);
        const ExperimentResult hi = runCfg(cfg, 2, label);
        const ExperimentResult lo = runCfg(cfg, 64, label);
        if (!hi.allCompleted || !lo.allCompleted)
            return 1;
        printRow(label,
                 {hi.runtime.mean() / double(ticksPerNs),
                  lo.runtime.mean() / double(ticksPerNs)},
                 {});
    }

    std::printf("\ntransient-request budget before persistent:\n");
    const std::pair<unsigned, const char *> budgets[] = {
        {1u, Protocol::TokenDst1}, {2u, "dst2"}, {4u, Protocol::TokenDst4}};
    for (const auto &[budget, protocol] : budgets) {
        SystemConfig cfg;
        cfg.protocol = protocol;
        const std::string label =
            "transients=" + std::to_string(budget);
        const ExperimentResult hi = runCfg(cfg, 2, label);
        const ExperimentResult lo = runCfg(cfg, 64, label);
        if (!hi.allCompleted || !lo.allCompleted)
            return 1;
        printRow("transients=" + std::to_string(budget),
                 {hi.runtime.mean() / double(ticksPerNs),
                  lo.runtime.mean() / double(ticksPerNs)},
                 {});
    }

    std::printf("\npredictor (dst1-pred) table size:\n");
    for (unsigned locks : {2u, 64u}) {
        SystemConfig cfg;
        cfg.protocol = Protocol::TokenDst1Pred;
        const ExperimentResult e = runCfg(cfg, locks, "dst1-pred");
        if (!e.allCompleted)
            return 1;
        printRow("dst1-pred @" + std::to_string(locks),
                 {e.runtime.mean() / double(ticksPerNs)}, {});
    }
    return 0;
}
