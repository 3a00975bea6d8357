/**
 * @file
 * Quickstart: build the paper's 4x4 M-CMP target with the
 * TokenCMP-dst1 protocol, run a few memory operations and a small
 * lock-contention workload, print headline statistics, peek inside a
 * controller through the typed registry lookup, and finish with a
 * multi-seed experiment through the fluent ExperimentRunner.
 *
 *   $ ./quickstart
 */

#include <atomic>
#include <cstdio>

#include "system/experiment.hh"
#include "workload/locking.hh"

using namespace tokencmp;

int
main()
{
    // 1. Configure the target (defaults follow paper Table 3) and
    //    pick a protocol from Table 1.
    SystemConfig cfg;
    cfg.protocol = Protocol::TokenDst1;
    System sys(cfg);

    // 2. Issue individual memory operations through a processor's
    //    sequencer. Completion is signaled by callback.
    std::atomic<std::uint32_t> done{0};
    std::uint64_t loaded = 0;
    sys.sequencer(0).store(0x1000, 42, [&](const MemResult &) {
        sys.sequencer(0).load(0x1000, [&](const MemResult &r) {
            loaded = r.value;
            ++done;
        });
    });
    sys.context().eventq.runUntil(done, 1);
    std::printf("store+load on processor 0 -> %llu (at %llu ns)\n",
                (unsigned long long)loaded,
                (unsigned long long)(sys.context().now() / ticksPerNs));

    // A remote processor (another CMP) observes the value coherently.
    sys.sequencer(12).load(0x1000, [&](const MemResult &r) {
        std::printf("processor 12 (CMP 3) loads -> %llu after %llu ns\n",
                    (unsigned long long)r.value,
                    (unsigned long long)(r.latency / ticksPerNs));
        ++done;
    });
    sys.context().eventq.runUntil(done, 2);

    // 3. Run a whole workload (Table 2 locking micro-benchmark).
    SystemConfig cfg2;
    cfg2.protocol = Protocol::TokenDst1;
    System sys2(cfg2);
    LockingParams p;
    p.numLocks = 16;
    p.acquiresPerProc = 20;
    LockingWorkload wl(p);
    auto res = sys2.run(wl);

    std::printf("\nlocking micro-benchmark (16 locks, 20 acquires x "
                "16 processors)\n");
    std::printf("  completed:            %s\n",
                res.completed ? "yes" : "NO");
    std::printf("  runtime:              %llu ns\n",
                (unsigned long long)(res.runtime / ticksPerNs));
    std::printf("  mutual-exclusion violations: %llu\n",
                (unsigned long long)res.violations);
    std::printf("  L1 misses:            %.0f\n",
                res.stats.get("l1.misses"));
    std::printf("  transient requests:   %.0f\n",
                res.stats.get("token.transients"));
    std::printf("  persistent requests:  %.0f\n",
                res.stats.get("token.persistentIssued"));
    std::printf("  inter-CMP traffic:    %.0f bytes\n",
                res.stats.get("traffic.inter.total"));
    std::printf("  intra-CMP traffic:    %.0f bytes\n",
                res.stats.get("traffic.intra.total"));

    // 4. White-box access: the registry's typed lookup finds the
    //    controller at any topological position (nullptr if the
    //    running protocol family doesn't provide that type).
    if (TokenL1 *l1 = sys2.controller<TokenL1>(0, 0)) {
        std::printf("\nCMP0/proc0 L1D: %llu hits, %llu misses\n",
                    (unsigned long long)l1->stats.hits,
                    (unsigned long long)l1->stats.misses);
    }

    // 5. Multi-seed experiments (perturbed runs, 95% CIs) go through
    //    the fluent runner; parallelism(N) fans seeds across threads
    //    with bit-identical aggregate results.
    ExperimentResult e =
        Experiment::of(cfg)
            .workload([]() -> std::unique_ptr<Workload> {
                LockingParams lp;
                lp.numLocks = 16;
                lp.acquiresPerProc = 20;
                return std::make_unique<LockingWorkload>(lp);
            })
            .seeds(4)
            .parallelism(2)
            .run();
    std::printf("4-seed experiment: runtime %.0f ± %.0f ns\n",
                e.runtime.mean() / double(ticksPerNs),
                e.runtime.errorBar() / double(ticksPerNs));

    return res.completed && res.violations == 0 && e.allCompleted
               ? 0
               : 1;
}
