/**
 * @file
 * Figure 2 reproduction: locking micro-benchmark with
 * persistent-request-only performance policies.
 *
 * Runtime (normalized to DirectoryCMP at 512 locks) as lock count
 * sweeps from 2 (high contention) to 512 (low contention) for
 * TokenCMP-arb0, DirectoryCMP, DirectoryCMP-zero and TokenCMP-dst0.
 * The paper's shape: the arbiter-based scheme degrades badly under
 * contention (indirect deactivate/activate handoffs through the
 * arbiter), while distributed activation is comparable to or better
 * than the directory baselines.
 */

#include "bench_util.hh"
#include "workload/locking.hh"

using namespace tokencmp;
using namespace tokencmp::bench;

int
main(int argc, char **argv)
{
    tokencmp::bench::cli(argc, argv,
        "Figure 2 reproduction: locking micro-benchmark, persistent-request-only policies.");
    JsonReport report("fig2_locking_persistent");
    banner("Figure 2: locking micro-benchmark, persistent requests "
           "only",
           "TokenCMP-arb0 >> DirectoryCMP at high contention; "
           "TokenCMP-dst0 comparable or better than directory "
           "variants");

    const std::vector<unsigned> lock_counts = {2,  4,  8,   16,  32,
                                               64, 128, 256, 512};
    const std::vector<Protocol> protos = {
        Protocol::TokenArb0, Protocol::DirectoryCMP,
        Protocol::DirectoryCMPZero, Protocol::TokenDst0};

    auto factory = [](unsigned locks) {
        return [locks]() -> std::unique_ptr<Workload> {
            LockingParams p;
            p.numLocks = locks;
            p.acquiresPerProc = 25;
            return std::make_unique<LockingWorkload>(p);
        };
    };

    // Baseline: DirectoryCMP at 512 locks.
    const ExperimentResult base =
        runCell(Protocol::DirectoryCMP, factory(512), "baseline@512");
    const double base_rt = base.runtime.mean();
    std::printf("baseline DirectoryCMP @512 locks: %.0f ns\n\n",
                base_rt / double(ticksPerNs));

    std::vector<std::string> cols;
    for (unsigned l : lock_counts)
        cols.push_back(std::to_string(l));
    std::printf("normalized runtime vs #locks "
                "(high contention -> low contention)\n");
    printHeaderRow(cols);

    for (Protocol proto : protos) {
        std::vector<double> vals, errs;
        for (unsigned locks : lock_counts) {
            const ExperimentResult e =
                runCell(proto, factory(locks),
                        protocolName(proto) + "@" +
                            std::to_string(locks));
            if (!e.allCompleted || e.violations != 0) {
                std::fprintf(stderr, "FAILED: %s @%u locks\n",
                             protocolName(proto).c_str(), locks);
                return 1;
            }
            vals.push_back(e.runtime.mean() / base_rt);
            errs.push_back(e.runtime.errorBar() / base_rt);
        }
        printRow(protocolName(proto), vals, errs);
    }
    return 0;
}
