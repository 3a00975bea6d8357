/**
 * @file
 * Figure 3 reproduction: locking micro-benchmark with both transient
 * and persistent requests.
 *
 * Runtime (normalized to DirectoryCMP at 512 locks) across the lock
 * sweep for DirectoryCMP, DirectoryCMP-zero, TokenCMP-dst4,
 * TokenCMP-dst1 and TokenCMP-dst1-pred. Paper shape: at low
 * contention every TokenCMP variant beats DirectoryCMP (sharing
 * misses avoid the directory indirection); as contention rises,
 * dst4 wastes retries and is the least robust token variant, dst1 is
 * comparable to the directory, and dst1-pred does best by skipping
 * straight to persistent requests on predicted-contended blocks.
 */

#include "bench_util.hh"
#include "workload/locking.hh"

using namespace tokencmp;
using namespace tokencmp::bench;

int
main(int argc, char **argv)
{
    tokencmp::bench::cli(argc, argv,
        "Figure 3 reproduction: locking micro-benchmark, transient + persistent requests.");
    JsonReport report("fig3_locking_transient");
    banner("Figure 3: locking micro-benchmark, transient + persistent "
           "requests",
           "low contention: TokenCMP < DirectoryCMP; high contention: "
           "dst4 worst token variant, dst1 ~ directory, dst1-pred "
           "best");

    const std::vector<unsigned> lock_counts = {2,  4,  8,   16,  32,
                                               64, 128, 256, 512};
    const std::vector<Protocol> protos = {
        Protocol::DirectoryCMP, Protocol::DirectoryCMPZero,
        Protocol::TokenDst4, Protocol::TokenDst1,
        Protocol::TokenDst1Pred};

    auto factory = [](unsigned locks) {
        return [locks]() -> std::unique_ptr<Workload> {
            LockingParams p;
            p.numLocks = locks;
            p.acquiresPerProc = 25;
            return std::make_unique<LockingWorkload>(p);
        };
    };

    const ExperimentResult base =
        runCell(Protocol::DirectoryCMP, factory(512), "baseline@512");
    const double base_rt = base.runtime.mean();
    std::printf("baseline DirectoryCMP @512 locks: %.0f ns\n\n",
                base_rt / double(ticksPerNs));

    std::vector<std::string> cols;
    for (unsigned l : lock_counts)
        cols.push_back(std::to_string(l));
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
