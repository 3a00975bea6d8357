/**
 * @file
 * Table 4 reproduction: barrier micro-benchmark runtime, normalized
 * to DirectoryCMP, for all eight protocols, with fixed 3000 ns work
 * and with 3000 +/- U(-1000,+1000) ns work.
 *
 * Paper values (normalized): arb0 1.40/1.29 and dst4 1.15/1.01 stand
 * out as non-robust (bold in the paper); dst0 0.94/0.91,
 * DirectoryCMP-zero 0.95/0.93, dst1 0.99/0.95, dst1-pred 0.96/0.93,
 * dst1-filt 0.99/0.95.
 */

#include "bench_util.hh"
#include "workload/barrier.hh"

using namespace tokencmp;
using namespace tokencmp::bench;

int
main(int argc, char **argv)
{
    tokencmp::bench::cli(argc, argv,
        "Table 4 reproduction: barrier micro-benchmark runtime across all eight protocols.");
    JsonReport report("table4_barrier");
    banner("Table 4: barrier micro-benchmark runtime "
           "(normalized to DirectoryCMP)",
           "arb0 and dst4 notably worse than DirectoryCMP (the "
           "paper bolds 1.40/1.29 and 1.15/1.01); other TokenCMP "
           "variants at or below 1.0");

    const std::vector<Protocol> protos = {
        Protocol::TokenArb0,     Protocol::TokenDst0,
        Protocol::DirectoryCMP,  Protocol::DirectoryCMPZero,
        Protocol::TokenDst4,     Protocol::TokenDst1,
        Protocol::TokenDst1Pred, Protocol::TokenDst1Filt};

    auto factory = [](Tick jitter) {
        return [jitter]() -> std::unique_ptr<Workload> {
            BarrierParams p;
            p.phases = 40;
            p.workTime = ns(3000);
            p.workJitter = jitter;
            return std::make_unique<BarrierWorkload>(p);
        };
    };

    double base_fixed = 0.0, base_var = 0.0;
    {
        const ExperimentResult f = runCell(
            Protocol::DirectoryCMP, factory(0), "baseline/fixed");
        const ExperimentResult v =
            runCell(Protocol::DirectoryCMP, factory(ns(1000)),
                    "baseline/jitter");
        base_fixed = f.runtime.mean();
        base_var = v.runtime.mean();
    }

    printHeaderRow({"3000ns", "3000±U(1000)"});
    for (Protocol proto : protos) {
        const ExperimentResult f =
            runCell(proto, factory(0),
                    protocolName(proto) + "/fixed");
        const ExperimentResult v =
            runCell(proto, factory(ns(1000)),
                    protocolName(proto) + "/jitter");
        if (!f.allCompleted || !v.allCompleted ||
            f.violations + v.violations != 0) {
            std::fprintf(stderr, "FAILED: %s\n",
                         protocolName(proto).c_str());
            return 1;
        }
        printRow(protocolName(proto),
                 {f.runtime.mean() / base_fixed,
                  v.runtime.mean() / base_var},
                 {f.runtime.errorBar() / base_fixed,
                  v.runtime.errorBar() / base_var});
    }
    return 0;
}
