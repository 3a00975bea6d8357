/**
 * @file
 * Ablation (DESIGN.md A1): the migratory-sharing optimization.
 *
 * Section 5 argues TokenCMP made migratory sharing nearly free to add
 * ("one additional state ... clearly correct, because they do not
 * affect the correctness substrate"). This harness quantifies what
 * the optimization is worth on the read-modify-write-heavy OLTP proxy
 * and on the locking micro-benchmark, for both protocol families.
 */

#include "bench_util.hh"
#include "workload/locking.hh"
#include "workload/synthetic.hh"

using namespace tokencmp;
using namespace tokencmp::bench;

namespace {

ExperimentResult
runWith(Protocol proto, bool migratory, const WorkloadFactory &factory,
        const std::string &wl_name)
{
    SystemConfig cfg;
    cfg.protocol = proto;
    cfg.token.migratory = migratory;
    cfg.dir.migratory = migratory;
    return runExperiment(cfg, factory,
                         protocolName(proto) + "/" +
                             wl_name +
                             (migratory ? "/migratory-on"
                                        : "/migratory-off"));
}

} // namespace

int
main(int argc, char **argv)
{
    tokencmp::bench::cli(argc, argv,
        "Ablation A1: the migratory-sharing optimization on/off across protocol families.");
    JsonReport report("ablation_migratory");
    banner("Ablation: migratory-sharing optimization on/off",
           "read-modify-write sharing (OLTP-like) slows "
           "substantially without it; pure locking is less "
           "sensitive (atomics already take all tokens)");

    const std::vector<Protocol> protos = {Protocol::DirectoryCMP,
                                          Protocol::TokenDst1};

    auto oltp = []() -> std::unique_ptr<Workload> {
        return std::make_unique<SyntheticWorkload>(oltpParams());
    };
    auto locking = []() -> std::unique_ptr<Workload> {
        LockingParams p;
        p.numLocks = 32;
        p.acquiresPerProc = 25;
        return std::make_unique<LockingWorkload>(p);
    };

    printHeaderRow({"on(ns)", "off(ns)", "off/on"});
    for (Protocol proto : protos) {
        for (const auto &[name, factory] :
             {std::pair<const char *,
                        std::function<std::unique_ptr<Workload>()>>{
                  "OLTP", oltp},
              {"locking", locking}}) {
            const ExperimentResult on =
                runWith(proto, true, factory, name);
            const ExperimentResult off =
                runWith(proto, false, factory, name);
            if (!on.allCompleted || !off.allCompleted) {
                std::fprintf(stderr, "FAILED: %s\n",
                             protocolName(proto).c_str());
                return 1;
            }
            printRow(protocolName(proto) + "/" + name,
                     {on.runtime.mean() / double(ticksPerNs),
                      off.runtime.mean() / double(ticksPerNs),
                      off.runtime.mean() / on.runtime.mean()},
                     {});
        }
    }
    return 0;
}
