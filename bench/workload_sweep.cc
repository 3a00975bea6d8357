/**
 * @file
 * Workload characterization sweep: protocol x policy x workload over
 * the production-shaped generators the WorkloadRegistry provides
 * (zipf hot keys, oltp transaction mixes, producer/consumer hand-off,
 * phased bursts). Emits BENCH_workload_sweep.json with per-miss
 * traffic metrics per cell — the table check_regression.py gates.
 *
 * Expectation: skewed hot-key traffic is where adaptive destination
 * sets earn their keep. With zipf's hot blocks bouncing CMP-to-CMP,
 * the owner predictor is usually right, so `dst-owner`/`bw-adapt`
 * must beat broadcast `dst1` on inter-CMP bytes per miss (the exit
 * code enforces it); on the mostly-private synthetic mixes the gap
 * narrows, which is the point of sweeping workload shape at all.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "workload/workload_registry.hh"

using namespace tokencmp;
using namespace tokencmp::bench;

namespace {

/** One workload cell of the sweep: a registry name plus its knobs. */
struct WlSpec
{
    const char *name;
    WorkloadParams knobs;
};

std::vector<WlSpec>
sweepWorkloads()
{
    std::vector<WlSpec> out;

    WlSpec zipf{"zipf", {}};
    zipf.knobs.opsPerProc = 260;
    zipf.knobs.keys = 2048;
    zipf.knobs.theta = 0.95;   // hot: top key draws ~12% of accesses
    zipf.knobs.writeFrac = 0.15;
    out.push_back(zipf);

    WlSpec oltp{"oltp", {}};
    oltp.knobs.opsPerProc = 45;  // transactions (6 record ops each)
    oltp.knobs.keys = 4096;
    oltp.knobs.theta = 0.9;
    out.push_back(oltp);

    WlSpec prodcons{"prodcons", {}};
    prodcons.knobs.opsPerProc = 180;
    out.push_back(prodcons);

    WlSpec phased{"phased", {}};
    phased.knobs.inner = "oltp";
    phased.knobs.schedule = "1x4000,0.25x2000,0.25..1x2000";
    phased.knobs.opsPerProc = 35;
    phased.knobs.theta = 0.9;
    out.push_back(phased);

    return out;
}

struct CellMetrics
{
    double msgsPerMiss = 0.0;
    double interPerMiss = 0.0;
    double intraPerMiss = 0.0;
    double runtimeNs = 0.0;
};

CellMetrics
record(JsonReport &report, const std::string &wname,
       const ExperimentResult &e)
{
    CellMetrics m;
    const double misses = e.stats.at("l1.misses").mean();
    m.msgsPerMiss = e.stats.at("net.messages").mean() / misses;
    m.interPerMiss = e.interBytes.mean() / misses;
    m.intraPerMiss = e.intraBytes.mean() / misses;
    m.runtimeNs = e.runtime.mean() / double(ticksPerNs);
    std::printf("%-22s %10.3f %12.1f %12.1f %12.0f\n",
                e.protocol.c_str(), m.msgsPerMiss, m.interPerMiss,
                m.intraPerMiss, m.runtimeNs);
    report.addRaw(
        "{\"label\": " +
        json::quote("workload_sweep/" + wname + "/" + e.protocol) +
        ", \"msgsPerMiss\": " + json::number(m.msgsPerMiss) +
        ", \"interBytesPerMiss\": " + json::number(m.interPerMiss) +
        ", \"intraBytesPerMiss\": " + json::number(m.intraPerMiss) +
        ", \"runtimeNs\": " + json::number(m.runtimeNs) + "}");
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    tokencmp::bench::cli(argc, argv,
        "Workload characterization sweep: protocol x policy x workload generators.");
    JsonReport report("workload_sweep");
    banner("Workload sweep: protocol x policy x workload",
           "adaptive destination sets (dst-owner / bw-adapt) beat "
           "broadcast dst1 on inter-CMP bytes/miss under zipf hot-key "
           "traffic; the gap narrows on mostly-private mixes");

    // The directory baseline, the hierarchical family (directory
    // between CMPs, tokens within), then the token policies.
    const std::vector<std::string> protocols = {
        "directory", "hier",      "dst1",     "dst4",
        "dst1-pred", "dst-owner", "dst-group", "bw-adapt"};

    bool gate_ok = false;
    bool gate_seen = false;
    for (const WlSpec &spec : sweepWorkloads()) {
        std::printf("\n===== workload %s =====\n", spec.name);
        std::printf("%-22s %10s %12s %12s %12s\n", "config",
                    "msgs/miss", "interB/miss", "intraB/miss",
                    "runtime(ns)");

        SystemConfig cfg;
        cfg.workloadParams = spec.knobs;
        const std::vector<ExperimentResult> cells =
            Experiment::of(cfg)
                .seeds(seedsPerPoint())
                .parallelism(defaultParallelism())
                .workloads({spec.name})
                .policies(protocols)
                .runSweep();

        double dst1_inter = 0.0;
        double owner_inter = 0.0;
        double bw_inter = 0.0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const ExperimentResult &e = cells[i];
            if (!e.allCompleted) {
                std::fprintf(stderr, "FAILED: %s on %s\n",
                             protocols[i].c_str(), spec.name);
                return 1;
            }
            const CellMetrics m = record(report, spec.name, e);
            if (protocols[i] == "dst1")
                dst1_inter = m.interPerMiss;
            else if (protocols[i] == "dst-owner")
                owner_inter = m.interPerMiss;
            else if (protocols[i] == "bw-adapt")
                bw_inter = m.interPerMiss;
        }

        if (std::string(spec.name) == "zipf") {
            // The PR's headline claim, enforced: under hot-key skew at
            // least one adaptive policy out-narrows broadcast dst1.
            const double best =
                owner_inter < bw_inter ? owner_inter : bw_inter;
            gate_seen = true;
            gate_ok = best < dst1_inter;
            std::printf("\nzipf gate: best adaptive %.1f vs dst1 %.1f "
                        "inter bytes/miss -> %s\n",
                        best, dst1_inter, gate_ok ? "PASS" : "FAIL");
        }
    }

    return gate_seen && gate_ok ? 0 : 1;
}
