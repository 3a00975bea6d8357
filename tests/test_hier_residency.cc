/**
 * @file
 * HierCMP residency-cap regressions at the system level.
 *
 *  - Cap goldens: full stat digests of the OLTP and SPECjbb proxies at
 *    residency caps far below the default. With the default 128 KB L1s
 *    a 500-op run rarely returns every token of a block, so the cap
 *    is exceeded but little is evicted; 8 KB L1s replace lines often
 *    enough for thousands of chip evictions, so the victim order
 *    shapes every statistic. The digest is the one perfbench prints
 *    (FNV-1a over the outcome and every non-kernel stat); the goldens
 *    were recorded with the residency queue that rescanned its whole
 *    deque on every over-cap fetch, so they pin its victim order.
 *  - Scan-cost guard: residency-queue visit counts on SPECjbb runs are
 *    bounded at a third of what the rescanning queue made, so a return
 *    of the per-fetch rescan fails here deterministically, with no
 *    wall-clock timing.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "hier/hier_shim.hh"
#include "test_util.hh"
#include "workload/synthetic.hh"

namespace tokencmp {
namespace {

using test::statDigest;

struct HierRun
{
    std::string digest;
    bool completed = false;
    std::uint64_t visits = 0;  //!< residency-queue visits, all shims
};

HierRun
runHier(SyntheticParams wl, unsigned ops_per_proc, unsigned cap,
        std::uint64_t l1_bytes = SystemConfig{}.l1Bytes)
{
    SystemConfig cfg;
    cfg.protocol = Protocol::HierCMP;
    cfg.seed = 1;
    cfg.hierResidencyCap = cap;
    cfg.l1Bytes = l1_bytes;
    wl.opsPerProc = ops_per_proc;
    System sys(cfg);
    SyntheticWorkload w(wl);
    w.reset();
    const System::RunResult r = sys.run(w);

    HierRun out;
    out.digest = statDigest(r);
    out.completed = r.completed && r.violations == 0;
    const Topology &t = cfg.topo;
    for (unsigned c = 0; c < t.numCmps; ++c) {
        for (unsigned b = 0; b < t.l2BanksPerCmp; ++b)
            out.visits += sys.controller<HierShim>(c, b)->residencyVisits();
    }
    return out;
}

struct Golden
{
    const char *workload;
    unsigned cap;
    std::uint64_t l1Bytes;
    const char *digest;
};

TEST(HierResidency, CapGoldensMatchRescanOrder)
{
    constexpr std::uint64_t dflt = SystemConfig{}.l1Bytes;
    constexpr std::uint64_t small = 8 * 1024;
    const Golden goldens[] = {
        {"OLTP", 16, dflt, "99c14bdbeb8587cf"},
        {"OLTP", 256, dflt, "99c14bdbeb8587cf"},
        {"SpecJBB", 16, dflt, "a668400cba70327b"},
        {"SpecJBB", 256, dflt, "a668400cba70327b"},
        {"OLTP", 16, small, "3c6b7d324464cd0a"},
        {"OLTP", 256, small, "1bb554c2076bb912"},
        {"SpecJBB", 16, small, "3d4dea04fee04cd9"},
        {"SpecJBB", 256, small, "0b5898ba2f893472"},
    };
    for (const Golden &g : goldens) {
        const SyntheticParams wl = std::string(g.workload) == "OLTP"
                                       ? oltpParams()
                                       : jbbParams();
        const HierRun r = runHier(wl, 500, g.cap, g.l1Bytes);
        EXPECT_TRUE(r.completed)
            << g.workload << " cap " << g.cap << " l1 " << g.l1Bytes;
        EXPECT_EQ(r.digest, g.digest)
            << g.workload << " cap " << g.cap << " l1 " << g.l1Bytes;
    }
}

TEST(HierResidency, QueueVisitsStayBounded)
{
    // The rescanning queue made 4,079,591 visits on the first run and
    // 4,585,426 on the second; each bound is under a third of that.
    // At 1000 ops the default cap of 1024 is never exceeded, hence
    // cap 256 there.
    const HierRun capped = runHier(jbbParams(), 1000, 256);
    EXPECT_TRUE(capped.completed);
    EXPECT_LE(capped.visits, 1350000u);
    const HierRun dflt = runHier(jbbParams(), 2000, 1024);
    EXPECT_TRUE(dflt.completed);
    EXPECT_LE(dflt.visits, 1500000u);
}

} // namespace
} // namespace tokencmp
