/**
 * @file
 * System-level unit tests: protocol naming, construction of all ten
 * paper targets, statistics harvesting, and the multi-seed
 * experiment runner.
 */

#include <gtest/gtest.h>

#include "test_util.hh"
#include "workload/locking.hh"
#include "workload/synthetic.hh"

namespace tokencmp::test {

TEST(SystemConfig, ProtocolNamesMatchPaper)
{
    EXPECT_EQ(protocolName(Protocol::TokenDst1), "TokenCMP-dst1");
    EXPECT_EQ(protocolName(Protocol::TokenDst1Filt),
              "TokenCMP-dst1-filt");
    EXPECT_EQ(protocolName(Protocol::DirectoryCMPZero),
              "DirectoryCMP-zero");
    EXPECT_EQ(protocolName(Protocol::HierCMP), "HierCMP");
    // PerfectL2's magic L2 bypasses the network; every other paper
    // configuration runs on the sharded kernel too.
    for (const std::string &name : kPaperProtocols) {
        EXPECT_EQ(ProtocolRegistry::instance().resolve(name).shardable,
                  name != Protocol::PerfectL2)
            << name;
    }
}

TEST(System, BuildsAllNineProtocols)
{
    for (const std::string &p : kPaperProtocols) {
        SystemConfig cfg;
        cfg.protocol = p;
        System sys(cfg);
        // Every processor must be able to complete a basic op.
        EXPECT_EQ(runLoad(sys, 0, 0x1000), 0u) << protocolName(p);
        EXPECT_EQ(runLoad(sys, 15, 0x1000), 0u) << protocolName(p);
    }
}

TEST(System, ControllerAccessorsMatchProtocol)
{
    SystemConfig tok;
    tok.protocol = Protocol::TokenDst1;
    System ts(tok);
    EXPECT_NE(ts.controller<TokenL1>(0, 0), nullptr);
    EXPECT_NE(ts.controller<TokenL1>(3, 3, true), nullptr);
    EXPECT_NE(ts.controller<TokenL2>(2, 1), nullptr);
    EXPECT_NE(ts.controller<TokenMem>(1), nullptr);
    EXPECT_EQ(ts.controller<DirL1>(0, 0), nullptr);

    SystemConfig dir;
    dir.protocol = Protocol::DirectoryCMP;
    System ds(dir);
    EXPECT_NE(ds.controller<DirL1>(0, 0), nullptr);
    EXPECT_NE(ds.controller<DirL2>(1, 2), nullptr);
    EXPECT_NE(ds.controller<DirMem>(3), nullptr);
    EXPECT_EQ(ds.controller<TokenL1>(0, 0), nullptr);
}

TEST(System, HarvestedStatsArePopulated)
{
    SystemConfig cfg;
    cfg.protocol = Protocol::TokenDst1;
    System sys(cfg);
    LockingParams p;
    p.numLocks = 8;
    p.acquiresPerProc = 5;
    LockingWorkload wl(p);
    auto res = sys.run(wl);
    ASSERT_TRUE(res.completed);
    EXPECT_GT(res.stats.get("l1.misses"), 0.0);
    EXPECT_GT(res.stats.get("l1.hits"), 0.0);
    EXPECT_GT(res.stats.get("token.transients"), 0.0);
    EXPECT_GT(res.stats.get("traffic.intra.total"), 0.0);
    EXPECT_GT(res.stats.get("traffic.inter.total"), 0.0);
    EXPECT_GT(res.stats.get("net.messages"), 0.0);
}

TEST(System, SeedsPerturbButReproduce)
{
    auto run_with_seed = [](std::uint64_t seed) {
        SystemConfig cfg;
        cfg.protocol = Protocol::TokenDst1;
        cfg.seed = seed;
        System sys(cfg);
        LockingParams p;
        p.numLocks = 4;
        p.acquiresPerProc = 8;
        LockingWorkload wl(p);
        return sys.run(wl).runtime;
    };
    const Tick a1 = run_with_seed(1);
    const Tick a2 = run_with_seed(1);
    const Tick b = run_with_seed(2);
    EXPECT_EQ(a1, a2) << "same seed must reproduce exactly";
    EXPECT_NE(a1, b) << "different seeds must perturb";
}

TEST(System, ExperimentComputesErrorBars)
{
    SystemConfig cfg;
    cfg.protocol = Protocol::DirectoryCMP;
    LockingParams p;
    p.numLocks = 16;
    p.acquiresPerProc = 5;
    ExperimentResult e =
        Experiment::of(cfg)
            .workload([&]() -> std::unique_ptr<Workload> {
                return std::make_unique<LockingWorkload>(p);
            })
            .seeds(4)
            .run();
    ASSERT_TRUE(e.allCompleted);
    EXPECT_EQ(e.runtime.count(), 4u);
    EXPECT_GT(e.runtime.mean(), 0.0);
    EXPECT_GT(e.runtime.errorBar(), 0.0);
    EXPECT_GT(e.interBytes.mean(), 0.0);
    EXPECT_EQ(e.perSeed.size(), 4u);
    EXPECT_EQ(e.protocol, "DirectoryCMP");
    EXPECT_EQ(e.workload, "locking");
}

TEST(System, Figure6RunIsKernelInvariant)
{
    // Determinism regression for the kernel overhaul: a fixed-seed
    // Figure 6 style run (synthetic commercial workload) must produce
    // identical aggregate stats under the timing-wheel kernel and the
    // reference-heap oracle, for both protocol families.
    SyntheticParams wl = oltpParams();
    wl.opsPerProc = 120;  // keep the regression fast

    for (Protocol proto :
         {Protocol::TokenDst1, Protocol::DirectoryCMP}) {
        SCOPED_TRACE(protocolName(proto));
        System::RunResult results[2];
        unsigned i = 0;
        for (SchedulerKind kind : {SchedulerKind::TimingWheel,
                                   SchedulerKind::ReferenceHeap}) {
            SystemConfig cfg;
            cfg.protocol = proto;
            cfg.scheduler = kind;
            cfg.seed = 12345;
            System sys(cfg);
            SyntheticWorkload work(wl);
            work.reset();
            results[i++] = sys.run(work);
        }
        ASSERT_TRUE(results[0].completed);
        ASSERT_TRUE(results[1].completed);
        EXPECT_EQ(results[0].runtime, results[1].runtime);
        EXPECT_EQ(results[0].violations, results[1].violations);
        ASSERT_EQ(results[0].stats.all().size(),
                  results[1].stats.all().size());
        for (const auto &[k, v] : results[0].stats.all())
            EXPECT_EQ(v, results[1].stats.get(k)) << k;
    }
}

TEST(System, MeasureStartExcludesWarmup)
{
    SystemConfig cfg;
    cfg.protocol = Protocol::DirectoryCMP;
    LockingParams warm, cold;
    warm.numLocks = 64;
    warm.acquiresPerProc = 5;
    warm.warmup = true;
    cold = warm;
    cold.warmup = false;

    System s1(cfg), s2(cfg);
    LockingWorkload w1(warm), w2(cold);
    auto r1 = s1.run(w1);
    auto r2 = s2.run(w2);
    ASSERT_TRUE(r1.completed && r2.completed);
    EXPECT_GT(w1.measureStart(), 0u);
    EXPECT_EQ(w2.measureStart(), 0u);
}

} // namespace tokencmp::test
