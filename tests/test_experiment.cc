/**
 * @file
 * Tests for the pluggable protocol registry and the parallel
 * ExperimentRunner: registry coverage of the paper's protocol names,
 * typed controller lookup equivalence with the old white-box
 * accessors, bit-identical parallel vs serial execution, progress
 * callbacks, scheduler-backend equivalence, and JSON export.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "test_util.hh"
#include "workload/locking.hh"

namespace tokencmp::test {

namespace {

WorkloadFactory
smallLockingFactory()
{
    return []() -> std::unique_ptr<Workload> {
        LockingParams p;
        p.numLocks = 8;
        p.acquiresPerProc = 4;
        return std::make_unique<LockingWorkload>(p);
    };
}

} // namespace

TEST(ProtocolRegistry, CoversAllNineProtocols)
{
    // Every paper configuration and every performance policy is a
    // protocol name, and nothing else is.
    const ProtocolRegistry &reg = ProtocolRegistry::instance();
    for (const std::string &p : kPaperProtocols)
        EXPECT_TRUE(reg.known(p)) << p;
    const std::vector<std::string> names = reg.names();
    const std::vector<std::string> policies =
        PolicyRegistry::instance().names();
    for (const std::string &p : policies)
        EXPECT_TRUE(reg.known(p)) << p;
    // The four non-token families add their own names.
    EXPECT_EQ(names.size(), policies.size() + 4);
    EXPECT_FALSE(reg.known("no-such-protocol"));
}

TEST(ProtocolRegistry, NamesStayUnambiguous)
{
    EXPECT_DEATH(ProtocolRegistry::instance().registerFamily(
                     Protocol::DirectoryCMP, ProtocolEntry{}),
                 "registered twice");
    // A policy registered under a family's name could select either.
    EXPECT_DEATH(
        {
            PolicyRegistry::instance().registerPolicy(
                Protocol::HierCMP, [](const PolicyEnv &env) {
                    return makeTable1Policy(token_variants::dst1(), env);
                });
            ProtocolRegistry::instance().resolve(Protocol::HierCMP);
        },
        "both a family and a performance policy");
}

TEST(ProtocolRegistry, TypedLookupMatchesOldAccessors)
{
    // The registry-built System must expose exactly the controllers
    // the old buildToken/buildDirectory/buildPerfect switches and
    // white-box accessors did, at the same topological positions.
    for (const std::string &p : kPaperProtocols) {
        SystemConfig cfg;
        cfg.protocol = p;
        System sys(cfg);
        const Topology &t = sys.context().topo;
        SCOPED_TRACE(p);

        const bool dir = p == Protocol::DirectoryCMP ||
                         p == Protocol::DirectoryCMPZero;
        const bool perfect = p == Protocol::PerfectL2;
        // Hier L1s are TokenL1 subclasses and the hier home is a
        // DirMem subclass, so those typed lookups resolve for hier
        // too; the shim is neither a TokenL2 nor a DirL2.
        const bool hier = p == Protocol::HierCMP;
        const bool token = !dir && !perfect && !hier;

        for (unsigned c = 0; c < t.numCmps; ++c) {
            for (unsigned pr = 0; pr < t.procsPerCmp; ++pr) {
                TokenL1 *tl1 = sys.controller<TokenL1>(c, pr);
                DirL1 *dl1 = sys.controller<DirL1>(c, pr);
                PerfectL1 *pl1 = sys.controller<PerfectL1>(c, pr);
                EXPECT_EQ(tl1 != nullptr, token || hier);
                EXPECT_EQ(dl1 != nullptr, dir);
                EXPECT_EQ(pl1 != nullptr, perfect);
                // Exactly one family serves each position.
                Controller *any = sys.controllerAt(t.l1d(c, pr));
                ASSERT_NE(any, nullptr);
                EXPECT_TRUE(any->id() == t.l1d(c, pr));
                // The icache twin is distinct.
                Controller *ic = sys.controllerAt(t.l1i(c, pr));
                ASSERT_NE(ic, nullptr);
                EXPECT_NE(any, ic);
                if (token || hier) {
                    EXPECT_EQ(static_cast<Controller *>(tl1), any);
                    EXPECT_EQ(sys.controller<TokenL1>(c, pr, true),
                              static_cast<Controller *>(ic));
                }
            }
            for (unsigned b = 0; b < t.l2BanksPerCmp; ++b) {
                EXPECT_EQ(sys.controller<TokenL2>(c, b) != nullptr,
                          token);
                EXPECT_EQ(sys.controller<DirL2>(c, b) != nullptr, dir);
            }
            EXPECT_EQ(sys.controller<TokenMem>(c) != nullptr, token);
            EXPECT_EQ(sys.controller<DirMem>(c) != nullptr,
                      dir || hier);
            EXPECT_EQ(sys.controller<HierShim>(c, 0) != nullptr, hier);
            // PerfectL2 builds no L2/Mem controllers at all.
            if (perfect) {
                EXPECT_EQ(sys.controllerAt(t.l2(c, 0)), nullptr);
                EXPECT_EQ(sys.controllerAt(t.mem(c)), nullptr);
            }
        }
    }
}

TEST(ExperimentRunner, ParallelBitIdenticalToSerial)
{
    SystemConfig cfg;
    cfg.protocol = Protocol::TokenDst1;
    const unsigned kSeeds = 6;

    auto serial = Experiment::of(cfg)
                      .workload(smallLockingFactory())
                      .seeds(kSeeds)
                      .parallelism(1)
                      .run();
    auto parallel = Experiment::of(cfg)
                        .workload(smallLockingFactory())
                        .seeds(kSeeds)
                        .parallelism(4)
                        .run();

    ASSERT_TRUE(serial.allCompleted);
    ASSERT_TRUE(parallel.allCompleted);
    ASSERT_EQ(serial.perSeed.size(), kSeeds);
    ASSERT_EQ(parallel.perSeed.size(), kSeeds);

    for (unsigned i = 0; i < kSeeds; ++i) {
        const auto &a = serial.perSeed[i];
        const auto &b = parallel.perSeed[i];
        EXPECT_EQ(a.runtime, b.runtime) << "seed " << i + 1;
        EXPECT_EQ(a.violations, b.violations) << "seed " << i + 1;
        // Full per-seed stat maps must match bit for bit.
        ASSERT_EQ(a.stats.all().size(), b.stats.all().size());
        for (const auto &[k, v] : a.stats.all())
            EXPECT_EQ(v, b.stats.get(k)) << "seed " << i + 1 << " "
                                         << k;
    }
    EXPECT_EQ(serial.runtime.mean(), parallel.runtime.mean());
    EXPECT_EQ(serial.runtime.errorBar(), parallel.runtime.errorBar());
    EXPECT_EQ(serial.interBytes.samples(),
              parallel.interBytes.samples());
    EXPECT_EQ(serial.intraBytes.samples(),
              parallel.intraBytes.samples());
}

TEST(ExperimentRunner, ProgressCallbackFiresOncePerSeed)
{
    SystemConfig cfg;
    cfg.protocol = Protocol::TokenDst1;
    std::set<std::uint64_t> seen;
    unsigned calls = 0, max_done = 0;
    auto e = Experiment::of(cfg)
                 .workload(smallLockingFactory())
                 .seeds(5)
                 .parallelism(3)
                 .onSeedDone([&](const SeedProgress &p) {
                     // Serialized by the runner's mutex.
                     ++calls;
                     seen.insert(p.seedValue);
                     max_done = std::max(max_done, p.seedsDone);
                     EXPECT_EQ(p.seedsTotal, 5u);
                     EXPECT_TRUE(p.completed);
                 })
                 .run();
    ASSERT_TRUE(e.allCompleted);
    EXPECT_EQ(calls, 5u);
    EXPECT_EQ(seen.size(), 5u);
    EXPECT_EQ(max_done, 5u);
    EXPECT_EQ(*seen.begin(), 1u);
    EXPECT_EQ(*seen.rbegin(), 5u);
}

TEST(ExperimentRunner, FirstSeedOffsetsSeedValues)
{
    SystemConfig cfg;
    cfg.protocol = Protocol::DirectoryCMP;
    std::set<std::uint64_t> seen;
    auto e = Experiment::of(cfg)
                 .workload(smallLockingFactory())
                 .seeds(2)
                 .firstSeed(7)
                 .onSeedDone([&](const SeedProgress &p) {
                     seen.insert(p.seedValue);
                 })
                 .run();
    ASSERT_TRUE(e.allCompleted);
    EXPECT_EQ(seen, (std::set<std::uint64_t>{7, 8}));
}

TEST(ExperimentRunner, TimingWheelMatchesReferenceHeap)
{
    // The timing-wheel kernel must be observationally identical to the
    // reference binary heap: same (tick, seq) execution order, so the
    // whole multi-seed experiment aggregates bit for bit.
    SystemConfig wheel_cfg;
    wheel_cfg.protocol = Protocol::TokenDst1;
    wheel_cfg.scheduler = SchedulerKind::TimingWheel;
    SystemConfig heap_cfg = wheel_cfg;
    heap_cfg.scheduler = SchedulerKind::ReferenceHeap;

    auto wheel = Experiment::of(wheel_cfg)
                     .workload(smallLockingFactory())
                     .seeds(3)
                     .run();
    auto heap = Experiment::of(heap_cfg)
                    .workload(smallLockingFactory())
                    .seeds(3)
                    .run();
    ASSERT_TRUE(wheel.allCompleted);
    ASSERT_TRUE(heap.allCompleted);
    EXPECT_EQ(wheel.runtime.samples(), heap.runtime.samples());
    ASSERT_EQ(wheel.perSeed.size(), heap.perSeed.size());
    for (unsigned i = 0; i < wheel.perSeed.size(); ++i) {
        const auto &a = wheel.perSeed[i];
        const auto &b = heap.perSeed[i];
        ASSERT_EQ(a.stats.all().size(), b.stats.all().size());
        for (const auto &[k, v] : a.stats.all())
            EXPECT_EQ(v, b.stats.get(k)) << "seed " << i + 1 << " " << k;
    }
}

TEST(ExperimentResult, JsonExportIsWellFormed)
{
    SystemConfig cfg;
    cfg.protocol = Protocol::TokenDst1;
    auto e = Experiment::of(cfg)
                 .workload(smallLockingFactory())
                 .seeds(2)
                 .run();
    const std::string json = e.toJson("cell-label");
    EXPECT_NE(json.find("\"label\": \"cell-label\""),
              std::string::npos);
    EXPECT_NE(json.find("\"protocol\": \"TokenCMP-dst1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"workload\": \"locking\""),
              std::string::npos);
    EXPECT_NE(json.find("\"seeds\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"seedsCompleted\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"runtime\": {\"mean\": "),
              std::string::npos);
    EXPECT_NE(json.find("\"l1.misses\""), std::string::npos);
    // Balanced braces and brackets (no nested strings contain any).
    long depth = 0;
    for (char c : json) {
        if (c == '{' || c == '[')
            ++depth;
        if (c == '}' || c == ']')
            --depth;
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(ExperimentResult, KnobOverridesDisambiguateProtocolLabels)
{
    // Two runs of the same policy under different tuning knobs used
    // to produce colliding labels; the knob-override hash suffix
    // keeps them distinct (and default-knob labels unchanged, so
    // existing baselines still match).
    SystemConfig cfg;
    cfg.protocol = Protocol::TokenDst1;
    auto plain = Experiment::of(cfg)
                     .workload(smallLockingFactory())
                     .run();
    EXPECT_EQ(plain.protocol, "TokenCMP-dst1");
    EXPECT_EQ(plain.knobHash, "");

    cfg.token.cmpPredEntries = 64;
    auto tuned = Experiment::of(cfg)
                     .workload(smallLockingFactory())
                     .run();
    EXPECT_EQ(tuned.knobHash.size(), 8u);
    EXPECT_EQ(tuned.protocol, "TokenCMP-dst1@" + tuned.knobHash);
    EXPECT_NE(tuned.toJson().find("\"knobHash\": \"" + tuned.knobHash),
              std::string::npos);
}

TEST(ExperimentRunner, IncompleteSeedsAreReported)
{
    SystemConfig cfg;
    cfg.protocol = Protocol::TokenDst1;
    // A horizon far too short for the workload to finish.
    auto e = Experiment::of(cfg)
                 .workload(smallLockingFactory())
                 .seeds(2)
                 .horizon(ns(10))
                 .run();
    EXPECT_FALSE(e.allCompleted);
    EXPECT_EQ(e.perSeed.size(), 0u);
    EXPECT_EQ(e.runtime.count(), 0u);
    // The export still records how many seeds were attempted.
    EXPECT_EQ(e.seedsRequested, 2u);
    EXPECT_NE(e.toJson().find("\"seeds\": 2"), std::string::npos);
    EXPECT_NE(e.toJson().find("\"seedsCompleted\": 0"),
              std::string::npos);
}

} // namespace tokencmp::test
