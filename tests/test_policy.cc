/**
 * @file
 * PerformancePolicy API tests: registry behavior (names, duplicate
 * registration, unknown-name diagnostics), protocol selection goldens
 * (each name's figure label and fixed-seed run digest), the
 * Experiment protocol-sweep axis, and the adaptive destination-set
 * policies (completion, token conservation, policy statistics,
 * determinism — serial and across sharded worker counts).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/policy.hh"
#include "test_util.hh"
#include "workload/synthetic.hh"

namespace tokencmp::test {

namespace {

SyntheticParams
smallWorkload()
{
    SyntheticParams wl = oltpParams();
    wl.opsPerProc = 60;  // keep the sweep fast
    return wl;
}

System::RunResult
runOnce(const SystemConfig &cfg)
{
    SystemConfig c = cfg;
    c.seed = 42;
    System sys(c);
    SyntheticWorkload wl(smallWorkload());
    wl.reset();
    return sys.run(wl);
}

void
expectIdenticalRuns(const System::RunResult &a,
                    const System::RunResult &b)
{
    ASSERT_TRUE(a.completed);
    ASSERT_TRUE(b.completed);
    EXPECT_EQ(a.runtime, b.runtime);
    EXPECT_EQ(a.violations, b.violations);
    ASSERT_EQ(a.stats.all().size(), b.stats.all().size());
    for (const auto &[k, v] : a.stats.all())
        EXPECT_EQ(v, b.stats.get(k)) << k;
}

} // namespace

TEST(PolicyRegistry, KnowsTable1RowsAndAdaptivePolicies)
{
    const std::vector<std::string> names =
        PolicyRegistry::instance().names();
    for (const char *expect : {"arb0", "dst0", "dst4", "dst1",
                               "dst1-pred", "dst1-filt", "dst-owner",
                               "bw-adapt"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expect),
                  names.end())
            << expect << " is not registered";
    }
    EXPECT_TRUE(PolicyRegistry::instance().known("dst1"));
    EXPECT_FALSE(PolicyRegistry::instance().known("no-such-policy"));
}

TEST(PolicyRegistry, DuplicateRegistrationDies)
{
    auto factory = [](const PolicyEnv &) {
        return std::unique_ptr<PerformancePolicy>();
    };
    EXPECT_DEATH(
        PolicyRegistry::instance().registerPolicy("dst1", factory),
        "registered twice");
}

TEST(PolicyRegistry, UnknownNameListsRegisteredProtocols)
{
    SystemConfig cfg;
    cfg.protocol = "no-such-policy";
    // The diagnostic must name the typo and list every registered
    // protocol name: the families and every policy.
    std::string listing = "unknown protocol 'no-such-policy'";
    for (const std::string &name : ProtocolRegistry::instance().names())
        listing += ".*" + name;
    EXPECT_DEATH(System sys(cfg), listing);
    EXPECT_DEATH(cfg.finalize(), listing);
}

TEST(ProtocolSelection, NamesMatchGoldenLabelsAndRuns)
{
    // One name selects a whole protocol. Each row pins the name's
    // figure label and the stat digest of a short fixed-seed run,
    // recorded while a run was still selected by an enum value plus
    // an optional policy name: the name must select the same run.
    struct Golden
    {
        const char *name;
        const char *label;
        const char *digest;
    };
    const Golden goldens[] = {
        {Protocol::DirectoryCMP, "DirectoryCMP", "91334a712512bbcd"},
        {Protocol::DirectoryCMPZero, "DirectoryCMP-zero",
         "b48610985779bd00"},
        {Protocol::TokenArb0, "TokenCMP-arb0", "247c29c6623d6a2b"},
        {Protocol::TokenDst0, "TokenCMP-dst0", "968b4ea1ea0b0c67"},
        {Protocol::TokenDst4, "TokenCMP-dst4", "2aa456ea12821f3c"},
        {Protocol::TokenDst1, "TokenCMP-dst1", "914b4d34d888186d"},
        {Protocol::TokenDst1Pred, "TokenCMP-dst1-pred",
         "a4329a4dcc64d8f8"},
        {Protocol::TokenDst1Filt, "TokenCMP-dst1-filt",
         "629e22b45d10d460"},
        {Protocol::PerfectL2, "PerfectL2", "c1d1622b6f8e2baa"},
        {Protocol::HierCMP, "HierCMP", "bea1d010a9305627"},
        {"dst-owner", "TokenCMP-dst-owner", "72252d34b123c4d6"},
        {"dst-group", "TokenCMP-dst-group", "bfe90908f14f9c76"},
        {"bw-adapt", "TokenCMP-bw-adapt", "72c41cf4fa80f6b3"},
    };
    for (const Golden &g : goldens) {
        SCOPED_TRACE(g.name);
        EXPECT_EQ(protocolName(g.name), g.label);
        SystemConfig cfg;
        cfg.protocol = g.name;
        EXPECT_EQ(statDigest(runOnce(cfg)), g.digest);
    }
}

TEST(PolicySweep, RunSweepLabelsOneResultPerPolicy)
{
    // The axis takes any protocol name and replaces the base config's
    // protocol; parallel seeds resolve the names concurrently.
    SystemConfig cfg;
    cfg.protocol = Protocol::DirectoryCMP;
    SyntheticParams wl = smallWorkload();
    const std::vector<ExperimentResult> results =
        Experiment::of(cfg)
            .workload([&wl]() -> std::unique_ptr<Workload> {
                return std::make_unique<SyntheticWorkload>(wl);
            })
            .seeds(2)
            .parallelism(2)
            .policies({"dst1", "dst-owner", "hier"})
            .runSweep();
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].protocol, "TokenCMP-dst1");
    EXPECT_EQ(results[1].protocol, "TokenCMP-dst-owner");
    EXPECT_EQ(results[2].protocol, "HierCMP");
    for (const ExperimentResult &r : results)
        EXPECT_TRUE(r.allCompleted) << r.protocol;
    // The narrowing policy must not inflate runtime pathologically
    // (loose 2x bound; the traffic benefit is gated in bench CI).
    EXPECT_LT(results[1].runtime.mean(),
              2.0 * results[0].runtime.mean());
}

TEST(PolicySweep, RunDiagnosesPendingSweep)
{
    SystemConfig cfg;
    cfg.protocol = Protocol::TokenDst1;
    SyntheticParams wl = smallWorkload();
    auto runner = Experiment::of(cfg)
                      .workload([&wl]() -> std::unique_ptr<Workload> {
                          return std::make_unique<SyntheticWorkload>(wl);
                      })
                      .policies({"dst1"});
    EXPECT_DEATH(runner.run(), "runSweep");
}

TEST(AdaptivePolicies, CompleteQuiesceAndExportStats)
{
    for (const char *name : {"dst-owner", "bw-adapt"}) {
        SCOPED_TRACE(name);
        SystemConfig cfg;
        cfg.protocol = name;
        // runOnce runs verifyQuiescent(fatal) internally on
        // completion, so token conservation is checked too.
        const System::RunResult r = runOnce(cfg);
        ASSERT_TRUE(r.completed);
        EXPECT_EQ(r.violations, 0u);
        EXPECT_TRUE(r.stats.has("policy.narrowedEscalations"));
        EXPECT_TRUE(r.stats.has("policy.broadcastEscalations"));
        // The owner predictor must actually narrow something on a
        // migratory workload.
        if (std::string(name) == "dst-owner") {
            EXPECT_GT(r.stats.get("policy.narrowedEscalations"), 0.0);
        }
    }
}

TEST(AdaptivePolicies, PersistentActivationsTrainThePredictor)
{
    // Pins the persistent-broadcast training path. Old behavior
    // (first three expectations): only relayed transient externals
    // trained the owner predictor, so a requester whose narrowed
    // retries all missed — and which therefore escalated straight to
    // a persistent request — stayed invisible, and the next
    // escalation for its block remained a full broadcast. New
    // behavior: a fresh remote activation trains the predictor with
    // the same read/write strengths as the transient signal.
    SystemConfig cfg;
    cfg.protocol = Protocol::TokenDst1;
    cfg.finalize();
    System sys(cfg);
    const Topology &topo = sys.context().topo;

    PolicyEnv env;
    env.self = topo.l2(0, 0);
    env.topo = topo;
    env.params = &sys.config().token;
    env.ctx = &sys.context();
    auto pol = PolicyRegistry::instance().factory("dst-owner")(env);

    Addr addr = 0;
    while (topo.homeCmpOf(addr) != 3)
        addr += blockBytes;

    // Untrained: the escalation is the full 3-CMP broadcast.
    std::vector<MachineID> out;
    pol->destinationSet(addr, DestKind::L2Escalate, false, 1, out);
    EXPECT_EQ(out.size(), 3u);

    // A persistent *read* activation trains at strength 1 — below
    // confidence, exactly like a relayed transient read.
    pol->onPersistentActivate(addr, topo.l1d(2, 1), true);
    out.clear();
    pol->destinationSet(addr, DestKind::L2Escalate, false, 1, out);
    EXPECT_EQ(out.size(), 3u);

    // A persistent *write* activation saturates confidence: the next
    // read escalation narrows to {predicted holder, home path}.
    pol->onPersistentActivate(addr, topo.l1d(2, 1), false);
    out.clear();
    pol->destinationSet(addr, DestKind::L2Escalate, false, 1, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_TRUE(out[0] == topo.l2BankFor(2, addr));
    EXPECT_TRUE(out[1] == topo.l2BankFor(3, addr));

    // Writes must still broadcast no matter how confident.
    out.clear();
    pol->destinationSet(addr, DestKind::L2Escalate, true, 1, out);
    EXPECT_EQ(out.size(), 3u);

    StatSet stats;
    pol->exportStats(stats);
    EXPECT_EQ(stats.get("policy.persistentTrainings"), 2.0);
}

TEST(AdaptivePolicies, FixedSeedRunsReproduce)
{
    for (const char *name : {"dst-owner", "bw-adapt"}) {
        SCOPED_TRACE(name);
        SystemConfig cfg;
        cfg.protocol = name;
        expectIdenticalRuns(runOnce(cfg), runOnce(cfg));
    }
}

TEST(AdaptivePolicies, ShardedRunsAreWorkerCountInvariant)
{
    // The adaptive policies keep per-instance state and probe only
    // their own domain's links, so the sharded kernel's contract —
    // bit-identical results for any worker count over a fixed shard
    // map — must survive them.
    for (const char *name : {"dst-owner", "bw-adapt"}) {
        SCOPED_TRACE(name);
        System::RunResult runs[2];
        unsigned i = 0;
        for (unsigned workers : {1u, 4u}) {
            SystemConfig cfg;
            cfg.protocol = name;
            cfg.shards = workers;
            runs[i++] = runOnce(cfg);
        }
        expectIdenticalRuns(runs[0], runs[1]);
    }
}

} // namespace tokencmp::test
