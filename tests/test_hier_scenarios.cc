/**
 * @file
 * Focused hier-family scenario tests: chip-level exclusive grants and
 * migratory handoffs, owner demotion, the external-invalidation vs
 * local-persistent-request race window, upgrade-loses-data, residency
 * writebacks, and shard invariance of the whole race under the
 * sharded kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <vector>

#include "test_util.hh"

namespace tokencmp::test {

namespace {

SystemConfig
hierCfg()
{
    SystemConfig cfg;
    cfg.protocol = Protocol::HierCMP;
    cfg.seed = 11;
    return cfg;
}

/** Sum a shim stat over all banks of one CMP. */
template <typename F>
std::uint64_t
sumShims(System &sys, unsigned cmp, F field)
{
    std::uint64_t n = 0;
    for (unsigned b = 0; b < sys.context().topo.l2BanksPerCmp; ++b)
        n += field(sys.controller<HierShim>(cmp, b)->stats);
    return n;
}

} // namespace

TEST(HierScenario, UncachedReadGetsExclusiveChip)
{
    // An uncached read gets the directory's E-grant: the chip lands in
    // M and the shim serves all T intra tokens, so read-then-write
    // costs a single home fetch.
    System sys(hierCfg());
    EXPECT_EQ(runLoad(sys, 0, 0x1000), 0u);
    drain(sys);
    const unsigned bank = sys.context().topo.l2BankOf(0x1000);
    HierShim *shim = sys.controller<HierShim>(0, bank);
    ASSERT_NE(shim, nullptr);
    EXPECT_EQ(shim->peekChip(0x1000), ChipState::M);
    // All tokens (incl. owner) went to the demand L1.
    const TokenSt *line = sys.controller<TokenL1>(0, 0)->peek(0x1000);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->tokens, sys.config().token.totalTokens);
    EXPECT_TRUE(line->owner);
    Tick lat = 0;
    runStore(sys, 0, 0x1000, 7, &lat);
    EXPECT_EQ(lat, ns(2));  // write hits locally
    drain(sys);
    sys.verifyQuiescent();
}

TEST(HierScenario, MigratoryHandoffThenOwnerDemotion)
{
    // Writer chip -> first remote reader: migratory full handoff
    // (chip M moves, old chip drops to I with all tokens home at its
    // shim). Second remote reader: plain demotion to O + S, with the
    // anchor invariant visible at both shims.
    System sys(hierCfg());
    runStore(sys, 0, 0x2000, 5);
    drain(sys);
    EXPECT_EQ(runLoad(sys, 4, 0x2000), 5u);  // proc 4 = CMP 1
    drain(sys);
    const unsigned bank = sys.context().topo.l2BankOf(0x2000);
    HierShim *s0 = sys.controller<HierShim>(0, bank);
    HierShim *s1 = sys.controller<HierShim>(1, bank);
    HierShim *s2 = sys.controller<HierShim>(2, bank);
    EXPECT_EQ(s0->peekChip(0x2000), ChipState::I);
    // chip I => the shim holds the CMP's whole token space again.
    EXPECT_EQ(s0->tokensHeld(0x2000),
              int(sys.config().token.totalTokens));
    EXPECT_TRUE(s0->ownerHeld(0x2000));
    EXPECT_EQ(s1->peekChip(0x2000), ChipState::M);
    EXPECT_EQ(sumShims(sys, 0,
                       [](const HierShim::Stats &st) {
                           return st.migratoryChip;
                       }),
              1u);

    EXPECT_EQ(runLoad(sys, 8, 0x2000), 5u);  // proc 8 = CMP 2
    drain(sys);
    // No local store on CMP 1, so this handoff is non-migratory.
    EXPECT_EQ(s1->peekChip(0x2000), ChipState::O);
    EXPECT_TRUE(s1->ownerHeld(0x2000));  // anchor: owner stays below M
    EXPECT_EQ(s2->peekChip(0x2000), ChipState::S);
    EXPECT_TRUE(s2->ownerHeld(0x2000));
    // Both sharers re-read without leaving the chip.
    Tick lat = 0;
    EXPECT_EQ(runLoad(sys, 4, 0x2000, &lat), 5u);
    EXPECT_EQ(lat, ns(2));
    EXPECT_EQ(runLoad(sys, 9, 0x2000), 5u);
    drain(sys);
    sys.verifyQuiescent();
}

TEST(HierScenario, UpgradeRacesRemoteWriter)
{
    // Owner-upgrade vs remote GetX: the home serializes; the loser's
    // Fwd-GetX clears a pending upgrade's preset data (the
    // upgrade-loses-data window), and the home answers the demoted
    // GetX with a full DataEx. Both stores must complete and every
    // chip must agree on the final value.
    System sys(hierCfg());
    runStore(sys, 0, 0x3000, 1);
    drain(sys);
    runLoad(sys, 4, 0x3000);  // migratory: CMP 1 takes chip M
    drain(sys);
    runLoad(sys, 8, 0x3000);  // demote: CMP 1 O, CMP 2 S
    drain(sys);

    std::atomic<std::uint32_t> done{0};
    sys.sequencer(4).store(0x3000, 100,
                           [&](const MemResult &) { ++done; });
    sys.sequencer(8).store(0x3000, 200,
                           [&](const MemResult &) { ++done; });
    sys.context().eventq.runUntil(done, 2);
    drain(sys);

    const std::uint64_t v = runLoad(sys, 0, 0x3000);
    EXPECT_TRUE(v == 100u || v == 200u) << v;
    EXPECT_EQ(runLoad(sys, 7, 0x3000), v);
    EXPECT_EQ(runLoad(sys, 12, 0x3000), v);
    // The owner chip really went through the upgrade path.
    EXPECT_GT(sumShims(sys, 1,
                       [](const HierShim::Stats &st) {
                           return st.fetchUpgrades;
                       }),
              0u);
    drain(sys);
    sys.verifyQuiescent();
}

TEST(HierScenario, ResidencyCapForcesChipWritebacks)
{
    // A tiny residency cap makes the shim run three-phase writebacks;
    // dirty values must survive the round trip through the home. The
    // cap only bites once the CMP's tokens are home at the shim, so a
    // small L1 forces the tokens back up first (same-set conflicts).
    SystemConfig cfg = hierCfg();
    cfg.hierResidencyCap = 2;
    cfg.l1Bytes = 1024;
    System sys(cfg);
    const Addr base = 4 * blockBytes;
    const Addr stride = 4 * 4 * 8192 * blockBytes;  // same set + bank
    for (unsigned i = 0; i < 6; ++i)
        runStore(sys, 0, base + Addr(i) * stride, 50 + i);
    drain(sys);
    EXPECT_GT(sumShims(sys, 0,
                       [](const HierShim::Stats &st) {
                           return st.writebacksOut;
                       }),
              0u);
    for (unsigned i = 0; i < 6; ++i)
        EXPECT_EQ(runLoad(sys, 12, base + Addr(i) * stride), 50u + i);
    drain(sys);
    sys.verifyQuiescent();
}

namespace {

/**
 * Adversarial racing workload (hier edition): every processor hammers
 * one block with zero-think atomic increments, so local persistent
 * requests are continuously active inside every CMP while the home
 * directory bounces chip rights between CMPs — the external-inv /
 * recall machinery races the persistent window on every transfer.
 */
class HierRaceWorkload : public Workload
{
  public:
    HierRaceWorkload(Addr addr, unsigned increments)
        : _addr(addr), _increments(increments)
    {}

    class Thread : public ThreadContext
    {
      public:
        Thread(SimContext &ctx, Sequencer &seq, HierRaceWorkload &wl)
            : ThreadContext(ctx, seq), _wl(wl)
        {}
        void start() override { step(); }

      private:
        void
        step()
        {
            if (_done == _wl._increments) {
                finish();
                return;
            }
            ++_done;
            atomic(_wl._addr,
                   [](std::uint64_t v) { return v + 1; },
                   [this](std::uint64_t old) {
                       _wl.observe(old);
                       step();
                   });
        }
        HierRaceWorkload &_wl;
        unsigned _done = 0;
    };

    std::unique_ptr<ThreadContext>
    makeThread(SimContext &ctx, Sequencer &seq, unsigned,
               std::uint64_t) override
    {
        return std::make_unique<Thread>(ctx, seq, *this);
    }

    void
    observe(std::uint64_t old)
    {
        std::lock_guard<std::mutex> guard(_mu);
        _observed.push_back(old);
    }

    bool
    serializedCleanly(std::uint64_t expected) const
    {
        std::vector<std::uint64_t> got = _observed;
        if (got.size() != expected)
            return false;
        std::sort(got.begin(), got.end());
        for (std::uint64_t i = 0; i < expected; ++i) {
            if (got[i] != i)
                return false;
        }
        return true;
    }

    std::string name() const override { return "hier-race"; }

  private:
    friend class Thread;
    Addr _addr;
    unsigned _increments;
    std::mutex _mu;
    std::vector<std::uint64_t> _observed;
};

/** Run the cross-CMP race on `shards` workers; gathered stats out. */
StatSet
runHierRace(unsigned shards)
{
    SystemConfig cfg;
    cfg.protocol = Protocol::HierCMP;
    cfg.seed = 7;
    cfg.shards = shards;
    cfg.finalize();

    HierRaceWorkload wl(0x9000, 12);
    System sys(cfg);
    System::RunResult r = sys.run(wl);
    const std::uint64_t expected = 12ull * cfg.topo.numProcs();

    EXPECT_TRUE(r.completed) << "shards=" << shards;
    EXPECT_EQ(r.violations, 0u) << "shards=" << shards;
    EXPECT_TRUE(wl.serializedCleanly(expected)) << "shards=" << shards;
    sys.verifyQuiescent();
    return r.stats;
}

} // namespace

TEST(HierScenario, ExternalInvRacesPersistentWindowStarvationFree)
{
    // The paper's hard multi-CMP corner case, end to end: racing
    // increments keep a persistent request active inside some CMP at
    // the very moment the home invalidates or forwards that chip's
    // rights away. Serial and sharded kernels must both serialize all
    // increments with no starvation, and the race must genuinely
    // exercise the recall-vs-persistent machinery.
    for (unsigned shards : {0u, 4u}) {
        StatSet stats = runHierRace(shards);
        EXPECT_GT(stats.get("hier.extInvs") +
                      stats.get("hier.extFwdGetX"),
                  0.0)
            << "shards=" << shards;
        EXPECT_GT(stats.get("hier.recallsFull"), 0.0)
            << "shards=" << shards;
        EXPECT_GT(stats.get("token.arbActivations"), 0.0)
            << "shards=" << shards;
    }
}

TEST(HierScenario, RaceStatsShardInvariant)
{
    // The same adversarial race must be bit-identical for every
    // sharded worker count — the determinism contract under maximal
    // recall/persistent contention.
    StatSet s1 = runHierRace(1);
    StatSet s4 = runHierRace(4);
    StatSet s8 = runHierRace(8);
    ASSERT_EQ(s1.all().size(), s4.all().size());
    ASSERT_EQ(s1.all().size(), s8.all().size());
    for (const auto &[key, val] : s1.all()) {
        EXPECT_EQ(val, s4.get(key)) << key;
        EXPECT_EQ(val, s8.get(key)) << key;
    }
}

} // namespace tokencmp::test
