/**
 * @file
 * Model-checker validation: the kernel itself (on a trivial model),
 * the clean token-substrate variants (safe + deadlock-free +
 * progressing), the flat directory model, and — critically — seeded
 * bugs that the checker must catch.
 */

#include <gtest/gtest.h>

#include "mc/checker.hh"
#include "mc/dir_model.hh"
#include "mc/hier_model.hh"
#include "mc/token_model.hh"

namespace tokencmp::mc {

namespace {

/** A 4-state counter model for checker kernel tests. */
class CounterModel : public Model
{
  public:
    explicit CounterModel(bool broken = false) : _broken(broken) {}
    std::string name() const override { return "counter"; }
    std::vector<State>
    initialStates() const override
    {
        return {State{0}};
    }
    void
    successors(const State &s, std::vector<State> &out) const override
    {
        if (s[0] < 3)
            out.push_back(State{std::uint8_t(s[0] + 1)});
    }
    std::string
    invariant(const State &s) const override
    {
        if (_broken && s[0] == 2)
            return "hit the bad state";
        return "";
    }
    bool quiescent(const State &s) const override { return s[0] == 3; }
    std::string
    describe(const State &s) const override
    {
        return "count-" + std::to_string(int(s[0]));
    }

  private:
    bool _broken;
};

TokenModelConfig
smallToken(TokenVariant v)
{
    TokenModelConfig cfg;
    cfg.caches = 2;
    cfg.totalTokens = 3;
    cfg.maxMsgs = 2;
    cfg.variant = v;
    return cfg;
}

} // namespace

TEST(Checker, ExploresAndCountsStates)
{
    Checker chk;
    CounterModel m;
    auto r = chk.run(m);
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.safe);
    EXPECT_TRUE(r.deadlockFree);
    EXPECT_EQ(r.states, 4u);
    EXPECT_EQ(r.transitions, 3u);
    EXPECT_EQ(r.diameter, 3u);
}

TEST(Checker, ReportsInvariantViolations)
{
    Checker chk;
    CounterModel m(true);
    auto r = chk.run(m);
    EXPECT_FALSE(r.safe);
    EXPECT_NE(r.violation.find("bad state"), std::string::npos);
    // Counterexample: initial state first, violating state last.
    const std::vector<std::string> want{"count-0", "count-1", "count-2"};
    EXPECT_EQ(r.trace, want);
    EXPECT_EQ(r.trace.front(), "count-0");
    EXPECT_EQ(r.trace.back(), "count-2");
}

TEST(Checker, TracesInitialStateViolations)
{
    class BadStart : public CounterModel
    {
      public:
        BadStart() : CounterModel(true) {}
        std::vector<State>
        initialStates() const override
        {
            return {State{0}, State{2}};
        }
    };
    Checker chk;
    auto r = chk.run(BadStart());
    EXPECT_FALSE(r.safe);
    EXPECT_EQ(r.violation, "initial state: hit the bad state");
    EXPECT_EQ(r.trace, std::vector<std::string>{"count-2"});
    EXPECT_EQ(r.states, 2u);
    EXPECT_EQ(r.transitions, 0u);
}

TEST(TokenModelCheck, SafetyVariantIsSafe)
{
    Checker chk;
    TokenModel m(smallToken(TokenVariant::Safety));
    auto r = chk.run(m);
    EXPECT_TRUE(r.completed) << r.violation;
    EXPECT_TRUE(r.safe) << r.violation;
    EXPECT_TRUE(r.deadlockFree);
    EXPECT_GT(r.states, 100u);
}

TEST(TokenModelCheck, DstVariantSafeAndProgressing)
{
    auto cfg = smallToken(TokenVariant::Dst);
    Checker chk;
    TokenModel m(cfg);
    auto r = chk.run(m);
    EXPECT_TRUE(r.completed) << r.violation;
    EXPECT_TRUE(r.safe) << r.violation;
    EXPECT_TRUE(r.progress) << r.violation;
    EXPECT_GT(r.states, 100000u);
}

TEST(TokenModelCheck, ArbVariantSafeAndProgressing)
{
    // Quiet-policy liveness over all initial token placements
    // (see TokenModelConfig::quietPolicy).
    auto cfg = smallToken(TokenVariant::Arb);
    Checker chk;
    TokenModel m(cfg);
    auto r = chk.run(m);
    EXPECT_TRUE(r.completed) << r.violation;
    EXPECT_TRUE(r.safe) << r.violation;
    EXPECT_TRUE(r.progress) << r.violation;
    EXPECT_GT(r.states, 100000u);
}

TEST(TokenModelCheck, CatchesWriteWithoutAllTokens)
{
    auto cfg = smallToken(TokenVariant::Safety);
    cfg.bugWriteWithoutAll = true;
    Checker chk;
    TokenModel m(cfg);
    auto r = chk.run(m);
    EXPECT_FALSE(r.safe);
    EXPECT_FALSE(r.violation.empty());
}

TEST(TokenModelCheck, CatchesOwnerWithoutData)
{
    auto cfg = smallToken(TokenVariant::Safety);
    cfg.bugOwnerNoData = true;
    Checker chk;
    TokenModel m(cfg);
    auto r = chk.run(m);
    EXPECT_FALSE(r.safe);
}

TEST(TokenModelCheck, CatchesDataOnlyMessages)
{
    // The stale-data race that motivated the data-travels-with-tokens
    // rule (see token_common.cc): data-only messages can overwrite
    // newer data after a write.
    auto cfg = smallToken(TokenVariant::Safety);
    cfg.bugDataOnlyMessages = true;
    Checker chk;
    TokenModel m(cfg);
    auto r = chk.run(m);
    EXPECT_FALSE(r.safe);
    EXPECT_NE(r.violation.find("stale"), std::string::npos);
}

TEST(TokenModelCheck, CatchesDroppedPersistentActivation)
{
    auto cfg = smallToken(TokenVariant::Dst);
    cfg.maxMsgs = 1;
    cfg.issueLimit = 1;
    cfg.bugSkipMemActivate = true;
    // Quiet policy: tokens move only via persistent forwarding, so a
    // dropped memory activation genuinely wedges the request. (Under
    // the full nondeterministic policy EF-progress is too weak to see
    // it: some lucky transfer path always exists.)
    cfg.quietPolicy = true;
    Checker chk;
    TokenModel m(cfg);
    auto r = chk.run(m);
    // Memory never forwards its tokens: requests become unsatisfiable.
    EXPECT_FALSE(r.progress) << r.violation;
}

TEST(DirModelCheck, FlatDirectoryIsSafe)
{
    DirModelConfig cfg;
    cfg.caches = 2;
    Checker chk;
    DirModel m(cfg);
    auto r = chk.run(m);
    EXPECT_TRUE(r.completed) << r.violation;
    EXPECT_TRUE(r.safe) << r.violation;
    EXPECT_TRUE(r.progress) << r.violation;
}

TEST(DirModelCheck, CatchesForgottenInvalidation)
{
    DirModelConfig cfg;
    cfg.caches = 3;
    cfg.bugForgetInv = true;
    Checker chk;
    DirModel m(cfg);
    auto r = chk.run(m);
    EXPECT_FALSE(r.safe);
    EXPECT_NE(r.violation.find("stale"), std::string::npos);
    // The stale state is found while expanding the deepest level, so
    // the counterexample is one step longer than the diameter.
    EXPECT_EQ(r.trace.size(), r.diameter + 2u);
}

TEST(HierModelCheck, TwoLevelCompositionIsSafeAndProgressing)
{
    HierModelConfig cfg;
    Checker chk;
    HierModel m(cfg);
    auto r = chk.run(m);
    EXPECT_TRUE(r.completed) << r.violation;
    EXPECT_TRUE(r.safe) << r.violation;
    EXPECT_TRUE(r.deadlockFree) << r.violation;
    EXPECT_TRUE(r.progress) << r.violation;
    EXPECT_GT(r.states, 1000u);
}

TEST(HierModelCheck, CatchesOwnerServedBelowChipM)
{
    // The anchor invariant: the shim may release the intra-CMP owner
    // token only at chip M; handing it out at chip S/O makes local
    // token counts untranslatable to directory states.
    HierModelConfig cfg;
    cfg.bugServeOwnerAtS = true;
    Checker chk;
    HierModel m(cfg);
    auto r = chk.run(m);
    EXPECT_FALSE(r.safe);
    EXPECT_NE(r.violation.find("anchor"), std::string::npos)
        << r.violation;
}

TEST(HierModelCheck, CatchesInvAckWithoutRecall)
{
    // Acking an external invalidation while local caches still hold
    // tokens leaves readable copies behind the directory's back.
    HierModelConfig cfg;
    cfg.bugAckInvNoRecall = true;
    Checker chk;
    HierModel m(cfg);
    auto r = chk.run(m);
    EXPECT_FALSE(r.safe);
    EXPECT_FALSE(r.violation.empty());
}

TEST(HierModelCheck, CatchesSkippedInvAck)
{
    // Invalidate-but-never-ack wedges the remote writer: a liveness
    // failure (the checker reports the wedged writer as a deadlocked
    // non-quiescent state).
    HierModelConfig cfg;
    cfg.bugSkipInvAck = true;
    Checker chk;
    HierModel m(cfg);
    auto r = chk.run(m);
    EXPECT_FALSE(r.deadlockFree);
    EXPECT_NE(r.violation.find("deadlock"), std::string::npos)
        << r.violation;
    // The dead state is the last one expanded, at the deepest level.
    EXPECT_EQ(r.trace.size(), r.diameter + 1u);
}

} // namespace tokencmp::mc
