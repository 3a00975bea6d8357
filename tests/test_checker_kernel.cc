/**
 * @file
 * Additional model-checker kernel tests: trace reconstruction,
 * deadlock detection, state bounds, progress semantics and the
 * counterexample machinery — on purpose-built toy models.
 */

#include <gtest/gtest.h>

#include "mc/checker.hh"

namespace tokencmp::mc {

namespace {

/** Chain model: 0 -> 1 -> ... -> n; configurable terminal behavior. */
class ChainModel : public Model
{
  public:
    ChainModel(std::uint8_t len, bool dead_end, bool obligations)
        : _len(len), _deadEnd(dead_end), _obligations(obligations)
    {}

    std::string name() const override { return "chain"; }

    std::vector<State>
    initialStates() const override
    {
        return {State{0}};
    }

    void
    successors(const State &s, std::vector<State> &out) const override
    {
        if (s[0] < _len)
            out.push_back(State{std::uint8_t(s[0] + 1)});
        else if (!_deadEnd)
            out.push_back(State{std::uint8_t(0)});
    }

    std::string invariant(const State &) const override { return ""; }

    bool
    quiescent(const State &) const override
    {
        // Dead ends are legal stopping points in this toy model, so
        // an unmet obligation registers as a progress failure rather
        // than a deadlock.
        return true;
    }

    bool
    hasObligation(const State &s) const override
    {
        // Odd states "owe" progress; only state 0 satisfies.
        return _obligations && s[0] % 2 == 1;
    }
    bool
    obligationMet(const State &s) const override
    {
        return !_obligations || s[0] % 2 == 0;
    }

    std::string
    describe(const State &s) const override
    {
        return "state-" + std::to_string(int(s[0]));
    }

  private:
    std::uint8_t _len;
    bool _deadEnd;
    bool _obligations;
};

} // namespace

TEST(CheckerKernel, CyclicModelTerminates)
{
    Checker chk;
    ChainModel m(5, false, false);
    auto r = chk.run(m);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.states, 6u);
    EXPECT_EQ(r.transitions, 6u);  // includes the wrap-around edge
}

TEST(CheckerKernel, ProgressHoldsOnCycle)
{
    // With the cycle back to 0 every odd state can reach state 0.
    Checker chk;
    ChainModel m(5, false, true);
    auto r = chk.run(m);
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.progress);
}

TEST(CheckerKernel, ProgressFailsOnDeadEndChain)
{
    // Chain ends at 5 (odd => unmet obligation, no way back).
    Checker chk;
    ChainModel m(5, true, true);
    auto r = chk.run(m);
    EXPECT_FALSE(r.progress);
    EXPECT_FALSE(r.trace.empty());
    // The trace walks from the initial state to the stuck state.
    EXPECT_EQ(r.trace.front(), "state-0");
    EXPECT_EQ(r.trace.back(), "state-5");
}

TEST(CheckerKernel, DeadlockDetected)
{
    class DeadModel : public ChainModel
    {
      public:
        DeadModel() : ChainModel(3, true, false) {}
        bool
        quiescent(const State &) const override
        {
            return false;  // every dead state is a deadlock here
        }
    };
    Checker chk;
    DeadModel m;
    auto r = chk.run(m);
    EXPECT_FALSE(r.deadlockFree);
    EXPECT_NE(r.violation.find("deadlock"), std::string::npos);
    // The trace walks from the initial state to the dead state.
    const std::vector<std::string> want{"state-0", "state-1", "state-2",
                                        "state-3"};
    EXPECT_EQ(r.trace, want);
    EXPECT_EQ(r.trace.front(), "state-0");
    EXPECT_EQ(r.trace.back(), "state-3");
}

TEST(CheckerKernel, StateBoundReported)
{
    Checker chk(3);  // absurdly small bound
    ChainModel m(100, false, false);
    auto r = chk.run(m);
    EXPECT_FALSE(r.completed);
    EXPECT_NE(r.violation.find("bound"), std::string::npos);
    EXPECT_TRUE(r.trace.empty());  // no failing state to trace to
}

TEST(CheckerKernelDeathTest, StateBoundMustFitStateIds)
{
    // Ids are 32-bit with ~0 reserved, and a run holds up to
    // max_states + 1 states.
    EXPECT_EXIT(Checker(0xffffffffull), testing::ExitedWithCode(1),
                "32-bit state ids");
    EXPECT_EXIT(Checker(std::uint64_t(1) << 40),
                testing::ExitedWithCode(1), "32-bit state ids");
    const Checker largest(0xfffffffeull);
    ChainModel m(3, false, false);
    EXPECT_EQ(largest.run(m).states, 4u);
}

TEST(CheckerKernel, DiameterMatchesChainLength)
{
    Checker chk;
    ChainModel m(7, false, false);
    auto r = chk.run(m);
    EXPECT_EQ(r.diameter, 7u);
}

} // namespace tokencmp::mc
