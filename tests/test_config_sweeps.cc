/**
 * @file
 * Parameterized configuration sweeps: the protocols must stay correct
 * across machine shapes (CMP count, processors per CMP), token-count
 * choices (T must merely exceed the number of caches able to hold a
 * block, and fit the cache line's token field), C-token transfer sizes,
 * and response-delay windows.
 */

#include <gtest/gtest.h>

#include "core/token_state.hh"
#include "test_util.hh"
#include "workload/locking.hh"

namespace tokencmp::test {

namespace {

struct Shape
{
    unsigned cmps;
    unsigned procs;  //!< per CMP
};

using ShapeParam = std::tuple<Shape, std::string>;

class MachineShapes : public ::testing::TestWithParam<ShapeParam>
{};

std::string
shapeName(const ::testing::TestParamInfo<ShapeParam> &info)
{
    const Shape shape = std::get<0>(info.param);
    std::string n = protocolName(std::get<1>(info.param));
    for (char &c : n) {
        if (c == '-')
            c = '_';
    }
    // Built with += to dodge GCC 12's -Wrestrict false positive on
    // operator+(const char *, std::string &&).
    std::string out = "c";
    out += std::to_string(shape.cmps);
    out += "p";
    out += std::to_string(shape.procs);
    out += "_";
    out += n;
    return out;
}

std::string
intName(const ::testing::TestParamInfo<int> &info)
{
    std::string out = "v";
    out += std::to_string(info.param);
    return out;
}

std::string
unsignedName(const ::testing::TestParamInfo<unsigned> &info)
{
    std::string out = "v";
    out += std::to_string(info.param);
    return out;
}

} // namespace

TEST_P(MachineShapes, CounterLinearizableOnShape)
{
    const auto [shape, proto] = GetParam();
    SystemConfig cfg;
    cfg.protocol = proto;
    cfg.topo.numCmps = shape.cmps;
    cfg.topo.procsPerCmp = shape.procs;
    // T must exceed the caches-per-block count for the new shape.
    cfg.token.totalTokens =
        int(cfg.topo.numCachesForBlock()) + 3;
    cfg.token.cTokens = int(cfg.topo.cachesPerCmpForBlock());
    System sys(cfg);

    const unsigned n = cfg.topo.numProcs();
    CounterWorkload wl(0x9000, 6);
    auto res = sys.run(wl);
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(runLoad(sys, n - 1, 0x9000), n * 6u);
    drain(sys);
    if (sys.tokenGlobals() != nullptr)
        sys.tokenGlobals()->auditor.checkAll(true);
}

TEST_P(MachineShapes, LockingMutualExclusionOnShape)
{
    const auto [shape, proto] = GetParam();
    SystemConfig cfg;
    cfg.protocol = proto;
    cfg.topo.numCmps = shape.cmps;
    cfg.topo.procsPerCmp = shape.procs;
    cfg.token.totalTokens =
        int(cfg.topo.numCachesForBlock()) + 3;
    System sys(cfg);

    LockingParams p;
    p.numLocks = 4;
    p.acquiresPerProc = 6;
    LockingWorkload wl(p);
    auto res = sys.run(wl);
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(res.violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MachineShapes,
    ::testing::Combine(
        ::testing::Values(Shape{2, 2}, Shape{2, 4}, Shape{4, 2},
                          Shape{4, 4}),
        ::testing::Values(Protocol::TokenDst1, Protocol::TokenDst0,
                          Protocol::DirectoryCMP)),
    shapeName);

namespace {

class TokenKnobs : public ::testing::TestWithParam<int>
{};

} // namespace

TEST_P(TokenKnobs, TotalTokensAboveFloorAllWork)
{
    // Any T > #caches-per-block satisfies the substrate's
    // requirements; correctness must be insensitive to the choice.
    SystemConfig cfg;
    cfg.protocol = Protocol::TokenDst1;
    cfg.token.totalTokens = GetParam();
    System sys(cfg);
    CounterWorkload wl(0xa000, 5);
    auto res = sys.run(wl);
    ASSERT_TRUE(res.completed) << "T=" << GetParam();
    EXPECT_EQ(runLoad(sys, 7, 0xa000), 16u * 5u);
    drain(sys);
    sys.tokenGlobals()->auditor.checkAll(true);
}

INSTANTIATE_TEST_SUITE_P(TokenCounts, TokenKnobs,
                         ::testing::Values(37, 49, 64, 128), intName);

namespace {

class DelayKnobs : public ::testing::TestWithParam<unsigned>
{};

} // namespace

TEST_P(DelayKnobs, ResponseDelayNeverBreaksCorrectness)
{
    // The hold window is a performance lever; any bounded value must
    // preserve mutual exclusion and completion.
    SystemConfig cfg;
    cfg.protocol = Protocol::TokenDst1;
    cfg.token.responseDelay = ns(GetParam());
    cfg.dir.responseDelay = ns(GetParam());
    System sys(cfg);
    LockingParams p;
    p.numLocks = 2;
    p.acquiresPerProc = 8;
    LockingWorkload wl(p);
    auto res = sys.run(wl);
    ASSERT_TRUE(res.completed) << "delay=" << GetParam();
    EXPECT_EQ(res.violations, 0u);
    drain(sys);
    sys.tokenGlobals()->auditor.checkAll(true);
}

INSTANTIATE_TEST_SUITE_P(Delays, DelayKnobs,
                         ::testing::Values(0u, 10u, 30u, 100u, 300u),
                         unsignedName);

namespace {

class CTokenKnobs : public ::testing::TestWithParam<int>
{};

} // namespace

TEST_P(CTokenKnobs, ReadResponseSizeIsPerformanceOnly)
{
    SystemConfig cfg;
    cfg.protocol = Protocol::TokenDst1;
    cfg.token.cTokens = GetParam();
    System sys(cfg);
    // Shared-read pattern across CMPs.
    runStore(sys, 0, 0xb000, 7);
    drain(sys);
    for (unsigned p : {4u, 8u, 12u, 1u, 5u})
        EXPECT_EQ(runLoad(sys, p, 0xb000), 7u) << "C=" << GetParam();
    drain(sys);
    sys.tokenGlobals()->auditor.checkAll(true);
}

INSTANTIATE_TEST_SUITE_P(CTokens, CTokenKnobs,
                         ::testing::Values(1, 4, 9, 16), intName);

TEST(TokenCountRange, FinalizeRejectsCountsALineCannotHold)
{
    SystemConfig cfg;
    cfg.token.totalTokens = maxTokenCount;
    cfg.token.cTokens = maxTokenCount;
    cfg.finalize();

    SystemConfig total = cfg;
    total.token.totalTokens = maxTokenCount + 1;
    EXPECT_DEATH(total.finalize(), "totalTokens 32768 out of range");
    total.token.totalTokens = 0;
    EXPECT_DEATH(total.finalize(), "totalTokens 0 out of range");

    SystemConfig c = cfg;
    c.token.cTokens = maxTokenCount + 1;
    EXPECT_DEATH(c.finalize(), "cTokens 32768 out of range");
    c.token.cTokens = 0;
    EXPECT_DEATH(c.finalize(), "cTokens 0 out of range");
}

} // namespace tokencmp::test
