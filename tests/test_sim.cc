/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering and
 * determinism, RNG reproducibility and distribution sanity, and the
 * statistics primitives.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tokencmp {

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&]() { order.push_back(3); });
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(20, [&]() { order.push_back(2); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, EqualTicksRunInInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i]() { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ReentrantScheduling)
{
    EventQueue eq;
    int fired = 0;
    std::function<void()> chain = [&]() {
        if (++fired < 5)
            eq.schedule(10, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(eq.curTick(), 40u);
}

TEST(EventQueue, HorizonStopsExecution)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&]() { ++fired; });
    eq.schedule(100, [&]() { ++fired; });
    EXPECT_FALSE(eq.run(50));
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunUntilFinishCounter)
{
    EventQueue eq;
    std::atomic<std::uint32_t> count{0};
    for (int i = 0; i < 10; ++i)
        eq.schedule(i * 10 + 1, [&]() { ++count; });
    EXPECT_TRUE(eq.runUntil(count, 0));  // already reached: runs nothing
    EXPECT_EQ(count.load(), 0u);
    EXPECT_TRUE(eq.runUntil(count, 4));
    EXPECT_EQ(count.load(), 4u);
    EXPECT_FALSE(eq.runUntil(count, 10, 50));  // horizon first
    EXPECT_EQ(count.load(), 5u);
    EXPECT_FALSE(eq.runUntil(count, 20));  // queue drains first
    EXPECT_EQ(count.load(), 10u);
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue eq;
    eq.schedule(10, []() {});
    eq.run();
    EXPECT_DEATH(eq.scheduleAbs(5, []() {}), "past");
}

TEST(Random, Deterministic)
{
    Random a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiffer)
{
    Random a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 4);
}

TEST(Random, UniformBounds)
{
    Random r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.uniform(17), 17u);
    for (int i = 0; i < 1000; ++i) {
        const auto v = r.range(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
    }
}

TEST(Random, UniformDoubleMeanReasonable)
{
    Random r(11);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += r.uniformDouble();
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RunningStat, MeanVarianceMinMax)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-9);
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
}

TEST(Histogram, BucketsAndPercentiles)
{
    Histogram h(10.0, 10);
    for (int i = 0; i < 100; ++i)
        h.add(i);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.bucket(0), 10u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_NEAR(h.percentile(0.5), 50.0, 10.0);
    h.add(1e9);
    EXPECT_EQ(h.overflow(), 1u);
}

TEST(SeedSamples, ErrorBarShrinksWithAgreement)
{
    SeedSamples tight, loose;
    for (double x : {100.0, 101.0, 99.0})
        tight.add(x);
    for (double x : {50.0, 150.0, 100.0})
        loose.add(x);
    EXPECT_NEAR(tight.mean(), 100.0, 1.0);
    EXPECT_LT(tight.errorBar(), loose.errorBar());
}

TEST(StatSet, AccumulatesByKey)
{
    StatSet s;
    s.add("a.b", 1.0);
    s.add("a.b", 2.0);
    s.set("c", 5.0);
    EXPECT_DOUBLE_EQ(s.get("a.b"), 3.0);
    EXPECT_DOUBLE_EQ(s.get("c"), 5.0);
    EXPECT_DOUBLE_EQ(s.get("missing"), 0.0);
    EXPECT_TRUE(s.has("a.b"));
    EXPECT_FALSE(s.has("missing"));
}

} // namespace tokencmp
