/**
 * @file
 * Kernel-semantics tests for the typed pooled event queue: equal-tick
 * insertion-order determinism, timing-wheel vs reference-heap
 * equivalence under randomized schedules (including re-entrant and
 * far-future scheduling), pool reuse under churn, and reset()
 * restoring bit-identical fresh-process behaviour.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/small_function.hh"
#include "sim/types.hh"

namespace tokencmp {

namespace {

/** Execution trace: (tick, tag) per executed event. */
using Trace = std::vector<std::pair<Tick, std::uint64_t>>;

/**
 * Drive one randomized schedule: `initial` root events, each executed
 * event re-schedules a few children with random (possibly huge) delays
 * until the budget runs out. Exercises same-tick chains, bucket spans,
 * wheel cascades and the far-future heap.
 */
Trace
randomizedRun(SchedulerKind kind, std::uint64_t seed, unsigned initial,
              unsigned budget)
{
    EventQueue eq(kind);
    Random rng(seed);
    Trace trace;
    std::uint64_t tag = 0;
    unsigned remaining = budget;

    // Delay distribution: mostly protocol-like small constants, some
    // zero-delay chains, some think-time scale, rare far-future jumps.
    auto pickDelay = [&rng]() -> Tick {
        switch (rng.uniform(10)) {
          case 0: return 0;
          case 1: case 2: case 3: return ns(2);
          case 4: case 5: return ns(20);
          case 6: return rng.uniform(5000);
          case 7: return ns(rng.uniform(3000));          // < 3 us
          case 8: return ns(1000000 + rng.uniform(100)); // ~1 ms
          default: return ns(20000000 + rng.uniform(7)); // ~20 ms (far)
        }
    };

    std::function<void()> spawn = [&]() {
        trace.emplace_back(eq.curTick(), tag++);
        if (remaining == 0)
            return;
        const unsigned kids = unsigned(rng.uniform(3));
        for (unsigned k = 0; k < kids && remaining > 0; ++k) {
            --remaining;
            eq.schedule(pickDelay(), spawn);
        }
    };

    for (unsigned i = 0; i < initial; ++i)
        eq.schedule(pickDelay(), spawn);
    eq.run();
    EXPECT_TRUE(eq.empty());
    return trace;
}

} // namespace

TEST(EventQueue, EqualTicksRunInInsertionOrderAcrossBackends)
{
    for (SchedulerKind kind :
         {SchedulerKind::TimingWheel, SchedulerKind::ReferenceHeap}) {
        EventQueue eq(kind);
        std::vector<int> order;
        for (int i = 0; i < 64; ++i)
            eq.schedule(5, [&order, i]() { order.push_back(i); });
        eq.run();
        ASSERT_EQ(order.size(), 64u) << schedulerKindName(kind);
        for (int i = 0; i < 64; ++i)
            EXPECT_EQ(order[i], i) << schedulerKindName(kind);
    }
}

TEST(EventQueue, WheelMatchesReferenceHeapRandomized)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Trace wheel = randomizedRun(SchedulerKind::TimingWheel, seed,
                                    16, 4000);
        Trace heap = randomizedRun(SchedulerKind::ReferenceHeap, seed,
                                   16, 4000);
        ASSERT_EQ(wheel.size(), heap.size()) << "seed " << seed;
        for (std::size_t i = 0; i < wheel.size(); ++i) {
            ASSERT_EQ(wheel[i], heap[i])
                << "seed " << seed << " event " << i << " wheel ("
                << wheel[i].first << "," << wheel[i].second
                << ") heap (" << heap[i].first << ","
                << heap[i].second << ")";
        }
    }
}

TEST(EventQueue, FarHeapEventsNotOvertakenAtEpochBoundary)
{
    // Regression: when a level-0 drain lands _pos exactly on a
    // top-level (2^34-tick) epoch boundary, events already parked in
    // the far heap for the new epoch must run before any wheel event
    // inserted for that epoch afterwards.
    const Tick epoch = Tick(1) << 34;
    for (SchedulerKind kind :
         {SchedulerKind::TimingWheel, SchedulerKind::ReferenceHeap}) {
        EventQueue eq(kind);
        std::vector<int> order;
        std::vector<Tick> ticks;
        auto note = [&](int tag) {
            order.push_back(tag);
            ticks.push_back(eq.curTick());
        };
        eq.scheduleAbs(epoch + 100, [&]() { note(1); });  // far heap
        eq.scheduleAbs(epoch - 512, [&, note]() {
            note(0);
            // Drains the last bucket of epoch 0, putting _pos on the
            // boundary; this insertion then lands in the wheel.
            eq.scheduleAbs(epoch + 200, [&]() { note(2); });
        });
        eq.run();
        EXPECT_EQ(order, (std::vector<int>{0, 1, 2}))
            << schedulerKindName(kind);
        ASSERT_EQ(ticks.size(), 3u);
        EXPECT_LE(ticks[1], ticks[2]) << "clock went backwards";
    }
}

TEST(EventQueue, ScheduleAfterHorizonStopRunsInOrder)
{
    // Regression: a horizon-bounded run() may leave future events
    // staged in the run queue; an event scheduled below their tick
    // afterwards must still execute first, on both backends.
    for (SchedulerKind kind :
         {SchedulerKind::TimingWheel, SchedulerKind::ReferenceHeap}) {
        EventQueue eq(kind);
        std::vector<int> order;
        eq.scheduleAbs(100, [&]() { order.push_back(1); });
        EXPECT_FALSE(eq.run(50));
        eq.scheduleAbs(10, [&]() { order.push_back(0); });
        EXPECT_TRUE(eq.run());
        EXPECT_EQ(order, (std::vector<int>{0, 1}))
            << schedulerKindName(kind);
        EXPECT_EQ(eq.curTick(), 100u) << schedulerKindName(kind);
    }
}

TEST(EventQueue, SameTickReentrantSchedulingKeepsSeqOrder)
{
    // An executing event scheduling at its own tick must run after
    // every already-pending event of that tick, in insertion order.
    for (SchedulerKind kind :
         {SchedulerKind::TimingWheel, SchedulerKind::ReferenceHeap}) {
        EventQueue eq(kind);
        std::vector<int> order;
        eq.schedule(10, [&]() {
            order.push_back(0);
            eq.schedule(0, [&]() { order.push_back(3); });
        });
        eq.schedule(10, [&]() { order.push_back(1); });
        eq.schedule(10, [&]() {
            order.push_back(2);
            eq.schedule(0, [&]() { order.push_back(4); });
        });
        eq.run();
        EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}))
            << schedulerKindName(kind);
        EXPECT_EQ(eq.curTick(), 10u);
    }
}

TEST(EventQueue, PoolReuseUnderChurn)
{
    EventQueue eq;
    // Steady-state churn: one event in flight at a time, re-scheduling
    // itself; the InlineAction pool must stop growing immediately.
    int fired = 0;
    std::function<void()> chain = [&]() {
        if (++fired < 10000)
            eq.schedule(ns(2), chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(fired, 10000);
    EXPECT_LE(eq.actionsAllocated(), 4u);
    EXPECT_GE(eq.actionsReused(), 9000u);
}

TEST(EventQueue, TypedEventPoolRecyclesNodes)
{
    struct CountingEvent final : Event
    {
        int *counter = nullptr;
        EventPool<CountingEvent> *pool = nullptr;
        void process() override { ++*counter; }
        void release() override { pool->recycle(this); }
    };

    EventQueue eq;
    EventPool<CountingEvent> pool;
    int count = 0;
    for (int round = 0; round < 100; ++round) {
        CountingEvent *e = pool.acquire();
        e->counter = &count;
        e->pool = &pool;
        eq.scheduleEvent(e, eq.curTick() + 5);
        eq.run();
    }
    EXPECT_EQ(count, 100);
    EXPECT_EQ(pool.allocated(), 1u);
    EXPECT_EQ(pool.reused(), 99u);
}

TEST(EventQueue, ResetRestoresFreshProcessBehaviour)
{
    // Two identical schedules around a reset() must observe identical
    // (tick, seq) assignment — i.e. the insertion sequence counter is
    // rewound too, making back-to-back in-process runs bit-identical
    // to fresh-process runs.
    EventQueue eq;
    auto runOnce = [&eq]() {
        std::vector<std::uint64_t> seqs;
        std::vector<Tick> ticks;
        for (int i = 0; i < 5; ++i) {
            eq.schedule(Tick(7 * i), [&, i]() {
                ticks.push_back(eq.curTick());
                seqs.push_back(eq.nextSeq());
            });
        }
        eq.run();
        return std::make_pair(ticks, seqs);
    };
    auto first = runOnce();
    eq.reset();
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_EQ(eq.nextSeq(), 0u);
    EXPECT_EQ(eq.executed(), 0u);
    auto second = runOnce();
    EXPECT_EQ(first, second);
}

TEST(EventQueue, ReleaseAllReturnsPendingEventsToPools)
{
    EventQueue eq;
    for (int i = 0; i < 32; ++i)
        eq.schedule(ns(1000) * Tick(i + 1), []() {});
    const auto allocated = eq.actionsAllocated();
    EXPECT_EQ(eq.size(), 32u);
    eq.releaseAll();
    EXPECT_TRUE(eq.empty());
    // The pool serves the next wave without fresh allocation.
    for (int i = 0; i < 32; ++i)
        eq.schedule(Tick(i), []() {});
    EXPECT_EQ(eq.actionsAllocated(), allocated);
    eq.run();
}

TEST(EventQueue, FrontierReportsNextTickWithoutExecuting)
{
    for (SchedulerKind kind :
         {SchedulerKind::TimingWheel, SchedulerKind::ReferenceHeap}) {
        EventQueue eq(kind);
        EXPECT_EQ(eq.frontier(), EventQueue::noTick);
        int fired = 0;
        eq.schedule(ns(5000), [&]() { ++fired; });
        eq.schedule(ns(3), [&]() { ++fired; });
        EXPECT_EQ(eq.frontier(), ns(3));
        EXPECT_EQ(fired, 0);
        EXPECT_EQ(eq.size(), 2u);
        // A horizon-bounded run consumes the near event; the frontier
        // then reports the far one (staged state notwithstanding).
        eq.run(ns(10));
        EXPECT_EQ(fired, 1);
        EXPECT_EQ(eq.frontier(), ns(5000));
        // An insertion below the staged position is still the frontier.
        eq.schedule(ns(2), [&]() { ++fired; });
        EXPECT_EQ(eq.frontier(), eq.curTick() + ns(2));
        eq.run();
        EXPECT_EQ(fired, 3);
        EXPECT_EQ(eq.frontier(), EventQueue::noTick);
    }
}

namespace {

/** Pooled event tagged with an owner cookie, for releaseAll(pred). */
class TaggedEvent final : public Event
{
  public:
    void process() override { ++processed; }
    void
    release() override
    {
        ++released;
        pool->recycle(this);
    }

    int owner = 0;
    int processed = 0;
    int released = 0;
    EventPool<TaggedEvent> *pool = nullptr;
};

} // namespace

TEST(EventQueue, PerOwnerReleaseLeavesOtherEventsScheduled)
{
    for (SchedulerKind kind :
         {SchedulerKind::TimingWheel, SchedulerKind::ReferenceHeap}) {
        EventQueue eq(kind);
        EventPool<TaggedEvent> pool;
        Random rng(99);
        std::vector<TaggedEvent *> events;
        // Spread events across the runq/wheel/far-heap stores: near,
        // mid, and beyond-wheel ticks, two interleaved owners.
        for (int i = 0; i < 200; ++i) {
            TaggedEvent *e = pool.acquire();
            e->owner = i % 2;
            e->pool = &pool;
            e->processed = e->released = 0;
            events.push_back(e);
            const Tick when = rng.uniform(3) == 0
                                  ? ns(40000000) + Tick(i)  // far heap
                                  : Tick(rng.uniform(ns(2000)));
            eq.scheduleEvent(e, when);
        }
        EXPECT_EQ(eq.size(), 200u);

        // Retire owner 0's events only.
        eq.releaseAll([](const Event &e) {
            return static_cast<const TaggedEvent &>(e).owner == 0;
        });
        EXPECT_EQ(eq.size(), 100u);

        eq.run();
        for (const TaggedEvent *e : events) {
            if (e->owner == 0) {
                EXPECT_EQ(e->processed, 0);
                EXPECT_EQ(e->released, 1);
            } else {
                EXPECT_EQ(e->processed, 1);
            }
        }
    }
}

TEST(EventQueue, KeyedScheduleOrdersCanonically)
{
    // Same tick: band-0 events execute before band-1 handoffs, and
    // handoffs order by (srcDomain, sendSeq) — not insertion order.
    // The sharded kernel's cross-domain delivery order rests on this.
    for (const auto kind :
         {SchedulerKind::TimingWheel, SchedulerKind::ReferenceHeap}) {
        SCOPED_TRACE(schedulerKindName(kind));
        EventQueue q(kind);
        std::vector<int> order;
        struct Marker final : Event
        {
            std::vector<int> *out = nullptr;
            int id = 0;
            void process() override { out->push_back(id); }
            void release() override { delete this; }
        };
        auto keyed = [&q, &order](Tick t, unsigned src,
                                  std::uint64_t seq, int id) {
            auto *m = new Marker;
            m->out = &order;
            m->id = id;
            q.scheduleKeyed(m, t, handoffKey(src, seq));
        };
        keyed(50, 2, 0, 103);
        keyed(50, 1, 1, 102);
        q.scheduleAbs(50, [&order] { order.push_back(1); });
        keyed(50, 1, 0, 101);
        q.scheduleAbs(50, [&order] { order.push_back(2); });
        q.run();
        EXPECT_EQ(order, (std::vector<int>{1, 2, 101, 102, 103}));
        EXPECT_TRUE(isHandoffKey(handoffKey(0, 0)));
        EXPECT_FALSE(isHandoffKey(q.nextSeq()));
    }
}

TEST(SmallFunction, InlineAndHeapTargetsBehaveIdentically)
{
    SmallFunction<int(int), 16> small = [](int x) { return x + 1; };
    EXPECT_TRUE(small.inlineStored());
    EXPECT_EQ(small(41), 42);

    // Oversized capture: falls back to the heap, still correct.
    struct Big { std::uint64_t pad[8] = {1, 2, 3, 4, 5, 6, 7, 8}; };
    Big big;
    SmallFunction<int(int), 16> large = [big](int x) {
        return int(big.pad[0]) + x;
    };
    EXPECT_FALSE(large.inlineStored());
    EXPECT_EQ(large(1), 2);

    // Copies are independent; moves transfer the target and the
    // storage-kind flag travels with it.
    auto copy = large;
    EXPECT_EQ(copy(2), 3);
    EXPECT_FALSE(copy.inlineStored());
    auto moved = std::move(copy);
    EXPECT_EQ(moved(3), 4);
    EXPECT_FALSE(moved.inlineStored());
    EXPECT_FALSE(static_cast<bool>(copy));  // NOLINT(bugprone-use-after-move)
    auto smallMoved = std::move(small);
    EXPECT_TRUE(smallMoved.inlineStored());
    EXPECT_EQ(smallMoved(0), 1);
    // Move-assignment across storage kinds updates the flag too.
    smallMoved = std::move(moved);
    EXPECT_FALSE(smallMoved.inlineStored());
    EXPECT_EQ(smallMoved(4), 5);

    int hits = 0;
    SmallFunction<void(), 48> counting = [&hits]() { ++hits; };
    auto counting2 = counting;
    counting();
    counting2();
    EXPECT_EQ(hits, 2);
}

} // namespace tokencmp
