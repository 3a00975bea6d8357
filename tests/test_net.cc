/**
 * @file
 * Unit tests for topology maps, message sizing/classification, and
 * the interconnect's latency, bandwidth and traffic accounting.
 */

#include <gtest/gtest.h>

#include "net/controller.hh"
#include "net/machine.hh"
#include "net/message.hh"
#include "net/network.hh"

namespace tokencmp {

TEST(Topology, CountsMatchPaperTarget)
{
    Topology t;
    EXPECT_EQ(t.numProcs(), 16u);
    EXPECT_EQ(t.cachesPerCmp(), 12u);          // 8 L1 + 4 L2 banks
    EXPECT_EQ(t.cachesPerCmpForBlock(), 9u);   // 8 L1 + 1 bank
    EXPECT_EQ(t.numCachesForBlock(), 36u);
    EXPECT_EQ(t.numControllers(), 52u);        // 48 caches + 4 mems
}

TEST(Topology, GlobalIndexIsDenseAndUnique)
{
    Topology t;
    std::vector<bool> seen(t.numControllers(), false);
    auto mark = [&](MachineID id) {
        const unsigned idx = t.globalIndex(id);
        ASSERT_LT(idx, t.numControllers());
        EXPECT_FALSE(seen[idx]) << id.toString();
        seen[idx] = true;
    };
    for (unsigned c = 0; c < t.numCmps; ++c) {
        for (unsigned p = 0; p < t.procsPerCmp; ++p) {
            mark(t.l1d(c, p));
            mark(t.l1i(c, p));
        }
        for (unsigned b = 0; b < t.l2BanksPerCmp; ++b)
            mark(t.l2(c, b));
        mark(t.mem(c));
    }
    for (bool b : seen)
        EXPECT_TRUE(b);
}

TEST(Topology, AddressInterleaving)
{
    Topology t;
    // Same block maps to the same bank index on every CMP.
    for (Addr blk = 0; blk < 64; ++blk) {
        const Addr a = blk * blockBytes;
        const unsigned bank = t.l2BankOf(a);
        EXPECT_LT(bank, t.l2BanksPerCmp);
        for (unsigned c = 0; c < t.numCmps; ++c)
            EXPECT_EQ(t.l2BankFor(c, a).index, bank);
    }
    // Homes spread across all CMPs.
    std::vector<unsigned> counts(t.numCmps, 0);
    for (Addr blk = 0; blk < 256; ++blk)
        ++counts[t.homeCmpOf(blk * blockBytes)];
    for (unsigned c : counts)
        EXPECT_EQ(c, 64u);
}

TEST(Message, SizesFollowSection8)
{
    Msg m;
    m.type = MsgType::GetS;
    EXPECT_EQ(m.size(), 8u);  // control
    m.hasData = true;
    EXPECT_EQ(m.size(), 72u);  // 8B header + 64B block
}

TEST(Message, TrafficClassTaxonomy)
{
    Msg m;
    m.type = MsgType::TokReadReq;
    EXPECT_EQ(m.trafficClass(), TrafficClass::Request);
    m.type = MsgType::TokResponse;
    m.hasData = true;
    EXPECT_EQ(m.trafficClass(), TrafficClass::ResponseData);
    m.hasData = false;
    EXPECT_EQ(m.trafficClass(), TrafficClass::InvFwdAckTokens);
    m.type = MsgType::TokWriteback;
    m.hasData = true;
    EXPECT_EQ(m.trafficClass(), TrafficClass::WritebackData);
    m.hasData = false;
    EXPECT_EQ(m.trafficClass(), TrafficClass::WritebackControl);
    m.type = MsgType::PersistActivate;
    EXPECT_EQ(m.trafficClass(), TrafficClass::Persistent);
    m.type = MsgType::Unblock;
    EXPECT_EQ(m.trafficClass(), TrafficClass::Unblock);
    m.type = MsgType::Data;
    m.hasData = true;
    EXPECT_EQ(m.trafficClass(), TrafficClass::ResponseData);
    m.type = MsgType::Inv;
    m.hasData = false;
    EXPECT_EQ(m.trafficClass(), TrafficClass::InvFwdAckTokens);
}

namespace {

/** Controller that records message arrival times. */
class SinkController : public Controller
{
  public:
    SinkController(SimContext &ctx, MachineID id) : Controller(ctx, id)
    {}
    void
    handleMsg(const Msg &msg) override
    {
        arrivals.push_back({ctx.now(), msg});
    }
    std::vector<std::pair<Tick, Msg>> arrivals;

    /** Expose send for tests. */
    void
    testSend(Msg m, Tick delay = 0)
    {
        send(std::move(m), delay);
    }
};

struct NetFixture
{
    SimContext ctx;
    std::unique_ptr<Network> net;
    std::vector<std::unique_ptr<SinkController>> sinks;

    NetFixture()
    {
        net = std::make_unique<Network>(ctx.eventq, ctx.topo,
                                        NetworkParams{});
        ctx.net = net.get();
        const Topology &t = ctx.topo;
        for (unsigned c = 0; c < t.numCmps; ++c) {
            for (unsigned p = 0; p < t.procsPerCmp; ++p) {
                add(t.l1d(c, p));
                add(t.l1i(c, p));
            }
            for (unsigned b = 0; b < t.l2BanksPerCmp; ++b)
                add(t.l2(c, b));
            add(t.mem(c));
        }
    }

    void
    add(MachineID id)
    {
        auto s = std::make_unique<SinkController>(ctx, id);
        net->registerController(s.get());
        sinks.push_back(std::move(s));
    }

    SinkController &
    sink(MachineID id)
    {
        for (auto &s : sinks) {
            if (s->id() == id)
                return *s;
        }
        throw std::runtime_error("no sink");
    }
};

} // namespace

TEST(Network, IntraCmpLatency)
{
    NetFixture f;
    Msg m;
    m.type = MsgType::GetS;
    m.addr = 0x1000;
    m.dst = f.ctx.topo.l2BankFor(0, 0x1000);
    f.sink(f.ctx.topo.l1d(0, 0)).testSend(m);
    f.ctx.eventq.run();
    auto &arr = f.sink(m.dst).arrivals;
    ASSERT_EQ(arr.size(), 1u);
    // 2 ns link + 8 B / 64 B/ns serialization = 2.125 ns.
    EXPECT_EQ(arr[0].first, ns(2) + 125);
}

TEST(Network, InterCmpLatency)
{
    NetFixture f;
    Msg m;
    m.type = MsgType::TokResponse;
    m.hasData = true;
    m.addr = 0x1000;
    m.dst = f.ctx.topo.l1d(2, 1);
    f.sink(f.ctx.topo.l1d(0, 0)).testSend(m);
    f.ctx.eventq.run();
    auto &arr = f.sink(m.dst).arrivals;
    ASSERT_EQ(arr.size(), 1u);
    // 20 ns + 72 B / 16 B/ns = 24.5 ns.
    EXPECT_EQ(arr[0].first, ns(20) + 4500);
}

TEST(Network, MemoryPathAddsMemLink)
{
    NetFixture f;
    Msg m;
    m.type = MsgType::GetX;
    m.addr = 0;
    m.dst = f.ctx.topo.mem(3);
    f.sink(f.ctx.topo.l1d(0, 0)).testSend(m);
    f.ctx.eventq.run();
    auto &arr = f.sink(m.dst).arrivals;
    ASSERT_EQ(arr.size(), 1u);
    // inter (20 + 0.5) + memlink (20 + 0.5).
    EXPECT_EQ(arr[0].first, ns(40) + 1000);
}

TEST(Network, BandwidthSerializesBackToBackMessages)
{
    NetFixture f;
    Msg m;
    m.type = MsgType::TokResponse;
    m.hasData = true;  // 72 B at 16 B/ns = 4.5 ns serialization
    m.addr = 0x1000;
    m.dst = f.ctx.topo.l1d(1, 0);
    auto &src = f.sink(f.ctx.topo.l1d(0, 0));
    src.testSend(m);
    src.testSend(m);
    src.testSend(m);
    f.ctx.eventq.run();
    auto &arr = f.sink(m.dst).arrivals;
    ASSERT_EQ(arr.size(), 3u);
    EXPECT_EQ(arr[1].first - arr[0].first, 4500u);
    EXPECT_EQ(arr[2].first - arr[1].first, 4500u);
}

TEST(Network, TrafficAccountingByLevelAndClass)
{
    NetFixture f;
    Msg m;
    m.type = MsgType::GetS;
    m.addr = 0x1000;
    m.dst = f.ctx.topo.l1d(0, 1);  // intra
    f.sink(f.ctx.topo.l1d(0, 0)).testSend(m);
    m.dst = f.ctx.topo.l1d(1, 0);  // inter
    f.sink(f.ctx.topo.l1d(0, 0)).testSend(m);
    f.ctx.eventq.run();
    EXPECT_EQ(f.net->bytes(NetLevel::Intra, TrafficClass::Request), 8u);
    EXPECT_EQ(f.net->bytes(NetLevel::Inter, TrafficClass::Request), 8u);
    EXPECT_EQ(f.net->bytesByLevel(NetLevel::MemLink), 0u);
    EXPECT_EQ(f.net->totalMessages(), 2u);
    f.net->clearStats();
    EXPECT_EQ(f.net->bytesByLevel(NetLevel::Intra), 0u);
}

TEST(Network, SameTickMessagesToOneControllerArriveInSendOrder)
{
    // Three sources on one chip each own an intra port, so control
    // messages sent at tick 0 all reach the L2 bank at 2.125 ns. A
    // closure scheduled for that tick between the first and second
    // send must run between their deliveries: every message is its
    // own event in (tick, seq) order.
    NetFixture f;
    const Topology &t = f.ctx.topo;
    const MachineID dst = t.l2(0, 0);
    const Tick arrival = ns(2) + 125;
    auto sendFrom = [&](unsigned proc, Addr addr) {
        Msg m;
        m.type = MsgType::GetS;
        m.addr = addr;
        m.dst = dst;
        f.sink(t.l1d(0, proc)).testSend(m);
    };
    auto &arr = f.sink(dst).arrivals;
    std::size_t seen_by_closure = ~std::size_t(0);

    sendFrom(0, 0x1000);
    f.ctx.eventq.scheduleAbs(arrival, [&] {
        seen_by_closure = arr.size();
    });
    sendFrom(1, 0x2000);
    sendFrom(2, 0x3000);
    f.ctx.eventq.run();

    ASSERT_EQ(arr.size(), 3u);
    for (const auto &a : arr)
        EXPECT_EQ(a.first, arrival);
    EXPECT_EQ(arr[0].second.addr, 0x1000u);
    EXPECT_EQ(arr[1].second.addr, 0x2000u);
    EXPECT_EQ(arr[2].second.addr, 0x3000u);
    EXPECT_EQ(seen_by_closure, 1u);
}

TEST(Network, InFlightCountsUntilDeliveredOrDropped)
{
    NetFixture f;
    const Topology &t = f.ctx.topo;
    Msg m;
    m.type = MsgType::GetS;
    m.addr = 0x1000;
    auto send3 = [&] {
        for (unsigned c = 1; c < 4; ++c) {
            m.dst = t.l1d(c, 0);
            f.sink(t.l1d(0, 0)).testSend(m);
        }
    };
    auto delivered = [&] {
        std::size_t n = 0;
        for (unsigned c = 1; c < 4; ++c)
            n += f.sink(t.l1d(c, 0)).arrivals.size();
        return n;
    };

    EXPECT_EQ(f.net->inFlight(), 0u);
    send3();
    EXPECT_EQ(f.net->inFlight(), 3u);
    f.ctx.eventq.run();
    EXPECT_EQ(delivered(), 3u);
    EXPECT_EQ(f.net->inFlight(), 0u);

    // Dropped undelivered: the count still returns to zero, and the
    // recycled events deliver normally afterwards.
    send3();
    EXPECT_EQ(f.net->inFlight(), 3u);
    f.ctx.eventq.releaseAll();
    EXPECT_EQ(f.net->inFlight(), 0u);
    EXPECT_EQ(delivered(), 3u);

    send3();
    f.ctx.eventq.run();
    EXPECT_EQ(delivered(), 6u);
    EXPECT_EQ(f.net->inFlight(), 0u);
    EXPECT_EQ(f.net->totalMessages(), 9u);
}

TEST(Network, SelfSendPanics)
{
    NetFixture f;
    Msg m;
    m.type = MsgType::GetS;
    m.dst = f.ctx.topo.l1d(0, 0);
    EXPECT_DEATH(f.sink(f.ctx.topo.l1d(0, 0)).testSend(m), "self");
}

} // namespace tokencmp
