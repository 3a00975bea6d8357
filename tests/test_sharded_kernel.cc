/**
 * @file
 * Sharded-kernel determinism battery.
 *
 * Kernel level: randomized actor networks exchanging cross-shard
 * pings through FlipMailbox channels must produce bit-identical
 * per-shard execution traces for every worker count, and the mailbox
 * machinery must deliver every handoff exactly once, at exactly its
 * arrival tick, in canonical (source shard, send order) sequence at
 * window boundaries. Adversarial same-tick multi-source bursts pin
 * the virtual-channel merge order exactly, cross-checked between the
 * TimingWheel and ReferenceHeap backends.
 *
 * System level: fixed-seed full-machine runs (token, directory and
 * hier protocols) on the per-CMP shard domains must produce
 * bit-identical statistics for every `shards` worker count, with the
 * ReferenceHeap backend as the ordering oracle for the sharded wheel.
 * The sharded kernel is a *distinct* deterministic execution from the
 * serial one (different RNG streams and window boundaries); the
 * bit-identical contract is per kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/sharded_kernel.hh"
#include "test_util.hh"
#include "workload/synthetic.hh"

namespace tokencmp::test {
namespace {

// ---------------------------------------------------------------------
// Kernel-level toy simulation: actors + cross-shard pings
// ---------------------------------------------------------------------

struct Ping
{
    Tick arrival = 0;
    unsigned srcShard = 0;
    std::uint64_t srcSeq = 0;  //!< per-(src,dst) send order
    std::uint64_t payload = 0;
};

struct TraceEntry
{
    Tick tick = 0;
    std::uint64_t payload = 0;

    bool
    operator==(const TraceEntry &o) const
    {
        return tick == o.tick && payload == o.payload;
    }
};

/**
 * A toy sharded simulation: every shard runs self-rescheduling actor
 * chains; a pseudo-random subset of hops sends a ping to another
 * shard, arriving `crossLatency` later. Ping handlers append to the
 * destination shard's trace and occasionally reply. All state is
 * per-shard; mailboxes are the only cross-shard channel.
 */
class ToySim
{
  public:
    static constexpr Tick lookahead = ns(2);
    static constexpr Tick crossLatency = ns(2);  //!< == lookahead

    ToySim(unsigned shards, unsigned chains, std::uint64_t hops,
           std::uint64_t seed)
        : _shards(shards), _hops(hops)
    {
        for (unsigned s = 0; s < shards; ++s)
            _queues.push_back(std::make_unique<EventQueue>());
        _state.resize(shards);
        _mail.resize(shards * shards);
        for (unsigned s = 0; s < shards; ++s) {
            _state[s].rng.reseed(seed * 977 + s);
            for (unsigned c = 0; c < chains; ++c)
                scheduleHop(s, ns(1) + c * 17);
        }
    }

    void
    run(unsigned workers)
    {
        ShardedKernel kernel(queuePtrs(), lookahead, workers);
        ShardedKernel::Hooks hooks;
        hooks.onBarrier = [this](std::vector<Tick> &earliest) {
            flip(earliest);
        };
        hooks.intake = [this](unsigned s) { intake(s); };
        kernel.setHooks(std::move(hooks));
        ASSERT_EQ(kernel.run(), ShardedKernel::Outcome::Drained);
        _windows = kernel.windows();
    }

    const std::vector<TraceEntry> &trace(unsigned s) const
    {
        return _state[s].trace;
    }

    std::uint64_t pingsSent() const
    {
        std::uint64_t n = 0;
        for (const Shard &st : _state)
            n += st.pingsSent;
        return n;
    }

    std::uint64_t pingsReceived() const
    {
        std::uint64_t n = 0;
        for (const Shard &st : _state)
            n += st.pingsReceived;
        return n;
    }

    std::uint64_t windows() const { return _windows; }

  private:
    struct Shard
    {
        Random rng{1};
        std::uint64_t hopCount = 0;
        std::uint64_t pingsSent = 0;
        std::uint64_t pingsReceived = 0;
        std::vector<std::uint64_t> sendSeq;  //!< per destination
        std::vector<std::uint64_t> lastSeqAt; //!< per source, ordering
        std::vector<Tick> lastTickFrom;       //!< per source, ordering
        std::vector<TraceEntry> trace;
    };

    std::vector<EventQueue *>
    queuePtrs()
    {
        std::vector<EventQueue *> qs;
        for (auto &q : _queues)
            qs.push_back(q.get());
        return qs;
    }

    void
    scheduleHop(unsigned s, Tick delay)
    {
        _queues[s]->schedule(delay, [this, s]() { hop(s); });
    }

    void
    hop(unsigned s)
    {
        Shard &st = _state[s];
        if (++st.hopCount > _hops)
            return;
        st.trace.push_back({_queues[s]->curTick(), st.hopCount});
        // A third of hops ping another shard.
        if (_shards > 1 && st.rng.chance(1.0 / 3.0)) {
            const auto d = unsigned(st.rng.uniform(_shards - 1));
            const unsigned dst = d >= s ? d + 1 : d;
            st.sendSeq.resize(_shards, 0);
            Ping p;
            p.arrival = _queues[s]->curTick() + crossLatency +
                        Tick(st.rng.uniform(ns(5)));
            p.srcShard = s;
            p.srcSeq = ++st.sendSeq[dst];
            p.payload = (std::uint64_t(s) << 48) ^ st.hopCount;
            _mail[s * _shards + dst].push(p, p.arrival);
            ++st.pingsSent;
        }
        scheduleHop(s, ns(1) + Tick(st.rng.uniform(ns(3))));
    }

    void
    flip(std::vector<Tick> &earliest)
    {
        for (unsigned src = 0; src < _shards; ++src) {
            for (unsigned dst = 0; dst < _shards; ++dst) {
                auto &mb = _mail[src * _shards + dst];
                mb.flip();
                earliest[dst] =
                    std::min(earliest[dst], mb.pendingMin());
            }
        }
    }

    void
    intake(unsigned dst)
    {
        Shard &st = _state[dst];
        st.lastSeqAt.resize(_shards, 0);
        st.lastTickFrom.resize(_shards, 0);
        for (unsigned src = 0; src < _shards; ++src) {
            auto &mb = _mail[src * _shards + dst];
            for (const Ping &p : mb.pending()) {
                // Exact-ordering checks at the window boundary:
                // handoffs from one source arrive in send order, and
                // never for a tick the consumer has already passed.
                EXPECT_EQ(p.srcShard, src);
                EXPECT_EQ(p.srcSeq, st.lastSeqAt[src] + 1);
                st.lastSeqAt[src] = p.srcSeq;
                EXPECT_GE(p.arrival, _queues[dst]->curTick());
                const Ping ping = p;
                _queues[dst]->scheduleAbs(p.arrival, [this, dst, ping]() {
                    Shard &me = _state[dst];
                    // Delivered exactly at the arrival tick.
                    EXPECT_EQ(_queues[dst]->curTick(), ping.arrival);
                    ++me.pingsReceived;
                    me.trace.push_back({ping.arrival, ping.payload});
                });
            }
            mb.clearPending();
        }
    }

    unsigned _shards;
    std::uint64_t _hops;
    std::uint64_t _windows = 0;
    std::vector<std::unique_ptr<EventQueue>> _queues;
    std::vector<Shard> _state;
    std::vector<FlipMailbox<Ping>> _mail;
};

TEST(ShardedKernel, TracesBitIdenticalForEveryWorkerCount)
{
    // 4 shards x 8 chains, 2500 hops per shard -> ~10k traced events
    // plus a few thousand cross-shard pings.
    ToySim reference(4, 8, 2500, 42);
    reference.run(1);
    ASSERT_GT(reference.pingsSent(), 500u);
    EXPECT_EQ(reference.pingsSent(), reference.pingsReceived());

    for (unsigned workers : {2u, 3u, 4u, 8u}) {
        ToySim sim(4, 8, 2500, 42);
        sim.run(workers);
        EXPECT_EQ(sim.windows(), reference.windows());
        EXPECT_EQ(sim.pingsSent(), reference.pingsSent());
        EXPECT_EQ(sim.pingsReceived(), reference.pingsReceived());
        for (unsigned s = 0; s < 4; ++s) {
            ASSERT_EQ(sim.trace(s).size(), reference.trace(s).size())
                << "shard " << s << " workers " << workers;
            EXPECT_TRUE(sim.trace(s) == reference.trace(s))
                << "shard " << s << " trace diverged at workers="
                << workers;
        }
    }
}

TEST(ShardedKernel, MailboxStressDeliversEverythingInOrder)
{
    // Heavier randomized stress across several seeds: every ping must
    // be delivered exactly once, at its tick, in per-pair send order
    // (the EXPECTs inside ToySim::intake), independent of workers.
    for (std::uint64_t seed : {7u, 1234u, 99991u}) {
        ToySim serial(8, 4, 1250, seed);
        serial.run(1);
        ToySim parallel(8, 4, 1250, seed);
        parallel.run(4);
        EXPECT_EQ(serial.pingsSent(), serial.pingsReceived());
        EXPECT_EQ(parallel.pingsSent(), parallel.pingsReceived());
        EXPECT_EQ(parallel.pingsSent(), serial.pingsSent());
        for (unsigned s = 0; s < 8; ++s)
            EXPECT_TRUE(parallel.trace(s) == serial.trace(s));
    }
}

TEST(ShardedKernel, HorizonStopsBeforeCrossingEvents)
{
    EventQueue a, b;
    std::vector<Tick> fired;
    a.schedule(ns(1), [&]() { fired.push_back(ns(1)); });
    b.schedule(ns(5), [&]() { fired.push_back(ns(5)); });
    a.schedule(ns(50), [&]() { fired.push_back(ns(50)); });
    ShardedKernel kernel({&a, &b}, ns(2), 1);
    EXPECT_EQ(kernel.run(ns(10)), ShardedKernel::Outcome::Horizon);
    EXPECT_EQ(fired.size(), 2u);
    EXPECT_EQ(kernel.run(), ShardedKernel::Outcome::Drained);
    EXPECT_EQ(fired.size(), 3u);
}

TEST(ShardedKernel, LookaheadMatrixWidensWindowsForDistantPairs)
{
    // Three shards: 0 and 1 are "close" (lookahead 2 ns both ways),
    // 2 is "far" from both (40 ns). The heterogeneous bounds must let
    // the far shard run long windows while 0/1 window on 2 ns — and
    // the execution must match the uniform-minimum kernel exactly.
    const unsigned n = 3;
    auto mk_matrix = [&] {
        std::vector<Tick> la(n * n, ns(40));
        la[0 * n + 1] = la[1 * n + 0] = ns(2);
        return la;
    };

    auto runOnce = [&](bool matrix) {
        std::vector<std::unique_ptr<EventQueue>> qs;
        for (unsigned s = 0; s < n; ++s)
            qs.push_back(std::make_unique<EventQueue>());
        std::vector<FlipMailbox<Ping>> mail(n * n);
        std::vector<std::vector<TraceEntry>> traces(n);
        std::vector<std::uint64_t> seqs(n * n, 0);

        // Self-rescheduling chains that ping round-robin with the
        // legal minimum latency for each pair.
        struct Chain
        {
            unsigned shard;
            std::uint64_t count = 0;
        };
        std::vector<Chain> chains;
        for (unsigned s = 0; s < n; ++s)
            chains.push_back({s});
        std::function<void(unsigned)> hop = [&](unsigned s) {
            Chain &c = chains[s];
            if (++c.count > 600)
                return;
            traces[s].push_back({qs[s]->curTick(), c.count});
            const unsigned dst = (s + 1 + unsigned(c.count % (n - 1))) % n;
            if (dst != s) {
                const Tick la =
                    (s + dst == 1) ? ns(2) : ns(40);  // pair (0,1) close
                Ping p;
                // +50 ps keeps ping arrivals off the hop-tick grid
                // (multiples of 100 ps), so same-tick ties between
                // hops and pings — whose order is a per-kernel
                // choice — cannot occur.
                p.arrival = qs[s]->curTick() + la + 50;
                p.srcShard = s;
                p.srcSeq = ++seqs[s * n + dst];
                p.payload = (std::uint64_t(s) << 32) | c.count;
                mail[s * n + dst].push(p, p.arrival);
            }
            qs[s]->schedule(ns(1) + (c.count % 5) * 100,
                            [&hop, s]() { hop(s); });
        };
        for (unsigned s = 0; s < n; ++s)
            qs[s]->schedule(ns(1), [&hop, s]() { hop(s); });

        std::vector<EventQueue *> ptrs;
        for (auto &q : qs)
            ptrs.push_back(q.get());
        auto kernel =
            matrix ? std::make_unique<ShardedKernel>(ptrs, mk_matrix(), 2)
                   : std::make_unique<ShardedKernel>(ptrs, ns(2), 2);
        ShardedKernel::Hooks hooks;
        hooks.onBarrier = [&](std::vector<Tick> &earliest) {
            for (unsigned src = 0; src < n; ++src) {
                for (unsigned dst = 0; dst < n; ++dst) {
                    auto &mb = mail[src * n + dst];
                    mb.flip();
                    earliest[dst] =
                        std::min(earliest[dst], mb.pendingMin());
                }
            }
        };
        hooks.intake = [&](unsigned dst) {
            for (unsigned src = 0; src < n; ++src) {
                auto &mb = mail[src * n + dst];
                for (const Ping &p : mb.pending()) {
                    EXPECT_GE(p.arrival, qs[dst]->curTick());
                    const Ping ping = p;
                    qs[dst]->scheduleAbs(p.arrival, [&traces, dst,
                                                     ping]() {
                        traces[dst].push_back(
                            {ping.arrival, ping.payload});
                    });
                }
                mb.clearPending();
            }
        };
        kernel->setHooks(std::move(hooks));
        EXPECT_EQ(kernel->run(), ShardedKernel::Outcome::Drained);
        return std::make_pair(std::move(traces), kernel->windows());
    };

    auto [uniform_traces, uniform_windows] = runOnce(false);
    auto [matrix_traces, matrix_windows] = runOnce(true);
    // Same events at the same ticks under both kernels. Same-tick
    // ping-vs-ping ties may order differently (window boundaries are
    // a per-kernel choice), so compare as sorted (tick, payload).
    auto canon = [](std::vector<TraceEntry> t) {
        std::sort(t.begin(), t.end(),
                  [](const TraceEntry &a, const TraceEntry &b) {
                      return std::tie(a.tick, a.payload) <
                             std::tie(b.tick, b.payload);
                  });
        return t;
    };
    for (unsigned s = 0; s < n; ++s)
        EXPECT_TRUE(canon(matrix_traces[s]) == canon(uniform_traces[s]))
            << "shard " << s;
    // The matrix kernel must need *fewer* rounds: the far pairs no
    // longer drag every window down to 2 ns.
    EXPECT_LT(matrix_windows, uniform_windows);
}

// ---------------------------------------------------------------------
// Adversarial virtual-channel merge ordering
// ---------------------------------------------------------------------

/**
 * Same-tick multi-source bursts into one destination shard: sources
 * 1..S-1 each emit K pings per round, all arriving at the *same*
 * destination tick. The canonical drain order at the window boundary
 * is (source shard asc, send seq asc); since same-tick events execute
 * in insertion order, the destination's observed log must equal that
 * order exactly — for any worker count and for both scheduler
 * backends.
 */
class BurstSim
{
  public:
    BurstSim(unsigned shards, unsigned pings_per_burst,
             unsigned rounds, SchedulerKind kind)
        : _shards(shards), _k(pings_per_burst), _rounds(rounds)
    {
        for (unsigned s = 0; s < shards; ++s) {
            auto q = std::make_unique<EventQueue>(kind);
            _queues.push_back(std::move(q));
        }
        _mail.resize(shards * shards);
        _seq.assign(shards, 0);
        for (unsigned r = 0; r < rounds; ++r) {
            const Tick t = ns(10) * (r + 1);
            for (unsigned s = 1; s < shards; ++s) {
                _queues[s]->scheduleAbs(t, [this, s, t]() {
                    burst(s, t);
                });
            }
            // An adversarial local event at the destination for the
            // same arrival tick, scheduled *before* any handoff is
            // enqueued: it must stay ahead of the whole burst.
            _queues[0]->scheduleAbs(arrivalFor(t), [this, t]() {
                _log.push_back({arrivalFor(t), 0, 0});
            });
        }
    }

    void
    run(unsigned workers)
    {
        std::vector<EventQueue *> qs;
        for (auto &q : _queues)
            qs.push_back(q.get());
        ShardedKernel kernel(qs, lookahead, workers);
        ShardedKernel::Hooks hooks;
        hooks.onBarrier = [this](std::vector<Tick> &earliest) {
            for (unsigned src = 0; src < _shards; ++src) {
                for (unsigned dst = 0; dst < _shards; ++dst) {
                    auto &mb = _mail[src * _shards + dst];
                    mb.flip();
                    earliest[dst] =
                        std::min(earliest[dst], mb.pendingMin());
                }
            }
        };
        hooks.intake = [this](unsigned dst) {
            for (unsigned src = 0; src < _shards; ++src) {
                auto &mb = _mail[src * _shards + dst];
                for (const Ping &p : mb.pending()) {
                    const Ping ping = p;
                    _queues[dst]->scheduleAbs(
                        p.arrival, [this, ping]() {
                            _log.push_back({ping.arrival,
                                            ping.srcShard,
                                            ping.srcSeq});
                        });
                }
                mb.clearPending();
            }
        };
        kernel.setHooks(std::move(hooks));
        ASSERT_EQ(kernel.run(), ShardedKernel::Outcome::Drained);
    }

    struct LogEntry
    {
        Tick tick;
        unsigned src;
        std::uint64_t seq;

        bool
        operator==(const LogEntry &o) const
        {
            return tick == o.tick && src == o.src && seq == o.seq;
        }
    };

    const std::vector<LogEntry> &log() const { return _log; }

    /** The exact canonical expectation: per round, the local marker
     *  first, then sources ascending, send order within a source. */
    std::vector<LogEntry>
    expected() const
    {
        std::vector<LogEntry> e;
        std::vector<std::uint64_t> seq(_shards, 0);
        for (unsigned r = 0; r < _rounds; ++r) {
            const Tick a = arrivalFor(ns(10) * (r + 1));
            e.push_back({a, 0, 0});
            for (unsigned s = 1; s < _shards; ++s) {
                for (unsigned i = 0; i < _k; ++i)
                    e.push_back({a, s, ++seq[s]});
            }
        }
        return e;
    }

  private:
    static constexpr Tick lookahead = ns(2);

    static Tick arrivalFor(Tick t) { return t + ns(4); }

    void
    burst(unsigned s, Tick t)
    {
        for (unsigned i = 0; i < _k; ++i) {
            Ping p;
            p.arrival = arrivalFor(t);  // same tick from every source
            p.srcShard = s;
            p.srcSeq = ++_seq[s];
            _mail[s * _shards + 0].push(p, p.arrival);
        }
    }

    unsigned _shards;
    unsigned _k;
    unsigned _rounds;
    std::vector<std::unique_ptr<EventQueue>> _queues;
    std::vector<FlipMailbox<Ping>> _mail;
    std::vector<std::uint64_t> _seq;
    std::vector<LogEntry> _log;
};

TEST(ShardedKernel, SameTickBurstsDrainInCanonicalSourceSeqOrder)
{
    for (unsigned workers : {1u, 2u, 5u}) {
        BurstSim sim(5, 7, 6, SchedulerKind::TimingWheel);
        sim.run(workers);
        const auto expect = sim.expected();
        ASSERT_EQ(sim.log().size(), expect.size())
            << "workers " << workers;
        EXPECT_TRUE(sim.log() == expect)
            << "canonical (srcDomain, sendSeq) order violated at "
            << "workers=" << workers;
    }
}

TEST(ShardedKernel, BurstMergeOrderIdenticalAcrossSchedulerBackends)
{
    BurstSim wheel(6, 5, 4, SchedulerKind::TimingWheel);
    wheel.run(3);
    BurstSim heap(6, 5, 4, SchedulerKind::ReferenceHeap);
    heap.run(3);
    ASSERT_EQ(wheel.log().size(), heap.log().size());
    EXPECT_TRUE(wheel.log() == heap.log());
    EXPECT_TRUE(wheel.log() == wheel.expected());
}

// ---------------------------------------------------------------------
// Full-system determinism sweep
// ---------------------------------------------------------------------

struct RunSummary
{
    bool completed = false;
    Tick runtime = 0;
    std::uint64_t violations = 0;
    std::map<std::string, double> stats;
};

RunSummary
runSystem(const std::string &proto, unsigned shards,
          SchedulerKind sched, std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.protocol = proto;
    cfg.seed = seed;
    cfg.shards = shards;
    cfg.scheduler = sched;
    cfg.finalize();

    SyntheticParams p = oltpParams();
    p.opsPerProc = 40;  // fig6-style mix, test-sized
    SyntheticWorkload wl(p);

    System sys(cfg);
    System::RunResult r = sys.run(wl);
    RunSummary s;
    s.completed = r.completed;
    s.runtime = r.runtime;
    s.violations = r.violations;
    s.stats = r.stats.all();
    return s;
}

void
expectSameRun(const RunSummary &a, const RunSummary &b,
              const std::string &what)
{
    EXPECT_EQ(a.completed, b.completed) << what;
    EXPECT_EQ(a.runtime, b.runtime) << what;
    EXPECT_EQ(a.violations, b.violations) << what;
    ASSERT_EQ(a.stats.size(), b.stats.size()) << what;
    for (const auto &[key, val] : a.stats) {
        auto it = b.stats.find(key);
        ASSERT_NE(it, b.stats.end()) << what << ": missing " << key;
        EXPECT_EQ(val, it->second) << what << ": " << key;
    }
}

class ShardSweep
    : public ::testing::TestWithParam<std::tuple<std::string, unsigned>>
{};

TEST_P(ShardSweep, StatsBitIdenticalAcrossWorkerCounts)
{
    const std::string proto = std::get<0>(GetParam());
    const unsigned shards = std::get<1>(GetParam());

    // Worker-count invariance: shards=1 is the canonical sharded
    // execution; more workers only change the thread mapping.
    const RunSummary base =
        runSystem(proto, 1, SchedulerKind::TimingWheel, 11);
    ASSERT_TRUE(base.completed);
    EXPECT_EQ(base.violations, 0u);

    const RunSummary run =
        runSystem(proto, shards, SchedulerKind::TimingWheel, 11);
    expectSameRun(run, base,
                  std::string(protocolName(proto)) + " shards=" +
                      std::to_string(shards));
}

TEST_P(ShardSweep, ReferenceHeapOracleMatchesWheel)
{
    const std::string proto = std::get<0>(GetParam());
    const unsigned shards = std::get<1>(GetParam());

    // The ReferenceHeap ordering oracle kept from the kernel overhaul:
    // per-shard wheels must order identically to per-shard heaps.
    const RunSummary wheel =
        runSystem(proto, shards, SchedulerKind::TimingWheel, 23);
    const RunSummary heap =
        runSystem(proto, shards, SchedulerKind::ReferenceHeap, 23);
    expectSameRun(wheel, heap,
                  std::string(protocolName(proto)) + " oracle shards=" +
                      std::to_string(shards));
}

INSTANTIATE_TEST_SUITE_P(
    ProtocolsByShards, ShardSweep,
    ::testing::Combine(::testing::Values(Protocol::TokenDst1,
                                         Protocol::DirectoryCMP,
                                         Protocol::HierCMP),
                       ::testing::Values(1u, 2u, 4u, 8u)),
    [](const auto &info) {
        std::string name(protocolName(std::get<0>(info.param)));
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name + "_shards" +
               std::to_string(std::get<1>(info.param));
    });

TEST(ShardedSystem, SerialAndShardedAgreeSemantically)
{
    // The serial kernel and the sharded kernel order same-tick
    // cross-domain events differently, so per-run timing statistics
    // may legitimately diverge; the semantic outcome must not.
    for (Protocol proto :
         {Protocol::TokenDst1, Protocol::DirectoryCMP,
          Protocol::HierCMP}) {
        const RunSummary serial =
            runSystem(proto, 0, SchedulerKind::ReferenceHeap, 31);
        const RunSummary sharded =
            runSystem(proto, 4, SchedulerKind::TimingWheel, 31);
        EXPECT_TRUE(serial.completed);
        EXPECT_TRUE(sharded.completed) << protocolName(proto);
        EXPECT_EQ(serial.violations, 0u);
        EXPECT_EQ(sharded.violations, 0u) << protocolName(proto);
    }
}

TEST(ShardedSystem, LookaheadMatrixAddsMinimumSerialization)
{
    // Every message between two CMPs crosses the inter-CMP link, and
    // with bandwidth modeled it serializes onto that link before the
    // link latency starts; paths through a memory controller add a
    // 20 ns memory link on top. So each off-diagonal entry of the
    // per-CMP matrix is the link latency plus the serialization of
    // the smallest wire size minWireBytes admits between two caches.
    SystemConfig cfg;
    cfg.protocol = Protocol::TokenDst1;
    cfg.seed = 11;
    cfg.shards = 2;
    cfg.finalize();

    unsigned min_bytes = kDataBytes;
    const MachineType caches[] = {MachineType::L1D, MachineType::L1I,
                                  MachineType::L2Bank};
    for (MachineType a : caches) {
        for (MachineType b : caches)
            min_bytes = std::min(min_bytes, minWireBytes(a, b));
    }
    const Tick ser = Tick(std::llround(double(min_bytes) *
                                       double(ticksPerNs) /
                                       cfg.net.interBytesPerNs));
    EXPECT_GT(ser, 0u);

    System sys(cfg);
    const std::vector<Tick> &matrix = sys.context().net->lookaheadMatrix();
    const unsigned n = cfg.topo.numCmps;
    ASSERT_EQ(sys.numDomains(), n);
    ASSERT_EQ(matrix.size(), std::size_t(n) * n);
    for (unsigned s = 0; s < n; ++s) {
        for (unsigned d = 0; d < n; ++d) {
            const Tick expected = s == d ? EventQueue::noTick
                                         : cfg.net.interLatency + ser;
            EXPECT_EQ(matrix[s * n + d], expected)
                << "lookahead(" << s << ", " << d << ")";
        }
    }

    // The bound is sound: a too-wide entry would deliver into a
    // shard's past and panic, or corrupt the workload's invariants.
    SyntheticParams p = oltpParams();
    p.opsPerProc = 40;
    SyntheticWorkload wl(p);
    const System::RunResult r = sys.run(wl);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.violations, 0u);
    EXPECT_GT(sys.shardedWindows(), 0u);
}

} // namespace
} // namespace tokencmp::test
