/**
 * @file
 * Property-based protocol stress: randomized operation soup over a
 * small, hot address pool, swept across protocols and seeds
 * (parameterized), with the token auditor active throughout and
 * linearizability of atomic counters checked at the end. This is the
 * simulator analogue of the Ruby random tester.
 */

#include <gtest/gtest.h>

#include "test_util.hh"

namespace tokencmp::test {

namespace {

/** Random mix of loads, stores, atomics and fetches on few blocks. */
class SoupWorkload : public Workload
{
  public:
    SoupWorkload(unsigned blocks, unsigned ops, std::uint64_t seed)
        : _blocks(blocks), _ops(ops), _seed(seed)
    {}

    class Thread : public ThreadContext
    {
      public:
        Thread(SimContext &ctx, Sequencer &seq, SoupWorkload &wl,
               std::uint64_t seed)
            : ThreadContext(ctx, seq), _wl(wl)
        {
            reseed(seed);
        }
        void start() override { step(); }

      private:
        Addr
        pick()
        {
            return 0x50000 +
                   Addr(_rng.uniform(_wl._blocks)) * blockBytes;
        }

        void
        step()
        {
            if (_done++ >= _wl._ops) {
                finish();
                return;
            }
            const Addr a = pick();
            switch (_rng.uniform(4)) {
              case 0:
                load(a, [this](std::uint64_t) { next(); });
                return;
              case 1:
                store(a, _done, [this]() { next(); });
                return;
              case 2:
                // Atomic increments live on a dedicated block outside
                // the random pool so plain stores cannot clobber it;
                // the final value is checked exactly.
                atomic(0x60000,
                       [](std::uint64_t v) { return v + 1; },
                       [this](std::uint64_t) {
                           ++_wl._incs;
                           next();
                       });
                return;
              default:
                ifetch(a, [this]() { next(); });
                return;
            }
        }

        void
        next()
        {
            think(1 + _rng.uniform(ns(20)), [this]() { step(); });
        }

        SoupWorkload &_wl;
        unsigned _done = 0;
    };

    std::unique_ptr<ThreadContext>
    makeThread(SimContext &ctx, Sequencer &seq, unsigned,
               std::uint64_t seed) override
    {
        return std::make_unique<Thread>(ctx, seq, *this,
                                        seed ^ _seed);
    }

    std::string name() const override { return "soup"; }

    unsigned _blocks;
    unsigned _ops;
    std::uint64_t _seed;
    std::uint64_t _incs = 0;
};

using Param = std::tuple<std::string, unsigned>;

class ProtocolSoup : public ::testing::TestWithParam<Param>
{};

} // namespace

TEST_P(ProtocolSoup, RandomOpsPreserveCoherence)
{
    const auto [proto, seed] = GetParam();
    SystemConfig cfg;
    cfg.protocol = proto;
    cfg.seed = seed;
    System sys(cfg);

    SoupWorkload wl(6, 60, seed * 977);
    auto res = sys.run(wl);
    ASSERT_TRUE(res.completed) << protocolName(proto);

    // Linearizability: the atomic-increment count must be exact.
    EXPECT_EQ(runLoad(sys, seed % 16, 0x60000), wl._incs)
        << protocolName(proto) << " seed " << seed;

    drain(sys);
    if (sys.tokenGlobals() != nullptr)
        sys.tokenGlobals()->auditor.checkAll(true);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProtocolSoup,
    ::testing::Combine(::testing::ValuesIn(kPaperProtocols),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)),
    [](const ::testing::TestParamInfo<Param> &info) {
        std::string n = protocolName(std::get<0>(info.param));
        for (char &c : n) {
            if (c == '-')
                c = '_';
        }
        return n + "_seed" + std::to_string(std::get<1>(info.param));
    });

} // namespace tokencmp::test
