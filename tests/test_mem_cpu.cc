/**
 * @file
 * Unit tests for the cache array (geometry, LRU, pinning-aware victim
 * selection, zeroed storage, equivalence with the use-stamp reference),
 * the backing store, and the sequencer.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "directory/dir_state.hh"
#include "mem/backing_store.hh"
#include "mem/cache_array.hh"
#include "net/controller.hh"
#include "cpu/sequencer.hh"

namespace tokencmp {

namespace {

struct St
{
    int v = 0;
};

} // namespace

TEST(CacheArray, GeometryFromTable3)
{
    CacheArray<St> l1(128 * 1024, 4);
    EXPECT_EQ(l1.numSets(), 512u);
    CacheArray<St> l2(2 * 1024 * 1024, 4);
    EXPECT_EQ(l2.numSets(), 8192u);
}

TEST(CacheArray, ProbeInstallInvalidate)
{
    CacheArray<St> a(1024, 4);  // 4 sets
    EXPECT_EQ(a.probe(0x100), nullptr);
    auto *v = a.victim(0x100);
    a.install(v, 0x100);
    auto *line = a.probe(0x13f);  // same block
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->tag, 0x100u);
    a.invalidate(line);
    EXPECT_EQ(a.probe(0x100), nullptr);
}

TEST(CacheArray, LruVictimSelection)
{
    CacheArray<St> a(1024, 4);
    const Addr stride = 4 * 64;  // same set
    for (int i = 0; i < 4; ++i)
        a.install(a.victim(0x1000 + i * stride), 0x1000 + i * stride);
    // Touch block 0 so block 1 becomes LRU.
    a.touch(a.probe(0x1000));
    auto *victim = a.victim(0x1000 + 7 * stride);
    ASSERT_TRUE(victim->valid);
    EXPECT_EQ(victim->tag, 0x1000u + stride);
}

TEST(CacheArray, VictimWhereSkipsPinned)
{
    CacheArray<St> a(1024, 4);
    const Addr stride = 4 * 64;
    for (int i = 0; i < 4; ++i)
        a.install(a.victim(0x1000 + i * stride), 0x1000 + i * stride);
    const Addr pinned = 0x1000;  // the LRU line
    auto *victim = a.victimWhere(0x2000, [&](const CacheLine<St> &l) {
        return l.tag != pinned;
    });
    ASSERT_NE(victim, nullptr);
    EXPECT_NE(victim->tag, pinned);
    // All pinned: nullptr.
    auto *none = a.victimWhere(
        0x2000, [](const CacheLine<St> &) { return false; });
    EXPECT_EQ(none, nullptr);
}

TEST(CacheArray, NumValidCountsInstalls)
{
    CacheArray<St> a(1024, 4);
    a.install(a.victim(0x000), 0x000);
    a.install(a.victim(0x040), 0x040);
    EXPECT_EQ(a.numValid(), 2u);
    a.invalidate(a.probe(0x000));
    EXPECT_EQ(a.numValid(), 1u);
}

TEST(CacheArray, FreshArrayIsAllInvalid)
{
    // Zeroed storage must read as invalid lines everywhere, including
    // block 0, whose tag equals the zero fill.
    CacheArray<St> a(128 * 1024, 4);
    EXPECT_EQ(a.numValid(), 0u);
    const auto *way0 = a.victim(0);
    for (unsigned s = 0; s < 2 * a.numSets(); ++s) {
        const Addr addr = Addr(s) * blockBytes;
        EXPECT_EQ(a.probe(addr), nullptr) << "set " << s;
        EXPECT_EQ(a.victim(addr) - way0,
                  std::ptrdiff_t(s % a.numSets()) * a.assoc())
            << "set " << s;
    }
}

TEST(CacheArray, InstallAssignsDefaultStateOverZeroFill)
{
    // A zero-filled line holds ownerSlot 0, not DirL2St's default -1;
    // that is harmless only because install() assigns StateT{}.
    CacheArray<DirL2St> a(1024, 4);
    auto *line = a.victim(0x40);
    ASSERT_FALSE(line->valid);
    EXPECT_EQ(line->st.ownerSlot, 0);
    a.install(line, 0x40);
    EXPECT_EQ(line->st.ownerSlot, -1);
    line->st.ownerSlot = 3;
    a.invalidate(line);
    auto *again = a.victim(0x40);
    a.install(again, 0x40);
    EXPECT_EQ(again->st.ownerSlot, -1);
}

namespace ref {

// The cache array before zeroed storage and rank LRU, kept verbatim:
// eagerly built lines and a 64-bit use stamp per line. The rank LRU
// must pick the same victims and probe the same ways.
/** One cache line: tag bookkeeping plus protocol state. */
template <typename StateT>
struct CacheLine
{
    Addr tag = 0;               //!< block address (block-aligned)
    bool valid = false;         //!< line holds protocol state for tag
    std::uint64_t lruStamp = 0; //!< monotone use counter for LRU
    StateT st{};                //!< protocol-specific state
};

/**
 * Set-associative array of CacheLine<StateT> with strict-LRU victims.
 */
template <typename StateT>
class CacheArray
{
  public:
    using Line = CacheLine<StateT>;

    /**
     * @param size_bytes total capacity
     * @param assoc      associativity (ways)
     */
    CacheArray(std::uint64_t size_bytes, unsigned assoc)
        : _assoc(assoc)
    {
        if (assoc == 0 || size_bytes % (assoc * blockBytes) != 0)
            fatal("CacheArray: bad geometry (%llu bytes, %u-way)",
                  static_cast<unsigned long long>(size_bytes), assoc);
        _numSets = size_bytes / (assoc * blockBytes);
        if ((_numSets & (_numSets - 1)) != 0)
            fatal("CacheArray: set count must be a power of two");
        _lines.assign(_numSets * _assoc, Line{});
    }

    unsigned numSets() const { return _numSets; }
    unsigned assoc() const { return _assoc; }

    /** Find the valid line holding `addr`'s block, or nullptr. */
    Line *
    probe(Addr addr)
    {
        const Addr blk = blockAlign(addr);
        Line *set = setFor(blk);
        for (unsigned w = 0; w < _assoc; ++w) {
            if (set[w].valid && set[w].tag == blk)
                return &set[w];
        }
        return nullptr;
    }

    const Line *
    probe(Addr addr) const
    {
        return const_cast<CacheArray *>(this)->probe(addr);
    }

    /**
     * Choose a victim way in `addr`'s set: an invalid line if one
     * exists, otherwise the least-recently-used valid line. The caller
     * must evict a valid victim's contents before reusing it.
     */
    Line *
    victim(Addr addr)
    {
        Line *set = setFor(blockAlign(addr));
        Line *lru = &set[0];
        for (unsigned w = 0; w < _assoc; ++w) {
            if (!set[w].valid)
                return &set[w];
            if (set[w].lruStamp < lru->lruStamp)
                lru = &set[w];
        }
        return lru;
    }

    /**
     * Like victim(), but a valid line is only eligible when
     * `ok(line)` holds (e.g., not pinned by an outstanding miss).
     * Returns nullptr if every way is valid and ineligible.
     */
    template <typename Pred>
    Line *
    victimWhere(Addr addr, Pred ok)
    {
        Line *set = setFor(blockAlign(addr));
        Line *best = nullptr;
        for (unsigned w = 0; w < _assoc; ++w) {
            if (!set[w].valid)
                return &set[w];
            if (ok(set[w]) &&
                (best == nullptr || set[w].lruStamp < best->lruStamp)) {
                best = &set[w];
            }
        }
        return best;
    }

    /** Mark a line most-recently-used. */
    void touch(Line *line) { line->lruStamp = ++_useCounter; }

    /** Bind a (victim) line to a new block and mark it used. */
    void
    install(Line *line, Addr addr)
    {
        line->tag = blockAlign(addr);
        line->valid = true;
        line->st = StateT{};
        touch(line);
    }

    /** Invalidate a line. */
    void
    invalidate(Line *line)
    {
        line->valid = false;
        line->st = StateT{};
    }

    /** Apply `fn(line)` to every valid line. */
    template <typename Fn>
    void
    forEachValid(Fn fn)
    {
        for (auto &line : _lines) {
            if (line.valid)
                fn(line);
        }
    }

    /** Number of valid lines (for tests). */
    std::size_t
    numValid() const
    {
        std::size_t n = 0;
        for (const auto &line : _lines)
            n += line.valid ? 1 : 0;
        return n;
    }

  private:
    Line *
    setFor(Addr blk)
    {
        const std::size_t set =
            static_cast<std::size_t>(blockNumber(blk)) & (_numSets - 1);
        return &_lines[set * _assoc];
    }

    unsigned _assoc;
    std::size_t _numSets;
    std::uint64_t _useCounter = 0;
    std::vector<Line> _lines;
};

} // namespace ref

namespace {

template <typename LineT>
std::ptrdiff_t
wayOf(const LineT *base, const LineT *line)
{
    return line == nullptr ? -1 : line - base;
}

/**
 * Drive the rank-LRU array and the use-stamp reference with one seeded
 * trace of probes, touches, installs (with and without evicting
 * first), invalidations and victim queries, some filtered by
 * predicates that reject ways, and require identical answers.
 */
void
expectSameLruAs(unsigned assoc, unsigned ops, std::uint64_t seed)
{
    SCOPED_TRACE(testing::Message() << assoc << "-way, seed " << seed);
    const unsigned sets = 4;
    CacheArray<St> fast(sets * assoc * blockBytes, assoc);
    ref::CacheArray<St> slow(sets * assoc * blockBytes, assoc);
    const auto *fast0 = fast.victim(0);
    const auto *slow0 = slow.victim(0);
    std::mt19937_64 rng(seed);
    // Three blocks per line, so sets fill up and evict.
    const unsigned blocks = 3 * sets * assoc;

    for (unsigned i = 0; i < ops; ++i) {
        const Addr addr =
            Addr(rng() % blocks) * blockBytes + rng() % blockBytes;
        const unsigned r = unsigned(rng() % 100);
        auto *fl = fast.probe(addr);
        auto *sl = slow.probe(addr);
        ASSERT_EQ(wayOf(fast0, fl), wayOf(slow0, sl)) << "op " << i;
        if (fl != nullptr) {
            if (r < 15) {
                fast.invalidate(fl);
                slow.invalidate(sl);
            } else {
                fast.touch(fl);
                slow.touch(sl);
            }
            continue;
        }
        CacheLine<St> *fv = nullptr;
        ref::CacheLine<St> *sv = nullptr;
        if (r < 40) {
            fv = fast.victim(addr);
            sv = slow.victim(addr);
        } else if (r < 95) {
            // Reject roughly a third of the ways, by tag.
            const std::uint64_t salt = rng();
            auto ok = [salt](const auto &l) {
                return (blockNumber(l.tag) ^ salt) % 3 != 0;
            };
            fv = fast.victimWhere(addr, ok);
            sv = slow.victimWhere(addr, ok);
        } else {
            auto none = [](const auto &) { return false; };
            fv = fast.victimWhere(addr, none);
            sv = slow.victimWhere(addr, none);
        }
        ASSERT_EQ(wayOf(fast0, fv), wayOf(slow0, sv)) << "op " << i;
        if (fv == nullptr || r % 7 == 0)
            continue;  // a query only
        if (fv->valid && r % 2 == 0) {
            fast.invalidate(fv);  // evict, then refill
            slow.invalidate(sv);
        }
        fast.install(fv, addr);
        slow.install(sv, addr);
    }
    EXPECT_EQ(fast.numValid(), slow.numValid());
}

} // namespace

TEST(CacheArray, RankLruMatchesUseStampReference)
{
    // 4 x 300k = 1.2M operations across the associativities in use
    // (4) and around it.
    for (unsigned assoc : {1u, 2u, 4u, 8u})
        expectSameLruAs(assoc, 300000, 0x5eed0000 + assoc);
}

TEST(BackingStore, ReadWriteFootprint)
{
    BackingStore bs;
    EXPECT_EQ(bs.read(0x1000), 0u);
    bs.write(0x1000, 42);
    EXPECT_EQ(bs.read(0x1000), 42u);
    EXPECT_EQ(bs.read(0x1008), 42u);  // same block
    bs.write(0x2000, 1);
    EXPECT_EQ(bs.footprint(), 2u);
}

namespace {

/** Immediate-completion L1 stub for sequencer tests. */
class StubL1 : public L1CacheIF
{
  public:
    explicit StubL1(SimContext &ctx) : _ctx(ctx) {}
    void
    cpuRequest(const MemRequest &req) override
    {
        ++requests;
        lastOp = req.op;
        _ctx.eventq.schedule(ns(5), [req]() {
            req.callback(MemResult{7, ns(5)});
        });
    }
    unsigned requests = 0;
    MemOp lastOp = MemOp::Load;

  private:
    SimContext &_ctx;
};

} // namespace

TEST(Sequencer, RoutesOpsAndTracksLatency)
{
    SimContext ctx;
    StubL1 d(ctx), i(ctx);
    Sequencer seq(ctx, 3);
    seq.bind(&d, &i);
    EXPECT_EQ(seq.procId(), 3u);

    bool done = false;
    seq.load(0x100, [&](const MemResult &r) {
        EXPECT_EQ(r.value, 7u);
        done = true;
    });
    ctx.eventq.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(d.requests, 1u);
    EXPECT_EQ(i.requests, 0u);

    seq.ifetch(0x200, [&](const MemResult &) {});
    ctx.eventq.run();
    EXPECT_EQ(i.requests, 1u);
    EXPECT_EQ(i.lastOp, MemOp::Ifetch);
    EXPECT_EQ(seq.opsCompleted(), 2u);
    EXPECT_DOUBLE_EQ(seq.latencyStat().mean(), double(ns(5)));
}

TEST(Sequencer, RejectsOverlappingOps)
{
    SimContext ctx;
    StubL1 d(ctx), i(ctx);
    Sequencer seq(ctx, 0);
    seq.bind(&d, &i);
    seq.load(0x100, [](const MemResult &) {});
    EXPECT_DEATH(seq.load(0x200, [](const MemResult &) {}),
                 "outstanding");
}

} // namespace tokencmp
