/**
 * @file
 * ResidencyQueue tests. The safety net is a lock-step fuzz against a
 * verbatim copy of the hier shim's pre-refactor residency code (a
 * deque of addresses rescanned from the front on every over-cap
 * fetch): the same random stream of residency changes, eligibility
 * flips and evictions must give the same victims in the same order
 * and the same residual queue. Victim order is pinned by the
 * fixed-seed hier digests, so the equivalence is the test.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "hier/residency_queue.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace tokencmp {
namespace {

constexpr int kTotalTokens = 16;

// ---------------------------------------------------------------------
// Pre-refactor reference, kept verbatim from HierShim (becomeResident,
// leaveResident, maybeEvict) apart from the block state it reads:
// `busy` stands in for the fetch/recall/writeback/external fields,
// `persistent` for ptable.activeFor(a) >= 0, and the eviction body is
// reduced to what residency sees (S drops silently, anything else
// starts a writeback, which makes the block busy). Do not "clean it
// up": it is the specification.
// ---------------------------------------------------------------------

class RefResidency
{
  public:
    struct Blk
    {
        int tokens = kTotalTokens;
        bool busy = false;
        bool persistent = false;
        bool shared = false;
        bool inLru = false;        //!< residency-queue membership
    };

    explicit RefResidency(unsigned residency_cap)
        : _residencyCap(residency_cap)
    {}

    Blk &
    ensureBlock(Addr addr)
    {
        return _blocks[addr];
    }

    void
    becomeResident(Addr addr, Blk &b)
    {
        if (b.inLru)
            return;
        b.inLru = true;
        _lru.push_back(addr);
        ++_resident;
    }

    void
    leaveResident(Blk &b)
    {
        if (!b.inLru)
            return;
        b.inLru = false;
        --_resident;
    }

    void
    maybeEvict(Addr just_fetched)
    {
        if (_residencyCap == 0)
            return;
        std::size_t scans = _lru.size();
        while (_resident > _residencyCap && scans-- > 0 && !_lru.empty()) {
            const Addr a = _lru.front();
            _lru.pop_front();
            ++visits;
            auto it = _blocks.find(a);
            if (it == _blocks.end() || !it->second.inLru)
                continue;  // stale queue entry
            Blk &b = ensureBlock(a);
            const bool busy = b.busy || b.persistent;
            if (busy || b.tokens != kTotalTokens ||
                a == just_fetched) {
                _lru.push_back(a);  // rotate; soft cap
                continue;
            }
            victims.push_back(a);
            if (b.shared) {
                leaveResident(b);
            } else {
                b.busy = true;
                leaveResident(b);
            }
        }
    }

    unsigned resident() const { return _resident; }
    const std::deque<Addr> &queue() const { return _lru; }

    std::vector<Addr> victims;
    std::uint64_t visits = 0;

  private:
    unsigned _residencyCap;
    std::unordered_map<Addr, Blk> _blocks;
    std::deque<Addr> _lru;     //!< FIFO residency queue (lazy entries)
    unsigned _resident = 0;
};

// ---------------------------------------------------------------------
// The same model over ResidencyQueue.
// ---------------------------------------------------------------------

struct Item
{
    Addr addr = 0;
    int tokens = kTotalTokens;
    bool busy = false;
    bool persistent = false;
    bool shared = false;
    ResidencySlot residency;
};

bool
evictable(const Item &b)
{
    return !b.busy && !b.persistent && b.tokens == kTotalTokens;
}

class NewResidency
{
  public:
    NewResidency(unsigned cap, unsigned items) : _cap(cap), _items(items)
    {
        for (unsigned i = 0; i < items; ++i)
            _items[i].addr = addrOf(i);
    }

    static Addr addrOf(unsigned i) { return Addr(i + 1) * 64; }

    Item &item(unsigned i) { return _items[i]; }

    void
    maybeEvict(Item *pinned)
    {
        q.evict(_cap, pinned, evictable, [this](Item &b) {
            victims.push_back(b.addr);
            if (!b.shared)
                b.busy = true;
        });
    }

    std::vector<Addr>
    queue() const
    {
        std::vector<Addr> out;
        q.forEachEntry([&](const Item &b) { out.push_back(b.addr); });
        return out;
    }

    ResidencyQueue<Item> q;
    std::vector<Addr> victims;

  private:
    unsigned _cap;
    std::vector<Item> _items;  // never resized: the queue holds pointers
};

struct FuzzTotals
{
    std::uint64_t refVisits = 0;
    std::uint64_t newVisits = 0;
    std::uint64_t evictCalls = 0;
    std::uint64_t victims = 0;
};

/**
 * One lock-step run: `ops` random operations on both models, with the
 * victim sequence, residual queue and resident count compared after
 * every operation.
 */
void
fuzzOnce(std::uint64_t seed, unsigned cap, unsigned ops, FuzzTotals &tot)
{
    Random rng(seed);
    const unsigned items = cap + 1 + unsigned(rng.uniform(2 * cap + 8));
    // How often a flip leaves a block evictable: low values keep most
    // of the queue ineligible, the regime where laps get skipped.
    const double p_ok = 0.05 + 0.5 * rng.uniformDouble();

    RefResidency ref(cap);
    NewResidency neu(cap, items);

    for (unsigned step = 0; step < ops; ++step) {
        const unsigned i = unsigned(rng.uniform(items));
        const Addr a = NewResidency::addrOf(i);
        RefResidency::Blk &rb = ref.ensureBlock(a);
        Item &nb = neu.item(i);
        const unsigned op = unsigned(rng.uniform(100));

        if (op < 30) {
            // Fetch completion: become resident, then evict with the
            // fetched block pinned (the shim's only entry path).
            ref.becomeResident(a, rb);
            neu.q.enter(nb);
            ref.maybeEvict(a);
            neu.maybeEvict(&nb);
            ++tot.evictCalls;
        } else if (op < 38) {
            // Residency left by an external Inv / exclusive handoff.
            ref.leaveResident(rb);
            neu.q.leave(nb);
        } else if (op < 43) {
            ref.becomeResident(a, rb);
            neu.q.enter(nb);
        } else if (op < 88) {
            // Eligibility flip. A touch may be omitted only when the
            // block did not become evictable.
            const bool ok = rng.chance(p_ok);
            const int tokens =
                ok ? kTotalTokens
                   : int(rng.uniform(kTotalTokens + 1));
            const bool busy = ok ? false : rng.chance(0.5);
            const bool persistent = ok ? false : rng.chance(0.3);
            const bool shared = rng.chance(0.5);
            rb.tokens = nb.tokens = tokens;
            rb.busy = nb.busy = busy;
            rb.persistent = nb.persistent = persistent;
            rb.shared = nb.shared = shared;
            if (evictable(nb) || rng.chance(0.5))
                neu.q.touch(nb);
        } else {
            // Over-cap check with no block, or some block, pinned.
            const bool pin = rng.chance(0.5);
            ref.maybeEvict(pin ? a : ~Addr(0));
            neu.maybeEvict(pin ? &nb : nullptr);
            ++tot.evictCalls;
        }

        ASSERT_EQ(ref.victims, neu.victims)
            << "seed " << seed << " cap " << cap << " step " << step;
        ASSERT_EQ(ref.resident(), neu.q.resident())
            << "seed " << seed << " cap " << cap << " step " << step;
        const std::deque<Addr> &rq = ref.queue();
        ASSERT_EQ(std::vector<Addr>(rq.begin(), rq.end()), neu.queue())
            << "seed " << seed << " cap " << cap << " step " << step;
    }
    tot.refVisits += ref.visits;
    tot.newVisits += neu.q.visits();
    tot.victims += neu.victims.size();
}

TEST(ResidencyQueue, LockStepWithRescanReference)
{
    FuzzTotals tot;
    for (unsigned cap = 1; cap <= 64; ++cap) {
        for (std::uint64_t s = 0; s < 6; ++s) {
            fuzzOnce(cap * 1000003ull + s * 7919ull, cap, 1500, tot);
            if (HasFatalFailure())
                return;
        }
    }
    // The stream must exercise evictions, and skipping must pay.
    EXPECT_GT(tot.victims, tot.evictCalls / 20);
    EXPECT_LT(tot.newVisits * 2, tot.refVisits)
        << "new " << tot.newVisits << " ref " << tot.refVisits;
}

TEST(ResidencyQueue, EvictsFrontFirstAndSkipsPinned)
{
    NewResidency m(2, 4);
    for (unsigned i = 0; i < 4; ++i)
        m.q.enter(m.item(i));
    m.maybeEvict(&m.item(0));
    // Item 0 is pinned, so items 1 and 2 go; 0 rotates behind 3.
    EXPECT_EQ(m.victims, (std::vector<Addr>{NewResidency::addrOf(1),
                                            NewResidency::addrOf(2)}));
    EXPECT_EQ(m.queue(), (std::vector<Addr>{NewResidency::addrOf(3),
                                            NewResidency::addrOf(0)}));
    EXPECT_EQ(m.q.resident(), 2u);
}

TEST(ResidencyQueue, ReentryBeforePopKeepsOldPosition)
{
    // The documented quirk: leaving and re-entering before the old
    // entry is popped revives that entry and appends a second one.
    NewResidency m(8, 3);
    for (unsigned i = 0; i < 3; ++i)
        m.q.enter(m.item(i));
    m.q.leave(m.item(0));
    m.q.enter(m.item(0));
    EXPECT_EQ(m.queue(), (std::vector<Addr>{NewResidency::addrOf(0),
                                            NewResidency::addrOf(1),
                                            NewResidency::addrOf(2),
                                            NewResidency::addrOf(0)}));
    EXPECT_EQ(m.q.resident(), 3u);
}

TEST(ResidencyQueue, SkippedLapDropsStaleEntries)
{
    NewResidency m(1, 3);
    for (unsigned i = 0; i < 3; ++i) {
        m.item(i).busy = true;
        m.q.enter(m.item(i));
    }
    m.maybeEvict(nullptr);  // full lap, nothing evictable: watching
    ASSERT_TRUE(m.q.watching());
    const std::uint64_t after_lap = m.q.visits();
    m.q.leave(m.item(0));
    m.maybeEvict(nullptr);  // skipped: item 0 is no longer resident
    EXPECT_TRUE(m.victims.empty());
    EXPECT_LE(m.q.visits() - after_lap, 1u);
    // The skipped lap dropped item 0's stale entry, so re-entering
    // puts it at the back only.
    m.q.enter(m.item(0));
    EXPECT_EQ(m.queue(), (std::vector<Addr>{NewResidency::addrOf(1),
                                            NewResidency::addrOf(2),
                                            NewResidency::addrOf(0)}));
    // A touched block that turned evictable ends the skipping.
    m.item(2).busy = false;
    m.q.touch(m.item(2));
    m.maybeEvict(nullptr);
    EXPECT_EQ(m.victims, (std::vector<Addr>{NewResidency::addrOf(2)}));
}

} // namespace
} // namespace tokencmp
