/**
 * @file
 * Model-checker equivalence tests. The safety net is a verbatim copy
 * of the checker as it was before the flat state store (an
 * unordered_map from state vectors to ids, a deque frontier and
 * per-state predecessor vectors): on every fast table5 model and on a
 * seeded fuzz of random toy graphs, the store-based Checker must
 * report the same counts, diameter, verdicts, violation text and
 * progress trace. The reference fills no trace for safety violations
 * or deadlocks, so those traces are checked against the BFS parent
 * path computed by a separate naive search. A few direct tests pin
 * StateStore itself.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "mc/checker.hh"
#include "mc/dir_model.hh"
#include "mc/hier_model.hh"
#include "mc/state_store.hh"
#include "mc/token_model.hh"
#include "sim/random.hh"

namespace tokencmp::mc {
namespace {

// ---------------------------------------------------------------------
// Pre-store reference, kept verbatim from Checker::run apart from its
// class name. Do not "clean it up": it is the specification.
// ---------------------------------------------------------------------

struct StateHash
{
    std::size_t
    operator()(const State &s) const
    {
        // FNV-1a over the serialized state.
        std::size_t h = 1469598103934665603ull;
        for (std::uint8_t b : s) {
            h ^= b;
            h *= 1099511628211ull;
        }
        return h;
    }
};

class RefChecker
{
  public:
    explicit RefChecker(std::uint64_t max_states = 20'000'000)
        : _maxStates(max_states)
    {}

    CheckResult run(const Model &model) const;

  private:
    std::uint64_t _maxStates;
};

CheckResult
RefChecker::run(const Model &model) const
{
    const auto t0 = std::chrono::steady_clock::now();
    CheckResult res;

    std::unordered_map<State, std::uint64_t, StateHash> index;
    std::vector<std::vector<std::uint32_t>> preds;  //!< reverse edges
    std::vector<std::uint32_t> parent;     //!< BFS tree (traces)
    std::vector<State> stateOf;            //!< id -> state
    std::vector<std::uint8_t> obligation;  //!< carries an obligation
    std::vector<std::uint8_t> satisfied;   //!< obligations all met
    std::deque<std::pair<State, unsigned>> frontier;

    auto intern = [&](const State &s) -> std::pair<std::uint64_t, bool> {
        auto it = index.find(s);
        if (it != index.end())
            return {it->second, false};
        const std::uint64_t id = index.size();
        index.emplace(s, id);
        preds.emplace_back();
        parent.push_back(~std::uint32_t(0));
        stateOf.push_back(s);
        obligation.push_back(model.hasObligation(s) ? 1 : 0);
        satisfied.push_back(model.obligationMet(s) ? 1 : 0);
        return {id, true};
    };

    bool failed = false;
    for (const State &s : model.initialStates()) {
        const auto [id, fresh] = intern(s);
        (void)id;
        if (fresh) {
            const std::string v = model.invariant(s);
            if (!v.empty()) {
                res.violation = "initial state: " + v;
                failed = true;
            }
            frontier.emplace_back(s, 0);
        }
    }

    std::vector<State> succs;
    bool deadlock = false;
    while (!frontier.empty() && !failed) {
        auto [s, depth] = std::move(frontier.front());
        frontier.pop_front();
        res.diameter = std::max(res.diameter, depth);
        const std::uint64_t sid = index.at(s);

        succs.clear();
        model.successors(s, succs);
        if (succs.empty() && !model.quiescent(s)) {
            res.violation = "deadlock: non-quiescent state with no "
                            "successors";
            deadlock = true;
            break;
        }
        for (State &n : succs) {
            ++res.transitions;
            const auto [nid, fresh] = intern(n);
            preds[nid].push_back(std::uint32_t(sid));
            if (!fresh)
                continue;
            parent[nid] = std::uint32_t(sid);
            const std::string v = model.invariant(n);
            if (!v.empty()) {
                res.violation = v;
                failed = true;
                break;
            }
            if (index.size() > _maxStates) {
                res.violation = "state bound exceeded";
                failed = true;
                break;
            }
            frontier.emplace_back(std::move(n), depth + 1);
        }
    }

    res.states = index.size();
    res.safe = !failed && res.violation.empty();
    res.deadlockFree = !deadlock && res.safe;
    res.completed = res.safe && !deadlock;

    // Progress: every obligation-carrying state must be able to reach
    // a state where the obligation is satisfied (EF satisfied), checked
    // via backward reachability from all satisfied states.
    if (res.completed) {
        std::vector<std::uint8_t> can_reach(index.size(), 0);
        std::deque<std::uint64_t> work;
        for (std::uint64_t i = 0; i < index.size(); ++i) {
            if (satisfied[i]) {
                can_reach[i] = 1;
                work.push_back(i);
            }
        }
        while (!work.empty()) {
            const std::uint64_t i = work.front();
            work.pop_front();
            for (std::uint32_t p : preds[i]) {
                if (!can_reach[p]) {
                    can_reach[p] = 1;
                    work.push_back(p);
                }
            }
        }
        res.progress = true;
        for (std::uint64_t i = 0; i < index.size(); ++i) {
            if (obligation[i] && !can_reach[i]) {
                res.progress = false;
                res.violation =
                    "progress: an obligation can never be satisfied";
                // Reconstruct the BFS path to the stuck state.
                std::vector<std::uint64_t> path;
                for (std::uint64_t v = i; v != ~std::uint32_t(0);
                     v = parent[v]) {
                    path.push_back(v);
                    if (parent[v] == ~std::uint32_t(0))
                        break;
                }
                for (auto it = path.rbegin(); it != path.rend(); ++it)
                    res.trace.push_back(model.describe(stateOf[*it]));
                break;
            }
        }
    }

    const auto t1 = std::chrono::steady_clock::now();
    res.seconds =
        std::chrono::duration<double>(t1 - t0).count();
    return res;
}

/** Byte-string key for the ordered maps below (std::map over
 *  std::vector<uint8_t> keys trips a GCC 12 -Wstringop-overread false
 *  positive). */
std::string
key(const State &s)
{
    return std::string(s.begin(), s.end());
}

// ---------------------------------------------------------------------
// Trace oracle: a naive BFS (std::map index, first-discovery parents)
// in the checker's exploration order, stopped at the state where the
// reported failure happens.
// ---------------------------------------------------------------------

std::vector<std::string>
parentPathTrace(const Model &m, const CheckResult &r)
{
    const bool initial = r.violation.rfind("initial state: ", 0) == 0;
    const bool deadlock = r.violation.rfind("deadlock", 0) == 0;
    constexpr std::size_t kNone = ~std::size_t(0);
    std::map<std::string, std::size_t> index;
    std::vector<State> states;
    std::vector<std::size_t> parent;
    auto path = [&](std::size_t i) {
        std::vector<std::string> p;
        for (; i != kNone; i = parent[i])
            p.push_back(m.describe(states[i]));
        std::reverse(p.begin(), p.end());
        return p;
    };
    auto add = [&](const State &s, std::size_t from) {
        if (!index.emplace(key(s), states.size()).second)
            return false;
        states.push_back(s);
        parent.push_back(from);
        return true;
    };

    std::size_t lastBadInitial = kNone;
    for (const State &s : m.initialStates())
        if (add(s, kNone) && !m.invariant(s).empty())
            lastBadInitial = states.size() - 1;
    if (initial)
        return path(lastBadInitial);

    for (std::size_t head = 0; head < states.size(); ++head) {
        std::vector<State> succs;
        m.successors(states[head], succs);
        if (deadlock && succs.empty() && !m.quiescent(states[head]))
            return path(head);
        for (const State &n : succs)
            if (add(n, head) && !deadlock && !m.invariant(n).empty())
                return path(states.size() - 1);
    }
    ADD_FAILURE() << "oracle found no failing state for: "
                  << r.violation;
    return {};
}

/** Compare every CheckResult field except the wall time. */
void
expectEquivalent(const Model &m, std::uint64_t max_states,
                 const std::string &label)
{
    SCOPED_TRACE(label);
    const CheckResult ref = RefChecker(max_states).run(m);
    const CheckResult got = Checker(max_states).run(m);
    EXPECT_EQ(got.completed, ref.completed);
    EXPECT_EQ(got.safe, ref.safe);
    EXPECT_EQ(got.deadlockFree, ref.deadlockFree);
    EXPECT_EQ(got.progress, ref.progress);
    EXPECT_EQ(got.violation, ref.violation);
    EXPECT_EQ(got.states, ref.states);
    EXPECT_EQ(got.transitions, ref.transitions);
    EXPECT_EQ(got.diameter, ref.diameter);

    const bool stoppedAtState =
        !ref.safe && ref.violation != "state bound exceeded";
    if (stoppedAtState) {
        // Safety violation or deadlock: the reference has no trace.
        EXPECT_TRUE(ref.trace.empty());
        const auto want = parentPathTrace(m, ref);
        EXPECT_FALSE(want.empty());
        EXPECT_EQ(got.trace, want);
    } else {
        // Progress failures carry the reference's own trace; clean
        // and bounded runs carry none.
        EXPECT_EQ(got.trace, ref.trace);
    }
}

// ---------------------------------------------------------------------
// Random toy graphs: node i is a distinct byte string of 1 to 12
// bytes; each node has 0-4 successors (duplicates and self loops
// allowed) and random invariant hits, quiescence and obligations.
// ---------------------------------------------------------------------

class RandomGraphModel : public Model
{
  public:
    explicit RandomGraphModel(std::uint64_t seed)
    {
        Random rng(seed);
        const std::size_t n = 1 + rng.uniform(200);
        const double pBad = rng.chance(0.3) ? 0.02 : 0.0;
        const double pQuiet = rng.chance(0.5) ? 1.0 : 0.8;
        const double pOblig = rng.uniform(3) * 0.25;
        const double pMet = 0.1 + rng.uniform(3) * 0.3;
        const std::size_t maxDeg = 1 + rng.uniform(5);
        for (std::size_t i = 0; i < n; ++i) {
            Node node;
            // Multiples of 5 are one byte long, the rest 2-12 bytes;
            // the first byte is the id, so encodings are distinct.
            node.bytes = {std::uint8_t(i)};
            if (i % 5 != 0)
                node.bytes.resize(2 + (i * 7) % 11, std::uint8_t(i * 31));
            const std::size_t deg = rng.uniform(maxDeg);
            for (std::size_t k = 0; k < deg; ++k)
                node.succs.push_back(rng.uniform(n));
            node.bad = rng.chance(pBad);
            node.quiet = rng.chance(pQuiet);
            node.obligation = rng.chance(pOblig);
            node.met = rng.chance(pMet);
            _decode.emplace(key(node.bytes), i);
            _nodes.push_back(std::move(node));
        }
        const std::size_t inits = 1 + rng.uniform(3);
        for (std::size_t k = 0; k < inits; ++k)
            _initial.push_back(_nodes[rng.uniform(n)].bytes);
    }

    std::string name() const override { return "random-graph"; }

    std::vector<State>
    initialStates() const override
    {
        return _initial;
    }

    void
    successors(const State &s, std::vector<State> &out) const override
    {
        for (std::size_t j : node(s).succs)
            out.push_back(_nodes[j].bytes);
    }

    std::string
    invariant(const State &s) const override
    {
        return node(s).bad ? "bad node " + describe(s) : "";
    }

    bool quiescent(const State &s) const override { return node(s).quiet; }
    bool
    hasObligation(const State &s) const override
    {
        return node(s).obligation;
    }
    bool obligationMet(const State &s) const override { return node(s).met; }

    std::string
    describe(const State &s) const override
    {
        return "n" + std::to_string(_decode.at(key(s)));
    }

  private:
    struct Node
    {
        State bytes;
        std::vector<std::size_t> succs;
        bool bad, quiet, obligation, met;
    };

    const Node &
    node(const State &s) const
    {
        return _nodes[_decode.at(key(s))];
    }

    std::vector<Node> _nodes;
    std::map<std::string, std::size_t> _decode;
    std::vector<State> _initial;
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

TEST(CheckerEquivalence, Table5CleanModels)
{
    expectEquivalent(TokenModel(smallToken(TokenVariant::Safety)),
                     20'000'000, "TokenCMP-safety");
    expectEquivalent(TokenModel(smallToken(TokenVariant::Arb)), 20'000'000,
                     "TokenCMP-arb");
    DirModelConfig dir;
    dir.caches = 2;
    expectEquivalent(DirModel(dir), 20'000'000, "Flat-DirectoryCMP");
}

TEST(CheckerEquivalence, Table5SeededBugs)
{
    auto token = smallToken(TokenVariant::Safety);
    token.bugWriteWithoutAll = true;
    expectEquivalent(TokenModel(token), 20'000'000, "write-without-all");
    token = smallToken(TokenVariant::Safety);
    token.bugOwnerNoData = true;
    expectEquivalent(TokenModel(token), 20'000'000, "owner-no-data");
    token = smallToken(TokenVariant::Safety);
    token.bugDataOnlyMessages = true;
    expectEquivalent(TokenModel(token), 20'000'000, "data-only-msgs");
    token = smallToken(TokenVariant::Dst);
    token.bugSkipMemActivate = true;
    token.maxMsgs = 1;
    token.issueLimit = 1;
    token.quietPolicy = true;
    expectEquivalent(TokenModel(token), 20'000'000, "skip-mem-activate");

    DirModelConfig dir;
    dir.caches = 3;
    dir.bugForgetInv = true;
    expectEquivalent(DirModel(dir), 20'000'000, "forget-invalidate");

    HierModelConfig hier;
    hier.bugServeOwnerAtS = true;
    expectEquivalent(HierModel(hier), 20'000'000, "serve-owner-at-S");
    hier = HierModelConfig();
    hier.bugAckInvNoRecall = true;
    expectEquivalent(HierModel(hier), 20'000'000, "ack-inv-no-recall");
    hier = HierModelConfig();
    hier.bugSkipInvAck = true;
    expectEquivalent(HierModel(hier), 20'000'000, "skip-inv-ack");
}

TEST(CheckerEquivalence, StateBoundOnRealModel)
{
    expectEquivalent(TokenModel(smallToken(TokenVariant::Safety)), 1000,
                     "TokenCMP-safety bound 1000");
}

TEST(CheckerEquivalence, RandomGraphFuzz)
{
    Random pick(0x5eed);
    unsigned safety = 0, deadlocks = 0, progress = 0, bounded = 0;
    for (std::uint64_t seed = 1; seed <= 600; ++seed) {
        const RandomGraphModel m(seed);
        const std::uint64_t bound =
            pick.chance(0.25) ? pick.uniform(40) : 20'000'000;
        expectEquivalent(m, bound, "seed " + std::to_string(seed));
        const CheckResult r = Checker(bound).run(m);
        safety += r.violation.find("bad node") != std::string::npos;
        deadlocks += r.violation.rfind("deadlock", 0) == 0;
        progress += r.completed && !r.progress;
        bounded += r.violation == "state bound exceeded";
    }
    // The fuzz must exercise every kind of outcome.
    EXPECT_GT(safety, 20u);
    EXPECT_GT(deadlocks, 20u);
    EXPECT_GT(progress, 20u);
    EXPECT_GT(bounded, 20u);
}

TEST(StateStore, DenseIdsInInsertionOrderAcrossGrowth)
{
    // Enough states of lengths 0-9 to force several table doublings.
    StateStore store;
    std::vector<State> states;
    for (std::uint32_t i = 0; i < 50'000; ++i) {
        State s(i % 10);
        for (std::size_t b = 0; b < s.size(); ++b)
            s[b] = std::uint8_t(i >> (8 * (b % 3)));
        const auto [id, fresh] = store.intern(s);
        if (!fresh) {
            EXPECT_EQ(states[id], s);
            continue;
        }
        EXPECT_EQ(id, states.size());
        states.push_back(s);
    }
    EXPECT_EQ(store.size(), states.size());
    for (std::uint32_t id = 0; id < states.size(); ++id) {
        EXPECT_EQ(store.get(id), states[id]);
        const auto [again, fresh] = store.intern(states[id]);
        EXPECT_EQ(again, id);
        EXPECT_FALSE(fresh);
    }
}

TEST(StateStore, PrefixesAndEmptyStateAreDistinct)
{
    StateStore store;
    EXPECT_EQ(store.intern(State{}).first, 0u);
    EXPECT_EQ(store.intern(State{0}).first, 1u);
    EXPECT_EQ(store.intern(State{0, 0}).first, 2u);
    EXPECT_EQ(store.intern(State(9, 0)).first, 3u);
    EXPECT_EQ(store.intern(State(8, 0)).first, 4u);
    EXPECT_EQ(store.intern(State{}).first, 0u);
    EXPECT_EQ(store.intern(State{0, 0}).first, 2u);
    EXPECT_EQ(store.size(), 5u);
    EXPECT_TRUE(store.get(0).empty());
}

} // namespace tokencmp::mc
