#include "mc/checker.hh"

#include <chrono>

#include "mc/state_store.hh"
#include "sim/logging.hh"

namespace tokencmp::mc {

namespace {

constexpr std::uint32_t kNoParent = ~std::uint32_t(0);

} // namespace

Checker::Checker(std::uint64_t max_states) : _maxStates(max_states)
{
    // Ids are 32-bit and kNoParent is reserved; a run holds at most
    // max_states + 1 states.
    if (max_states >= kNoParent)
        fatal("Checker: state bound %llu does not fit 32-bit state ids "
              "(must be below 2^32 - 1)",
              (unsigned long long)max_states);
}

CheckResult
Checker::run(const Model &model) const
{
    const auto t0 = std::chrono::steady_clock::now();
    CheckResult res;

    // Ids are assigned in discovery order and every fresh state joins
    // the BFS queue as it gets its id, so the queue is always the id
    // range [head, store.size()).
    StateStore store;
    std::vector<std::uint32_t> parent;      //!< BFS tree (traces)
    std::vector<std::uint64_t> edgeBegin;   //!< id -> first out-edge
    std::vector<std::uint32_t> edgeDst;     //!< out-edges, by source

    // The BFS path from an initial state to `id`, rendered.
    auto traceTo = [&](std::uint32_t id) {
        std::vector<std::uint32_t> path;
        for (std::uint32_t v = id; v != kNoParent; v = parent[v])
            path.push_back(v);
        for (auto it = path.rbegin(); it != path.rend(); ++it)
            res.trace.push_back(model.describe(store.get(*it)));
    };

    bool failed = false;
    std::uint32_t failedAt = kNoParent;  //!< state the trace ends at
    for (const State &s : model.initialStates()) {
        const auto [id, fresh] = store.intern(s);
        if (fresh) {
            parent.push_back(kNoParent);
            const std::string v = model.invariant(s);
            if (!v.empty()) {
                res.violation = "initial state: " + v;
                failed = true;
                failedAt = id;
            }
        }
    }

    State cur;
    std::vector<State> succs;
    std::vector<std::uint64_t> hashes;
    bool deadlock = false;
    unsigned depth = 0;
    std::size_t levelEnd = store.size();  //!< first id one level deeper
    for (std::uint32_t sid = 0; sid < store.size() && !failed; ++sid) {
        if (sid == levelEnd) {
            ++depth;
            levelEnd = store.size();
        }
        res.diameter = depth;
        store.get(sid, cur);
        edgeBegin.push_back(edgeDst.size());

        succs.clear();
        model.successors(cur, succs);
        if (succs.empty() && !model.quiescent(cur)) {
            res.violation = "deadlock: non-quiescent state with no "
                            "successors";
            deadlock = true;
            failedAt = sid;
            break;
        }
        // Hash every successor and prefetch its home slot first, so
        // the table's cache misses overlap instead of queueing.
        hashes.clear();
        for (const State &n : succs) {
            hashes.push_back(StateStore::hash(n.data(), n.size()));
            store.prefetch(hashes.back());
        }
        for (std::size_t k = 0; k < succs.size(); ++k) {
            const State &n = succs[k];
            ++res.transitions;
            const auto [nid, fresh] =
                store.intern(n.data(), n.size(), hashes[k]);
            edgeDst.push_back(nid);
            if (!fresh)
                continue;
            parent.push_back(sid);
            const std::string v = model.invariant(n);
            if (!v.empty()) {
                res.violation = v;
                failed = true;
                failedAt = nid;
                break;
            }
            if (store.size() > _maxStates) {
                res.violation = "state bound exceeded";
                failed = true;
                break;
            }
        }
    }

    const std::size_t n = store.size();
    res.states = n;
    res.safe = !failed && res.violation.empty();
    res.deadlockFree = !deadlock && res.safe;
    res.completed = res.safe && !deadlock;
    if (failedAt != kNoParent)
        traceTo(failedAt);

    // Progress: every obligation-carrying state must be able to reach
    // a state where the obligation is satisfied (EF satisfied), checked
    // via backward reachability from all satisfied states over the
    // reverse edges, built here by counting sort.
    if (res.completed) {
        edgeBegin.push_back(edgeDst.size());
        std::vector<std::uint64_t> predBegin(n + 1, 0);
        for (std::uint32_t d : edgeDst)
            ++predBegin[d + 1];
        for (std::size_t i = 0; i < n; ++i)
            predBegin[i + 1] += predBegin[i];
        std::vector<std::uint32_t> preds(edgeDst.size());
        {
            std::vector<std::uint64_t> fill(predBegin.begin(),
                                            predBegin.end() - 1);
            for (std::uint32_t src = 0; src < n; ++src)
                for (std::uint64_t e = edgeBegin[src];
                     e < edgeBegin[src + 1]; ++e)
                    preds[fill[edgeDst[e]]++] = src;
        }
        std::vector<std::uint32_t>().swap(edgeDst);

        std::vector<std::uint8_t> can_reach(n, 0);
        std::vector<std::uint32_t> work;
        for (std::uint32_t i = 0; i < n; ++i) {
            store.get(i, cur);
            if (model.obligationMet(cur)) {
                can_reach[i] = 1;
                work.push_back(i);
            }
        }
        while (!work.empty()) {
            const std::uint32_t i = work.back();
            work.pop_back();
            for (std::uint64_t e = predBegin[i]; e < predBegin[i + 1];
                 ++e) {
                const std::uint32_t p = preds[e];
                if (!can_reach[p]) {
                    can_reach[p] = 1;
                    work.push_back(p);
                }
            }
        }
        res.progress = true;
        for (std::uint32_t i = 0; i < n; ++i) {
            if (can_reach[i])
                continue;
            store.get(i, cur);
            if (model.hasObligation(cur)) {
                res.progress = false;
                res.violation =
                    "progress: an obligation can never be satisfied";
                traceTo(i);
                break;
            }
        }
    }

    const auto t1 = std::chrono::steady_clock::now();
    res.seconds =
        std::chrono::duration<double>(t1 - t0).count();
    return res;
}

} // namespace tokencmp::mc
