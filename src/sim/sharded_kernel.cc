#include "sim/sharded_kernel.hh"

#include <algorithm>
#include <barrier>
#include <thread>

#include "sim/logging.hh"

namespace tokencmp {

const char *
outcomeName(ShardedKernel::Outcome o)
{
    switch (o) {
      case ShardedKernel::Outcome::Stopped: return "stopped";
      case ShardedKernel::Outcome::Drained: return "drained";
      case ShardedKernel::Outcome::Horizon: return "horizon";
    }
    return "?";
}

ShardedKernel::ShardedKernel(std::vector<EventQueue *> queues,
                             Tick lookahead, unsigned workers)
    : ShardedKernel(std::move(queues),
                    std::vector<Tick>(), workers)
{
    if (lookahead == 0)
        panic("ShardedKernel lookahead must be >= 1 tick");
    _la.assign(numShards() * numShards(), lookahead);
    closeLookahead();
}

ShardedKernel::ShardedKernel(std::vector<EventQueue *> queues,
                             std::vector<Tick> lookahead,
                             unsigned workers)
    : _queues(std::move(queues)), _la(std::move(lookahead)),
      _workers(std::clamp(workers, 1u, unsigned(_queues.size())))
{
    if (_queues.empty())
        panic("ShardedKernel needs at least one shard");
    for (const EventQueue *q : _queues) {
        if (q == nullptr)
            panic("ShardedKernel given a null shard queue");
    }
    const unsigned n = numShards();
    // Empty matrix: the uniform-lookahead delegating constructor fills
    // it in (and closes it) after this body runs.
    if (!_la.empty()) {
        if (_la.size() != std::size_t(n) * n)
            panic("ShardedKernel lookahead matrix: %zu entries for %u "
                  "shards", _la.size(), n);
        for (unsigned s = 0; s < n; ++s) {
            for (unsigned d = 0; d < n; ++d) {
                if (s != d && _la[s * n + d] == 0)
                    panic("ShardedKernel lookahead(%u, %u) must be "
                          ">= 1 tick", s, d);
            }
        }
        closeLookahead();
    }
    _bounds.assign(n, 0);
    _pending.assign(n, EventQueue::noTick);
    _frontier.assign(n, EventQueue::noTick);
}

void
ShardedKernel::closeLookahead()
{
    // Floyd-Warshall over the lookahead graph (noTick = no edge;
    // saturating adds). The diagonal starts at "no edge", so it closes
    // to the minimum cycle length through each shard — the earliest a
    // shard's own traffic can boomerang back at it.
    const unsigned n = numShards();
    constexpr Tick inf = EventQueue::noTick;
    auto sat = [](Tick a, Tick b) {
        return (a == inf || b == inf || a > inf - b) ? inf : a + b;
    };
    _dist = _la;
    for (unsigned d = 0; d < n; ++d)
        _dist[d * n + d] = inf;
    for (unsigned k = 0; k < n; ++k) {
        for (unsigned i = 0; i < n; ++i) {
            const Tick ik = _dist[i * n + k];
            if (ik == inf)
                continue;
            for (unsigned j = 0; j < n; ++j) {
                const Tick alt = sat(ik, _dist[k * n + j]);
                if (alt < _dist[i * n + j])
                    _dist[i * n + j] = alt;
            }
        }
    }
}

std::uint64_t
ShardedKernel::executed() const
{
    std::uint64_t sum = 0;
    for (const EventQueue *q : _queues)
        sum += q->executed();
    return sum;
}

void
ShardedKernel::coordinate()
{
    // All workers are parked in the barrier: single-threaded section.
    const unsigned n = numShards();
    std::fill(_pending.begin(), _pending.end(), EventQueue::noTick);
    if (_hooks.onBarrier)
        _hooks.onBarrier(_pending);

    // Effective frontier of a shard: the earliest tick it could still
    // act at — its queue frontier or a flipped handoff it will enqueue
    // at intake, whichever is earlier.
    Tick f = EventQueue::noTick;
    for (unsigned s = 0; s < n; ++s) {
        _frontier[s] = std::min(_queues[s]->frontier(), _pending[s]);
        f = std::min(f, _frontier[s]);
    }

    if (_hooks.stopRequested && _hooks.stopRequested()) {
        _outcome = Outcome::Stopped;
        _stop = true;
    } else if (f == EventQueue::noTick) {
        _outcome = Outcome::Drained;
        _stop = true;
    } else if (f > _horizon) {
        _outcome = Outcome::Horizon;
        _stop = true;
    }
    if (_stop)
        return;

    // Jump straight to the frontier: window bounds derive from shard
    // frontiers plus the lookahead matrix, so idle stretches are never
    // crossed one fixed-size window at a time. The cap keeps stop
    // polling at a bounded simulated-time cadence when every
    // constraint is far away (e.g. a single shard draining alone).
    const Tick cap = maxWindow < _horizon - f ? f + maxWindow : _horizon;
    for (unsigned d = 0; d < n; ++d) {
        Tick b = cap;
        for (unsigned s = 0; s < n; ++s) {
            if (_frontier[s] == EventQueue::noTick)
                continue;
            // The closure entry, not the raw edge: an idle shard can
            // be woken by s's traffic mid-window and relay into d, so
            // the earliest not-yet-visible disturbance from s travels
            // the cheapest chain (s == d covers replies to d's own
            // sends: the min round trip). d may run strictly below it.
            const Tick la = _dist[s * n + d];
            if (la == EventQueue::noTick)
                continue;
            if (_frontier[s] > EventQueue::noTick - la)
                continue;
            b = std::min(b, _frontier[s] + la - 1);
        }
        _bounds[d] = b;
    }

    ++_windows;
}

void
ShardedKernel::runShardWindow(unsigned s)
{
    if (_hooks.intake)
        _hooks.intake(s);
    _queues[s]->run(_bounds[s]);
}

ShardedKernel::Outcome
ShardedKernel::run(Tick horizon)
{
    if (_dist.empty())
        panic("ShardedKernel: empty lookahead matrix");
    _horizon = horizon;
    _stop = false;
    _outcome = Outcome::Drained;

    struct Completion
    {
        ShardedKernel *k;
        void operator()() noexcept { k->coordinate(); }
    };
    std::barrier<Completion> bar(std::ptrdiff_t(_workers),
                                 Completion{this});

    auto loop = [this, &bar](unsigned w) {
        for (;;) {
            // The completion step (coordinate()) runs when the last
            // worker arrives; the barrier orders its writes before
            // every worker's reads below.
            bar.arrive_and_wait();
            if (_stop)
                return;
            for (unsigned s = w; s < numShards(); s += _workers)
                runShardWindow(s);
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(_workers - 1);
    for (unsigned w = 1; w < _workers; ++w)
        pool.emplace_back(loop, w);
    loop(0);
    for (std::thread &t : pool)
        t.join();
    return _outcome;
}

} // namespace tokencmp
