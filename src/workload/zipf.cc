#include "workload/zipf.hh"

#include <cmath>

#include "sim/logging.hh"
#include "workload/workload_registry.hh"

namespace tokencmp {

ZipfGenerator::ZipfGenerator(std::uint64_t n, double theta)
    : _n(n), _theta(theta)
{
    if (n == 0)
        panic("zipf generator over an empty key space");
    if (theta < 0.0 || theta >= 1.0)
        panic("zipf theta %f out of range [0, 1)", theta);
    _zetan = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i)
        _zetan += 1.0 / std::pow(double(i), theta);
    _alpha = 1.0 / (1.0 - theta);
    const double zeta2 = 1.0 + std::pow(0.5, theta);
    _eta = (1.0 - std::pow(2.0 / double(n), 1.0 - theta)) /
           (1.0 - zeta2 / _zetan);
}

std::uint64_t
ZipfGenerator::nextRank(Random &rng) const
{
    // Gray et al., "Quickly generating billion-record synthetic
    // databases" (SIGMOD '94): invert the CDF with a closed-form
    // approximation whose two hottest ranks are handled exactly.
    const double u = rng.uniformDouble();
    const double uz = u * _zetan;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + std::pow(0.5, _theta))
        return 1;
    const double r =
        double(_n) * std::pow(_eta * u - _eta + 1.0, _alpha);
    std::uint64_t rank = std::uint64_t(r);
    return rank >= _n ? _n - 1 : rank;
}

double
ZipfGenerator::rankProbability(std::uint64_t rank) const
{
    return 1.0 / (std::pow(double(rank + 1), _theta) * _zetan);
}

std::uint64_t
ZipfGenerator::scramble(std::uint64_t rank, std::uint64_t n)
{
    // splitmix64 finalizer: a fixed bijective mix over 64 bits, then
    // reduced mod n (collisions fold ranks together, as in YCSB's
    // fnv-based scramble).
    std::uint64_t z = rank + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return z % n;
}

namespace {

/** One processor's hot-key access stream. */
class ZipfThread : public ThreadContext
{
  public:
    ZipfThread(SimContext &ctx, Sequencer &seq, const ZipfWorkload &wl,
               unsigned ops, bool read_only, std::uint64_t seed)
        : ThreadContext(ctx, seq), _wl(wl), _ops(ops),
          _readOnly(read_only)
    {
        reseed(seed);
    }

    void start() override { loop(); }

  private:
    Addr
    drawKey()
    {
        const std::uint64_t rank =
            _wl.generator().nextRank(_rng);
        const std::uint64_t key =
            ZipfGenerator::scramble(rank, _wl.params().numKeys);
        return _wl.params().base + Addr(key) * blockBytes;
    }

    void
    loop()
    {
        if (_done >= _ops) {
            finish();
            return;
        }
        ++_done;
        const Tick mean = _wl.params().thinkMean;
        const Tick t = 1 + _rng.uniform(mean) + _rng.uniform(mean);
        think(t, [this]() { issue(); });
    }

    void
    issue()
    {
        const Addr a = drawKey();
        if (!_readOnly && _rng.chance(_wl.params().writeFrac)) {
            // Migratory read-modify-write of a hot key.
            load(a, [this, a](std::uint64_t v) {
                store(a, v + 1, [this]() { loop(); });
            });
            return;
        }
        load(a, [this](std::uint64_t) { loop(); });
    }

    const ZipfWorkload &_wl;
    unsigned _ops;
    bool _readOnly;
    unsigned _done = 0;
};

ZipfParams
fromKnobs(const WorkloadParams &wp)
{
    ZipfParams p;
    if (wp.opsPerProc != 0)
        p.opsPerProc = wp.opsPerProc;
    if (wp.keys != 0)
        p.numKeys = wp.keys;
    if (wp.theta >= 0.0)
        p.theta = wp.theta;
    if (wp.writeFrac >= 0.0)
        p.writeFrac = wp.writeFrac;
    if (wp.thinkMean != 0)
        p.thinkMean = wp.thinkMean;
    if (wp.warmupOps >= 0)
        p.warmupOps = unsigned(wp.warmupOps);
    return p;
}

const WorkloadRegistrar regZipf("zipf", [](const WorkloadParams &wp) {
    return std::make_unique<ZipfWorkload>(wp);
});

} // namespace

ZipfWorkload::ZipfWorkload(const ZipfParams &p)
    : _p(p), _gen(p.numKeys, p.theta)
{}

ZipfWorkload::ZipfWorkload(const WorkloadParams &wp)
    : ZipfWorkload(fromKnobs(wp))
{}

std::unique_ptr<ThreadContext>
ZipfWorkload::makeThread(SimContext &ctx, Sequencer &seq,
                         unsigned num_procs, std::uint64_t seed)
{
    (void)num_procs;
    return std::make_unique<ZipfThread>(ctx, seq, *this, _p.opsPerProc,
                                        /*read_only=*/false, seed);
}

std::unique_ptr<ThreadContext>
ZipfWorkload::makeWarmupThread(SimContext &ctx, Sequencer &seq,
                               unsigned num_procs, std::uint64_t seed)
{
    (void)num_procs;
    if (_p.warmupOps == 0)
        return nullptr;
    // Read-only draws from the same distribution: the hot keys end up
    // resident (and shared) before the measured RMW traffic starts.
    return std::make_unique<ZipfThread>(ctx, seq, *this, _p.warmupOps,
                                        /*read_only=*/true, seed);
}

} // namespace tokencmp
