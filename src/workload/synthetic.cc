#include "workload/synthetic.hh"

#include "workload/workload_registry.hh"

namespace tokencmp {

namespace {

const WorkloadRegistrar regSynthetic(
    "synthetic", [](const WorkloadParams &wp) {
        SyntheticParams p;
        if (wp.opsPerProc != 0)
            p.opsPerProc = wp.opsPerProc;
        if (wp.keys != 0)
            p.migratoryBlocks = unsigned(wp.keys);
        if (wp.writeFrac >= 0.0)
            p.privateWriteFrac = wp.writeFrac;
        if (wp.thinkMean != 0)
            p.thinkMean = wp.thinkMean;
        return std::make_unique<SyntheticWorkload>(p);
    });

} // namespace

SyntheticParams
oltpParams()
{
    // OLTP: dominated by migratory sharing of lock-protected database
    // records; modest instruction footprint reuse.
    SyntheticParams p;
    p.label = "OLTP";
    p.migratoryFrac = 0.45;
    p.sharedReadFrac = 0.15;
    p.ifetchFrac = 0.10;
    p.migratoryBlocks = 384;
    p.privateWriteFrac = 0.35;
    p.thinkMean = ns(45);
    return p;
}

SyntheticParams
apacheParams()
{
    // Apache: large shared read-only content/code footprint, moderate
    // migratory sharing of connection/server state.
    SyntheticParams p;
    p.label = "Apache";
    p.migratoryFrac = 0.28;
    p.sharedReadFrac = 0.27;
    p.ifetchFrac = 0.15;
    p.migratoryBlocks = 512;
    p.sharedReadBlocks = 512;
    p.thinkMean = ns(55);
    return p;
}

SyntheticParams
jbbParams()
{
    // SPECjbb: warehouse-local Java objects; little inter-thread
    // sharing, so protocol differences matter least.
    SyntheticParams p;
    p.label = "SpecJBB";
    p.migratoryFrac = 0.10;
    p.sharedReadFrac = 0.15;
    p.ifetchFrac = 0.08;
    p.migratoryBlocks = 256;
    p.privateBlocks = 6144;
    p.privateWriteFrac = 0.40;
    p.thinkMean = ns(60);
    return p;
}

namespace {

/** One processor's reference stream. */
class SyntheticThread : public ThreadContext
{
  public:
    SyntheticThread(SimContext &ctx, Sequencer &seq,
                    const SyntheticParams &p, std::uint64_t seed)
        : ThreadContext(ctx, seq), _p(p)
    {
        reseed(seed);
    }

    void start() override { loop(); }

  private:
    Addr
    privateAddr()
    {
        const Addr region = _p.privateBase +
                            Addr(procId()) * 0x1000000;
        return region +
               Addr(_rng.uniform(_p.privateBlocks)) * blockBytes;
    }

    void
    loop()
    {
        if (_done >= _p.opsPerProc) {
            finish();
            return;
        }
        ++_done;
        // Exponential-ish think time via sum of two uniforms.
        const Tick t = 1 + (_rng.uniform(_p.thinkMean) +
                            _rng.uniform(_p.thinkMean));
        think(t, [this]() { issue(); });
    }

    void
    issue()
    {
        const double r = _rng.uniformDouble();
        if (r < _p.migratoryFrac) {
            // Read-modify-write of a shared record: the pattern that
            // migratory optimizations and direct responses accelerate.
            const Addr a =
                _p.migratoryBase +
                Addr(_rng.uniform(_p.migratoryBlocks)) * blockBytes;
            load(a, [this, a](std::uint64_t v) {
                store(a, v + 1, [this]() { loop(); });
            });
            return;
        }
        if (r < _p.migratoryFrac + _p.ifetchFrac) {
            const Addr a =
                _p.sharedBase +
                Addr(_rng.uniform(_p.sharedReadBlocks)) * blockBytes;
            ifetch(a, [this]() { loop(); });
            return;
        }
        if (r < _p.migratoryFrac + _p.ifetchFrac + _p.sharedReadFrac) {
            const Addr a =
                _p.sharedBase +
                Addr(_rng.uniform(_p.sharedReadBlocks)) * blockBytes;
            load(a, [this](std::uint64_t) { loop(); });
            return;
        }
        const Addr a = privateAddr();
        if (_rng.chance(_p.privateWriteFrac)) {
            store(a, _done, [this]() { loop(); });
        } else {
            load(a, [this](std::uint64_t) { loop(); });
        }
    }

    const SyntheticParams &_p;
    unsigned _done = 0;
};

} // namespace

std::unique_ptr<ThreadContext>
SyntheticWorkload::makeThread(SimContext &ctx, Sequencer &seq,
                              unsigned num_procs, std::uint64_t seed)
{
    (void)num_procs;
    return std::make_unique<SyntheticThread>(ctx, seq, _p, seed);
}

} // namespace tokencmp
