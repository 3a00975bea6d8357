#include "workload/oltp.hh"

#include "workload/workload_registry.hh"

namespace tokencmp {

namespace {

/** One processor's transaction stream. */
class OltpThread : public ThreadContext
{
  public:
    OltpThread(SimContext &ctx, Sequencer &seq, const OltpWorkload &wl,
               unsigned txns, bool read_only, std::uint64_t seed)
        : ThreadContext(ctx, seq), _wl(wl), _txns(txns),
          _readOnly(read_only)
    {
        reseed(seed);
    }

    void start() override { nextTxn(); }

  private:
    Addr
    drawRecord()
    {
        const std::uint64_t rank = _wl.generator().nextRank(_rng);
        const std::uint64_t rec =
            ZipfGenerator::scramble(rank, _wl.params().numRecords);
        return _wl.params().base + Addr(rec) * blockBytes;
    }

    void
    nextTxn()
    {
        if (_done >= _txns) {
            finish();
            return;
        }
        ++_done;
        const Tick mean = _wl.params().thinkMean;
        const Tick t = 1 + _rng.uniform(mean) + _rng.uniform(mean);
        think(t, [this]() { txnOp(0); });
    }

    /** One record access inside the current transaction. */
    void
    txnOp(unsigned op)
    {
        if (op >= _wl.params().opsPerTxn) {
            nextTxn();
            return;
        }
        const Addr a = drawRecord();
        if (!_readOnly && _rng.chance(_wl.params().writeFrac)) {
            // Update-in-place: read the record, write it back bumped.
            load(a, [this, a, op](std::uint64_t v) {
                store(a, v + 1, [this, op]() { afterOp(op); });
            });
            return;
        }
        load(a, [this, op](std::uint64_t) { afterOp(op); });
    }

    void
    afterOp(unsigned op)
    {
        think(1 + _rng.uniform(_wl.params().recordThink),
              [this, op]() { txnOp(op + 1); });
    }

    const OltpWorkload &_wl;
    unsigned _txns;
    bool _readOnly;
    unsigned _done = 0;
};

OltpParams
fromKnobs(const WorkloadParams &wp)
{
    OltpParams p;
    if (wp.opsPerProc != 0)
        p.txnsPerProc = wp.opsPerProc;
    if (wp.keys != 0)
        p.numRecords = wp.keys;
    if (wp.theta >= 0.0)
        p.theta = wp.theta;
    if (wp.writeFrac >= 0.0)
        p.writeFrac = wp.writeFrac;
    if (wp.thinkMean != 0)
        p.thinkMean = wp.thinkMean;
    if (wp.warmupOps >= 0)
        p.warmupTxns = unsigned(wp.warmupOps);
    return p;
}

const WorkloadRegistrar regOltp("oltp", [](const WorkloadParams &wp) {
    return std::make_unique<OltpWorkload>(wp);
});

} // namespace

OltpWorkload::OltpWorkload(const OltpParams &p)
    : _p(p), _gen(p.numRecords, p.theta)
{}

OltpWorkload::OltpWorkload(const WorkloadParams &wp)
    : OltpWorkload(fromKnobs(wp))
{}

std::unique_ptr<ThreadContext>
OltpWorkload::makeThread(SimContext &ctx, Sequencer &seq,
                         unsigned num_procs, std::uint64_t seed)
{
    (void)num_procs;
    return std::make_unique<OltpThread>(ctx, seq, *this, _p.txnsPerProc,
                                        /*read_only=*/false, seed);
}

std::unique_ptr<ThreadContext>
OltpWorkload::makeWarmupThread(SimContext &ctx, Sequencer &seq,
                               unsigned num_procs, std::uint64_t seed)
{
    (void)num_procs;
    if (_p.warmupTxns == 0)
        return nullptr;
    return std::make_unique<OltpThread>(ctx, seq, *this, _p.warmupTxns,
                                        /*read_only=*/true, seed);
}

} // namespace tokencmp
