/**
 * @file
 * TokenCMP protocol family: one correctness substrate, run with
 * whichever performance policy the protocol name selects. Registered
 * as the family of every PolicyRegistry name (the Table 1 rows
 * "arb0".."dst1-filt", the adaptive policies, plugins).
 */

#include <memory>
#include <vector>

#include "system/protocol_registry.hh"
#include "system/system.hh"

namespace tokencmp {
namespace {

class TokenFamily : public ProtocolBuilder
{
  public:
    explicit TokenFamily(PolicyRegistry::Factory policy)
        : _policy(std::move(policy))
    {}

    void
    build(System &sys) override
    {
        const SystemConfig &cfg = sys.config();
        const Topology &t = sys.config().topo;
        _globals = std::make_unique<TokenGlobals>(cfg.token, cfg.audit,
                                                  _policy);
        if (cfg.shards > 0) {
            // Shard domains mutate the globals concurrently: guard the
            // auditor and functional memory, and pre-size the
            // per-processor persistent-sequence table so lookups never
            // reallocate it.
            _globals->enableConcurrent(t.numProcs());
        }

        // Each controller runs in its CMP's shard domain (one shared
        // domain in serial mode).
        for (unsigned c = 0; c < t.numCmps; ++c) {
            for (unsigned p = 0; p < t.procsPerCmp; ++p) {
                auto d = std::make_unique<TokenL1>(
                    sys.contextFor(t.l1d(c, p)), t.l1d(c, p),
                    *_globals, cfg.l1Bytes, cfg.l1Assoc);
                auto i = std::make_unique<TokenL1>(
                    sys.contextFor(t.l1i(c, p)), t.l1i(c, p),
                    *_globals, cfg.l1Bytes, cfg.l1Assoc);
                _l1s.push_back(d.get());
                _l1s.push_back(i.get());
                sys.sequencer(t.procIdOf(t.l1d(c, p)))
                    .bind(d.get(), i.get());
                sys.adopt(std::move(d));
                sys.adopt(std::move(i));
            }
            for (unsigned b = 0; b < t.l2BanksPerCmp; ++b) {
                auto l2 = std::make_unique<TokenL2>(
                    sys.contextFor(t.l2(c, b)), t.l2(c, b), *_globals,
                    cfg.l2BankBytes, cfg.l2Assoc);
                _l2s.push_back(l2.get());
                sys.adopt(std::move(l2));
            }
            auto mem = std::make_unique<TokenMem>(
                sys.contextFor(t.mem(c)), t.mem(c), *_globals);
            _mems.push_back(mem.get());
            sys.adopt(std::move(mem));
        }
    }

    void
    harvest(StatSet &out) const override
    {
        std::uint64_t hits = 0, misses = 0;
        for (const TokenL1 *l1 : _l1s) {
            hits += l1->stats.hits;
            misses += l1->stats.misses;
            out.add("token.transients",
                    double(l1->stats.transientsIssued));
            out.add("token.retries", double(l1->stats.retries));
            out.add("token.persistents", double(l1->stats.persistents));
            out.add("token.persistentReads",
                    double(l1->stats.persistentReads));
            out.add("token.migratory", double(l1->stats.migratorySends));
        }
        for (const TokenL2 *l2 : _l2s) {
            out.add("token.escalations", double(l2->stats.escalations));
            out.add("token.relays", double(l2->stats.relaysToL1));
            out.add("token.filtered", double(l2->stats.filteredRelays));
        }
        for (const TokenMem *m : _mems)
            out.add("token.arbActivations",
                    double(m->stats.arbActivations));
        out.add("l1.hits", double(hits));
        out.add("l1.misses", double(misses));

        // Policy-specific statistics (summed across instances; the
        // Table 1 policies contribute nothing).
        for (const TokenL1 *l1 : _l1s)
            l1->policy().exportStats(out);
        for (const TokenL2 *l2 : _l2s)
            l2->policy().exportStats(out);
        for (const TokenMem *m : _mems)
            m->policy().exportStats(out);
    }

    void
    verifyQuiescent(bool fatal_on_violation) const override
    {
        _globals->auditor.checkAll(fatal_on_violation);
    }

    void
    exportRunStats(StatSet &out) const override
    {
        out.set("token.persistentIssued",
                double(_globals->persistentIssued));
    }

    TokenGlobals *tokenGlobals() override { return _globals.get(); }

  private:
    PolicyRegistry::Factory _policy;
    std::unique_ptr<TokenGlobals> _globals;
    std::vector<TokenL1 *> _l1s;
    std::vector<TokenL2 *> _l2s;
    std::vector<TokenMem *> _mems;
};

const ProtocolRegistrar registrar(
    "TokenCMP-", [](PolicyRegistry::Factory policy) {
        return std::make_unique<TokenFamily>(std::move(policy));
    });

} // namespace
} // namespace tokencmp
