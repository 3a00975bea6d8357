/**
 * @file
 * Token coherence shared-L2 bank controller.
 *
 * The L2 bank plays three roles in the hierarchical performance policy
 * (Section 4): it is a token-holding cache; it escalates local
 * transient requests it cannot fully satisfy to the PerformancePolicy's
 * inter-CMP destination set (every other CMP and the home memory
 * controller under the default broadcast policies); and it relays
 * external transient requests onto the on-chip network, masked by the
 * policy's external-request filter (the approximate sharer filter in
 * TokenCMP-dst1-filt).
 */

#ifndef TOKENCMP_CORE_TOKEN_L2_HH
#define TOKENCMP_CORE_TOKEN_L2_HH

#include <cstdint>

#include "core/token_common.hh"
#include "mem/cache_array.hh"

namespace tokencmp {

/** L2 bank controller for the token protocol. */
class TokenL2 : public TokenController
{
  public:
    struct Stats
    {
        std::uint64_t localReqs = 0;
        std::uint64_t externalReqs = 0;
        std::uint64_t escalations = 0;
        std::uint64_t localResponses = 0;
        std::uint64_t externalResponses = 0;
        std::uint64_t relaysToL1 = 0;       //!< external req fan-out
        std::uint64_t filteredRelays = 0;   //!< suppressed by filter
        std::uint64_t writebacksIn = 0;
        std::uint64_t writebacksOut = 0;
    };

    TokenL2(SimContext &ctx, MachineID id, TokenGlobals &g,
            std::uint64_t size_bytes, unsigned assoc);

    void handleMsg(const Msg &msg) override;

    Stats stats;

    /** Direct line inspection for tests. */
    const TokenSt *peek(Addr addr) const;

  protected:
    void onPersistentTableChange(Addr addr) override;

  private:
    using Array = CacheArray<TokenSt>;
    using Line = Array::Line;

    Line *allocLine(Addr addr);
    void evictLine(Line *line);
    void mergeTokens(Line *line, const Msg &m);

    void onLocalRequest(const Msg &m);
    void onExternalRequest(const Msg &m);
    void onWriteback(const Msg &m);
    void escalate(const Msg &m);
    void relayToL1s(const Msg &m);
    void forwardPersistentTokens(Addr addr);

    Array _array;
    std::vector<MachineID> _destScratch;  //!< fan-out scratch buffer
};

} // namespace tokencmp

#endif // TOKENCMP_CORE_TOKEN_L2_HH
