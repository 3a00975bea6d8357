/**
 * @file
 * Per-line token state (Section 3.1).
 *
 * A cache line's permissions derive entirely from its token count:
 * >= 1 token + valid data => readable; all T tokens + valid data =>
 * writable. The owner token additionally obliges its holder to supply
 * data (owner-token messages must carry data).
 */

#ifndef TOKENCMP_CORE_TOKEN_STATE_HH
#define TOKENCMP_CORE_TOKEN_STATE_HH

#include <cstdint>
#include <limits>

#include "mem/cache_array.hh"
#include "sim/types.hh"

namespace tokencmp {

/**
 * A token count as a cache line stores it. SystemConfig::finalize()
 * rejects a totalTokens or cTokens above maxTokenCount, so every count
 * a line can hold fits.
 */
using TokenCount = std::int16_t;
inline constexpr int maxTokenCount = std::numeric_limits<TokenCount>::max();

/** Token-protocol per-line state, widest fields first. */
struct TokenSt
{
    std::uint64_t value = 0;  //!< functional value
    Tick holdUntil = 0;       //!< response-delay window end
    TokenCount tokens = 0;    //!< tokens held (0 = no permissions)
    bool owner = false;       //!< holds the distinguished owner token
    bool validData = false;   //!< value is usable for loads
    bool dirty = false;       //!< value differs from the memory image
    /**
     * The holder itself stored to this block (drives the migratory-
     * sharing heuristic; inherited-dirty data does not re-migrate).
     */
    bool locallyModified = false;
    /** A token-forwarding recheck is scheduled for the hold window. */
    bool recheckScheduled = false;

    bool hasAny() const { return tokens > 0; }
    bool readable() const { return tokens >= 1 && validData; }
    bool
    writable(int total_tokens) const
    {
        return tokens == total_tokens && validData;
    }
};

static_assert(sizeof(CacheLine<TokenSt>) <= 40,
              "token cache line outgrew its 40-byte layout");

} // namespace tokencmp

#endif // TOKENCMP_CORE_TOKEN_STATE_HH
