/**
 * @file
 * Configuration of the token coherence substrate (TokenParams) and
 * the rows of the paper's Table 1 (TokenPolicy, token_variants).
 * Which row a run uses is not configured here: the protocol name
 * (SystemConfig::protocol) selects a registered policy, and each
 * registered Table 1 name wraps one of these rows.
 */

#ifndef TOKENCMP_CORE_TOKEN_CONFIG_HH
#define TOKENCMP_CORE_TOKEN_CONFIG_HH

#include "sim/types.hh"

namespace tokencmp {

/** Persistent-request activation mechanisms (Section 3.2). */
enum class PersistentActivation : unsigned char {
    Arbiter,      //!< original arbiter-based scheme at home memory
    Distributed,  //!< new distributed activation with marking/waves
};

/**
 * One row of the paper's Table 1.
 *
 * The row flags are interpreted by the Table 1 PerformancePolicy
 * (makeTable1Policy in core/policy.hh); the PolicyRegistry entries
 * "arb0".."dst1-filt" are the canned rows below.
 */
struct TokenPolicy
{
    /**
     * Transient requests before falling back to a persistent request:
     * 0 = immediately persistent (arb0/dst0), 1 = dst1*, 4 = dst4.
     */
    unsigned maxTransients = 1;

    PersistentActivation activation = PersistentActivation::Distributed;

    /** dst1-pred: contention predictor chooses immediate persistent. */
    bool usePredictor = false;

    /** dst1-filt: filter external transient requests at the L2. */
    bool useFilter = false;
};

/** Substrate-wide parameters. */
struct TokenParams
{
    /**
     * Tokens per block, T. Must exceed the number of caches that can
     * hold a block (36 in the 4x4 target) so persistent *read* requests
     * are guaranteed to obtain a token (Section 3.2).
     */
    int totalTokens = 49;

    /**
     * Tokens included in an inter-CMP read response when possible
     * ("C is the number of caches on a CMP node", Section 4).
     */
    int cTokens = 9;

    /** Enable the migratory-sharing token-transfer optimization. */
    bool migratory = true;

    /** Cache/controller access latencies (paper Table 3). */
    Tick l1Latency = ns(2);
    Tick l2Latency = ns(7);
    Tick memCtrlLatency = ns(6);
    Tick dramLatency = ns(80);

    /**
     * Timeout threshold = timeoutMult x EWMA(memory response latency),
     * clamped to [timeoutMin, timeoutMax]. Seeded at timeoutInitial.
     * Memory responses only: averaging in fast on-chip hits caused
     * retry bursts (Section 4).
     */
    double timeoutMult = 1.5;
    Tick timeoutInitial = ns(250);
    Tick timeoutMin = ns(100);
    Tick timeoutMax = ns(4000);

    /**
     * Response-delay window (Section 3.2, Rajwar-style): after a write
     * acquisition, hold tokens against external theft long enough to
     * finish a short critical section. Bounded, so starvation freedom
     * is unaffected.
     */
    Tick responseDelay = ns(30);

    /**
     * dst1-pred contention-predictor table geometry (per-L1 tables).
     * `entries` must be a nonzero multiple of `ways`; validated in
     * SystemConfig::finalize() so sweep drivers can search geometries
     * without recompiling.
     */
    unsigned contentionEntries = 256;
    unsigned contentionWays = 4;

    /** dst-owner / bw-adapt CMP-owner predictor table geometry
     *  (per-L2-bank tables); same multiple-of-ways constraint. */
    unsigned cmpPredEntries = 512;
    unsigned cmpPredWays = 4;

    /**
     * bw-adapt: inter-CMP link utilization (EWMA occupancy fraction in
     * [0, 1]) above which escalations fall back to broadcast instead
     * of trusting the owner prediction.
     */
    double bwBusyUtil = 0.01;
};

/** Canned Table 1 variants. */
namespace token_variants {

inline TokenPolicy
arb0()
{
    return {0, PersistentActivation::Arbiter, false, false};
}
inline TokenPolicy
dst0()
{
    return {0, PersistentActivation::Distributed, false, false};
}
inline TokenPolicy
dst4()
{
    return {4, PersistentActivation::Distributed, false, false};
}
inline TokenPolicy
dst1()
{
    return {1, PersistentActivation::Distributed, false, false};
}
inline TokenPolicy
dst1Pred()
{
    return {1, PersistentActivation::Distributed, true, false};
}
inline TokenPolicy
dst1Filt()
{
    return {1, PersistentActivation::Distributed, false, true};
}

/**
 * Intra-CMP policy of the hierarchical (directory-between-CMPs)
 * family: retried transient broadcasts inside the CMP, arbiter-based
 * persistent activation at the local shim (the arbiter machine is
 * per-CMP, selected by TokenL1::arbiterOf).
 */
inline TokenPolicy
hier()
{
    return {4, PersistentActivation::Arbiter, false, false};
}

} // namespace token_variants

} // namespace tokencmp

#endif // TOKENCMP_CORE_TOKEN_CONFIG_HH
