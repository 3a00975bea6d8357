#include "system/config.hh"

#include "sim/logging.hh"

namespace tokencmp {

const char *
protocolName(Protocol p)
{
    switch (p) {
      case Protocol::DirectoryCMP: return "DirectoryCMP";
      case Protocol::DirectoryCMPZero: return "DirectoryCMP-zero";
      case Protocol::TokenArb0: return "TokenCMP-arb0";
      case Protocol::TokenDst0: return "TokenCMP-dst0";
      case Protocol::TokenDst4: return "TokenCMP-dst4";
      case Protocol::TokenDst1: return "TokenCMP-dst1";
      case Protocol::TokenDst1Pred: return "TokenCMP-dst1-pred";
      case Protocol::TokenDst1Filt: return "TokenCMP-dst1-filt";
      case Protocol::PerfectL2: return "PerfectL2";
      case Protocol::HierCMP: return "HierCMP";
    }
    return "?";
}

bool
isToken(Protocol p)
{
    switch (p) {
      case Protocol::TokenArb0:
      case Protocol::TokenDst0:
      case Protocol::TokenDst4:
      case Protocol::TokenDst1:
      case Protocol::TokenDst1Pred:
      case Protocol::TokenDst1Filt:
        return true;
      default:
        return false;
    }
}

std::vector<Protocol>
allProtocols()
{
    return {Protocol::DirectoryCMP, Protocol::DirectoryCMPZero,
            Protocol::TokenArb0, Protocol::TokenDst0,
            Protocol::TokenDst4, Protocol::TokenDst1,
            Protocol::TokenDst1Pred, Protocol::TokenDst1Filt,
            Protocol::PerfectL2, Protocol::HierCMP};
}

std::string
SystemConfig::displayName() const
{
    if (!policyName.empty() && isToken(protocol))
        return "TokenCMP-" + policyName;
    return protocolName(protocol);
}

namespace {

void
checkTableGeometry(const char *what, unsigned entries, unsigned ways)
{
    if (ways == 0 || entries == 0 || entries % ways != 0) {
        fatal("%s table geometry %u entries / %u ways is invalid "
              "(entries must be a nonzero multiple of ways)",
              what, entries, ways);
    }
}

} // namespace

void
SystemConfig::finalize()
{
    if (finalized())
        return;
    _finalized = true;
    _finalizedFor = protocol;
    _finalizedPolicy = policyName;
    _finalizedWorkload = workloadName;

    if (!policyName.empty() && !isToken(protocol)) {
        fatal("policyName '%s' requires a TokenCMP protocol "
              "(configured protocol is %s)",
              policyName.c_str(), protocolName(protocol));
    }

    // Per-policy knobs: validated unconditionally (the defaults are
    // valid), so a sweep that mutates them cannot smuggle a broken
    // geometry into a later token run.
    checkTableGeometry("contention predictor", token.contentionEntries,
                       token.contentionWays);
    checkTableGeometry("CMP-owner predictor", token.cmpPredEntries,
                       token.cmpPredWays);
    if (token.bwBusyUtil < 0.0 || token.bwBusyUtil > 1.0) {
        fatal("bw-adapt busy-utilization threshold %f out of range "
              "[0, 1]", token.bwBusyUtil);
    }

    if (!workloadName.empty())
        workloadParams.validate(workloadName);

    if (customPolicy) {
        // Ablation mode: only the directory latency presets apply.
        if (protocol == Protocol::DirectoryCMPZero)
            dir.dirLatency = 0;
        return;
    }
    switch (protocol) {
      case Protocol::DirectoryCMP:
        dir.dirLatency = ns(80);
        break;
      case Protocol::DirectoryCMPZero:
        dir.dirLatency = 0;
        break;
      case Protocol::TokenArb0:
        token.policy = token_variants::arb0();
        break;
      case Protocol::TokenDst0:
        token.policy = token_variants::dst0();
        break;
      case Protocol::TokenDst4:
        token.policy = token_variants::dst4();
        break;
      case Protocol::TokenDst1:
        token.policy = token_variants::dst1();
        break;
      case Protocol::TokenDst1Pred:
        token.policy = token_variants::dst1Pred();
        break;
      case Protocol::TokenDst1Filt:
        token.policy = token_variants::dst1Filt();
        break;
      case Protocol::PerfectL2:
        break;
      case Protocol::HierCMP:
        // Tokens within each CMP, MOESI directory between CMPs.
        token.policy = token_variants::hier();
        dir.dirLatency = ns(80);
        break;
    }
}

} // namespace tokencmp
