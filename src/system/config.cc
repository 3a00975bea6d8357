#include "system/config.hh"

#include "sim/logging.hh"
#include "system/protocol_registry.hh"

namespace tokencmp {

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
SystemConfig::finalize() const
{
    (void)ProtocolRegistry::instance().resolve(protocol);

    // Per-policy knobs: validated for every protocol (the defaults are
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
}

} // namespace tokencmp
