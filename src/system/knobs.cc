#include "system/knobs.hh"

#include <cstdio>

#include "system/config.hh"

namespace tokencmp {

namespace {

/** Declarative row builder: getter/setter lambdas over one field. */
#define TOKENCMP_KNOB(path, doc, field, type)                        \
    KnobDef                                                          \
    {                                                                \
        path, doc,                                                   \
        [](const SystemConfig &c) { return double(c.field); },       \
        [](SystemConfig &c, double v) { c.field = type(v); }         \
    }

} // namespace

const std::vector<KnobDef> &
knobTable()
{
    // Append-only: knob hashes cover (name, value) pairs in this
    // order, and the sweep golden-hash tests pin them.
    static const std::vector<KnobDef> table = {
        TOKENCMP_KNOB("token.contentionEntries",
                      "dst1-pred contention predictor entries "
                      "(nonzero multiple of ways)",
                      token.contentionEntries, unsigned),
        TOKENCMP_KNOB("token.contentionWays",
                      "dst1-pred contention predictor associativity",
                      token.contentionWays, unsigned),
        TOKENCMP_KNOB("token.cmpPredEntries",
                      "dst-owner/bw-adapt CMP-owner predictor entries "
                      "(nonzero multiple of ways)",
                      token.cmpPredEntries, unsigned),
        TOKENCMP_KNOB("token.cmpPredWays",
                      "dst-owner/bw-adapt CMP-owner predictor "
                      "associativity",
                      token.cmpPredWays, unsigned),
        TOKENCMP_KNOB("token.bwBusyUtil",
                      "bw-adapt busy-link utilization threshold in "
                      "[0, 1]",
                      token.bwBusyUtil, double),
    };
    return table;
}

#undef TOKENCMP_KNOB

const KnobDef *
findKnob(const std::string &name)
{
    for (const KnobDef &k : knobTable()) {
        if (name == k.name)
            return &k;
    }
    return nullptr;
}

std::string
knobNameList()
{
    std::string out;
    for (const KnobDef &k : knobTable()) {
        if (!out.empty())
            out += ", ";
        out += k.name;
    }
    return out;
}

std::uint64_t
stableHash64(std::string_view s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a offset basis
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;  // FNV prime
    }
    return h;
}

std::string
hashHex(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  (unsigned long long)h);
    return buf;
}

std::string
knobOverrideHash(const SystemConfig &cfg)
{
    static const SystemConfig defaults{};
    std::string key;
    for (const KnobDef &k : knobTable()) {
        const double v = k.get(cfg);
        if (v == k.get(defaults))
            continue;
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%s=%.17g;", k.name, v);
        key += buf;
    }
    if (key.empty())
        return "";
    // 8 hex chars: short enough for a label, 2^32 distinct override
    // sets is far beyond any real grid.
    return hashHex(stableHash64(key)).substr(0, 8);
}

} // namespace tokencmp
