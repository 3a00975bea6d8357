#include "sweep/param_grid.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <set>

#include "sim/logging.hh"
#include "sweep/json.hh"
#include "system/knobs.hh"
#include "system/protocol_registry.hh"
#include "workload/workload_registry.hh"

namespace tokencmp {

namespace {

std::string
fmtNum(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
fmtU64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu", (unsigned long long)v);
    return buf;
}

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &n : names) {
        if (!out.empty())
            out += ", ";
        out += n;
    }
    return out;
}

std::vector<std::string>
stringArray(const minijson::Value &grid, const std::string &key,
            const std::vector<std::string> &def,
            const std::string &what)
{
    const minijson::Value *v = grid.find(key);
    if (v == nullptr)
        return def;
    if (!v->isArray() || v->arr.empty())
        fatal("%s: \"%s\" must be a non-empty array of strings",
              what.c_str(), key.c_str());
    std::vector<std::string> out;
    std::set<std::string> seen;
    for (const minijson::Value &item : v->arr) {
        if (!item.isString())
            fatal("%s: \"%s\" entries must be strings", what.c_str(),
                  key.c_str());
        if (!seen.insert(item.str).second)
            fatal("%s: duplicate \"%s\" entry '%s'", what.c_str(),
                  key.c_str(), item.str.c_str());
        out.push_back(item.str);
    }
    return out;
}

std::uint64_t
u64Field(const minijson::Value &grid, const std::string &key,
         std::uint64_t def, std::uint64_t min, const std::string &what)
{
    const minijson::Value *v = grid.find(key);
    if (v == nullptr)
        return def;
    if (!v->isNumber() || v->number < 0 ||
        v->number != double(std::uint64_t(v->number))) {
        fatal("%s: \"%s\" must be a non-negative integer",
              what.c_str(), key.c_str());
    }
    const std::uint64_t n = std::uint64_t(v->number);
    if (n < min) {
        fatal("%s: \"%s\" must be >= %llu", what.c_str(), key.c_str(),
              (unsigned long long)min);
    }
    return n;
}

} // namespace

ParamGrid
ParamGrid::fromFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        fatal("sweep grid %s: cannot open", path.c_str());
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    return fromJsonText(text, path);
}

ParamGrid
ParamGrid::fromJsonText(const std::string &text,
                        const std::string &what)
{
    std::string err;
    minijson::Value g = minijson::parse(text, &err);
    if (!err.empty())
        fatal("sweep grid %s: %s", what.c_str(), err.c_str());
    if (!g.isObject())
        fatal("sweep grid %s: top level must be a JSON object",
              what.c_str());

    // Unknown keys are fatal: a typo'd axis name silently shrinking
    // the grid to its defaults is exactly the failure mode a
    // fingerprint exists to prevent.
    static const std::set<std::string> known_keys = {
        "name", "policies", "workloads", "shardMaps", "overrides",
        "seeds", "firstSeed", "shardWorkers",
        "horizonNs", "workloadKnobs"};
    for (const auto &[key, value] : g.obj) {
        (void)value;
        if (!known_keys.count(key))
            fatal("sweep grid %s: unknown key \"%s\"", what.c_str(),
                  key.c_str());
    }

    ParamGrid grid;
    grid._name = g.getString("name");
    if (grid._name.empty())
        fatal("sweep grid %s: missing \"name\"", what.c_str());
    for (char c : grid._name) {
        if (!std::isalnum(static_cast<unsigned char>(c)) &&
            c != '_' && c != '-') {
            fatal("sweep grid %s: \"name\" must be [A-Za-z0-9_-] "
                  "(it names journal and report files)", what.c_str());
        }
    }

    grid._policies = stringArray(g, "policies", {}, what);
    if (grid._policies.empty())
        fatal("sweep grid %s: missing \"policies\" axis", what.c_str());
    for (const std::string &p : grid._policies) {
        if (!ProtocolRegistry::instance().known(p)) {
            fatal("sweep grid %s: unknown policy '%s' (protocol "
                  "names: %s)",
                  what.c_str(), p.c_str(),
                  joinNames(ProtocolRegistry::instance().names())
                      .c_str());
        }
    }

    grid._workloads = stringArray(g, "workloads", {}, what);
    if (grid._workloads.empty())
        fatal("sweep grid %s: missing \"workloads\" axis",
              what.c_str());
    for (const std::string &w : grid._workloads) {
        if (!WorkloadRegistry::instance().known(w)) {
            fatal("sweep grid %s: unknown workload '%s' (registered: "
                  "%s)", what.c_str(), w.c_str(),
                  joinNames(WorkloadRegistry::instance().names())
                      .c_str());
        }
    }

    grid._maps = stringArray(g, "shardMaps", {"serial"}, what);
    for (const std::string &m : grid._maps) {
        if (m != "serial" && m != "perCmp") {
            fatal("sweep grid %s: unknown shardMap '%s' (serial, "
                  "perCmp)", what.c_str(), m.c_str());
        }
    }

    if (const minijson::Value *ov = g.find("overrides")) {
        if (!ov->isArray() || ov->arr.empty())
            fatal("sweep grid %s: \"overrides\" must be a non-empty "
                  "array", what.c_str());
        std::set<std::string> labels;
        for (const minijson::Value &entry : ov->arr) {
            KnobOverride o;
            o.label = entry.getString("label");
            if (o.label.empty())
                fatal("sweep grid %s: every override needs a "
                      "\"label\"", what.c_str());
            if (!labels.insert(o.label).second)
                fatal("sweep grid %s: duplicate override label '%s'",
                      what.c_str(), o.label.c_str());
            if (const minijson::Value *knobs = entry.find("knobs")) {
                if (!knobs->isObject())
                    fatal("sweep grid %s: override '%s' \"knobs\" "
                          "must be an object", what.c_str(),
                          o.label.c_str());
                for (const auto &[kname, kval] : knobs->obj) {
                    if (findKnob(kname) == nullptr) {
                        fatal("sweep grid %s: override '%s' names "
                              "unknown knob '%s' (knobs: %s)",
                              what.c_str(), o.label.c_str(),
                              kname.c_str(), knobNameList().c_str());
                    }
                    if (!kval.isNumber())
                        fatal("sweep grid %s: knob '%s' must be a "
                              "number", what.c_str(), kname.c_str());
                    o.knobs.emplace_back(kname, kval.number);
                }
                std::sort(o.knobs.begin(), o.knobs.end());
            }
            grid._overrides.push_back(std::move(o));
        }
    } else {
        grid._overrides.push_back({"default", {}});
    }

    grid._seeds = unsigned(u64Field(g, "seeds", 1, 1, what));
    grid._firstSeed = u64Field(g, "firstSeed", 1, 0, what);
    grid._shardWorkers =
        unsigned(u64Field(g, "shardWorkers", 2, 1, what));
    grid._horizonNs =
        u64Field(g, "horizonNs", 500000000, 1, what);
    grid._horizon = ns(Tick(grid._horizonNs));

    if (const minijson::Value *wk = g.find("workloadKnobs")) {
        if (!wk->isObject())
            fatal("sweep grid %s: \"workloadKnobs\" must be an "
                  "object", what.c_str());
        static const std::set<std::string> wl_keys = {
            "opsPerProc", "keys", "theta", "writeFrac", "thinkMeanNs",
            "warmupOps", "inner", "schedule"};
        for (const auto &[key, value] : wk->obj) {
            (void)value;
            if (!wl_keys.count(key))
                fatal("sweep grid %s: unknown workloadKnobs key "
                      "\"%s\"", what.c_str(), key.c_str());
        }
        grid._wl.opsPerProc =
            unsigned(wk->getNumber("opsPerProc", 0));
        grid._wl.keys = std::uint64_t(wk->getNumber("keys", 0));
        grid._wl.theta = wk->getNumber("theta", -1.0);
        grid._wl.writeFrac = wk->getNumber("writeFrac", -1.0);
        grid._thinkMeanNs =
            std::uint64_t(wk->getNumber("thinkMeanNs", 0));
        grid._wl.thinkMean = ns(Tick(grid._thinkMeanNs));
        grid._wl.warmupOps = int(wk->getNumber("warmupOps", -1.0));
        grid._wl.inner = wk->getString("inner");
        grid._wl.schedule = wk->getString("schedule");
    }

    // Canonical form: versioned, field order fixed. The fingerprint
    // over this string is what the resume journal checks, so any
    // semantic edit to the grid must change it (and a reformat of the
    // JSON file must not).
    std::string c = "gridv2|name=" + grid._name + "|policies=";
    for (const std::string &p : grid._policies)
        c += p + ",";
    c += "|workloads=";
    for (const std::string &w : grid._workloads)
        c += w + ",";
    c += "|maps=";
    for (const std::string &m : grid._maps)
        c += m + ",";
    c += "|overrides=";
    for (const KnobOverride &o : grid._overrides) {
        c += o.label + "{";
        for (const auto &[k, v] : o.knobs)
            c += k + "=" + fmtNum(v) + ";";
        c += "},";
    }
    c += "|seeds=" + fmtU64(grid._seeds);
    c += "|firstSeed=" + fmtU64(grid._firstSeed);
    c += "|shardWorkers=" + fmtU64(grid._shardWorkers);
    c += "|horizonNs=" + fmtU64(grid._horizonNs);
    c += "|wl={ops=" + fmtU64(grid._wl.opsPerProc) +
         ";keys=" + fmtU64(grid._wl.keys) +
         ";theta=" + fmtNum(grid._wl.theta) +
         ";write=" + fmtNum(grid._wl.writeFrac) +
         ";thinkNs=" + fmtU64(grid._thinkMeanNs) +
         ";warmup=" + std::to_string(grid._wl.warmupOps) +
         ";inner=" + grid._wl.inner +
         ";sched=" + grid._wl.schedule + "}";
    grid._canonical = std::move(c);
    grid._fingerprint = hashHex(stableHash64(grid._canonical));

    grid.enumerate();
    if (grid._cells.empty())
        fatal("sweep grid %s: no valid cells after crossing the axes",
              what.c_str());

    // Fail at submission, not mid-night: run every cell's config
    // through finalize()'s validators (knob geometry, workload knob
    // ranges) before reporting the grid
    // loadable.
    for (const SweepCell &cell : grid._cells)
        (void)grid.configFor(cell);

    return grid;
}

void
ParamGrid::enumerate()
{
    unsigned skipped_unshardable = 0;
    unsigned index = 0;
    for (const std::string &p : _policies) {
        const bool shardable =
            ProtocolRegistry::instance().resolve(p).shardable;
        for (const std::string &w : _workloads) {
            for (const std::string &m : _maps) {
                // Some families (PerfectL2's magic L2 bypasses the
                // network) cannot run sharded. Crossing axes makes
                // such combos inevitable in mixed grids — they are
                // skipped (deterministically), not fatal.
                if (!shardable && m != "serial") {
                    ++skipped_unshardable;
                    continue;
                }
                for (const KnobOverride &o : _overrides) {
                    for (unsigned i = 0; i < _seeds; ++i) {
                        SweepCell cell;
                        cell.index = index++;
                        cell.policy = p;
                        cell.workload = w;
                        cell.shardMap = m;
                        cell.overrideLabel = o.label;
                        cell.seed = _firstSeed + i;

                        std::string k = "cellv2|policy=" + p +
                            "|workload=" + w + "|map=" + m +
                            "|knobs=" + o.label + "{";
                        for (const auto &[kn, kv] : o.knobs)
                            k += kn + "=" + fmtNum(kv) + ";";
                        k += "}|seed=" + fmtU64(cell.seed) +
                             "|horizonNs=" + fmtU64(_horizonNs) +
                             "|wl={ops=" +
                             fmtU64(_wl.opsPerProc) + ";keys=" +
                             fmtU64(_wl.keys) + ";theta=" +
                             fmtNum(_wl.theta) + ";write=" +
                             fmtNum(_wl.writeFrac) + ";thinkNs=" +
                             fmtU64(_thinkMeanNs) + ";warmup=" +
                             std::to_string(_wl.warmupOps) +
                             ";inner=" + _wl.inner + ";sched=" +
                             _wl.schedule + "}";
                        cell.key = std::move(k);
                        cell.hash =
                            hashHex(stableHash64(cell.key));
                        cell.label = p + "/" + w + "/" + m + "/" +
                            o.label + "/s" + fmtU64(cell.seed);
                        _cells.push_back(std::move(cell));
                    }
                }
            }
        }
    }
    if (skipped_unshardable > 0) {
        warn("sweep grid %s: skipped %u sharded cells of protocols "
             "that cannot run sharded",
             _name.c_str(), skipped_unshardable);
    }
}

SystemConfig
ParamGrid::configFor(const SweepCell &cell) const
{
    SystemConfig cfg;
    cfg.protocol = cell.policy;
    cfg.workloadName = cell.workload;
    cfg.workloadParams = _wl;

    if (cell.shardMap == "perCmp")
        cfg.shards = _shardWorkers;

    for (const KnobOverride &o : _overrides) {
        if (o.label != cell.overrideLabel)
            continue;
        for (const auto &[kname, kval] : o.knobs)
            findKnob(kname)->set(cfg, kval);
        break;
    }

    cfg.seed = cell.seed;
    cfg.finalize();
    return cfg;
}

const SweepCell *
ParamGrid::cellByHash(const std::string &hash) const
{
    for (const SweepCell &c : _cells) {
        if (c.hash == hash)
            return &c;
    }
    return nullptr;
}

} // namespace tokencmp
