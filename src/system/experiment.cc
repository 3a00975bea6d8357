#include "system/experiment.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <optional>
#include <thread>

#include "sim/logging.hh"
#include "system/knobs.hh"
#include "workload/workload_registry.hh"

namespace tokencmp {

namespace json {

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

} // namespace json

namespace {

std::string
jsonSamples(const SeedSamples &s)
{
    std::string out = "{\"mean\": " + json::number(s.mean()) +
                      ", \"ci95\": " + json::number(s.errorBar()) +
                      ", \"perSeed\": [";
    bool first = true;
    for (double x : s.samples()) {
        out += (first ? "" : ", ") + json::number(x);
        first = false;
    }
    return out + "]}";
}

} // namespace

std::string
ExperimentResult::toJson(const std::string &label) const
{
    std::string out = "{";
    if (!label.empty())
        out += "\"label\": " + json::quote(label) + ", ";
    out += "\"protocol\": " + json::quote(protocol) + ", ";
    if (!knobHash.empty())
        out += "\"knobHash\": " + json::quote(knobHash) + ", ";
    out += "\"workload\": " + json::quote(workload) + ", ";
    out += "\"seeds\": " + std::to_string(seedsRequested) + ", ";
    out += "\"seedsCompleted\": " + std::to_string(runtime.count()) +
           ", ";
    out += std::string("\"allCompleted\": ") +
           (allCompleted ? "true" : "false") + ", ";
    out += "\"violations\": " + std::to_string(violations) + ", ";
    out += "\"runtime\": " + jsonSamples(runtime) + ", ";
    out += "\"interBytes\": " + jsonSamples(interBytes) + ", ";
    out += "\"intraBytes\": " + jsonSamples(intraBytes) + ", ";
    out += "\"stats\": {";
    bool first = true;
    for (const auto &[k, v] : stats) {
        out += (first ? "" : ", ") + json::quote(k) +
               ": {\"mean\": " + json::number(v.mean()) +
               ", \"ci95\": " + json::number(v.errorBar()) + "}";
        first = false;
    }
    return out + "}}";
}

ExperimentRunner
ExperimentRunner::of(const SystemConfig &cfg)
{
    return ExperimentRunner(cfg);
}

ExperimentRunner &
ExperimentRunner::workload(WorkloadFactory factory)
{
    _factory = std::move(factory);
    return *this;
}

ExperimentRunner &
ExperimentRunner::seeds(unsigned n)
{
    _seeds = n;
    return *this;
}

ExperimentRunner &
ExperimentRunner::policies(std::vector<std::string> names)
{
    _policies = std::move(names);
    return *this;
}

ExperimentRunner &
ExperimentRunner::workloads(std::vector<std::string> names)
{
    _workloads = std::move(names);
    return *this;
}

ExperimentRunner &
ExperimentRunner::parallelism(unsigned n)
{
    _parallelism = n;
    return *this;
}

ExperimentRunner &
ExperimentRunner::horizon(Tick t)
{
    _horizon = t;
    return *this;
}

ExperimentRunner &
ExperimentRunner::firstSeed(std::uint64_t s)
{
    _firstSeed = s;
    return *this;
}

ExperimentRunner &
ExperimentRunner::onSeedDone(ProgressFn fn)
{
    _progress = std::move(fn);
    return *this;
}

std::vector<ExperimentResult>
ExperimentRunner::runSweep() const
{
    if (!_workloads.empty()) {
        // Fail fast on typos before any cell simulates.
        for (const std::string &name : _workloads) {
            if (!WorkloadRegistry::instance().known(name)) {
                fatal("ExperimentRunner: unknown workload '%s' in the "
                      "workloads() sweep", name.c_str());
            }
        }
        std::vector<ExperimentResult> out;
        for (const std::string &name : _workloads) {
            ExperimentRunner cell = *this;
            cell._workloads.clear();
            cell._cfg.workloadName = name;
            cell._factory = nullptr;  // the named workload drives cells
            std::vector<ExperimentResult> sub = cell.runSweep();
            for (ExperimentResult &r : sub)
                out.push_back(std::move(r));
        }
        return out;
    }
    if (_policies.empty())
        return {run()};
    // Fail fast on typos: a bad name in the last cell must not cost
    // the minutes the earlier cells take to simulate.
    for (const std::string &name : _policies) {
        if (!ProtocolRegistry::instance().known(name)) {
            fatal("ExperimentRunner: unknown protocol '%s' in the "
                  "policies() sweep", name.c_str());
        }
    }
    std::vector<ExperimentResult> out;
    out.reserve(_policies.size());
    for (const std::string &name : _policies) {
        ExperimentRunner cell = *this;
        cell._policies.clear();
        cell._cfg.protocol = name;
        out.push_back(cell.run());
    }
    return out;
}

ExperimentResult
ExperimentRunner::run() const
{
    if (!_policies.empty())
        fatal("ExperimentRunner: a policies() sweep is pending; "
              "use runSweep()");
    if (!_workloads.empty())
        fatal("ExperimentRunner: a workloads() sweep is pending; "
              "use runSweep()");
    if (_seeds == 0)
        fatal("ExperimentRunner: seeds must be >= 1");

    SystemConfig base = _cfg;
    base.finalize();

    // An explicit factory wins; otherwise the config names a
    // registered workload (validated by finalize() above).
    WorkloadFactory factory = _factory;
    if (!factory) {
        if (base.workloadName.empty()) {
            fatal("ExperimentRunner: no workload — set a workload() "
                  "factory or name one via SystemConfig::workloadName");
        }
        factory = [name = base.workloadName,
                   wp = base.workloadParams]() {
            return WorkloadRegistry::instance().create(name, wp);
        };
    }

    const unsigned n = _seeds;
    std::vector<std::optional<System::RunResult>> results(n);
    std::string workload_name;
    std::mutex mu;  //!< guards factory calls, progress, done count
    unsigned done = 0;

    auto run_one = [&](unsigned i) {
        SystemConfig cfg = base;
        cfg.seed = _firstSeed + i;
        std::unique_ptr<Workload> wl;
        {
            // Factories are usually cheap closures over parameters;
            // serialize the calls so they need not be thread-safe.
            std::lock_guard<std::mutex> lock(mu);
            wl = factory();
        }
        wl->reset();
        System sys(cfg);
        System::RunResult r = sys.run(*wl, _horizon);

        std::lock_guard<std::mutex> lock(mu);
        if (workload_name.empty())
            workload_name = wl->name();
        ++done;
        if (_progress) {
            SeedProgress p;
            p.seedIndex = i;
            p.seedValue = cfg.seed;
            p.seedsDone = done;
            p.seedsTotal = n;
            p.completed = r.completed;
            p.runtime = r.runtime;
            _progress(p);
        }
        results[i] = std::move(r);
    };

    const unsigned workers =
        std::min(std::max(_parallelism, 1u), n);
    if (workers <= 1) {
        for (unsigned i = 0; i < n; ++i)
            run_one(i);
    } else {
        std::atomic<unsigned> next{0};
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w) {
            pool.emplace_back([&]() {
                for (unsigned i = next.fetch_add(1); i < n;
                     i = next.fetch_add(1)) {
                    run_one(i);
                }
            });
        }
        for (auto &t : pool)
            t.join();
    }

    // Aggregate strictly in seed order: identical results no matter in
    // which order the workers finished.
    ExperimentResult exp;
    exp.protocol = protocolName(base.protocol);
    exp.knobHash = knobOverrideHash(base);
    if (!exp.knobHash.empty())
        exp.protocol += "@" + exp.knobHash;
    exp.workload = workload_name;
    exp.seedsRequested = n;
    for (unsigned i = 0; i < n; ++i) {
        System::RunResult &r = *results[i];
        if (!r.completed) {
            exp.allCompleted = false;
            warn("%s: seed %llu did not complete within horizon",
                 protocolName(base.protocol).c_str(),
                 (unsigned long long)(_firstSeed + i));
            continue;
        }
        exp.runtime.add(double(r.runtime));
        exp.interBytes.add(r.stats.get("traffic.inter.total"));
        exp.intraBytes.add(r.stats.get("traffic.intra.total"));
        exp.violations += r.violations;
        for (const auto &[k, v] : r.stats.all())
            exp.stats[k].add(v);
        exp.perSeed.push_back(std::move(r));
    }
    return exp;
}

} // namespace tokencmp
