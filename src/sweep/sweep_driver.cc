#include "sweep/sweep_driver.hh"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <thread>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sched.h>
#endif

#include "sim/logging.hh"
#include "sweep/json.hh"
#include "system/experiment.hh"

namespace tokencmp {

namespace {

std::string
readWholeFile(const std::string &path, bool *ok = nullptr)
{
    if (ok)
        *ok = false;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return "";
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    if (ok)
        *ok = true;
    return text;
}

/**
 * Extract the byte-exact "result" object from a journal cell line.
 * The driver writes the result as the final member, so the raw text
 * is everything between `"result": ` and the closing brace; keeping
 * the original bytes (instead of re-serializing a parse) is what
 * makes resumed and uninterrupted merged reports bit-identical.
 */
std::string
rawResult(const std::string &line)
{
    static const char *kKey = "\"result\": ";
    const std::size_t at = line.find(kKey);
    if (at == std::string::npos)
        return "";
    const std::size_t start = at + std::strlen(kKey);
    std::size_t end = line.size();
    while (end > start &&
           (line[end - 1] == '\n' || line[end - 1] == '\r'))
        --end;
    if (end <= start + 1 || line[end - 1] != '}')
        return "";
    return line.substr(start, end - 1 - start);
}

} // namespace

SweepDriver::SweepDriver(const ParamGrid &grid, SweepOptions opts)
    : _grid(grid), _opts(std::move(opts))
{
    if (_opts.journalPath.empty())
        fatal("SweepDriver: a journal path is required");
    if (_opts.processes > 0 &&
        (_opts.selfExec.empty() || _opts.gridPath.empty())) {
        fatal("SweepDriver: multi-process fan-out needs selfExec and "
              "gridPath (the child command is <selfExec> --grid "
              "<gridPath> --cell <hash>)");
    }
    loadJournal();
}

void
SweepDriver::loadJournal()
{
    bool ok = false;
    const std::string text = readWholeFile(_opts.journalPath, &ok);
    if (!ok || text.empty())
        return;  // fresh journal

    // Split into lines; the final line may be a torn write from a
    // kill -9 and is tolerated (its cell simply re-runs).
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text.size()) {
        std::size_t nl = text.find('\n', start);
        if (nl == std::string::npos)
            nl = text.size();
        if (nl > start)
            lines.push_back(text.substr(start, nl - start));
        start = nl + 1;
    }

    bool saw_header = false;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const bool last = i + 1 == lines.size();
        std::string err;
        minijson::Value v = minijson::parse(lines[i], &err);
        if (!err.empty() || !v.isObject()) {
            if (last) {
                warn("sweep journal %s: ignoring truncated final "
                     "line (killed mid-append?); its cell will "
                     "re-run", _opts.journalPath.c_str());
                continue;
            }
            fatal("sweep journal %s: corrupt line %zu: %s",
                  _opts.journalPath.c_str(), i + 1, err.c_str());
        }
        const std::string type = v.getString("type");
        if (type == "header") {
            const std::string fp = v.getString("fingerprint");
            if (fp != _grid.fingerprint()) {
                fatal("sweep journal %s was recorded for grid "
                      "fingerprint %s, but the current grid '%s' has "
                      "fingerprint %s — the grid was edited since "
                      "this journal began. Resuming would silently "
                      "mix two different sweeps; move the journal "
                      "aside (or delete it) to start fresh, or "
                      "revert the grid to resume.",
                      _opts.journalPath.c_str(), fp.c_str(),
                      _grid.name().c_str(),
                      _grid.fingerprint().c_str());
            }
            saw_header = true;
            continue;
        }
        if (type != "cell")
            continue;  // future extension lines are skippable
        if (!saw_header) {
            fatal("sweep journal %s: cell line before header (line "
                  "%zu)", _opts.journalPath.c_str(), i + 1);
        }
        const std::string hash = v.getString("hash");
        const std::string raw = rawResult(lines[i]);
        if (hash.empty() || raw.empty()) {
            fatal("sweep journal %s: malformed cell line %zu",
                  _opts.journalPath.c_str(), i + 1);
        }
        if (_grid.cellByHash(hash) == nullptr) {
            // The fingerprint should have caught any edit; an
            // unknown hash beyond it means a hand-edited journal.
            fatal("sweep journal %s: line %zu names cell %s which is "
                  "not in grid '%s'", _opts.journalPath.c_str(),
                  i + 1, hash.c_str(), _grid.name().c_str());
        }
        _done.emplace(hash, raw);
    }
    _journalStarted = saw_header;
}

void
SweepDriver::appendJournal(const std::string &line)
{
    std::FILE *f = std::fopen(_opts.journalPath.c_str(), "a");
    if (f == nullptr)
        fatal("sweep journal %s: cannot open for append",
              _opts.journalPath.c_str());
    std::fputs(line.c_str(), f);
    std::fputc('\n', f);
    std::fflush(f);
    std::fclose(f);
}

std::string
SweepDriver::runCellJson(const ParamGrid &grid, const SweepCell &cell)
{
    SystemConfig cfg = grid.configFor(cell);
    ExperimentResult e = Experiment::of(cfg)
                             .seeds(1)
                             .firstSeed(cell.seed)
                             .parallelism(1)
                             .horizon(grid.horizon())
                             .run();
    return e.toJson(cell.label);
}

SweepDriver::Summary
SweepDriver::run()
{
    if (!_journalStarted) {
        appendJournal(
            "{\"type\": \"header\", \"grid\": " +
            json::quote(_grid.name()) + ", \"fingerprint\": " +
            json::quote(_grid.fingerprint()) + ", \"cells\": " +
            std::to_string(_grid.cells().size()) + "}");
        _journalStarted = true;
    }

    std::vector<const SweepCell *> pending;
    for (const SweepCell &cell : _grid.cells()) {
        if (!_done.count(cell.hash))
            pending.push_back(&cell);
    }

    Summary s = _opts.processes > 0 ? runMultiProcess(pending)
                                    : runInProcess(pending);
    s.total = unsigned(_grid.cells().size());
    s.resumed = unsigned(_grid.cells().size() - pending.size());
    if (_opts.verbose && s.resumed > 0) {
        std::printf("sweep %s: resumed %u completed cell(s) from %s\n",
                    _grid.name().c_str(), s.resumed,
                    _opts.journalPath.c_str());
    }
    return s;
}

SweepDriver::Summary
SweepDriver::runInProcess(const std::vector<const SweepCell *> &pending)
{
    Summary s;
    std::atomic<std::size_t> next{0};
    std::atomic<bool> stop{false};
    std::mutex mu;  // journal + counters + stdout

    auto worker = [&]() {
        while (!stop.load(std::memory_order_relaxed)) {
            const std::size_t i = next.fetch_add(1);
            if (i >= pending.size())
                return;
            const SweepCell &cell = *pending[i];
            const std::string result = runCellJson(_grid, cell);

            std::lock_guard<std::mutex> lock(mu);
            appendJournal("{\"type\": \"cell\", \"hash\": " +
                          json::quote(cell.hash) + ", \"label\": " +
                          json::quote(cell.label) +
                          ", \"result\": " + result + "}");
            _done.emplace(cell.hash, result);
            ++s.ran;
            if (_opts.verbose) {
                std::printf("  [%u/%zu] %s (%s)\n",
                            unsigned(_done.size()),
                            _grid.cells().size(), cell.label.c_str(),
                            cell.hash.c_str());
                std::fflush(stdout);
            }
            if (_opts.stopAfter > 0 && s.ran >= _opts.stopAfter) {
                stop.store(true, std::memory_order_relaxed);
                s.stopped = true;
            }
        }
    };

    const unsigned workers = std::max(1u, _opts.threads);
    if (workers <= 1 || pending.size() <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        const unsigned n =
            unsigned(std::min<std::size_t>(workers, pending.size()));
        pool.reserve(n);
        for (unsigned w = 0; w < n; ++w)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }
    return s;
}

SweepDriver::Summary
SweepDriver::runMultiProcess(
    const std::vector<const SweepCell *> &pending)
{
    Summary s;

    struct Child
    {
        pid_t pid = -1;
        const SweepCell *cell = nullptr;
        std::string outPath;
        unsigned slot = 0;
    };
    std::vector<Child> children;

    const unsigned slots = std::max(1u, _opts.processes);
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    const unsigned group = std::max(1u, hw / slots);
    std::vector<bool> slotBusy(slots, false);

    std::size_t nextCell = 0;
    bool stop = false;

    auto spawn = [&](const SweepCell &cell, unsigned slot) {
        Child c;
        c.cell = &cell;
        c.slot = slot;
        c.outPath = _opts.journalPath + ".cell_" + cell.hash + ".tmp";
        const pid_t pid = fork();
        if (pid < 0)
            fatal("sweep: fork failed");
        if (pid == 0) {
#ifdef __linux__
            if (_opts.pin) {
                // One core group per process slot: sharded cells get
                // their own cores instead of fighting the siblings.
                cpu_set_t set;
                CPU_ZERO(&set);
                for (unsigned i = 0; i < group; ++i)
                    CPU_SET((slot * group + i) % hw, &set);
                (void)sched_setaffinity(0, sizeof(set), &set);
            }
#endif
            execl(_opts.selfExec.c_str(), _opts.selfExec.c_str(),
                  "--grid", _opts.gridPath.c_str(), "--cell",
                  cell.hash.c_str(), "--cell-out", c.outPath.c_str(),
                  (char *)nullptr);
            // Only reached when exec failed.
            std::fprintf(stderr, "sweep child: cannot exec %s\n",
                         _opts.selfExec.c_str());
            _exit(127);
        }
        c.pid = pid;
        slotBusy[slot] = true;
        children.push_back(std::move(c));
    };

    auto freeSlot = [&]() -> int {
        for (unsigned i = 0; i < slots; ++i) {
            if (!slotBusy[i])
                return int(i);
        }
        return -1;
    };

    while (true) {
        // Keep the process pool full until stopping.
        while (!stop && nextCell < pending.size()) {
            const int slot = freeSlot();
            if (slot < 0 || children.size() >= slots)
                break;
            spawn(*pending[nextCell++], unsigned(slot));
        }
        if (children.empty())
            break;

        int status = 0;
        const pid_t pid = waitpid(-1, &status, 0);
        if (pid < 0)
            fatal("sweep: waitpid failed");
        auto it = children.begin();
        while (it != children.end() && it->pid != pid)
            ++it;
        if (it == children.end())
            continue;  // not one of ours
        const Child child = *it;
        children.erase(it);
        slotBusy[child.slot] = false;

        const bool exited_ok =
            WIFEXITED(status) && WEXITSTATUS(status) == 0;
        bool cell_ok = false;
        std::string result;
        if (exited_ok) {
            bool read_ok = false;
            result = readWholeFile(child.outPath, &read_ok);
            // Strip the trailing newline the child's writer appends.
            while (!result.empty() &&
                   (result.back() == '\n' || result.back() == '\r'))
                result.pop_back();
            std::string err;
            minijson::Value v = minijson::parse(result, &err);
            cell_ok = read_ok && err.empty() && v.isObject();
        }
        std::remove(child.outPath.c_str());

        if (cell_ok) {
            appendJournal("{\"type\": \"cell\", \"hash\": " +
                          json::quote(child.cell->hash) +
                          ", \"label\": " +
                          json::quote(child.cell->label) +
                          ", \"result\": " + result + "}");
            _done.emplace(child.cell->hash, result);
            ++s.ran;
            if (_opts.verbose) {
                std::printf("  [%u/%zu] %s (%s, pid %d)\n",
                            unsigned(_done.size()),
                            _grid.cells().size(),
                            child.cell->label.c_str(),
                            child.cell->hash.c_str(), int(pid));
                std::fflush(stdout);
            }
            if (_opts.stopAfter > 0 && s.ran >= _opts.stopAfter) {
                stop = true;
                s.stopped = true;
            }
        } else {
            ++s.failed;
            char why[96];
            if (WIFSIGNALED(status)) {
                std::snprintf(why, sizeof(why), "killed by signal %d",
                              WTERMSIG(status));
            } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
                std::snprintf(why, sizeof(why), "exit status %d",
                              WEXITSTATUS(status));
            } else {
                std::snprintf(why, sizeof(why),
                              "unreadable cell output");
            }
            s.failures.push_back(child.cell->label + " (" +
                                 child.cell->hash + "): " + why);
            warn("sweep cell %s failed: %s — continuing with the "
                 "remaining cells (re-run to retry it)",
                 child.cell->label.c_str(), why);
        }
    }
    return s;
}

std::string
SweepDriver::mergedReport() const
{
    // Accumulators for the per-axis marginal tables: for each metric,
    // for each axis, value label -> (sum, cells).
    struct Acc
    {
        double sum = 0.0;
        unsigned cells = 0;
    };
    using Table = std::map<std::string, Acc>;
    static const char *kMetrics[] = {"runtimeNs", "msgsPerMiss",
                                     "interBytesPerMiss",
                                     "intraBytesPerMiss"};
    static const char *kAxes[] = {"byPolicy", "byWorkload",
                                  "byShardMap", "byOverride",
                                  "byPolicyWorkload"};
    std::map<std::string, std::map<std::string, Table>> marg;

    std::string cells_out;
    unsigned done = 0;
    for (const SweepCell &cell : _grid.cells()) {
        auto it = _done.find(cell.hash);
        if (it == _done.end())
            continue;
        ++done;
        if (!cells_out.empty())
            cells_out += ",\n  ";
        cells_out += "{\"hash\": " + json::quote(cell.hash) +
                     ", \"label\": " + json::quote(cell.label) +
                     ", \"policy\": " + json::quote(cell.policy) +
                     ", \"workload\": " + json::quote(cell.workload) +
                     ", \"shardMap\": " + json::quote(cell.shardMap) +
                     ", \"override\": " +
                     json::quote(cell.overrideLabel) + ", \"seed\": " +
                     std::to_string(cell.seed) + ", \"result\": " +
                     it->second + "}";

        // Marginals only count fully completed cells with the stats
        // the metric needs (PerfectL2 has no network counters).
        std::string err;
        minijson::Value r = minijson::parse(it->second, &err);
        if (!err.empty() || !r.isObject())
            continue;
        const minijson::Value *all = r.find("allCompleted");
        if (all == nullptr || !all->isBool() || !all->boolean)
            continue;

        auto meanOf = [&r](const char *key, bool *ok) -> double {
            const minijson::Value *v = r.find(key);
            if (v == nullptr) {
                *ok = false;
                return 0.0;
            }
            const minijson::Value *m = v->find("mean");
            *ok = m != nullptr && m->isNumber();
            return *ok ? m->number : 0.0;
        };
        auto statMean = [&r](const char *key, bool *ok) -> double {
            const minijson::Value *stats = r.find("stats");
            const minijson::Value *v =
                stats ? stats->find(key) : nullptr;
            const minijson::Value *m = v ? v->find("mean") : nullptr;
            *ok = m != nullptr && m->isNumber();
            return *ok ? m->number : 0.0;
        };

        bool ok_rt = false, ok_inter = false, ok_intra = false;
        bool ok_miss = false, ok_msgs = false;
        const double runtime = meanOf("runtime", &ok_rt);
        const double inter = meanOf("interBytes", &ok_inter);
        const double intra = meanOf("intraBytes", &ok_intra);
        const double misses = statMean("l1.misses", &ok_miss);
        const double msgs = statMean("net.messages", &ok_msgs);

        std::map<std::string, std::pair<bool, double>> metrics;
        metrics["runtimeNs"] = {ok_rt, runtime / double(ticksPerNs)};
        metrics["msgsPerMiss"] = {ok_msgs && ok_miss && misses > 0,
                                  misses > 0 ? msgs / misses : 0};
        metrics["interBytesPerMiss"] = {
            ok_inter && ok_miss && misses > 0,
            misses > 0 ? inter / misses : 0};
        metrics["intraBytesPerMiss"] = {
            ok_intra && ok_miss && misses > 0,
            misses > 0 ? intra / misses : 0};

        for (const char *metric : kMetrics) {
            const auto &[ok, value] = metrics[metric];
            if (!ok)
                continue;
            auto &axes = marg[metric];
            auto add = [&](const char *axis, const std::string &key) {
                Acc &a = axes[axis][key];
                a.sum += value;
                a.cells += 1;
            };
            add("byPolicy", cell.policy);
            add("byWorkload", cell.workload);
            add("byShardMap", cell.shardMap);
            add("byOverride", cell.overrideLabel);
            add("byPolicyWorkload",
                cell.policy + "|" + cell.workload);
        }
    }

    std::string axes_out = "{\"policies\": [";
    auto joinQuoted = [](const std::vector<std::string> &v) {
        std::string out;
        for (const std::string &s : v) {
            if (!out.empty())
                out += ", ";
            out += json::quote(s);
        }
        return out;
    };
    axes_out += joinQuoted(_grid.policies()) + "], \"workloads\": [" +
                joinQuoted(_grid.workloads()) +
                "], \"shardMaps\": [" + joinQuoted(_grid.shardMaps()) +
                "], \"overrides\": [";
    {
        std::string out;
        for (const KnobOverride &o : _grid.overrides()) {
            if (!out.empty())
                out += ", ";
            out += json::quote(o.label);
        }
        axes_out += out;
    }
    axes_out += "], \"seeds\": " +
                std::to_string(_grid.seedsPerCell()) +
                ", \"firstSeed\": " +
                std::to_string(_grid.firstSeed()) + "}";

    std::string marg_out = "{";
    bool first_metric = true;
    for (const char *metric : kMetrics) {
        auto mit = marg.find(metric);
        if (mit == marg.end())
            continue;
        marg_out += std::string(first_metric ? "" : ", ") +
                    json::quote(metric) + ": {";
        first_metric = false;
        bool first_axis = true;
        for (const char *axis : kAxes) {
            auto ait = mit->second.find(axis);
            if (ait == mit->second.end())
                continue;
            marg_out += std::string(first_axis ? "" : ", ") +
                        json::quote(axis) + ": {";
            first_axis = false;
            bool first_key = true;
            for (const auto &[key, acc] : ait->second) {
                marg_out += std::string(first_key ? "" : ", ") +
                            json::quote(key) + ": {\"mean\": " +
                            json::number(acc.sum / acc.cells) +
                            ", \"cells\": " +
                            std::to_string(acc.cells) + "}";
                first_key = false;
            }
            marg_out += "}";
        }
        marg_out += "}";
    }
    marg_out += "}";

    return "{\"sweep\": " + json::quote(_grid.name()) +
           ", \"fingerprint\": " + json::quote(_grid.fingerprint()) +
           ", \"cellsTotal\": " +
           std::to_string(_grid.cells().size()) +
           ", \"cellsDone\": " + std::to_string(done) +
           ",\n \"axes\": " + axes_out + ",\n \"cells\": [\n  " +
           cells_out + "\n],\n \"marginals\": " + marg_out + "}\n";
}

} // namespace tokencmp
