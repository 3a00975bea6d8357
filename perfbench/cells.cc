/**
 * @file
 * Cell runner of the end-to-end benchmark (driven by perfbench/run.py).
 *
 * A workload is a fixed list of cells: simulator cells (one fresh
 * System built, run and torn down) or model-check cells (one
 * mc::Checker::run). The runner executes the whole list in repeated
 * passes, at least `--min-passes` of them and until `--seconds` have
 * elapsed. It runs every cell in its own forked child, so a cell that
 * dies (fatal quiescence audit, panic, timeout) is reported as a
 * failed cell instead of ending the run, and every cell starts from a
 * fresh heap.
 *
 * Output: one line `cell {...}` on stdout per cell and pass, with
 * the cell's timings, counts and statistics. With `--trace 1`, odd
 * passes are traced, and the run ends after a traced pass, so it has
 * as many traced as untraced passes. Traced records carry the spans
 * recorded around each layer call, under the cell's root span (fork
 * to reap) given by `start_ns`/`end_ns`.
 */

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mc/checker.hh"
#include "mc/dir_model.hh"
#include "mc/hier_model.hh"
#include "mc/token_model.hh"
#include "system/experiment.hh"
#include "system/knobs.hh"
#include "system/system.hh"
#include "workload/synthetic.hh"
#include "workload/workload_registry.hh"

using namespace tokencmp;

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t
nowNs()
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

std::uint64_t
tvNs(const timeval &tv)
{
    return std::uint64_t(tv.tv_sec) * 1000000000ull +
           std::uint64_t(tv.tv_usec) * 1000ull;
}

std::uint64_t
cpuNs(const rusage &ru)
{
    return tvNs(ru.ru_utime) + tvNs(ru.ru_stime);
}

std::uint64_t
selfCpuNs()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return cpuNs(ru);
}

/** Resident set size in KiB, from /proc/self/statm. */
long
rssKb()
{
    long pages = 0, resident = 0;
    if (FILE *f = std::fopen("/proc/self/statm", "r")) {
        if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2)
            resident = 0;
        std::fclose(f);
    }
    return resident * (sysconf(_SC_PAGESIZE) / 1024);
}

/** One span: [start, end) around a layer call. `parent` 0 is the
 *  cell's root span, which the parent process closes. */
struct Span
{
    std::string name;
    std::uint64_t start;
    std::uint64_t end;
    int parent;
};

struct Cell
{
    std::string label;

    // Simulator cell.
    SystemConfig cfg;
    std::function<std::unique_ptr<Workload>()> make;

    // Model-check cell.
    std::function<std::unique_ptr<mc::Model>()> model;
    bool seededBug = false;

    Tick horizon = ns(500000000);  //!< System::run's default
};

/** FNV-1a over the cell outcome and every simulated stat. `kernel.*`
 *  counters describe the sharded kernel's bookkeeping, not the
 *  modelled machine, so a kernel change may move them freely. */
std::string
statDigest(const System::RunResult &r)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "completed=%d;violations=%llu;"
                  "runtime=%llu;", int(r.completed),
                  (unsigned long long)r.violations,
                  (unsigned long long)r.runtime);
    std::string key = buf;
    for (const auto &[k, v] : r.stats.all()) {
        if (k.rfind("kernel.", 0) == 0)
            continue;
        std::snprintf(buf, sizeof(buf), "=%.17g;", v);
        key += k + buf;
    }
    return hashHex(stableHash64(key));
}

std::string
spansJson(const std::vector<Span> &spans)
{
    std::string out = "[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out += (i ? "," : "") + std::string("[") + json::quote(s.name) +
               "," + std::to_string(s.start) + "," +
               std::to_string(s.end) + "," + std::to_string(s.parent) +
               "]";
    }
    return out + "]";
}

/** Child side of a simulator cell: the record's JSON fields. */
std::string
runSimCell(const Cell &c, std::vector<Span> &spans)
{
    const std::uint64_t t0 = nowNs();
    std::unique_ptr<Workload> wl = c.make();
    wl->reset();
    const std::uint64_t t1 = nowNs();
    const long rss0 = rssKb();
    auto sys = std::make_unique<System>(c.cfg);
    const std::uint64_t t2 = nowNs();
    const long rss1 = rssKb();
    const std::uint64_t cpu0 = selfCpuNs();
    System::RunResult r = sys->run(*wl, c.horizon);
    const std::uint64_t t3 = nowNs();
    const std::uint64_t cpu1 = selfCpuNs();

    std::uint64_t events = 0;
    for (unsigned d = 0; d < sys->numDomains(); ++d)
        events += sys->domainContext(d).eventq.executed();
    const std::uint64_t windows = sys->shardedWindows();
    const std::uint64_t violations = wl->violations();
    sys.reset();
    wl.reset();
    const std::uint64_t t4 = nowNs();

    spans.push_back({"workload.create", t0, t1, 0});
    spans.push_back({"system.construct", t1, t2, 0});
    spans.push_back({"system.run", t2, t3, 0});
    spans.push_back({"system.teardown", t3, t4, 0});

    std::string stats = "{";
    bool first = true;
    for (const auto &[k, v] : r.stats.all()) {
        stats += (first ? "" : ",") + json::quote(k) + ":" +
                 json::number(v);
        first = false;
    }
    stats += "}";

    const bool ok = r.completed && violations == 0;
    return "\"kind\":\"sim\",\"ok\":" + std::string(ok ? "true" : "false") +
           ",\"completed\":" + (r.completed ? "true" : "false") +
           ",\"violations\":" + std::to_string(violations) +
           ",\"create_ns\":" + std::to_string(t1 - t0) +
           ",\"construct_ns\":" + std::to_string(t2 - t1) +
           ",\"run_ns\":" + std::to_string(t3 - t2) +
           ",\"run_cpu_ns\":" + std::to_string(cpu1 - cpu0) +
           ",\"teardown_ns\":" + std::to_string(t4 - t3) +
           ",\"construct_rss_kb\":" + std::to_string(rss1 - rss0) +
           ",\"runtime_ticks\":" + std::to_string(r.runtime) +
           ",\"events\":" + std::to_string(events) +
           ",\"windows\":" + std::to_string(windows) +
           ",\"digest\":\"" + statDigest(r) + "\",\"stats\":" + stats;
}

/** Model constructions per model-check cell, timed as one batch. */
constexpr unsigned kModelBuilds = 1000;

/** Child side of a model-check cell. */
std::string
runMcCell(const Cell &c, std::vector<Span> &spans)
{
    // Model construction takes nanoseconds, about as long as a clock
    // read, so time a batch of constructions and report the mean. Each
    // build replaces the previous model: keeping all of them alive
    // would time the kernel's page faults on fresh heap, not the model.
    const std::uint64_t t0 = nowNs();
    std::unique_ptr<mc::Model> model;
    for (unsigned i = 0; i < kModelBuilds; ++i)
        model = c.model();
    const double model_ns = double(nowNs() - t0) / kModelBuilds;
    const mc::Checker checker;
    const std::uint64_t t1 = nowNs();
    const mc::CheckResult r = checker.run(*model);
    const std::uint64_t t2 = nowNs();

    spans.push_back({"mc.model", t0, t1, 0});
    spans.push_back({"mc.check", t1, t2, 0});

    // A seeded bug is caught when any property fails; a clean model
    // must be explored completely with every property holding.
    const bool holds = r.safe && r.deadlockFree && r.progress;
    const bool ok = c.seededBug ? !holds : r.completed && holds;
    return "\"kind\":\"mc\",\"ok\":" + std::string(ok ? "true" : "false") +
           ",\"seeded_bug\":" + (c.seededBug ? "true" : "false") +
           ",\"safe\":" + (r.safe ? "true" : "false") +
           ",\"deadlock_free\":" + (r.deadlockFree ? "true" : "false") +
           ",\"progress\":" + (r.progress ? "true" : "false") +
           ",\"model_ns\":" + json::number(model_ns) +
           ",\"check_ns\":" + std::to_string(t2 - t1) +
           ",\"states\":" + std::to_string(r.states) +
           ",\"transitions\":" + std::to_string(r.transitions) +
           ",\"diameter\":" + std::to_string(r.diameter);
}

/** Seconds a single cell may take before its child is killed. */
constexpr unsigned kCellTimeoutS = 100;

/**
 * Run one cell in a forked child and return its record. The parent
 * adds the cell's extent (fork to reap), the child's exit status,
 * peak RSS and CPU time; a child that dies without a record yields an
 * `ok: false` record carrying the reason.
 */
std::string
runIsolated(const Cell &c, unsigned pass, unsigned idx, bool traced)
{
    int fds[2];
    if (pipe(fds) != 0) {
        std::perror("pipe");
        std::exit(2);
    }
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t runner = getpid();
    const std::uint64_t t_fork = nowNs();
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("fork");
        std::exit(2);
    }
    if (pid == 0) {
        // Die with the runner, so a killed run leaves no cell behind.
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (getppid() != runner)
            _exit(4);
        close(fds[0]);
        // Keep the record stream clean: anything the simulator prints
        // on stdout goes to stderr.
        dup2(STDERR_FILENO, STDOUT_FILENO);
        alarm(kCellTimeoutS);
        std::vector<Span> spans;
        std::string body = c.model ? runMcCell(c, spans)
                                   : runSimCell(c, spans);
        body = "{" + body + ",\"spans\":" +
               spansJson(traced ? spans : std::vector<Span>{}) + "}";
        const char *p = body.data();
        std::size_t left = body.size();
        while (left > 0) {
            const ssize_t n = write(fds[1], p, left);
            if (n <= 0)
                _exit(3);
            p += n;
            left -= std::size_t(n);
        }
        _exit(0);
    }

    close(fds[1]);
    std::string body;
    char buf[65536];
    for (;;) {
        const ssize_t n = read(fds[0], buf, sizeof(buf));
        if (n > 0) {
            body.append(buf, std::size_t(n));
        } else if (n == 0 || errno != EINTR) {
            break;
        }
    }
    close(fds[0]);
    int status = 0;
    rusage ru{};
    while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    const std::uint64_t t_done = nowNs();

    std::string reason;
    if (WIFSIGNALED(status))
        reason = std::string("killed by signal ") + strsignal(WTERMSIG(status));
    else if (WEXITSTATUS(status) != 0)
        reason = "exit status " + std::to_string(WEXITSTATUS(status));
    const bool complete = reason.empty() && !body.empty() &&
                          body.back() == '}';
    if (!complete) {
        if (reason.empty())
            reason = "truncated record";
        body = "{\"kind\":\"" + std::string(c.model ? "mc" : "sim") +
               "\",\"ok\":false,\"spans\":[]}";
    }

    std::string head = "{\"pass\":" + std::to_string(pass) +
                       ",\"cell\":" + std::to_string(idx) +
                       ",\"label\":" + json::quote(c.label) +
                       ",\"traced\":" + (traced ? "true" : "false") +
                       ",\"start_ns\":" + std::to_string(t_fork) +
                       ",\"end_ns\":" + std::to_string(t_done) +
                       ",\"child_cpu_ns\":" + std::to_string(cpuNs(ru)) +
                       ",\"maxrss_kb\":" + std::to_string(ru.ru_maxrss) +
                       ",\"died\":" + json::quote(reason) + ",";
    return head + body.substr(1);
}

// ---- Workload definitions ------------------------------------------

struct NamedProto
{
    const char *name;
    Protocol proto;
};

SystemConfig
baseConfig(Protocol p, std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.protocol = p;
    cfg.seed = seed;
    return cfg;
}

std::vector<SyntheticParams>
fig6Proxies()
{
    return {oltpParams(), apacheParams(), jbbParams()};
}

/** fig6/fig7 grid: every protocol family on the three commercial
 *  proxies and locking, default sizes, two seeds, serial kernel. */
std::vector<Cell>
paperCells(std::uint64_t seed)
{
    const NamedProto protos[] = {
        {"dst1", Protocol::TokenDst1},
        {"dst4", Protocol::TokenDst4},
        {"dst1-pred", Protocol::TokenDst1Pred},
        {"dst1-filt", Protocol::TokenDst1Filt},
        {"directory", Protocol::DirectoryCMP},
        {"hier", Protocol::HierCMP},
        {"perfect", Protocol::PerfectL2},
    };
    std::vector<Cell> cells;
    for (unsigned s = 0; s < 2; ++s) {
        const std::uint64_t cell_seed = 2 * seed + 1 + s;
        for (const SyntheticParams &wl : fig6Proxies()) {
            for (const NamedProto &p : protos) {
                Cell c;
                c.label = wl.label + "/" + p.name + "/s" +
                          std::to_string(s);
                c.cfg = baseConfig(p.proto, cell_seed);
                c.make = [wl]() {
                    return std::make_unique<SyntheticWorkload>(wl);
                };
                cells.push_back(std::move(c));
            }
        }
        for (const NamedProto &p : protos) {
            Cell c;
            c.label = "locking/" + std::string(p.name) + "/s" +
                      std::to_string(s);
            c.cfg = baseConfig(p.proto, cell_seed);
            c.make = []() {
                return WorkloadRegistry::instance().create(
                    "locking", WorkloadParams{});
            };
            cells.push_back(std::move(c));
        }
    }
    return cells;
}

/** Long fig6 proxy runs: construction is amortised, so controllers,
 *  network and the event kernel carry the time. */
std::vector<Cell>
macroLong(std::uint64_t seed)
{
    const NamedProto protos[] = {
        {"dst1", Protocol::TokenDst1},
        {"directory", Protocol::DirectoryCMP},
        {"hier", Protocol::HierCMP},
    };
    std::vector<Cell> cells;
    for (SyntheticParams wl : fig6Proxies()) {
        wl.opsPerProc = 4000;
        for (const NamedProto &p : protos) {
            Cell c;
            c.label = wl.label + "/" + p.name;
            c.cfg = baseConfig(p.proto, seed + 1);
            c.make = [wl]() {
                return std::make_unique<SyntheticWorkload>(wl);
            };
            cells.push_back(std::move(c));
        }
    }
    return cells;
}

/** Write-heavy contended runs on the conservative per-CMP sharded
 *  kernel, driven by `workers` threads. The benchmark uses 1: with 2,
 *  the workers wait on each other whenever the host deschedules
 *  either one, and wall time follows the host rather than the program.
 *  The self-test runs 2 to check that the statistics are the same. */
std::vector<Cell>
contendedSharded(std::uint64_t seed, unsigned workers)
{
    const NamedProto protos[] = {
        {"dst1", Protocol::TokenDst1},
        {"dst4", Protocol::TokenDst4},
        {"hier", Protocol::HierCMP},
        {"directory", Protocol::DirectoryCMP},
    };
    WorkloadParams locking;
    locking.keys = 8;
    locking.opsPerProc = 200;
    WorkloadParams zipf;
    zipf.theta = 0.99;
    zipf.writeFrac = 0.5;
    zipf.keys = 64;
    zipf.opsPerProc = 600;
    const std::pair<const char *, WorkloadParams> wls[] = {
        {"locking", locking}, {"zipf", zipf}};

    std::vector<Cell> cells;
    for (const auto &[name, wp] : wls) {
        for (const NamedProto &p : protos) {
            Cell c;
            c.label = std::string(name) + "/" + p.name;
            c.cfg = baseConfig(p.proto, seed + 1);
            c.cfg.shards = workers;
            c.cfg.shardMap.kind = ShardMapKind::PerCmp;
            c.make = [name = std::string(name), wp = wp]() {
                return WorkloadRegistry::instance().create(name, wp);
            };
            cells.push_back(std::move(c));
        }
    }
    return cells;
}

/** Table 5 models: the two largest clean models plus every seeded
 *  bug. Model checking draws no random numbers, so the seed is not
 *  used. */
std::vector<Cell>
modelcheck()
{
    std::vector<Cell> cells;
    auto add = [&cells](std::string label, bool bug,
                        std::function<std::unique_ptr<mc::Model>()> m) {
        Cell c;
        c.label = std::move(label);
        c.seededBug = bug;
        c.model = std::move(m);
        cells.push_back(std::move(c));
    };
    auto token = [](auto tweak) {
        return [tweak]() {
            mc::TokenModelConfig cfg;
            cfg.caches = 2;
            cfg.totalTokens = 3;
            cfg.maxMsgs = 2;
            tweak(cfg);
            return std::unique_ptr<mc::Model>(new mc::TokenModel(cfg));
        };
    };
    auto hier = [](auto tweak) {
        return [tweak]() {
            mc::HierModelConfig cfg;
            tweak(cfg);
            return std::unique_ptr<mc::Model>(new mc::HierModel(cfg));
        };
    };
    using TC = mc::TokenModelConfig;
    using HC = mc::HierModelConfig;

    add("TokenCMP-dst", false,
        token([](TC &c) { c.variant = mc::TokenVariant::Dst; }));
    add("HierCMP-2level", false, hier([](HC &) {}));
    add("bug:write-without-all", true, token([](TC &c) {
            c.variant = mc::TokenVariant::Safety;
            c.bugWriteWithoutAll = true;
        }));
    add("bug:owner-no-data", true, token([](TC &c) {
            c.variant = mc::TokenVariant::Safety;
            c.bugOwnerNoData = true;
        }));
    add("bug:data-only-msgs", true, token([](TC &c) {
            c.variant = mc::TokenVariant::Safety;
            c.bugDataOnlyMessages = true;
        }));
    add("bug:skip-mem-activate", true, token([](TC &c) {
            c.variant = mc::TokenVariant::Dst;
            c.bugSkipMemActivate = true;
            c.maxMsgs = 1;
            c.issueLimit = 1;
            c.quietPolicy = true;
        }));
    add("bug:forget-invalidate", true, []() {
        mc::DirModelConfig cfg;
        cfg.caches = 3;
        cfg.bugForgetInv = true;
        return std::unique_ptr<mc::Model>(new mc::DirModel(cfg));
    });
    add("bug:serve-owner-at-S", true,
        hier([](HC &c) { c.bugServeOwnerAtS = true; }));
    add("bug:ack-inv-no-recall", true,
        hier([](HC &c) { c.bugAckInvNoRecall = true; }));
    add("bug:skip-inv-ack", true,
        hier([](HC &c) { c.bugSkipInvAck = true; }));
    return cells;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench_cells: %s\n"
                 "usage: perfbench_cells --workload NAME --seed N "
                 "[--seconds S] [--min-passes P]\n"
                 "       [--trace 0|1] [--workers K] [--fail-cell I]\n"
                 "workloads: paper-cells macro-long contended-sharded "
                 "modelcheck\n", msg);
    std::exit(2);
}

unsigned long long
parseNum(const char *flag, const char *v)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long x = std::strtoull(v, &end, 10);
    if (errno != 0 || end == v || *end != '\0' || v[0] == '-')
        usage((std::string("bad value for ") + flag).c_str());
    return x;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    bool tracing = false;
    unsigned long long seed = 0;
    double seconds = 0;
    unsigned workers = 1;
    unsigned long long min_passes = 1;
    long long fail_cell = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        if (a == "--workload")
            workload = v;
        else if (a == "--seed")
            seed = parseNum("--seed", v);
        else if (a == "--seconds")
            seconds = double(parseNum("--seconds", v));
        else if (a == "--trace")
            tracing = parseNum("--trace", v) != 0;
        else if (a == "--workers")
            workers = unsigned(parseNum("--workers", v));
        else if (a == "--min-passes")
            min_passes = parseNum("--min-passes", v);
        else if (a == "--fail-cell")
            fail_cell = (long long)parseNum("--fail-cell", v);
        else
            usage(("unknown flag " + a).c_str());
    }
    if (workers == 0 || min_passes == 0)
        usage("--workers and --min-passes must be >= 1");

    std::vector<Cell> cells;
    if (workload == "paper-cells")
        cells = paperCells(seed);
    else if (workload == "macro-long")
        cells = macroLong(seed);
    else if (workload == "contended-sharded")
        cells = contendedSharded(seed, workers);
    else if (workload == "modelcheck")
        cells = modelcheck();
    else
        usage(("unknown workload '" + workload + "'").c_str());

    // Self-test hook: a horizon far too short for the cell to finish.
    if (fail_cell >= 0) {
        if (std::size_t(fail_cell) >= cells.size())
            usage("--fail-cell out of range");
        cells[std::size_t(fail_cell)].horizon = ns(1);
    }

    const std::uint64_t start = nowNs();
    for (unsigned pass = 0;; ++pass) {
        if (pass >= min_passes && (!tracing || pass % 2 == 0) &&
            double(nowNs() - start) * 1e-9 >= seconds)
            break;
        // Traced runs alternate untraced and traced passes, so the
        // tracing overhead is measured on the same run.
        const bool traced = tracing && pass % 2 == 1;
        for (unsigned i = 0; i < cells.size(); ++i) {
            const std::string rec = runIsolated(cells[i], pass, i, traced);
            std::printf("cell %s\n", rec.c_str());
        }
        std::fflush(stdout);
    }

    return 0;
}
