/**
 * @file
 * Sweep orchestration CLI: run a declarative parameter grid through
 * the resumable SweepDriver (see docs/sweeps.md).
 *
 *   sweep --grid bench/grids/fig7_policy_grid.json \
 *         --journal out/fig7.jsonl --out out/SWEEP_fig7.json \
 *         --procs 4 --pin
 *
 * Exit codes: 0 = every cell completed; 3 = stopped early or some
 * cells failed (re-run with the same journal to resume); anything
 * else is a usage or validation error (fatal()).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#ifdef __linux__
#include <climits>
#include <unistd.h>
#endif

#include "sim/logging.hh"
#include "sweep/param_grid.hh"
#include "sweep/sweep_driver.hh"

namespace {

using namespace tokencmp;

void
usage(std::FILE *to)
{
    std::fputs(
        "usage: sweep --grid <file.json> [options]\n"
        "\n"
        "Run a declarative parameter grid (policy x workload x shard\n"
        "map x knob overrides x seeds) with a resumable progress\n"
        "journal. Re-running with the same journal skips completed\n"
        "cells; see docs/sweeps.md for the grid reference.\n"
        "\n"
        "options:\n"
        "  --grid <file>      grid definition JSON (required)\n"
        "  --journal <file>   progress journal (default:\n"
        "                     <grid>.journal.jsonl)\n"
        "  --out <file>       write the merged report here (default:\n"
        "                     stdout)\n"
        "  --threads <n>      in-process worker threads (default 1)\n"
        "  --procs <n>        multi-process fan-out: n concurrent\n"
        "                     child processes, one cell each; a\n"
        "                     crashed cell doesn't kill the sweep\n"
        "  --pin              pin each child process to its own core\n"
        "                     group (Linux; implies --procs)\n"
        "  --stop-after <n>   stop (resumably) after n new cells\n"
        "  --fresh            delete the journal and start over\n"
        "  --list             print the cell table (hash, label) and\n"
        "                     exit without running anything\n"
        "  --report-only      merge the existing journal into a\n"
        "                     report without running pending cells\n"
        "  --cell <hash>      run exactly one cell in this process\n"
        "                     and print its result JSON (the child\n"
        "                     mode of --procs; no journal involved)\n"
        "  --cell-out <file>  write --cell output here, not stdout\n"
        "  --quiet            suppress per-cell progress lines\n"
        "  --help             this text\n"
        "\n"
        "exit status: 0 all cells complete; 3 stopped early or some\n"
        "cells failed (re-run to resume); other = error\n",
        to);
}

std::string
selfExecPath(const char *argv0)
{
#ifdef __linux__
    char buf[PATH_MAX];
    const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
#endif
    return argv0;
}

void
writeOrDie(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        fatal("sweep: cannot write %s", path.c_str());
    std::fputs(text.c_str(), f);
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string gridPath, cellHash, cellOut, outPath;
    SweepOptions opts;
    bool list = false, fresh = false, reportOnly = false;

    auto argOf = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            fatal("sweep: %s needs an argument (try --help)", argv[i]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strcmp(a, "--help") == 0 ||
            std::strcmp(a, "-h") == 0) {
            usage(stdout);
            return 0;
        } else if (std::strcmp(a, "--grid") == 0) {
            gridPath = argOf(i);
        } else if (std::strcmp(a, "--journal") == 0) {
            opts.journalPath = argOf(i);
        } else if (std::strcmp(a, "--out") == 0) {
            outPath = argOf(i);
        } else if (std::strcmp(a, "--threads") == 0) {
            opts.threads = unsigned(std::atoi(argOf(i)));
        } else if (std::strcmp(a, "--procs") == 0) {
            opts.processes = unsigned(std::atoi(argOf(i)));
        } else if (std::strcmp(a, "--pin") == 0) {
            opts.pin = true;
        } else if (std::strcmp(a, "--stop-after") == 0) {
            opts.stopAfter = unsigned(std::atoi(argOf(i)));
        } else if (std::strcmp(a, "--fresh") == 0) {
            fresh = true;
        } else if (std::strcmp(a, "--list") == 0) {
            list = true;
        } else if (std::strcmp(a, "--report-only") == 0) {
            reportOnly = true;
        } else if (std::strcmp(a, "--cell") == 0) {
            cellHash = argOf(i);
        } else if (std::strcmp(a, "--cell-out") == 0) {
            cellOut = argOf(i);
        } else if (std::strcmp(a, "--quiet") == 0) {
            opts.verbose = false;
        } else {
            std::fprintf(stderr, "sweep: unknown option %s\n\n", a);
            usage(stderr);
            return 1;
        }
    }
    if (gridPath.empty()) {
        usage(stderr);
        return 1;
    }
    if (opts.pin && opts.processes == 0)
        opts.processes = 2;

    const ParamGrid grid = ParamGrid::fromFile(gridPath);

    if (!cellHash.empty()) {
        // Child mode: one cell, result JSON to --cell-out / stdout.
        const SweepCell *cell = grid.cellByHash(cellHash);
        if (cell == nullptr) {
            fatal("sweep: grid '%s' has no cell %s",
                  grid.name().c_str(), cellHash.c_str());
        }
        const std::string result =
            SweepDriver::runCellJson(grid, *cell);
        if (cellOut.empty())
            std::printf("%s\n", result.c_str());
        else
            writeOrDie(cellOut, result + "\n");
        return 0;
    }

    if (list) {
        std::printf("grid %s: %zu cells, fingerprint %s\n",
                    grid.name().c_str(), grid.cells().size(),
                    grid.fingerprint().c_str());
        for (const SweepCell &cell : grid.cells())
            std::printf("  %s  %s\n", cell.hash.c_str(),
                        cell.label.c_str());
        return 0;
    }

    if (opts.journalPath.empty())
        opts.journalPath = gridPath + ".journal.jsonl";
    if (fresh)
        std::remove(opts.journalPath.c_str());
    opts.selfExec = selfExecPath(argv[0]);
    opts.gridPath = gridPath;

    SweepDriver driver(grid, opts);

    SweepDriver::Summary s;
    if (reportOnly) {
        s.total = unsigned(grid.cells().size());
        s.resumed = driver.cellsDone();
    } else {
        if (opts.verbose) {
            std::printf("sweep %s: %zu cells (%u already done), "
                        "journal %s\n",
                        grid.name().c_str(), grid.cells().size(),
                        driver.cellsDone(), opts.journalPath.c_str());
        }
        s = driver.run();
    }

    const std::string report = driver.mergedReport();
    if (outPath.empty())
        std::fputs(report.c_str(), stdout);
    else
        writeOrDie(outPath, report);

    if (opts.verbose) {
        std::printf("sweep %s: %u/%u cells done (%u resumed, %u ran, "
                    "%u failed)%s\n",
                    grid.name().c_str(), s.resumed + s.ran, s.total,
                    s.resumed, s.ran, s.failed,
                    s.stopped ? " [stopped early]" : "");
        for (const std::string &f : s.failures)
            std::printf("  failed: %s\n", f.c_str());
    }
    if (reportOnly)
        return 0;
    return s.complete() ? 0 : 3;
}
