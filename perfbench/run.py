#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the tokencmp simulator.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the cell runner (perfbench/cells.cc plus every simulator source
under src/) into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the workload's cells in repeated passes
for at least S seconds and at least the number of passes it times,
checks every cell, and prints a per-cell digest of the simulated
statistics, one line per metric, and as the last line one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, computed from traced
passes, whose spans are written to spans/<workload>-seed<N>.jsonl in
the build directory when the run ends.

Workloads, metrics and the reference digests are described in
perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("paper-cells", "macro-long", "contended-sharded", "modelcheck")

# fig6: TokenCMP-dst1 is faster than DirectoryCMP by about 50% (OLTP),
# 29% (Apache) and 10% (SPECjbb) in the paper.
PAPER_SPEEDUP_PCT = {"OLTP": 50.0, "Apache": 29.0, "SpecJBB": 10.0}

# The cell runner is stopped after this many seconds, so that a run
# ends within three minutes once the runner is built.
RUNNER_LIMIT_S = 165

# Seconds of one pass of each workload at the recorded baseline
# (README.md). A run of S seconds times its first ceil(S / PASS_S)
# passes and ignores later ones, so every commit's minima are taken
# over the same number of samples, however fast its passes are.
PASS_S = {"paper-cells": 3.0, "macro-long": 7.0,
          "contended-sharded": 0.67, "modelcheck": 11.0}

def fail(msg):
    """Exit without a result line."""
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configure and build the cell runner; return its path."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "-j", jobs],
    ]
    # Compiler temporaries stay inside the build directory too.
    tmp = out / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              cwd=ROOT, env=env).returncode != 0:
                f.flush()
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed: {' '.join(cmd)}")
    return out / "perfbench_cells"


def timed_passes(args):
    """Passes whose timings count: a fixed number per workload and run
    length, even in a traced run (as many traced as untraced)."""
    n = args.passes or math.ceil(args.seconds / PASS_S[args.workload])
    return n + n % 2 if args.trace else n


def run_cells(binary, args, timeout):
    """Run the cell runner; return its cell records."""
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--trace", str(args.trace),
           "--min-passes", str(timed_passes(args))]
    if not args.passes:
        cmd += ["--seconds", str(args.seconds)]
    if args.fail_cell is not None:
        cmd += ["--fail-cell", str(args.fail_cell)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"cell runner exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        fail(f"cell runner exited with status {proc.returncode}")
    cells = [json.loads(line[5:]) for line in proc.stdout.splitlines()
             if line.startswith("cell ")]
    if not cells:
        fail("cell runner produced no records")
    return cells


# ---- helpers ------------------------------------------------------------


def pctl(xs, q):
    """Nearest-rank percentile (0 for no samples)."""
    if not xs:
        return 0.0
    xs = sorted(xs)
    return xs[min(len(xs) - 1, max(0, math.ceil(q * len(xs)) - 1))]


def ratio(num, den):
    return num / den if den else 0.0


def stat(rec, key):
    return rec.get("stats", {}).get(key, 0.0)


def total(recs, key):
    return sum(stat(r, key) for r in recs)


def live(recs, kind):
    """Records of `kind` whose child delivered a result."""
    return [r for r in recs if r["kind"] == kind and not r["died"]]


def refs(r):
    return stat(r, "l1.hits") + stat(r, "l1.misses")


def digest(rec):
    """Stat digest of a cell: the runner's hash of every simulated
    stat, or the verdict line of a model-check cell."""
    if rec["died"]:
        return "died"
    if rec["kind"] == "sim":
        return rec["digest"]
    return ("states={states} transitions={transitions} "
            "diameter={diameter} safe={safe:d} deadlock_free="
            "{deadlock_free:d} progress={progress:d}").format(**rec)


# ---- correctness --------------------------------------------------------


def check_cells(cells, reference):
    """Mark each record failed or not; return the list of problems.

    A cell fails when its child died, when the run did not complete or
    the workload saw violations, when a clean model is not verified
    with its reference state counts, or when a seeded bug is not
    caught. A cell whose digest differs between passes makes the run
    incorrect (the simulator must be deterministic)."""
    problems = []
    first = {}
    mc_ref = reference.get("modelcheck", {})
    for r in cells:
        reason = r["died"] or ("" if r["ok"] else "cell check failed")
        if (not reason and r["kind"] == "mc" and not r["seeded_bug"]
                and mc_ref.get(r["label"]) not in (None, digest(r))):
            reason = "state counts differ from the reference"
        r["failed"] = bool(reason)
        if reason:
            problems.append(f"{r['label']} (pass {r['pass']}): {reason}")
        d = digest(r)
        if r["label"] in first and first[r["label"]] != d and not r["failed"]:
            problems.append(f"{r['label']}: digest changed between passes")
        first.setdefault(r["label"], d)
    return problems


def compare_digests(cells, workload, seed, reference):
    """Per-cell digests of the first pass against the reference.
    Returns (lines, checked, mismatched)."""
    first = [r for r in cells if r["pass"] == cells[0]["pass"]]
    if workload == "modelcheck":
        ref = reference.get("modelcheck", {})
    else:
        entry = reference.get(workload, {})
        labels = entry.get("labels", [])
        row = entry.get("seeds", {}).get(str(seed), "").split()
        ref = dict(zip(labels, row)) if len(row) == len(labels) else {}
    lines, checked, mismatched = [], 0, 0
    for r in first:
        d, want = digest(r), ref.get(r["label"])
        if want is None:
            verdict = "no-reference"
        else:
            checked += 1
            verdict = "match" if d == want else "MISMATCH"
            mismatched += d != want
        lines.append(f"digest {r['label']} {d} {verdict}")
    return lines, checked, mismatched


def update_reference(cells, workload, seed, reference):
    first = [r for r in cells if r["pass"] == cells[0]["pass"]]
    if any(r["failed"] for r in first):
        fail("refusing to record digests of failed cells")
    if workload == "modelcheck":
        reference["modelcheck"] = {r["label"]: digest(r) for r in first}
    else:
        entry = reference.setdefault(workload, {"labels": [], "seeds": {}})
        labels = [r["label"] for r in first]
        if entry["labels"] and entry["labels"] != labels:
            entry["seeds"] = {}
        entry["labels"] = labels
        entry["seeds"][str(seed)] = " ".join(digest(r) for r in first)
        entry["seeds"] = dict(sorted(entry["seeds"].items(),
                                     key=lambda kv: int(kv[0])))
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


# ---- metrics ------------------------------------------------------------


def setup_ns(r):
    """Cell set-up: workload creation and System construction, or model
    construction (the median of several)."""
    if r["died"]:
        return 0
    if r["kind"] == "sim":
        return r["create_ns"] + r["construct_ns"]
    return r["model_ns"]


def cell_sum(recs, fn):
    """Σ over cells of the minimum of fn(record) over the given passes.
    On a shared host, steal and contention only ever add time, and come
    in bursts of seconds; each cell's fastest pass is the steadiest
    estimate of its own cost (see README.md, Baseline)."""
    by_label = {}
    for r in recs:
        by_label.setdefault(r["label"], []).append(fn(r))
    return sum(min(xs) for xs in by_label.values())


def wall_ns(r):
    return r["end_ns"] - r["start_ns"]


def rate(recs):
    """Simulated L1 references per second of System::run, or states
    explored per second of mc::Checker::run."""
    sim, mc = live(recs, "sim"), live(recs, "mc")
    if sim:
        return 1e9 * ratio(cell_sum(sim, refs),
                           cell_sum(sim, lambda r: r["run_ns"]))
    return 1e9 * ratio(cell_sum(mc, lambda r: r["states"]),
                       cell_sum(mc, lambda r: r["check_ns"]))


def end_to_end(cells, timed):
    """Metrics of an untraced run; host times come from the `timed`
    records."""
    failed = sum(r["failed"] for r in cells)
    return {
        "wall_s": cell_sum(timed, wall_ns) * 1e-9,
        "cpu_s": cell_sum(timed, lambda r: r["child_cpu_ns"]) * 1e-9,
        "setup_s": cell_sum(timed, setup_ns) * 1e-9,
        "peak_rss_mb": max(r["maxrss_kb"] for r in cells) / 1024.0,
        "pass_frac": 1.0 - failed / len(cells),
        "work_per_s": rate(timed),
    }


def trace_id(r):
    return f"p{r['pass']}.c{r['cell']}"


def spans_of(recs):
    """Span dicts of traced cells: the cell's root span (fork to reap)
    plus the spans recorded in the child around each layer call. All
    spans of one cell share its trace id."""
    out = []
    for r in recs:
        out.append({"trace": trace_id(r), "span": 0, "parent": -1,
                    "name": "cell", "start_ns": r["start_ns"],
                    "end_ns": r["end_ns"]})
        for i, (name, start, end, parent) in enumerate(r["spans"], 1):
            out.append({"trace": trace_id(r), "span": i, "parent": parent,
                        "name": name, "start_ns": start, "end_ns": end})
    return out


def self_times_ms(spans):
    """{trace: {span name: self time}}: a span's duration minus the
    time its children cover (children of one span do not overlap)."""
    child = {}
    for s in spans:
        if s["parent"] >= 0:
            key = (s["trace"], s["parent"])
            child[key] = child.get(key, 0) + s["end_ns"] - s["start_ns"]
    out = {}
    for s in spans:
        own = (s["end_ns"] - s["start_ns"]
               - child.get((s["trace"], s["span"]), 0))
        names = out.setdefault(s["trace"], {})
        names[s["name"]] = names.get(s["name"], 0.0) + own * 1e-6
    return out


def paper_err_pt(sim):
    """Mean |speedup(dst1 vs directory) - paper| over the fig6 proxies,
    in percentage points (runtimes averaged over the cell seeds)."""
    errs = []
    for proxy, paper in PAPER_SPEEDUP_PCT.items():
        def mean_rt(proto):
            rts = [r["runtime_ticks"] for r in sim
                   if r["label"].startswith(f"{proxy}/{proto}/")]
            return statistics.fmean(rts) if rts else 0.0
        dst1, dirc = mean_rt("dst1"), mean_rt("directory")
        if dst1 and dirc:
            errs.append(abs((dirc / dst1 - 1.0) * 100.0 - paper))
    return statistics.fmean(errs) if errs else 0.0


def per_layer(cells, timed, workload, digest_counts, spans):
    """Metrics of a traced run; host times come from the `timed`
    records."""
    traced = [r for r in timed if r["traced"]]
    sim_t, mc_t = live(traced, "sim"), live(traced, "mc")
    # Simulated counts repeat exactly, so one pass gives them.
    one = [r for r in traced if r["pass"] == traced[0]["pass"]]
    sim, mc = live(one, "sim"), live(one, "mc")
    misses = total(sim, "l1.misses")
    tok = [r for r in sim if "token.transients" in r["stats"]]
    tok_misses = total(tok, "l1.misses")
    flat_tok = [r for r in sim if "token.relays" in r["stats"]]
    dirs = [r for r in sim if "dir.forwards" in r["stats"]]
    hier = [r for r in sim if "hier.localServes" in r["stats"]]
    windowed = [r for r in sim if r["windows"]]
    done = [r for r in sim if r["completed"]]
    ms = lambda key, rs: [r[key] * 1e-6 for r in rs]  # noqa: E731
    own = self_times_ms(spans)
    persistent = total(tok, "token.persistentIssued")
    transients = total(tok, "token.transients")

    m = {
        "system.construct_ms.p50": pctl(ms("construct_ns", sim_t), 0.5),
        "system.construct_ms.p90": pctl(ms("construct_ns", sim_t), 0.9),
        "system.construct_rss_mb": ratio(
            sum(r["construct_rss_kb"] for r in sim_t) / 1024.0, len(sim_t)),
        "system.teardown_ms.p50": pctl(ms("teardown_ns", sim_t), 0.5),
        "system.construct_frac": ratio(
            sum(r["construct_ns"] + r["teardown_ns"] for r in sim_t),
            sum(r["create_ns"] + r["construct_ns"] + r["run_ns"]
                + r["teardown_ns"] for r in sim_t)),
        "workload.create_us.p50": pctl(
            [r["create_ns"] * 1e-3 for r in sim_t], 0.5),
        "sim.run_ms.p50": pctl(ms("run_ns", sim_t), 0.5),
        "sim.run_ms.p90": pctl(ms("run_ns", sim_t), 0.9),
        "sim.events": sum(r["events"] for r in sim),
        "sim.ns_per_event": ratio(cell_sum(sim_t, lambda r: r["run_ns"]),
                                  cell_sum(sim_t, lambda r: r["events"])),
        "sim.windows": sum(r["windows"] for r in sim),
        "sim.events_per_window": ratio(sum(r["events"] for r in windowed),
                                       sum(r["windows"] for r in windowed)),
        "sim.cpu_over_wall": ratio(
            cell_sum(sim_t, lambda r: r["run_cpu_ns"]),
            cell_sum(sim_t, lambda r: r["run_ns"])),
        "sim.digest_mismatch": digest_counts[1],
        "sim.digest_checked": digest_counts[0],
        "mem.l1_hit_rate": ratio(total(sim, "l1.hits"),
                                 sum(refs(r) for r in sim)),
        "net.messages": total(sim, "net.messages"),
        "net.msgs_per_miss": ratio(total(sim, "net.messages"), misses),
        "net.intra_bytes_per_miss": ratio(
            total(sim, "traffic.intra.total"), misses),
        "core.transients": transients,
        "core.persistent_frac": ratio(persistent, tok_misses),
        "core.transient_success": (1.0 - ratio(persistent, transients)
                                   if transients else 0.0),
        "core.relays_per_miss": ratio(total(flat_tok, "token.relays"),
                                      total(flat_tok, "l1.misses")),
        "core.retries": total(tok, "token.retries"),
        "dir.forwards_per_miss": ratio(total(dirs, "dir.forwards"),
                                       total(dirs, "l1.misses")),
        "dir.deferrals": total(dirs, "dir.deferrals"),
        "hier.local_serve_frac": ratio(
            total(hier, "hier.localServes"),
            total(hier, "hier.localServes") + total(hier, "hier.fetches")),
        "hier.recalls": (total(hier, "hier.recallsDown")
                         + total(hier, "hier.recallsFull")),
        "mc.states": sum(r["states"] for r in mc),
        "mc.transitions": sum(r["transitions"] for r in mc),
        "mc.ns_per_state": ratio(cell_sum(mc_t, lambda r: r["check_ns"]),
                                 cell_sum(mc_t, lambda r: r["states"])),
        "mc.check_s": cell_sum(mc_t, lambda r: r["check_ns"]) * 1e-9,
        "fail_frac": ratio(sum(r["failed"] for r in cells), len(cells)),
        "refs_per_s": rate(sim_t),
        "states_per_s": rate(mc_t),
        "sim_runtime_ns": (math.exp(statistics.fmean(
            math.log(r["runtime_ticks"] / 1000.0) for r in done))
            if done else 0.0),
        "inter_bytes_per_miss": ratio(total(sim, "traffic.inter.total"),
                                      misses),
        "paper_err_pt": (paper_err_pt(sim) if workload == "paper-cells"
                         else 0.0),
        "trace.overhead_s": (cell_sum(traced, wall_ns) - cell_sum(
            [r for r in timed if not r["traced"]], wall_ns)) * 1e-9,
        "trace.spans": len(spans),
    }
    for name in ("cell", "workload.create", "system.construct",
                 "system.run", "system.teardown", "mc.model", "mc.check"):
        m[f"self_ms.{name}"] = cell_sum(
            traced, lambda r: own[trace_id(r)].get(name, 0.0))
    return m


# ---- main ---------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--passes", type=int, default=0,
                    help="run exactly this many passes instead of "
                         "--seconds")
    ap.add_argument("--fail-cell", type=int,
                    help="self-test: give this cell a horizon too short "
                         "to finish")
    ap.add_argument("--update-reference", action="store_true",
                    help="record this run's digests in reference.json")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1 or args.passes < 0:
        fail("--seed and --passes must be >= 0, --seconds >= 1")

    cells = run_cells(build(), args, RUNNER_LIMIT_S)
    timed = [r for r in cells if r["pass"] < timed_passes(args)]

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() \
        else {}
    problems = check_cells(cells, reference)
    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    if args.update_reference:
        update_reference(cells, args.workload, args.seed, reference)
    lines, checked, mismatched = compare_digests(
        cells, args.workload, args.seed, reference)
    print("\n".join(lines))
    print(f"digests: {checked - mismatched}/{checked} cells match the "
          f"reference ({len(lines) - checked} without one)")

    if args.trace:
        spans = spans_of([r for r in timed if r["traced"]])
        out = build_dir() / "spans"
        out.mkdir(parents=True, exist_ok=True)
        with open(out / f"{args.workload}-seed{args.seed}.jsonl", "w") as f:
            for s in spans:
                f.write(json.dumps(s) + "\n")
        values = per_layer(cells, timed, args.workload,
                           (checked, mismatched), spans)
    else:
        values = end_to_end(cells, timed)
    # BENCHMARK.json names every metric and its unit.
    section = json.loads(SPEC.read_text())[
        "per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    if set(units) != set(values):
        fail("computed metrics differ from BENCHMARK.json: "
             f"{sorted(set(units) ^ set(values))}")
    for name, unit in units.items():
        print(f"metric {name} = {values[name]:.6g} {unit}")

    failed = sum(r["failed"] for r in cells)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(cells),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    }))


if __name__ == "__main__":
    main()
