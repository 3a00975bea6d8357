#!/usr/bin/env python3
"""Bench-regression gate for the Release CI leg.

Compares the freshly produced BENCH_<name>.json records of the
wall-clock benches (kernel_throughput, sharded_throughput) against the
committed baselines in bench/baselines/<name>.json and fails (exit 1)
when any "eventsPerSec" cell drops by more than the tolerance (default
15%, override with --tolerance or TOKENCMP_BENCH_TOLERANCE).

"ratio" cells (speedups) are reported informationally but do not
gate, since their pass/fail thresholds are enforced by the benches
themselves. A label present in the baseline but missing from the
current record is a failure (the bench silently shrank); new labels
are reported and ignored.

A baseline whose meta.hwThreads exceeds this machine's core count
warns and skips its eventsPerSec cells instead of gating — a laptop
or container cannot hold a many-core runner's parallel throughput.

--exact NAME... is the strict mode for benches whose records are pure
simulation counts over fixed seeds (fig6_macro_runtime, fig7_traffic
and workload_sweep at TOKENCMP_SEEDS=2): the current BENCH_<name>.json
must equal its baseline apart from the "meta" provenance block, cell
for cell and field for field. A renamed, added or dropped label fails
here, as does a drift in either direction, however small. These
benches need no tolerance gate: an exact match implies it.

--sweeps NAME... gates the marginals of a merged sweep report.

A machine-readable diff is written to --out for upload as a CI
artifact, whether or not the gate trips.

Baselines are runner-class specific: refresh them (copy the
BENCH_*.json produced by a Release build on the CI runner class into
bench/baselines/) whenever the runner hardware or the benchmark
workload intentionally changes.

Usage:
  python3 bench/check_regression.py \
      --baseline-dir bench/baselines --current-dir build \
      --out build/bench_regression_diff.json \
      [--tolerance 0.15] \
      [--benches kernel_throughput sharded_throughput]

  python3 bench/check_regression.py --benches \
      --exact fig6_macro_runtime fig7_traffic workload_sweep
"""

import argparse
import json
import os
import sys


def load_record(path):
    """Return ({label: cell-dict}, meta-dict) for one BENCH_*.json."""
    with open(path) as f:
        record = json.load(f)
    cells = {}
    for cell in record.get("cells", []):
        label = cell.get("label")
        if label:
            cells[label] = cell
    return cells, record.get("meta", {})


def compare(name, baseline_dir, current_dir, tolerance):
    base_path = os.path.join(baseline_dir, name + ".json")
    cur_path = os.path.join(current_dir, "BENCH_" + name + ".json")
    result = {"bench": name, "cells": [], "failures": [],
              "warnings": []}

    if not os.path.exists(base_path):
        result["failures"].append(f"missing baseline: {base_path}")
        return result
    if not os.path.exists(cur_path):
        result["failures"].append(f"missing current record: {cur_path}")
        return result

    base, base_meta = load_record(base_path)
    cur, cur_meta = load_record(cur_path)
    # Provenance travels with the diff artifact: which commit/compiler
    # produced each side decides whether a drift is even meaningful.
    result["meta"] = {"baseline": base_meta, "current": cur_meta}

    # A baseline recorded on a bigger machine cannot gate wall-clock
    # cells here: parallel benches legitimately lose their speedup
    # when the worker threads outnumber the cores.
    base_hw = base_meta.get("hwThreads", base_meta.get("hw_threads"))
    machine_hw = os.cpu_count()
    hw_short = (base_hw is not None and machine_hw is not None
                and int(base_hw) > machine_hw)
    if hw_short:
        result["warnings"].append(
            f"{name}: baseline recorded on {base_hw} hardware "
            f"threads, this machine has {machine_hw} — wall-clock "
            f"cells skipped")

    for label, bcell in sorted(base.items()):
        ccell = cur.get(label)
        entry = {"label": label}
        if "eventsPerSec" in bcell:
            entry["metric"] = "eventsPerSec"
            if hw_short:
                entry["verdict"] = "skipped"
            elif ccell is None or "eventsPerSec" not in ccell:
                entry["verdict"] = "missing"
                result["failures"].append(
                    f"{name}/{label}: present in baseline, "
                    f"missing from current record")
            else:
                b = float(bcell["eventsPerSec"])
                c = float(ccell["eventsPerSec"])
                entry["baseline"] = b
                entry["current"] = c
                entry["change"] = (c - b) / b if b else 0.0
                if b > 0 and c < b * (1.0 - tolerance):
                    entry["verdict"] = "regressed"
                    result["failures"].append(
                        f"{name}/{label}: {c:.3e} ev/s is "
                        f"{(1 - c / b) * 100:.1f}% below baseline "
                        f"{b:.3e} (tolerance {tolerance * 100:.0f}%)")
                else:
                    entry["verdict"] = "ok"
        elif "ratio" in bcell:
            entry["baseline"] = bcell["ratio"]
            entry["current"] = (ccell or {}).get("ratio")
            entry["verdict"] = "info"
        else:
            continue
        result["cells"].append(entry)

    for label in sorted(set(cur) - set(base)):
        result["cells"].append({"label": label, "verdict": "new"})

    # Old -> new summary over the gated cells: one number per bench
    # for the PR-diff reader, beyond the per-cell rows.
    changes = [e["change"] for e in result["cells"]
               if "change" in e and e.get("metric")]
    if changes:
        result["summary"] = {
            "gatedCells": len(changes),
            "meanChange": sum(changes) / len(changes),
        }
    return result


def compare_exact(name, baseline_dir, current_dir):
    """Require BENCH_<name>.json to equal its baseline apart from meta."""
    base_path = os.path.join(baseline_dir, name + ".json")
    cur_path = os.path.join(current_dir, "BENCH_" + name + ".json")
    result = {"bench": "exact:" + name, "cells": [], "failures": [],
              "warnings": []}
    for path in (base_path, cur_path):
        if not os.path.exists(path):
            result["failures"].append(f"missing record: {path}")
            return result

    with open(base_path) as f:
        base = json.load(f)
    with open(cur_path) as f:
        cur = json.load(f)
    base.pop("meta", None)
    cur.pop("meta", None)

    for key in sorted(set(base) | set(cur)):
        if key != "cells" and base.get(key) != cur.get(key):
            result["failures"].append(
                f"exact {name}: top-level '{key}' differs")
    base_cells = {c["label"]: c for c in base.get("cells", [])
                  if c.get("label")}
    cur_cells = {c["label"]: c for c in cur.get("cells", [])
                 if c.get("label")}
    for label in sorted(set(base_cells) | set(cur_cells)):
        bcell = base_cells.get(label)
        ccell = cur_cells.get(label)
        if bcell == ccell:
            verdict = "equal"
        elif ccell is None:
            verdict = "missing"
        elif bcell is None:
            verdict = "added"
        else:
            verdict = "changed"
            fields = sorted(k for k in set(bcell) | set(ccell)
                            if bcell.get(k) != ccell.get(k))
            result["failures"].append(
                f"exact {name}/{label}: fields {', '.join(fields)} "
                f"differ from baseline")
        if verdict in ("missing", "added"):
            result["failures"].append(
                f"exact {name}/{label}: {verdict} against baseline")
        result["cells"].append({"label": label, "verdict": verdict})
    if base != cur and not result["failures"]:
        result["failures"].append(
            f"exact {name}: cells differ in order, or in unlabeled or "
            f"duplicate-label cells")
    equal = sum(1 for e in result["cells"] if e["verdict"] == "equal")
    result["summary"] = {"equalCells": equal,
                         "cells": len(result["cells"])}
    return result


def compare_sweep(name, baseline_dir, current_dir, tolerance):
    """Gate one SWEEP_<name>.json merged sweep report.

    Sweep marginals are simulation statistics over fixed seeds —
    deterministic on any runner class — so every marginal mean gates,
    in both directions (these are correctness-ish counts, not
    wall-clock). The baseline only applies when its grid fingerprint
    matches the current report's: an intentionally edited grid warns
    and skips (refresh the baseline with the new report), it does not
    brick the gate.
    """
    base_path = os.path.join(baseline_dir, name + ".json")
    cur_path = os.path.join(current_dir, "SWEEP_" + name + ".json")
    result = {"bench": "sweep:" + name, "cells": [], "failures": [],
              "warnings": []}

    if not os.path.exists(base_path):
        result["failures"].append(f"missing sweep baseline: "
                                  f"{base_path}")
        return result
    if not os.path.exists(cur_path):
        result["failures"].append(f"missing sweep report: {cur_path}")
        return result

    with open(base_path) as f:
        base = json.load(f)
    with open(cur_path) as f:
        cur = json.load(f)

    for key in ("sweep", "fingerprint", "cellsTotal", "cellsDone",
                "marginals"):
        if key not in cur:
            result["failures"].append(
                f"sweep {name}: report lacks '{key}'")
            return result
    if cur["cellsDone"] != cur["cellsTotal"]:
        result["failures"].append(
            f"sweep {name}: incomplete report "
            f"({cur['cellsDone']}/{cur['cellsTotal']} cells)")
        return result

    if base.get("fingerprint") != cur.get("fingerprint"):
        result["warnings"].append(
            f"sweep {name}: grid fingerprint changed "
            f"({base.get('fingerprint')} -> {cur.get('fingerprint')});"
            f" marginals skipped — refresh bench/baselines/"
            f"{name}.json from the new report")
        return result

    for metric, axes in sorted(base.get("marginals", {}).items()):
        cur_axes = cur["marginals"].get(metric, {})
        for axis, table in sorted(axes.items()):
            cur_table = cur_axes.get(axis, {})
            for key, bcell in sorted(table.items()):
                label = f"{metric}.{axis}.{key}"
                entry = {"label": label, "metric": metric}
                ccell = cur_table.get(key)
                if ccell is None:
                    entry["verdict"] = "missing"
                    result["failures"].append(
                        f"sweep {name}/{label}: present in baseline, "
                        f"missing from report")
                else:
                    b, c = float(bcell["mean"]), float(ccell["mean"])
                    entry["baseline"] = b
                    entry["current"] = c
                    entry["change"] = (c - b) / b if b else 0.0
                    if b > 0 and abs(c - b) > b * tolerance:
                        entry["verdict"] = "regressed"
                        result["failures"].append(
                            f"sweep {name}/{label}: {c:.6g} drifted "
                            f"{entry['change']:+.1%} from baseline "
                            f"{b:.6g} (tolerance "
                            f"{tolerance * 100:.0f}%)")
                    else:
                        entry["verdict"] = "ok"
                result["cells"].append(entry)

    changes = [e["change"] for e in result["cells"] if "change" in e]
    if changes:
        result["summary"] = {
            "gatedCells": len(changes),
            "meanChange": sum(changes) / len(changes),
        }
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline-dir", default="bench/baselines")
    ap.add_argument("--current-dir", default="build")
    ap.add_argument("--out", default=None,
                    help="write the diff JSON here")
    ap.add_argument("--tolerance", type=float,
                    default=float(os.environ.get(
                        "TOKENCMP_BENCH_TOLERANCE", "0.15")),
                    help="allowed fractional drift: events/sec drop "
                         "or sweep marginal drift (default 0.15)")
    ap.add_argument("--benches", nargs="*",
                    default=["kernel_throughput", "sharded_throughput"],
                    help="wall-clock bench records to gate; pass with "
                         "no names to gate only --sweeps or --exact")
    ap.add_argument("--sweeps", nargs="*", default=[],
                    metavar="SWEEP",
                    help="merged sweep reports to gate: for each NAME "
                         "compare <current-dir>/SWEEP_NAME.json "
                         "marginals against bench/baselines/NAME.json "
                         "(fingerprint-matched)")
    ap.add_argument("--exact", nargs="*", default=[], metavar="BENCH",
                    help="benches whose BENCH_<name>.json must equal "
                         "the baseline apart from 'meta'")
    args = ap.parse_args()

    diff = {"tolerance": args.tolerance, "benches": [], "ok": True}
    failures = []
    warnings = []
    for name in args.benches:
        result = compare(name, args.baseline_dir, args.current_dir,
                         args.tolerance)
        diff["benches"].append(result)
        failures.extend(result["failures"])
        warnings.extend(result["warnings"])
    for name in args.sweeps:
        result = compare_sweep(name, args.baseline_dir,
                               args.current_dir, args.tolerance)
        diff["benches"].append(result)
        failures.extend(result["failures"])
        warnings.extend(result["warnings"])
    for name in args.exact:
        result = compare_exact(name, args.baseline_dir,
                               args.current_dir)
        diff["benches"].append(result)
        failures.extend(result["failures"])

    diff["ok"] = not failures
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(diff, f, indent=2)
        print(f"wrote {args.out}")

    for result in diff["benches"]:
        for entry in result["cells"]:
            label = f"{result['bench']}/{entry['label']}"
            if entry.get("verdict") == "ok":
                unit = {"eventsPerSec": "ev/s",
                        "msgsPerMiss": "msgs/miss"}.get(
                            entry.get("metric"), "")
                print(f"  OK   {label}: {entry['current']:.3e} {unit} "
                      f"({entry['change']:+.1%} vs baseline)")
            elif entry.get("verdict") == "info":
                print(f"  INFO {label}: {entry.get('current')} "
                      f"(baseline {entry.get('baseline')})")
            elif entry.get("verdict") == "new":
                print(f"  NEW  {label}")

    for result in diff["benches"]:
        s = result.get("summary")
        if s and "equalCells" in s:
            print(f"  ---- {result['bench']}: {s['equalCells']}/"
                  f"{s['cells']} cell(s) equal to baseline")
        elif s:
            print(f"  ---- {result['bench']}: mean old->new delta "
                  f"{s['meanChange']:+.1%} over {s['gatedCells']} "
                  f"gated cell(s)")

    for w in warnings:
        print(f"  WARN {w} (allowed; skipped)")

    if failures:
        print("\nBench regression gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nBench regression gate passed "
          f"(tolerance {args.tolerance:.0%}).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
