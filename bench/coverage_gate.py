#!/usr/bin/env python3
"""Line-coverage gate for the coverage CI leg.

Walks a TOKENCMP_COVERAGE=ON build tree for .gcda files, asks gcov for
JSON intermediate records, aggregates executed/instrumented lines per
source file, and enforces a line-coverage floor (default 80%) on the
simulation kernel — src/sim/ — via the exit code. The kernel (event
queue, timing wheel, sharded window coordinator and mailboxes) carries
the ordering and worker-count determinism contracts every simulated
result depends on, so untested kernel lines are the first place an
ordering bug would hide.

Per-file percentages for the whole src/ tree are printed and written
to --out as JSON (uploaded as a CI artifact next to the lcov HTML
report, which the workflow generates separately with lcov/genhtml).

Usage:
  python3 bench/coverage_gate.py --build-dir build-cov \
      [--floor 0.80] [--gate-prefix src/sim/] [--out cov.json]
"""

import argparse
import gzip
import json
import os
import subprocess
import sys


def gcov_json_records(build_dir):
    """Run gcov in JSON mode over every .gcda and yield file records."""
    gcda = []
    for root, _dirs, files in os.walk(build_dir):
        gcda.extend(os.path.abspath(os.path.join(root, f))
                    for f in files if f.endswith(".gcda"))
    if not gcda:
        sys.exit(f"no .gcda files under {build_dir} — configure with "
                 "-DTOKENCMP_COVERAGE=ON and run the tests first")
    for path in gcda:
        # -t writes JSON to stdout; one gzip'd JSON document per input
        # is written with --json-format without -t, so use stdout mode.
        proc = subprocess.run(
            ["gcov", "--json-format", "-t", path],
            cwd=os.path.dirname(path), capture_output=True)
        if proc.returncode != 0:
            continue
        for line in proc.stdout.splitlines():
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                try:
                    doc = json.loads(gzip.decompress(line))
                except Exception:
                    continue
            yield from doc.get("files", [])


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--src-root", default="src",
                    help="only report files under this prefix "
                         "(after repo-relative normalization)")
    ap.add_argument("--gate-prefix", default="src/sim/",
                    help="subtree whose aggregate line coverage "
                         "must meet the floor")
    ap.add_argument("--floor", type=float,
                    default=float(os.environ.get(
                        "TOKENCMP_COVERAGE_FLOOR", "0.80")),
                    help="minimum line-coverage fraction for the "
                         "gated subtree (default 0.80)")
    ap.add_argument("--out", default=None,
                    help="write the per-file summary JSON here")
    args = ap.parse_args()

    repo = os.path.abspath(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))

    # file -> {line_no: hit?}; the same source shows up once per
    # object that includes it (headers, template bodies), so merge by
    # max — a line is covered if any object executed it.
    lines = {}
    for frec in gcov_json_records(args.build_dir):
        path = frec.get("file", "")
        ap_path = os.path.abspath(os.path.join(repo, path)) \
            if not os.path.isabs(path) else path
        rel = os.path.relpath(ap_path, repo)
        if rel.startswith(".."):
            continue
        if not rel.startswith(args.src_root):
            continue
        per = lines.setdefault(rel, {})
        for ln in frec.get("lines", []):
            no = ln.get("line_number")
            per[no] = per.get(no, False) or ln.get("count", 0) > 0

    if not lines:
        sys.exit("gcov produced no records for the source tree")

    summary = []
    gate_total = gate_hit = 0
    for rel in sorted(lines):
        per = lines[rel]
        total = len(per)
        hit = sum(per.values())
        summary.append({"file": rel, "lines": total, "covered": hit,
                        "coverage": hit / total if total else 1.0})
        if rel.startswith(args.gate_prefix):
            gate_total += total
            gate_hit += hit

    for e in summary:
        mark = "*" if e["file"].startswith(args.gate_prefix) else " "
        print(f" {mark} {e['file']:<44} {e['covered']:>5}/"
              f"{e['lines']:<5} {e['coverage']:7.1%}")

    if gate_total == 0:
        sys.exit(f"no instrumented lines under {args.gate_prefix}")
    gate_cov = gate_hit / gate_total
    result = {"gatePrefix": args.gate_prefix, "floor": args.floor,
              "gateCoverage": gate_cov, "gateLines": gate_total,
              "gateCovered": gate_hit, "files": summary}
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(result, f, indent=2)
        print(f"wrote {args.out}")

    print(f"\n{args.gate_prefix} line coverage: {gate_cov:.1%} "
          f"({gate_hit}/{gate_total} lines, floor {args.floor:.0%})")
    if gate_cov < args.floor:
        print(f"FAIL: {args.gate_prefix} below the "
              f"{args.floor:.0%} coverage floor", file=sys.stderr)
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
