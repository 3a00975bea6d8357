#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks, in about half a minute:
  1. an injected failing cell (a horizon too short to finish) is
     counted in `failed`, `pass_frac` and `fail_frac`, and makes the
     run incorrect;
  2. the metric names and units printed with --trace 0 and --trace 1
     are exactly the end_to_end and per_layer entries of
     BENCHMARK.json;
  3. contended-sharded statistics are bit-identical at 1 and 2
     sharded-kernel workers;
  4. a traced run writes spans for all five layer boundaries
     (workload.create, system.construct, system.run, system.teardown,
     mc.check);
  5. in a directory holding only BENCHMARK.json and the benchmark's
     own files, the benchmark exits non-zero without a result line.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
failures = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(*args, cwd=ROOT, env=None):
    """Run run.py; return (exit code, last stdout line as JSON or None)."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def names_match(result, section):
    want = {m["name"]: m["unit"] for m in BENCH[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    return got == want


def cell_records(binary, *args):
    out = subprocess.run([str(binary), *args], stdout=subprocess.PIPE,
                         text=True, check=True, cwd=ROOT).stdout
    return [json.loads(line[5:]) for line in out.splitlines()
            if line.startswith("cell ")]


def main():
    binary = run.build()
    shutil.rmtree(run.build_dir() / "spans", ignore_errors=True)

    # 1 + 2: injected failure, end-to-end names.
    code, res = bench("--workload", "contended-sharded", "--seed", "0",
                      "--passes", "1", "--fail-cell", "0", "--trace", "0")
    check(code == 0 and res is not None, "injected-failure run reports")
    if res:
        check(res["failed"] == 1 and res["attempted"] == 8,
              f"failed/attempted = {res['failed']}/{res['attempted']}, "
              "want 1/8")
        check(not res["correct"], "a failed cell makes the run incorrect")
        frac = res["metrics"]["pass_frac"]["value"]
        check(abs(frac - 7 / 8) < 1e-12, f"pass_frac = {frac}, want 0.875")
        check(names_match(res, "end_to_end"),
              "--trace 0 prints exactly BENCHMARK.json end_to_end")

    # 2 + 4: per-layer names, fail_frac, spans of every layer boundary.
    code, res = bench("--workload", "contended-sharded", "--seed", "0",
                      "--passes", "2", "--fail-cell", "0", "--trace", "1")
    check(code == 0 and res is not None, "traced run reports")
    if res:
        frac = res["metrics"]["fail_frac"]["value"]
        check(abs(frac - 2 / 16) < 1e-12, f"fail_frac = {frac}, want 0.125")
        check(names_match(res, "per_layer"),
              "--trace 1 prints exactly BENCHMARK.json per_layer")
    bench("--workload", "modelcheck", "--seed", "0", "--passes", "2",
          "--trace", "1")
    names = set()
    for w in ("contended-sharded", "modelcheck"):
        path = run.build_dir() / "spans" / f"{w}-seed0.jsonl"
        if path.exists():
            names |= {json.loads(line)["name"]
                      for line in path.read_text().splitlines()}
    want = {"cell", "workload.create", "system.construct", "system.run",
            "system.teardown", "mc.check"}
    check(want <= names, f"spans cover {sorted(want)}")

    # 3: sharded determinism across worker counts.
    one, two = (cell_records(binary, "--workload", "contended-sharded",
                             "--seed", "0", "--min-passes", "1",
                             "--workers", w)
                for w in ("1", "2"))
    strip = lambda r: {k: v for k, v in r["stats"].items()  # noqa: E731
                       if not k.startswith("kernel.")}
    same = (len(one) == len(two) == 8 and
            all(a["digest"] == b["digest"] and strip(a) == strip(b)
                and a["runtime_ticks"] == b["runtime_ticks"]
                for a, b in zip(one, two)))
    check(same, "contended-sharded stats identical at 1 and 2 workers")

    # 5: no simulator sources, no result.
    bare = run.build_dir() / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(bare / ".bench_build"))
    code, res = bench("--workload", "paper-cells", "--seed", "0",
                      "--seconds", "1", "--trace", "0", cwd=bare, env=env)
    check(code != 0 and res is None,
          f"bare directory: exit {code}, no result line")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
