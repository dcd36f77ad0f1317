#!/usr/bin/env python3
"""Smoke test of the benchmark at minimum sizes.

    python3 perfbench/smoke.py

Run from the root of a source checkout.  Checks that:
  * every workload, untraced and traced, prints a result line with
    exactly the four result keys, a passed correctness check, and every
    metric BENCHMARK.json names, with the unit it names;
  * the held-out seed runs the same workloads;
  * with FT_SANDBOX_CHAOS=segv the lowering layer (measured in the
    traced run of tune-p) reports counted faults (lower.faults.*)
    instead of crashing;
  * in a directory holding only BENCHMARK.json and perfbench/ the
    benchmark exits non-zero without printing a result.
Exits 0 when every check passes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

WORKLOADS = ("tune-p", "reuse")
TUNING_SEED = 1
HELD_OUT_SEED = 4242
failures = []


def run(workload, seed, trace, env=None, cwd="."):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    r = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=cwd, timeout=900)
    return r.returncode, r.stdout, r.stderr


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_result(label, code, out, err, catalogue):
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        expect(False, f"{label}: result line (exit {code})\n{err[-2000:]}")
        return None
    expect(code == 0, f"{label}: exit code 0 (got {code})")
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: exactly the four result keys")
    expect(result.get("correct") is True, f"{label}: correctness checks pass")
    expect(isinstance(result.get("attempted"), int) and result["attempted"] >= 1,
           f"{label}: at least one attempted operation")
    metrics = result.get("metrics", {})
    missing = [m["name"] for m in catalogue
               if m["name"] not in metrics or metrics[m["name"]].get("unit") != m["unit"]]
    expect(not missing, f"{label}: every metric present with its unit {missing or ''}")
    extra = sorted(set(metrics) - {m["name"] for m in catalogue})
    expect(not extra, f"{label}: no metric outside BENCHMARK.json {extra or ''}")
    expect(all(isinstance(v.get("value"), (int, float)) and math.isfinite(v["value"])
               for v in metrics.values()), f"{label}: every value a finite number")
    return result


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    expect(set(names) <= set(WORKLOADS), "BENCHMARK.json names known workloads")

    for w in WORKLOADS:
        for trace, catalogue in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            check_result(f"{w} trace={trace}", *run(w, TUNING_SEED, trace), catalogue)
        check_result(f"{w} held-out seed", *run(w, HELD_OUT_SEED, 0), bench["end_to_end"])

    env = dict(os.environ, FT_SANDBOX_CHAOS="segv")
    r = check_result("tune-p traced with FT_SANDBOX_CHAOS=segv",
                     *run("tune-p", TUNING_SEED, 1, env=env), bench["per_layer"])
    if r:
        faults = sum(v["value"] for k, v in r["metrics"].items()
                     if k.startswith("lower.faults."))
        expect(faults >= 1, "chaos: sandbox faults counted by cause")

    bare = os.path.join(".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    code, out, _ = run("tune-p", TUNING_SEED, 0, cwd=bare)
    expect(code != 0 and not out.strip(),
           "without the program's sources: non-zero exit and no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
