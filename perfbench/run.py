#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload tune-p --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout.  The script builds the
benchmark program (perfbench/ftbench.ml) and the flextensor CLI with
dune, times the workload's set-up in fresh processes, runs the
workload once, and prints one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (BENCHMARK.json
"end_to_end"), with --trace 1 the per-layer ones ("per_layer").  See
perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

EXE = os.path.join("_build", "default", "perfbench", "ftbench.exe")
CLI = os.path.join("_build", "default", "bin", "main.exe")
WORKLOADS = ("tune-p", "reuse")
# Set-up is timed in this many fresh processes besides the measured one.
SETUP_PROBES = 8
BUILD_TIMEOUT_S = 840
# Everything after the build must end within this many seconds.
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "lib", "bin", "perfbench"):
        if not os.path.exists(need):
            die(f"no {need} here: run from the root of a flextensor checkout")
    # --cache=disabled keeps every build product inside the checkout
    cmd = ["dune", "build", "--root", ".", "--cache=disabled",
           "./perfbench/ftbench.exe", "./bin/main.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           stdin=subprocess.DEVNULL, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if r.returncode != 0:
        die("build failed")


def reap_group(pgid):
    """Kill whatever is left of a run's process group and wait for it."""
    deadline = time.monotonic() + 5
    try:
        os.killpg(pgid, signal.SIGKILL)
        while time.monotonic() < deadline:
            try:
                os.waitpid(pgid, os.WNOHANG)  # the group leader is our child
            except ChildProcessError:
                pass
            os.killpg(pgid, 0)
            time.sleep(0.02)
    except ProcessLookupError:
        pass


def stop_on_signal(proc):
    """If this script is told to stop, stop the child's group first."""
    def handler(signum, _frame):
        reap_group(proc.pid)
        sys.exit(128 + signum)
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, handler)


def run_child(args, deadline):
    """Run the benchmark program in its own process group until
    [deadline] (a time.monotonic() value) at the latest.

    Returns (seconds until it printed "ready", exit status, the lines it
    printed after "ready")."""
    t0 = time.monotonic()
    proc = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True,
                            start_new_session=True)
    stop_on_signal(proc)
    timer = threading.Timer(max(0, deadline - t0), lambda: reap_group(proc.pid))
    timer.start()
    ready, lines = None, []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = time.monotonic() - t0
            else:
                lines.append(line)
        try:
            _, status = os.waitpid(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except ChildProcessError:  # already reaped after the deadline
            proc.returncode = -signal.SIGKILL
    finally:
        timer.cancel()
        proc.stdout.close()
        reap_group(proc.pid)
    return ready, proc.returncode, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="minimum sizes (the smoke test)")
    a = ap.parse_args()

    build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    common = ["--workload", a.workload, "--seed", str(a.seed),
              "--flextensor", CLI] + (["--smoke"] if a.smoke else [])

    setups = []
    if a.trace == 0:
        for _ in range(SETUP_PROBES):
            ready, code, _ = run_child(common + ["--setup-only"], deadline)
            if code != 0 or ready is None:
                die(f"set-up of {a.workload} failed (exit {code})")
            setups.append(ready)

    ready, code, lines = run_child(
        common + ["--seconds", str(a.seconds), "--trace", str(a.trace)],
        deadline)
    if not lines:
        die(f"{a.workload} printed no result (exit {code})")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die(f"{a.workload} printed no result (exit {code})")
    for line in lines[:-1]:
        print(line, end="", file=sys.stderr)

    if a.trace == 0:
        if ready is not None:
            setups.append(ready)
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps(result))
    sys.exit(0 if code == 0 and result.get("correct") else 1)


if __name__ == "__main__":
    main()
