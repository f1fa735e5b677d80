#!/usr/bin/env python3
"""Build HiDaP and its benchmark from source, then run the benchmark.

Run from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      one workload; the last line of stdout is the JSON result
  python3 perfbench/run.py --all [--seed N] [--seconds S]
      rewrite BENCHMARK.json, then run every workload in it and print
      the end-to-end metrics as one table
  python3 perfbench/run.py --selftest [--seed N]
      the benchmark's own test: the fig1 3-lambda sweep is identical at
      jobs 1 and 2
  python3 perfbench/run.py --write-spec
      regenerate BENCHMARK.json from the benchmark's metric table

The exit code is 0 only when the build succeeded and every output check
passed. Everything the run writes stays inside the checkout: _build/
and .perfbench_out/.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

BENCH = "_build/default/perfbench/hidap_bench.exe"
HIDAP = "_build/default/bin/hidap_cli.exe"
# A run must end within 180 s; leave room to stop the process group.
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a HiDaP checkout (no dune-project or lib/ here)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/hidap_bench.exe", "./bin/hidap_cli.exe"],
        stdout=sys.stderr, env=env)
    if r.returncode != 0:
        fail("build failed")


def git_commit():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True,
                             text=True, timeout=10).stdout.strip()
        if top and os.path.samefile(top, "."):
            return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                  text=True, timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False


def stop_group(pgid):
    """Kill whatever the run left in its process group and wait for it."""
    if group_alive(pgid):
        os.killpg(pgid, signal.SIGKILL)
    deadline = time.monotonic() + 10
    while group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)


def run_bench(args, capture=False):
    """Run the benchmark in its own process group; return (code, stdout)."""
    p = subprocess.Popen([BENCH] + args, start_new_session=True,
                         stdout=subprocess.PIPE if capture else None, text=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(p.pid)
        p.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 3)
    finally:
        stop_group(p.pid)
    return p.returncode, out


def print_env():
    print("env nproc %d cpu_count %d commit %s" % (
        len(os.sched_getaffinity(0)), os.cpu_count() or 0, git_commit()), flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--write-spec", action="store_true")
    a = ap.parse_args()
    build()
    if a.write_spec:
        code, _ = run_bench(["--write-spec", "BENCHMARK.json"])
        sys.exit(code)
    print_env()
    if a.selftest:
        code, _ = run_bench(["--selftest", "--seed", str(a.seed)])
        sys.exit(code)
    common = ["--seed", str(a.seed), "--seconds", str(a.seconds), "--hidap", HIDAP]
    if not a.all:
        if not a.workload:
            fail("give --workload NAME, --all, --selftest or --write-spec", 2)
        code, _ = run_bench(["--workload", a.workload, "--trace", str(a.trace)] + common)
        sys.exit(code)
    code, _ = run_bench(["--write-spec", "BENCHMARK.json"])
    if code != 0:
        fail("could not write BENCHMARK.json")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    rows, worst = [], 0
    for w in spec["workloads"]:
        code, out = run_bench(["--workload", w["name"], "--trace", "0"] + common, capture=True)
        sys.stdout.write(out)
        worst = max(worst, code)
        if code == 0:
            rows.append((w["name"], json.loads(out.strip().splitlines()[-1])["metrics"]))
    print("\n%-20s" % "metric" + "".join("%20s" % n for n, _ in rows))
    for m in spec["end_to_end"]:
        print("%-20s" % ("%s [%s]" % (m["name"], m["unit"]))
              + "".join("%20.6g" % r[m["name"]]["value"] for _, r in rows))
    sys.exit(worst)


if __name__ == "__main__":
    main()
