#!/usr/bin/env python3
"""Campaign benchmark entry point.

Run from the root of a checkout:

  python3 campaign_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
      Build the benchmark (first call only; later calls are incremental),
      run one workload, and print its metrics. The last line of standard
      output is one JSON object: correct, attempted, failed, metrics.

  python3 campaign_bench/run.py --self-test
      Build and run the self-tests of the benchmark's output checks.

  python3 campaign_bench/run.py --aa [--repeats K] [--seconds S]
                                [--workloads a,b,...]
      A/A steadiness: two interleaved sets of K runs of every workload on
      the same build; per end-to-end metric, each set's median and
      quartiles and the gap between the two medians against the bound in
      BENCHMARK.json.

Everything the benchmark builds or writes stays under .bench_build/ in the
checkout. See README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "cmake"
WORK_DIR = ROOT / ".bench_build" / "work"
# The compiler's and the benchmark's temporary files stay in the checkout.
TMP_DIR = ROOT / ".bench_build" / "tmp"
TMP_DIR.mkdir(parents=True, exist_ok=True)
os.environ["TMPDIR"] = str(TMP_DIR)


def build(target):
    """Configure (once) and build `target`; build output goes to stderr."""
    if not any((BUILD_DIR / name).exists()
               for name in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release",
                     # No compiler cache: its files would land outside the
                     # checkout.
                     "-DCCACHE_PROGRAM=OFF"]
        if subprocess.run(["ninja", "--version"], stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    command = ["cmake", "--build", str(BUILD_DIR), "--target", target,
               "-j", str(os.cpu_count() or 1)]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def run_workload(args):
    if not build("campaign_bench"):
        print("campaign_bench: build failed", file=sys.stderr)
        return 1
    command = [str(BUILD_DIR / "campaign_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", str(WORK_DIR)]
    return subprocess.run(command, cwd=ROOT).returncode


def self_test():
    if not build("campaign_bench_selftest"):
        print("campaign_bench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([str(BUILD_DIR / "campaign_bench_selftest")],
                          cwd=ROOT).returncode


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def aa_mode(args):
    """Two interleaved sets of every workload; set order alternates."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    if not build("campaign_bench"):
        print("campaign_bench: build failed", file=sys.stderr)
        return 1
    values = {s: {n: {m: [] for m in metrics} for n in names} for s in "AB"}
    for repeat in range(args.repeats):
        seed = repeat + 1
        for name in names:
            for set_name in ("AB" if repeat % 2 == 0 else "BA"):
                command = [str(BUILD_DIR / "campaign_bench"),
                           "--workload", name, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0",
                           "--work-dir", str(WORK_DIR)]
                done = subprocess.run(command, cwd=ROOT, text=True,
                                      stdout=subprocess.PIPE)
                lines = done.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if done.returncode == 0 \
                    and lines else None
                if not result or not result["correct"]:
                    print(f"{name} seed {seed}: exit {done.returncode}, "
                          f"outputs not correct", file=sys.stderr)
                    return 1
                for metric, entry in result["metrics"].items():
                    values[set_name][name][metric].append(entry["value"])
                print(f"[{repeat + 1}/{args.repeats}] {set_name} {name} "
                      f"seed {seed}: " + ", ".join(
                          f"{m}={e['value']:.6g}"
                          for m, e in result["metrics"].items()),
                      flush=True)
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    (WORK_DIR / "aa.json").write_text(json.dumps(
        {"run_seconds": seconds, "repeats": args.repeats, "values": values},
        indent=1))
    status = 0
    print(f"\n{'workload':16} {'metric':20} {'set':3} {'q1':>12} "
          f"{'median':>12} {'q3':>12} {'spread':>8}")
    for name in names:
        for metric, entry in metrics.items():
            bound = entry["bound"]
            medians = {}
            for set_name in "AB":
                q1, q2, q3 = quartiles(values[set_name][name][metric])
                medians[set_name] = q2
                spread = (q3 - q1) / q2
                note = ""
                if metric != "setup_s" and spread > bound:
                    note, status = "  above the bound", 1
                elif metric != "setup_s" and spread > bound / 3:
                    note = "  above a third of the bound"
                print(f"{name:16} {metric:20} {set_name:3} {q1:12.6g} "
                      f"{q2:12.6g} {q3:12.6g} {spread:8.2%}{note}")
            gap = (medians["B"] - medians["A"]) / medians["A"]
            if entry["better"] == "lower":
                gap = -gap  # positive: B better than A
            verdict = "ok" if abs(gap) <= bound else "OUT OF BOUND"
            print(f"{name:16} {metric:20} B vs A {gap:+8.2%} better "
                  f"(bound {bound:.0%}): {verdict}")
            if abs(gap) > bound:
                status = 1
    print(f"raw values: {WORK_DIR / 'aa.json'}")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--aa", action="store_true")
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--workloads")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.aa:
        return aa_mode(args)
    if not args.workload:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = 10
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
