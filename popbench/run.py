#!/usr/bin/env python3
"""popbench runner: builds the benchmark from source, then runs it.

One run (the benchmark contract):

    python3 popbench/run.py --workload tpch_scan --seed 1 --seconds 25 --trace 0

builds popdb and the popbench binary (CMake, Release) under the directory
named by $CARGO_TARGET_DIR (default .bench_build), runs one workload and
passes its output through. The last line of standard output is the JSON
result; the exit code is non-zero when any result was wrong or the build
failed.

Steadiness mode repeats each workload with successive seeds and prints, for
every metric, the median, the quartiles and the quartile spread as a share
of the median, next to the metric's bound in BENCHMARK.json:

    python3 popbench/run.py --steady 10 --seed 1 --seconds 25 \
        [--workloads tpch_scan,dmv_adhoc] [--trace 0] [--record FILE]

Run it from the repository root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds popbench; returns the binary path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("popbench: popdb sources (src/) not found next to popbench/")
        return None
    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out.is_absolute():
        out = Path.cwd() / out
    build_dir = out / "popbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        steps.append(cmd)
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "popbench"])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("popbench: build failed: " + " ".join(cmd))
            return None
    binary = build_dir / "popbench"
    return binary if binary.is_file() else None


def run_once(binary, workload, seed, seconds, trace, capture):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(binary.parent)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("popbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 124, None
    return done.returncode, done.stdout


def bounds():
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}, []
    return ({m["name"]: m.get("bound") for m in spec.get("end_to_end", [])},
            [w["name"] for w in spec.get("workloads", [])])


def steady(binary, args):
    bound_of, names = bounds()
    workloads = args.workloads.split(",") if args.workloads else names
    summary = {}
    status = 0
    for w in workloads:
        values = {}
        units = {}
        for k in range(args.steady):
            seed = args.seed + k
            t0 = time.monotonic()
            code, out = run_once(binary, w, seed, args.seconds, args.trace, True)
            wall = time.monotonic() - t0
            lines = (out or "").strip().splitlines()
            if code != 0 or not lines:
                log("popbench: %s seed %d failed (exit %d)" % (w, seed, code))
                status = 1
                continue
            result = json.loads(lines[-1])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            log("%s seed %d (%.1f s): %s" % (w, seed, wall, " ".join(
                "%s=%.4g" % (n, m["value"]) for n, m in result["metrics"].items())))
        print("%s (%d runs, seeds %d..%d)" % (w, args.steady, args.seed,
                                              args.seed + args.steady - 1))
        print("  %-32s %12s %12s %12s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        summary[w] = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], vals[0], vals[0]))
            spread = (q3 - q1) / med if med else float("nan")
            bound = bound_of.get(name)
            print("  %-32s %12.6g %12.6g %12.6g %8.4f %6s" % (
                name, med, q1, q3, spread,
                "-" if bound is None else "%.2f" % bound))
            summary[w][name] = {"unit": units[name], "median": med, "q1": q1,
                                "q3": q3, "spread": spread, "values": vals}
    if args.record:
        Path(args.record).write_text(json.dumps(
            {"seconds": args.seconds, "trace": args.trace,
             "seeds": [args.seed, args.seed + args.steady - 1],
             "workloads": summary}, indent=1) + "\n")
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, default=0,
                   help="repeat each workload this many times")
    p.add_argument("--workloads", help="comma-separated (steadiness mode)")
    p.add_argument("--record", help="write the steadiness summary here")
    args = p.parse_args()
    if not args.steady and not args.workload:
        p.error("--workload is required")
    binary = build()
    if binary is None:
        return 2
    if args.steady:
        return steady(binary, args)
    code, _ = run_once(binary, args.workload, args.seed, args.seconds,
                       args.trace, False)
    return code


if __name__ == "__main__":
    sys.exit(main())
