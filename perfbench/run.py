#!/usr/bin/env python3
"""Build and run the bwsim benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload paper-grid --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. bwbench is built with CMake in
Release mode under $CARGO_TARGET_DIR (default .bench_build), relative
to the repository root. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics; informational lines
(result digest, lockstep oracle, host) come before it. Build output
and diagnostics go to stderr. Exits non-zero, printing no result, when
the build, bwbench or its output fails.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-grid", "fig3-ideal", "serial")
# Extra process launches timed for setup_s, besides the measured run.
SETUP_SAMPLES = 40
# Upper limit on one bwbench run: --seconds plus the untimed checks.
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_logged(cmd, what):
    """Run a build step, sending its output to stderr."""
    res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        raise BenchError(f"{what} failed (exit {res.returncode})")


def build(target):
    """Configure (once) and build @target; return the binary's path."""
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"no {need} at the repository root; "
                             "run from a bwsim checkout")
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", bdir,
                    "-DCMAKE_BUILD_TYPE=Release"], "cmake configure")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    run_logged(["cmake", "--build", bdir, "--target", target, "-j", jobs],
               "cmake build")
    return os.path.join(bdir, target)


def monotonic_ns():
    # Same clock as bwbench's setup_ready_ns stamp.
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def ready_ns(stdout):
    for line in stdout.splitlines():
        if line.startswith("setup_ready_ns "):
            return int(line.split()[1])
    raise BenchError("bwbench printed no setup_ready_ns line")


def setup_sample(exe, args):
    """Seconds from process launch to the first simulation call."""
    t0 = monotonic_ns()
    res = subprocess.run([exe, *args, "--setup-only"], stdout=subprocess.PIPE,
                         text=True, timeout=60)
    if res.returncode != 0:
        raise BenchError(f"setup probe exited {res.returncode}")
    return (ready_ns(res.stdout) - t0) / 1e9


def commit():
    # Only a checkout's own .git counts; never search parent directories.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def run_benchmark(opts):
    exe = build("bwbench")
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", str(opts.trace)]
    t0 = monotonic_ns()
    try:
        res = subprocess.run([exe, *args], stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"bwbench ran past {RUN_TIMEOUT_S} s")
    if res.returncode != 0:
        raise BenchError(f"bwbench exited {res.returncode}")
    lines = res.stdout.strip().splitlines()
    if not lines:
        raise BenchError("bwbench printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise BenchError(f"bwbench's last line is not JSON: {e}")

    if not opts.trace:
        samples = [(ready_ns(res.stdout) - t0) / 1e9]
        samples += [setup_sample(exe, args) for _ in range(SETUP_SAMPLES)]
        result["metrics"]["setup_s"] = {"value": statistics.median(samples),
                                        "unit": "s"}

    for line in lines[:-1]:
        print(line)
    print(f"commit {commit()}")
    print(f"uname {' '.join(platform.uname())}")
    print(json.dumps(result), flush=True)


def selftest():
    exe = build("bench_tests")
    return subprocess.run([exe]).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    opts = ap.parse_args()
    try:
        if opts.selftest:
            return selftest()
        if opts.workload is None:
            ap.error("--workload is required")
        if opts.seed < 0 or opts.seconds < 1:
            ap.error("--seed must be >= 0 and --seconds >= 1")
        run_benchmark(opts)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
