#!/usr/bin/env python3
"""The ebmf benchmark: build perfbench/ from source, run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

A run builds the benchmark binary into .bench_build/perfbench (compiling the
library from src/), runs the workload, and prints a record line carrying the
run's envelope followed by the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The exit code is 0 only when every answer was right.

--self-check runs every workload at a tiny size, checks that each metric
BENCHMARK.json names is printed with its unit, and that a deliberately
corrupted partition is counted as an error.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    """Configure once, then let the build tool decide what to recompile."""
    if not os.path.isfile(os.path.join(ROOT, "src", "engine", "engine.h")):
        log("no ebmf sources under " + os.path.join(ROOT, "src"))
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build step failed: " + " ".join(step))
            return False
    return os.path.isfile(BINARY)


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def source_digest():
    """A hash of src/, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            return done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return None


def envelope():
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        done = subprocess.run([compiler, "--version"], capture_output=True,
                              text=True)
        version = done.stdout.splitlines()[0] if done.stdout else ""
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "compiler": version or compiler,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "commit": commit(),
        "source_digest": source_digest(),
    }


def cpu_times():
    """The machine's summed CPU times (the first line of /proc/stat)."""
    try:
        with open("/proc/stat") as stat:
            return [int(x) for x in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before, after):
    """Share of CPU time the hypervisor gave to other guests in between."""
    if len(before) < 8 or len(after) < 8:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else None


def run_binary(args, timeout):
    """Run the binary; returns (exit code, record, result) or None."""
    try:
        done = subprocess.run([BINARY] + args, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(args))
        return None
    sys.stderr.write(done.stderr)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        log("no result from: " + " ".join(args))
        return None
    try:
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
    except (ValueError, KeyError):
        log("unreadable result from: " + " ".join(args))
        return None
    return done.returncode, record, result


def self_check():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        base = ["--workload", workload, "--seed", "7", "--seconds", "0.5",
                "--tiny"]
        for trace in (0, 1):
            ran = run_binary(base + ["--trace", str(trace)], 170)
            if ran is None:
                problems.append(f"{workload} trace={trace}: no result")
                continue
            code, _, result = ran
            if code != 0 or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: wrong answers")
            printed = result["metrics"]
            for name, unit in expected[trace].items():
                if name not in printed:
                    problems.append(f"{workload}: metric {name} missing")
                elif printed[name]["unit"] != unit:
                    problems.append(f"{workload}: {name} unit "
                                    f"{printed[name]['unit']} != {unit}")
        ran = run_binary(base + ["--trace", "0", "--corrupt", "1"], 170)
        if ran is None or ran[0] == 0 or ran[2]["correct"] or \
                ran[2]["failed"] < 1:
            problems.append(f"{workload}: corrupted partition not counted")
    for problem in problems:
        log("self-check: " + problem)
    print("self-check " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    if not build():
        return 1
    if args.self_check:
        return self_check()
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")

    before = cpu_times()
    ran = run_binary(["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds),
                      "--trace", str(args.trace)],
                     timeout=args.seconds + 150)
    if ran is None:
        return 1
    code, record, result = ran
    record["cpu_steal_share"] = steal_share(before, cpu_times())
    record["envelope"] = envelope()
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
