#!/usr/bin/env python3
"""Builds and runs the igepa end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> ...
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which builds the library from the
repository's own sources) into .bench_build/ in Release mode; later runs
only rebuild what changed. Build output goes to stderr.

The benchmark binary prints a human-readable block and one JSON line with
every metric it measured. This script passes the block through and prints,
as the last line, one JSON object with the keys correct, attempted, failed
and metrics: the end_to_end metrics of BENCHMARK.json with --trace 0, its
per_layer metrics with --trace 1 (a layer the workload bypasses reads 0).
With --trace 1 the spans are also written as Chrome trace-event JSON to
.bench_build/traces/. The exit code is 0 only for a correct run.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
# The binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(target):
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD, target)


def select_metrics(spec, kind, reported):
    """The metrics of `kind` in BENCHMARK.json order, from the binary's report.

    A per-layer metric the workload did not report is a layer it bypasses
    and reads 0; a missing end-to-end metric, or a unit that differs from
    BENCHMARK.json, is a benchmark bug.
    """
    out = {}
    for metric in spec[kind]:
        name, unit = metric["name"], metric["unit"]
        if name in reported:
            if reported[name]["unit"] != unit:
                raise ValueError(f"{name}: unit {reported[name]['unit']} "
                                 f"!= {unit}")
            value = reported[name]["value"]
        elif kind == "per_layer":
            value = 0
        else:
            raise ValueError(f"end-to-end metric {name} not reported")
        out[name] = {"value": value, "unit": unit}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)

    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        # Every workload in its own process, one after the other.
        rcs = [subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]).returncode for name in names]
        return max(rcs)
    if not args.selftest and args.workload not in names:
        log(f"unknown workload {args.workload!r}; one of {names}")
        return 2
    try:
        binary = build("perfbench_selftest" if args.selftest
                       else "igepa_perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1
    if args.selftest:
        return subprocess.run([binary]).returncode

    workdir = os.path.join(BUILD, f"work-{args.workload}-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        raw = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"no result line (exit code {proc.returncode})")
        return 1

    kind = "per_layer" if args.trace else "end_to_end"
    try:
        metrics = select_metrics(spec, kind, raw[kind])
    except ValueError as e:
        log(str(e))
        return 1
    correct = bool(raw["correct"]) and proc.returncode == 0 and all(
        math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
