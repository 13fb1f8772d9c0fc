#!/usr/bin/env python3
"""Builds and runs the imbench performance benchmark.

    python3 perfbench/run.py --workload wc --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
library and the benchmark binary (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR, default .bench_build/; later runs rebuild only what
changed. The binary runs one workload with inputs generated from --seed,
checks its outputs, and reports; this script validates the report against
schema.py and prints one JSON result line last:

    {"correct": true, "attempted": 8, "failed": 0,
     "metrics": {"select_cpu_s": {"value": 2.61, "unit": "s"}, ...}}

--trace 0 reports the workload's end-to-end metrics, --trace 1 its
per-layer metrics. --print adds human-readable tables before the result
line: the metrics by name and unit and, for a traced run, each layer's
self time, counters and the tracing overhead. --workload all runs every
workload in turn and ends with one combined result line whose metric
names are prefixed "<workload>/".
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import schema  # noqa: E402

# A run must end within 180 s; the first run of a checkout may build.
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 880


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures and builds imbench_perf; returns the binary path."""
    if not (HERE.parent / "src" / "CMakeLists.txt").is_file():
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "imbench_perf", "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_LIMIT_S)
        except subprocess.TimeoutExpired:
            fail(f"build timed out: {' '.join(step)}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail(f"build failed: {' '.join(step)}")
    return build_dir / "imbench_perf"


def run_workload(binary, work_dir, workload, seed, seconds, trace, deadline):
    """Runs one workload; returns (report dict, problems list)."""
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}",
           f"--work-dir={work_dir}"]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{workload}: timed out")
    if done.returncode != 0:
        fail(f"{workload}: benchmark binary exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{workload}: no report from the benchmark binary")
    problems = [f"check failed: {name}"
                for name, ok in report["checks"].items() if not ok]
    problems += schema.validate(trace, report["metrics"])
    return report, problems


def print_tables(workload, trace, report):
    print(f"== {workload} ({'traced, per layer' if trace else 'end to end'})")
    for name, spec in schema.declared(trace).items():
        got = report["metrics"].get(name)
        if got is None:
            continue
        moves = schema.LAYER_MOVES.get(name, "")
        print(f"  {name:<30} {got['value']:>16.6g} {got['unit']:<6} "
              f"n={got['samples']:<4} {'-> ' + moves if trace else ''}")
    if not trace:
        return
    print(f"  {'layer':<16} {'span':<44} {'calls':>5} {'total_s':>9} "
          f"{'self_s':>9} {'heap_mb':>8}  counters")
    for row in report["layers"]:
        counters = " ".join(f"{k}={v}" for k, v in row["counters"].items())
        print(f"  {row['layer']:<16} {row['span']:<44} {row['calls']:>5} "
              f"{row['total_s']:>9.4f} {row['self_s']:>9.4f} "
              f"{row['heap_mb']:>8.2f}  {counters}")
    overhead = report["metrics"].get("trace.overhead_ratio")
    if overhead is not None:
        print(f"  tracing overhead: traced/untraced CPU time of the same "
              f"calls = {overhead['value']:.4f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=schema.WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--print", action="store_true", dest="print_tables")
    args = parser.parse_args()

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = build_root / "perfbench"
    binary = build(build_dir)
    work_dir = build_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)

    workloads = (schema.WORKLOADS if args.workload == "all"
                 else [args.workload])
    deadline = time.monotonic() + RUN_LIMIT_S * len(workloads)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        report, problems = run_workload(binary, work_dir, workload, args.seed,
                                        args.seconds, args.trace, deadline)
        for problem in problems:
            print(f"perfbench: {workload}: {problem}", file=sys.stderr)
        if args.print_tables:
            print_tables(workload, args.trace, report)
        result["correct"] &= not problems and report["failed"] == 0
        result["attempted"] += report["attempted"]
        result["failed"] += report["failed"]
        prefix = f"{workload}/" if len(workloads) > 1 else ""
        for name, got in report["metrics"].items():
            result["metrics"][prefix + name] = {"value": got["value"],
                                                "unit": got["unit"]}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
