"""The metric schema of the imbench benchmark.

Names, units, directions, bounds and workload reasons live in
BENCHMARK.json and are read from there; every workload emits every
metric of its mode. This module adds only what BENCHMARK.json cannot say:
the end-to-end metric each per-layer metric should move, and the quantile
of each percentile metric. run.py validates every report against it;
test_schema.py checks it.
"""

import json
import math
import re
from pathlib import Path

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCHMARK["per_layer"]}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10
PERCENTILES = {
    "warm_query_cpu_p50_ms": 0.5,
    "warm_query_cpu_p90_ms": 0.9,
    "repair_query_cpu_p50_ms": 0.5,
    "mutation_cpu_p50_ms": 0.5,
    "service.warm_query_wall_p50_ms": 0.5,
    "service.repair_query_wall_p50_ms": 0.5,
    "service.mutation_wall_p50_ms": 0.5,
}

# Each per-layer metric -> the end-to-end metric it should move.
LAYER_MOVES = {
    "graph.generate_s": "setup_s",
    "graph.weights_s": "setup_s",
    "diffusion.rr.sample_s": "select_cpu_s",
    "diffusion.rr.bound_s": "select_cpu_s",
    "diffusion.rr.final_s": "select_cpu_s",
    "diffusion.rr.sets": "select_cpu_s",
    "diffusion.rr.edges_examined": "select_cpu_s",
    "diffusion.rr.sets_per_s": "select_cpu_s",
    "diffusion.rr.useful_ratio": "select_cpu_s",
    "diffusion.rr.cpu_util": "select_cpu_s",
    "diffusion.mc.sims_per_s": "evaluate_cpu_s",
    "diffusion.mc.fused_blocks": "evaluate_cpu_s",
    "diffusion.mc.cpu_util": "evaluate_cpu_s",
    "diffusion.mc.evaluate_wall_s": "evaluate_cpu_s",
    "algorithms.imm.cover_s": "select_cpu_s",
    "algorithms.imm.select_wall_s": "select_cpu_s",
    "algorithms.imm.heap_mb": "peak_heap_mb",
    "service.cover_ms": "warm_query_cpu_p50_ms",
    "service.invalidate_ms": "repair_query_cpu_p50_ms",
    "service.sets_repaired": "repair_query_cpu_p50_ms",
    "service.repaired_fraction": "repair_query_cpu_p50_ms",
    "service.sets_reused": "warm_query_cpu_p50_ms",
    "service.warm_query_wall_p50_ms": "warm_query_cpu_p50_ms",
    "service.repair_query_wall_p50_ms": "repair_query_cpu_p50_ms",
    "service.mutation_wall_p50_ms": "mutation_cpu_p50_ms",
    "trace.overhead_ratio": "serve_ops_per_cpu_s",
}

# Every workload runs every layer, so each emits every metric.
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

_SECONDS_PER_UNIT = {"s": 1.0, "ms": 1e-3}


def declared(trace):
    """Metric name -> BENCHMARK.json entry for one mode."""
    return PER_LAYER if trace else END_TO_END


def validate(trace, metrics):
    """Problems with one report's metrics (empty when it is well formed).

    `metrics` maps name -> {"value", "unit", "samples"} as the benchmark
    binary prints it.
    """
    problems = []
    want = declared(trace)
    for name in sorted(set(want) - set(metrics)):
        problems.append(f"{name}: declared but not emitted")
    for name in sorted(set(metrics) - set(want)):
        problems.append(f"{name}: emitted but not declared")
    for name, spec in want.items():
        if name not in metrics:
            continue
        got = metrics[name]
        value = got.get("value")
        if got.get("unit") != spec["unit"]:
            problems.append(f"{name}: unit {got.get('unit')!r}, declared "
                            f"{spec['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a number")
            continue
        if not trace and value <= 0:
            problems.append(f"{name}: end-to-end value {value} is not > 0")
        q = PERCENTILES.get(name)
        if q is not None:
            beyond = round(got.get("samples", 0) * (1.0 - q), 9)
            if beyond < MIN_SAMPLES_BEYOND:
                problems.append(f"{name}: only {beyond:g} samples beyond "
                                f"the percentile")
    # One measurement under two names shows as two time metrics with the
    # same value.
    seen = {}
    for name, got in sorted(metrics.items()):
        scale = _SECONDS_PER_UNIT.get(got.get("unit"))
        value = got.get("value")
        if scale is None or not isinstance(value, (int, float)):
            continue
        seconds = value * scale
        for other, other_seconds in seen.items():
            if math.isclose(seconds, other_seconds, rel_tol=1e-9):
                problems.append(f"{name}: same time as {other}")
        seen[name] = seconds
    return problems
