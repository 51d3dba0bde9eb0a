"""Metric names, units and bounds; the single source of BENCHMARK.json.

    python3 perfbench/spec.py          # print BENCHMARK.json
    python3 perfbench/spec.py --write  # rewrite BENCHMARK.json at the root
"""
from __future__ import annotations

import json
import os
import sys

from quality import QUALITY_BY_KIND, QUALITY_OVERALL
from tracer import SOLVERS, SPAN_NAMES

RUN_SECONDS = 20

WORKLOADS = (
    ("train", "18 desk shapes generated (64-mode eigensolves) and trained on with default "
              "settings: the only workload with the backward tape and AdamW"),
    ("infer", "knn, hierarchy, forward and the five apps on four 2.5k clouds, all but filter "
              "and ARAP on a 10k blob: sparse solves and Lanczos at large n, forward pass only"),
)

# name, unit, better, bound (share of the parent's median it may worsen by).
# Timings on a shared 2-core machine drift by 10-20% from run to run, so every
# timing gets the largest bound allowed; peak memory moves by a few percent with
# allocator timing; quality is fixed by the seed.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("gen_shapes_per_s", "1/s", "higher", 0.25),
    ("train_samples_per_s", "1/s", "higher", 0.25),
    ("holdout_rel_err", "1", "lower", 0.15),
    ("holdout_mse", "1", "lower", 0.25),
    ("predict_points_per_s", "1/s", "higher", 0.25),
    ("app_heat_s", "s", "lower", 0.25),
    ("app_geodesic_s", "s", "lower", 0.25),
    ("app_smooth_s", "s", "lower", 0.25),
    ("app_filter_s", "s", "lower", 0.25),
    ("app_arap_s", "s", "lower", 0.25),
)

SELF_TIMED = ("cli.generate_dataset", "training.train", "model.forward", "autodiff.backward")
SHAPE_KINDS = ("sphere", "torus", "box", "plane", "cylinder", "blended-blob")
TRACE_OVERHEAD = ("gen", "train", "predict", "apps")


def per_layer() -> list[tuple[str, str, str]]:
    out = []
    for name in SPAN_NAMES:
        out.append((f"{name}.s", "s", "lower"))
        out.append((f"{name}.calls", "count", "lower"))
    out += [(f"{name}.self_s", "s", "lower") for name in SELF_TIMED]
    out += [(f"{name}.spmv", "count", "lower") for name in SOLVERS]
    out.append(("probes.eig_calls_per_shape", "calls/shape", "lower"))
    out += [("model.level_sizes", "1", "lower"),
            ("model.level0_points", "count", "lower"),
            ("model.level1_points", "count", "lower"),
            ("model.level2_points", "count", "lower"),
            ("model.pool_ratio_l1", "1", "lower"),
            ("model.pool_ratio_l2", "1", "lower"),
            ("training.dead_edge_frac", "1", "lower")]
    out += [(f"quality.{key}_rel_err", "1", "lower") for key in QUALITY_OVERALL]
    out += [(f"quality.{key}_rel_err.{kind}", "1", "lower")
            for key in QUALITY_BY_KIND for kind in SHAPE_KINDS]
    out += [(f"trace.overhead.{stage}", "1", "lower") for stage in TRACE_OVERHEAD]
    out.append(("trace.spans", "count", "lower"))
    return out


def units(trace: bool) -> dict[str, str]:
    if trace:
        return {name: unit for name, unit, _ in per_layer()}
    return {name: unit for name, unit, _, _ in END_TO_END}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer()],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    text = render()
    if "--write" in sys.argv[1:]:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "BENCHMARK.json"), "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
