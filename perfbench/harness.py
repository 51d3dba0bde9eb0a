"""One benchmark run: set-up, measured phase, optional traced phase, checks.

Imported by run.py after the BLAS thread cap is in place and ``src/`` is on
the path.
"""
from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import time

import numpy as np

from checks import Checker
from spec import SELF_TIMED, TRACE_OVERHEAD, units
from tracer import SOLVERS, SPAN_NAMES, Tracer
from workloads import Run


def _openblas_threads():
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: str) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _source_digest(root: str) -> str:
    import hashlib

    h = hashlib.sha256()
    src = os.path.join(root, "src", "pointlap")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def provenance(args, root: str) -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": _git_commit(root),
        "source_sha256_16": _source_digest(root),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_env": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")},
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_in_effect": _openblas_threads(),
        "platform": platform.platform(),
    }


def layer_metrics(tracer: Tracer, untraced: dict, traced: dict) -> dict:
    s = tracer.summary()
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.s"] = s["inclusive"].get(name, 0.0)
        out[f"{name}.calls"] = s["calls"].get(name, 0)
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = s["self"].get(name, 0.0)
    for name in SOLVERS:
        out[f"{name}.spmv"] = s["spmv_under"].get(name, 0)
    shapes = s["calls"].get("probes.spectral_probes", 0)
    eig = tracer.calls_under("sparse.eig_smallest", "probes.spectral_probes")
    out["probes.eig_calls_per_shape"] = eig / shapes if shapes else 0.0
    apps_u = sum(v for k, v in untraced.items() if k.startswith("app_"))
    apps_t = sum(v for k, v in traced.items() if k.startswith("app_"))
    overhead = {
        "gen": untraced["gen_shapes_per_s"] / traced["gen_shapes_per_s"] - 1.0,
        "train": untraced["train_samples_per_s"] / traced["train_samples_per_s"] - 1.0,
        "predict": untraced["predict_points_per_s"] / traced["predict_points_per_s"] - 1.0,
        "apps": apps_t / apps_u - 1.0,
    }
    for stage in TRACE_OVERHEAD:
        out[f"trace.overhead.{stage}"] = overhead[stage]
    out["trace.spans"] = s["spans"]
    return out


def _write_record(root: str, args, record: dict, tracer: Tracer | None) -> str:
    out_dir = os.path.join(root, ".perfbench", "results")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True, default=float)
    if tracer is not None:
        t0 = tracer.spans[0][1] if tracer.spans else 0.0
        with open(stem + ".spans.csv", "w", encoding="ascii") as f:
            f.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(tracer.spans):
                f.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")
    return stem + ".json"


def run_benchmark(args, root: str) -> int:
    t_start = time.perf_counter()
    prov = provenance(args, root)
    print("provenance " + json.dumps(prov, sort_keys=True), flush=True)
    work = os.path.join(root, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    chk = Checker()
    tracer = None
    try:
        run = Run(args.workload, args.seed, args.seconds, args.size, work)
        run.run_setup()
        stages = run.measure()
        quality = run.quality(chk)
        metrics = run.end_to_end(stages, quality)
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = run.measure(traced=True)
            finally:
                tracer.uninstall()
            metrics = layer_metrics(tracer, stages, traced)
            metrics.update({k: v for k, v in quality.items() if not k.startswith("holdout_")})
            metrics.update(run.hierarchy_stats())
        run.check(chk, quality)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    unit_of = units(bool(args.trace))
    missing = sorted(set(unit_of) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    result = {
        "correct": chk.failed == 0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit_of[name]}
                    for name in unit_of},
    }
    details = dict(run.details, stages=stages, failures=chk.failures[:50],
                   wall_s=time.perf_counter() - t_start)
    path = _write_record(root, args, {"provenance": prov, "details": details,
                                      "result": result}, tracer)
    print("details " + json.dumps(details, sort_keys=True, default=float), flush=True)
    print(f"record {os.path.relpath(path, root)}", flush=True)
    print(json.dumps(result), flush=True)
    return 0
