"""The benchmark's contract: the tracer's names exist, and a tiny run reports every metric."""
import importlib
import json
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pointlap

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bindings():
    """Every attribute of every loaded pointlap module and of every traced class."""
    owners = [m for name, m in sys.modules.items() if name.startswith("pointlap.")]
    owners += [value for m in owners for value in vars(m).values() if isinstance(value, type)]
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_tracer_installs_and_restores(monkeypatch):
    for info in pkgutil.iter_modules(pointlap.__path__):
        importlib.import_module(f"pointlap.{info.name}")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    from pointlap import sparse

    before = _bindings()
    original_cg = sparse.cg_solve
    tracer = Tracer()
    tracer.install()
    try:
        assert sparse.cg_solve is not original_cg
        idx = np.arange(10)
        a = sparse.SparseMatrix.from_coo(10, np.r_[idx, idx[1:], idx[:-1]],
                                         np.r_[idx, idx[:-1], idx[1:]],
                                         np.r_[np.full(10, 3.0), -np.ones(18)])
        sparse.cg_solve(a, np.arange(10.0))
    finally:
        tracer.uninstall()
    # CG's products go through the module-level spmv, which the tracer counts:
    # more than the one product of the final residual check
    assert tracer.summary()["spmv_under"].get("sparse.cg_solve", 0) > 1
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


@pytest.mark.parametrize("workload", ["train", "infer"])
def test_tiny_infer_run(workload, tmp_path):
    """A tiny untraced run completes, passes its checks and reports every metric.

    It runs in a copy of the benchmark, the package and BENCHMARK.json, so its
    records do not overwrite a real run's under .perfbench/results."""
    root = tmp_path
    shutil.copytree(PERFBENCH, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(PERFBENCH.parent / "src", root / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy(PERFBENCH.parent / "BENCHMARK.json", root)
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--size", "tiny", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    with open(root / "BENCHMARK.json", encoding="utf-8") as f:
        declared = [m["name"] for m in json.load(f)["end_to_end"]]
    assert list(result["metrics"]) == declared
