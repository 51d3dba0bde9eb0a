"""Self-test: every workload at tiny size, traced and untraced.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json matches spec.py, that each run exits 0 with a
last line holding exactly the contract keys, that the metric names and
units are exactly the ones BENCHMARK.json lists, that every value is a
finite number and every output check passed, and that a directory holding
only the benchmark (no ``src/``) makes run.py fail without a result line.
Takes about a minute.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spec import render  # noqa: E402


def run(args: list, cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def validate(spec: dict, workload: str, trace: int, errors: list) -> None:
    proc = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny"], ROOT)
    label = f"{workload} trace={trace}"
    if proc.returncode != 0:
        errors.append(f"{label}: exit {proc.returncode}: {proc.stderr[-2000:]}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
        return
    if result["correct"] is not True or result["failed"] != 0:
        errors.append(f"{label}: output checks failed: {proc.stdout.splitlines()[-3][:2000]}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        errors.append(f"{label}: attempted = {result['attempted']!r}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        errors.append(f"{label}: missing {sorted(set(wanted) - set(got))}, "
                      f"extra {sorted(set(got) - set(wanted))}")
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m["unit"] != wanted.get(name):
            errors.append(f"{label}: {name} = {m}")
        elif not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            errors.append(f"{label}: {name} value {m['value']!r}")
    if not trace:
        zero = [n for n, m in got.items() if m["value"] == 0]
        if zero:
            errors.append(f"{label}: end-to-end metrics read 0: {zero}")


def check_bare_directory(errors: list) -> None:
    """Only BENCHMARK.json and perfbench/: the run must fail, printing no result."""
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench")) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            errors.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}")


def main() -> int:
    errors: list[str] = []
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        text = f.read()
    if text != render():
        errors.append("BENCHMARK.json differs from spec.py; run: python3 perfbench/spec.py --write")
    spec = json.loads(text)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    check_bare_directory(errors)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            validate(spec, workload, trace, errors)
            print(f"{workload} trace={trace}: done", flush=True)
    for e in errors:
        print("FAIL " + e)
    print("selftest " + ("passed" if not errors else f"failed ({len(errors)} problems)"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
