"""Scale-free operator quality on the fixed 112-probe evaluation set.

The relative error of an operator on probe f is
||Delta_pred f - Delta_gt f|| / ||Delta_gt f|| with Delta = M^-1 L. The
"fit" variants first multiply the operator by the one least-squares factor
per shape that best matches the ground-truth actions, which removes the
unit mismatch of the uniform and heat-kernel baselines.
"""
from __future__ import annotations

import numpy as np

BASELINES = ("uniform", "heat")
QUALITY_OVERALL = ("uniform", "heat", "uniform_fit", "heat_fit", "learned_fit")
QUALITY_BY_KIND = ("uniform", "heat", "uniform_fit", "heat_fit")  # training-free only


def relative_errors(dp: np.ndarray, dg: np.ndarray, fit: bool = False) -> np.ndarray:
    if fit:
        denom = float(np.sum(dp * dp))
        dp = dp * (float(np.sum(dp * dg)) / denom if denom > 0 else 1.0)
    num = np.linalg.norm(dp - dg, axis=0)
    den = np.linalg.norm(dg, axis=0)
    return np.where(den > 0, num / np.where(den > 0, den, 1.0), np.inf)


def shape_errors(sample, pairs: dict) -> dict:
    """Per-probe relative errors of each named pair on one sample."""
    from pointlap.probes import eval_probe_set

    probes = eval_probe_set(sample.gt, sample.points, spectral=sample.spectral)
    dg = sample.gt.apply(probes.values)
    out = {}
    for name, pair in pairs.items():
        dp = pair.apply(probes.values)
        out[name] = relative_errors(dp, dg)
        out[name + "_fit"] = relative_errors(dp, dg, fit=True)
    return out


def median(values) -> float:
    return float(np.median(np.concatenate(values))) if values else float("nan")
