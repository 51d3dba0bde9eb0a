"""Output checks run outside the timed regions; every failure is counted.

A `Checker` counts operations attempted and failed. `check(name, ok, detail)`
records one check; failures keep their name and detail so that the run
reports what broke instead of stopping at the first problem.
"""
from __future__ import annotations

import numpy as np

SYMMETRY_TOL = 1e-12      # relative to the largest stiffness entry
ROW_SUM_TOL = 1e-9        # relative to the largest stiffness entry
MASS_MEAN_TOL = 1e-12
PROBE_RESIDUAL_TOL = 1e-6  # ||L v - lam M v|| / (lam_max ||M v||)
EIGENVALUE_TOL = 1e-8      # |lam - lam_dense| / lam_max
CONSERVATION_TOL = 1e-9


class Checker:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok, detail: str = "") -> bool:
        self.attempted += 1
        ok = bool(ok)
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def guard(self, name: str, fn, *args, **kwargs):
        """Run one operation; an exception counts as a failed check."""
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - every failure is reported, not raised
            self.check(name, False, f"{type(exc).__name__}: {exc}")
            return None
        self.check(name, True)
        return result


def _scale(stiffness) -> float:
    return max(float(np.abs(stiffness.data).max()) if stiffness.nnz else 0.0, 1e-300)


def check_pair(chk: Checker, label: str, pair, graph_weights: bool = True) -> None:
    """Operator invariants: symmetry, zero row sums, weights >= 0, masses.

    Cotangent weights are negative across obtuse angles, so the sign check
    applies to graph operators (learned and baselines) only.
    """
    from pointlap.sparse import spmv

    l, m = pair.stiffness, pair.mass
    scale = _scale(l)
    asym = l.max_asymmetry()
    chk.check(f"{label}.symmetric", asym <= SYMMETRY_TOL * scale, f"max |L - L^T| = {asym:.3e}")
    rows = float(np.abs(spmv(l, np.ones(l.n))).max())
    chk.check(f"{label}.row_sums", rows <= ROW_SUM_TOL * scale, f"max |L 1| = {rows:.3e}")
    if graph_weights:
        r, c, v = l.to_coo()
        off = v[r != c]
        worst = float(off.max()) if off.size else 0.0
        chk.check(f"{label}.weights_nonnegative", worst <= 0.0,
                  f"largest off-diagonal entry {worst:.3e}")
    chk.check(f"{label}.mass_positive", np.all(m > 0) and np.all(np.isfinite(m)),
              f"min mass {float(np.min(m)):.3e}")
    chk.check(f"{label}.mass_mean_one", abs(float(m.mean()) - 1.0) <= MASS_MEAN_TOL,
              f"mean mass {float(m.mean())!r}")


def check_stored_probes(chk: Checker, label: str, gt, probes) -> None:
    """Stored spectral probes are eigenpairs of the stored ground truth.

    Two independent checks: the true residual of each stored vector, scaled
    by lambda_max * ||M v|| so that a zero mode does not read as a failure,
    and the stored eigenvalues against a dense generalized eigensolve.
    """
    from pointlap.sparse import spmv

    dense_l = gt.stiffness.to_dense()
    s = 1.0 / np.sqrt(gt.mass)
    lam_all = np.linalg.eigvalsh(s[:, None] * dense_l * s[None, :])
    lam_max = max(float(lam_all[-1]), 1e-300)
    lam = np.array([m.eigenvalue for m in probes.meta], dtype=np.float64)
    v = probes.values
    mv = gt.mass[:, None] * v
    resid = np.linalg.norm(spmv(gt.stiffness, v) - lam[None, :] * mv, axis=0)
    rel = resid / (lam_max * np.maximum(np.linalg.norm(mv, axis=0), 1e-300))
    worst = int(np.argmax(rel))
    chk.check(f"{label}.probe_residual", rel[worst] <= PROBE_RESIDUAL_TOL,
              f"probe {worst}: relative residual {rel[worst]:.3e}")
    nonzero = lam_all[lam_all > 1e-8 * lam_max][: lam.size]
    if nonzero.size != lam.size:
        chk.check(f"{label}.probe_eigenvalues", False,
                  f"dense solve has {nonzero.size} nonzero modes, {lam.size} stored")
        return
    err = np.abs(lam - nonzero) / lam_max
    worst = int(np.argmax(err))
    chk.check(f"{label}.probe_eigenvalues", err[worst] <= EIGENVALUE_TOL,
              f"mode {worst}: stored {lam[worst]!r}, dense {nonzero[worst]!r}")


def check_heat(chk: Checker, label: str, pair, u0, u) -> None:
    before, after = float(pair.mass @ u0), float(pair.mass @ u)
    tol = CONSERVATION_TOL * max(float(pair.mass @ np.abs(u0)), 1e-300)
    chk.check(f"{label}.heat_finite", np.all(np.isfinite(u)))
    chk.check(f"{label}.heat_conserves_mass", abs(after - before) <= tol,
              f"sum m u: {before!r} -> {after!r}")


def check_geodesic(chk: Checker, label: str, phi, source: int) -> None:
    chk.check(f"{label}.geodesic_finite", np.all(np.isfinite(phi)))
    chk.check(f"{label}.geodesic_nonnegative", np.all(phi >= 0.0), f"min {float(np.min(phi))!r}")
    chk.check(f"{label}.geodesic_source_zero", phi[source] == 0.0, f"phi[source] = {phi[source]!r}")


def check_smooth(chk: Checker, label: str, pair, points, smoothed) -> None:
    m = pair.mass / pair.mass.sum()
    before, after = m @ points, m @ smoothed
    drift = float(np.abs(after - before).max())
    scale = max(float(np.abs(points).max()), 1e-300)
    chk.check(f"{label}.smooth_finite", np.all(np.isfinite(smoothed)))
    chk.check(f"{label}.smooth_keeps_centroid", drift <= CONSERVATION_TOL * scale,
              f"centroid drift {drift:.3e}")


def check_filter(chk: Checker, label: str, filtered, points) -> None:
    chk.check(f"{label}.filter_finite",
              filtered.shape == points.shape and np.all(np.isfinite(filtered)))


def check_arap(chk: Checker, label: str, deformed, constraints) -> None:
    held = deformed[constraints.indices]
    err = float(np.abs(held - constraints.positions).max())
    chk.check(f"{label}.arap_finite", np.all(np.isfinite(deformed)))
    chk.check(f"{label}.arap_holds_constraints", err <= 1e-12, f"max error {err:.3e}")
