"""Spectral and spatial probe functions plus the fixed 112-function eval set.

Spectral probes are low eigenvectors of the ground-truth operator scaled by
1/(lambda + 0.1), zero mode excluded. Spatial probes are random directional
sinusoids at 14 dyadic-half-step frequencies. The evaluation set is fixed:
64 spectral + 42 axis sinusoids + 6 polynomials, in that order.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .laplacian import LaplacianPair
from .meshio import write_atomic
from .sparse import eig_smallest, lambda_max_estimate

SPATIAL_FREQUENCIES = tuple(2.0 ** (m / 2.0) for m in range(14))
EVAL_AXIS_FREQUENCIES = (1, 2, 4, 8, 16, 32, 64)
EVAL_PHASES = (0.0, np.pi / 2)
EVAL_POLYNOMIALS = ("x", "y", "z", "x^2", "y^2", "z^2")
EVAL_PROBE_COUNT = 64 + 3 * len(EVAL_AXIS_FREQUENCIES) * len(EVAL_PHASES) + len(EVAL_POLYNOMIALS)


@dataclass(frozen=True)
class ProbeMeta:
    kind: str                      # "spectral" | "sinusoid" | "polynomial"
    eigenvalue: float | None = None
    k: float | None = None
    psi: float | None = None
    phi: float | None = None
    direction: tuple | None = None  # (a, b, c) or an axis unit triple
    name: str | None = None

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d = {key: val for key, val in d.items() if val is not None}
        if "direction" in d:
            d["direction"] = list(d["direction"])
        return d

    @staticmethod
    def from_dict(d: dict) -> "ProbeMeta":
        if "kind" not in d:
            raise ValueError(f"probe record without 'kind': {d!r}")
        known = {f.name: d[f.name] for f in fields(ProbeMeta) if f.name in d}
        if "direction" in known:
            known["direction"] = tuple(known["direction"])
        return ProbeMeta(**known)


@dataclass
class ProbeSet:
    values: np.ndarray             # (n_vertices, n_probes)
    meta: list[ProbeMeta] = field(default_factory=list)

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("probe values must be 2-D")
        if self.meta and len(self.meta) != self.values.shape[1]:
            raise ValueError("one metadata record per probe required")

    @property
    def count(self) -> int:
        return self.values.shape[1]

    def take(self, count: int) -> "ProbeSet":
        return ProbeSet(self.values[:, :count], self.meta[:count])

    @staticmethod
    def concatenate(parts: list["ProbeSet"]) -> "ProbeSet":
        values = np.concatenate([p.values for p in parts], axis=1)
        meta: list[ProbeMeta] = []
        for p in parts:
            meta.extend(p.meta)
        return ProbeSet(values, meta)


def spectral_probes(gt: LaplacianPair, count: int = 64, seed: int = 0) -> ProbeSet:
    """First `count` non-constant eigenfunctions, scaled by 1/(lambda + 0.1)."""
    n = gt.n
    if count >= n - 1:
        raise ValueError(f"count must be < n - 1 = {n - 1}")
    cutoff = 1e-8 * max(lambda_max_estimate(gt.stiffness, gt.mass, seed=seed), 1e-300)
    want = count + 2
    while True:
        pairs = eig_smallest(gt.stiffness, gt.mass, min(want, n - 1), seed=seed)
        nonzero = np.flatnonzero(pairs.values > cutoff)
        if len(nonzero) >= count or want >= n - 1:
            break
        want = min(n - 1, want + 4)
    idx = nonzero[:count]
    lam = pairs.values[idx]
    vectors = pairs.vectors[:, idx] / (lam + 0.1)
    meta = [ProbeMeta(kind="spectral", eigenvalue=float(l)) for l in lam]
    return ProbeSet(vectors, meta)


def spatial_probes(points, seed: int) -> ProbeSet:
    """One random directional sinusoid per frequency in SPATIAL_FREQUENCIES.

    f(p) = sin(k * psi * (a x + b y + c z) + phi) / (2 k) with psi uniform in
    [0.75, 1.25], phi uniform in [0, 2 pi), and (a, b, c) Dirichlet(1, 1, 1)
    so the coefficients are nonnegative and sum to one.
    """
    pts = np.asarray(getattr(points, "points", points), dtype=np.float64)
    rng = np.random.default_rng(seed)
    cols = []
    meta = []
    for k in SPATIAL_FREQUENCIES:
        psi = rng.uniform(0.75, 1.25)
        phi = rng.uniform(0.0, 2.0 * np.pi)
        a, b, c = rng.dirichlet((1.0, 1.0, 1.0))
        t = pts[:, 0] * a + pts[:, 1] * b + pts[:, 2] * c
        cols.append(np.sin(k * psi * t + phi) / (2.0 * k))
        meta.append(ProbeMeta(kind="sinusoid", k=float(k), psi=float(psi), phi=float(phi),
                              direction=(float(a), float(b), float(c))))
    return ProbeSet(np.stack(cols, axis=1), meta)


def _axis_sinusoids(pts: np.ndarray) -> ProbeSet:
    cols = []
    meta = []
    axes = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    for ax_i, direction in enumerate(axes):
        t = pts[:, ax_i]
        for k in EVAL_AXIS_FREQUENCIES:
            for phi in EVAL_PHASES:
                cols.append(np.sin(k * t + phi) / (2.0 * k))
                meta.append(ProbeMeta(kind="sinusoid", k=float(k), psi=1.0, phi=float(phi),
                                      direction=direction))
    return ProbeSet(np.stack(cols, axis=1), meta)


def _polynomials(pts: np.ndarray) -> ProbeSet:
    cols = [pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 0] ** 2, pts[:, 1] ** 2, pts[:, 2] ** 2]
    meta = [ProbeMeta(kind="polynomial", name=n) for n in EVAL_POLYNOMIALS]
    return ProbeSet(np.stack(cols, axis=1), meta)


def eval_probe_set(gt: LaplacianPair, points, spectral: ProbeSet | None = None) -> ProbeSet:
    """The fixed 112-probe evaluation set (spectral, sinusoids, polynomials).

    Pass precomputed spectral probes to skip the eigensolve; they must hold
    at least 64 functions.
    """
    pts = np.asarray(getattr(points, "points", points), dtype=np.float64)
    if spectral is None:
        spectral = spectral_probes(gt, count=64)
    if spectral.count < 64:
        raise ValueError("need 64 spectral probes for evaluation")
    full = ProbeSet.concatenate([spectral.take(64), _axis_sinusoids(pts), _polynomials(pts)])
    assert full.count == EVAL_PROBE_COUNT
    return full


# -- binary + CSV export ------------------------------------------------------

_MAGIC = b"PRBS"


def save_probes(path, probes: ProbeSet) -> None:
    header = json.dumps({
        "dtype": "<f8",
        "rows": probes.values.shape[0],
        "cols": probes.values.shape[1],
        "meta": [m.to_dict() for m in probes.meta],
    }, sort_keys=True).encode("utf-8")
    write_atomic(path, _MAGIC, len(header).to_bytes(4, "little"), header,
                 np.ascontiguousarray(probes.values, dtype="<f8").tobytes())


def load_probes(path) -> ProbeSet:
    """Read a file `save_probes` wrote; a malformed one raises ValueError naming `path`."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        if raw[:4] != _MAGIC:
            raise ValueError("not a probe file")
        hlen = int.from_bytes(raw[4:8], "little")
        if len(raw) < 8 + hlen:
            raise ValueError(f"file of {len(raw)} bytes ends inside its header")
        header = json.loads(raw[8:8 + hlen].decode("utf-8"))
        rows, cols, records = header["rows"], header["cols"], header["meta"]
        payload = raw[8 + hlen:]
        if len(payload) != rows * cols * 8:
            raise ValueError(f"payload has {len(payload)} bytes, header says "
                             f"{rows} x {cols} float64 ({rows * cols * 8} bytes)")
        values = np.frombuffer(payload, dtype="<f8").reshape(rows, cols).astype(np.float64)
        return ProbeSet(values, [ProbeMeta.from_dict(d) for d in records])
    except KeyError as exc:
        raise ValueError(f"{path}: header without {exc}") from None
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: {exc}") from None
