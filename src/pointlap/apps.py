"""Laplacian-driven applications: diffusion, geodesics, smoothing, filtering, ARAP.

All five consume a LaplacianPair and work the same whether the pair came
from the cotangent ground truth, a graph baseline, or the network.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .geometry import Mesh, PointCloud
from .knn import incidence
from .laplacian import LaplacianPair
from .sparse import SolveError, _gemm, cg_solve, eig_smallest, lambda_max_estimate


def heat_diffuse(pair: LaplacianPair, u0: np.ndarray, dt: float = 1e-3,
                 steps: int = 1000) -> np.ndarray:
    """Explicit Euler heat flow u <- u - dt * M^-1 L u; warns when dt * lambda_max >= 2.

    `dt` must be finite and positive and `steps` non-negative.
    """
    u = np.asarray(u0, dtype=np.float64).copy()
    if u.shape[0] != pair.n:
        raise ValueError("field length must match the operator")
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    lam = lambda_max_estimate(pair.stiffness, pair.mass)
    if dt * lam >= 2.0:
        warnings.warn(f"explicit Euler unstable: dt * lambda_max = {dt * lam:.3g} >= 2",
                      RuntimeWarning, stacklevel=2)
    for step in range(steps):
        u -= dt * pair.apply(u)
        if not np.all(np.isfinite(u)):
            raise FloatingPointError(f"heat diffusion diverged at step {step}")
    return u


def _mean_edge_length(mesh: Mesh) -> float:
    e = mesh.undirected_edges()
    return float(np.linalg.norm(mesh.vertices[e[:, 0]] - mesh.vertices[e[:, 1]], axis=1).mean())


def geodesic_heat(mesh: Mesh, pair: LaplacianPair, source: int) -> np.ndarray:
    """Heat-method geodesic distance from `source`.

    The diffusion and Poisson solves use the supplied pair; gradient and
    divergence stay on the companion mesh. Since pair masses are normalized
    to mean one, the short diffusion time t = (mean edge length)^2 is
    expressed in those units by dividing by the mean vertex area. A mesh
    with no triangles, or with one of area <= 1e-14, raises `GeometryError`.
    """
    n = mesh.num_vertices
    if pair.n != n:
        raise ValueError("mesh and operator are not index-aligned")
    if not 0 <= source < n:
        raise ValueError("source index out of range")
    v, t = mesh.vertices, mesh.triangles
    areas = mesh.nondegenerate_triangle_areas()
    mean_vertex_area = float(areas.sum()) / n
    h = _mean_edge_length(mesh)
    t_heat = h * h / mean_vertex_area

    system = pair.stiffness.scaled(t_heat).add_diagonal(pair.mass)
    delta = np.zeros(n)
    delta[source] = 1.0
    u = cg_solve(system, delta)

    # per-face gradient of u
    p0, p1, p2 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    normal = np.cross(p1 - p0, p2 - p0)
    two_area = np.linalg.norm(normal, axis=1, keepdims=True)
    nrm = normal / two_area
    e0, e1, e2 = p2 - p1, p0 - p2, p1 - p0  # edge opposite each corner
    grad = (u[t[:, 0], None] * np.cross(nrm, e0)
            + u[t[:, 1], None] * np.cross(nrm, e1)
            + u[t[:, 2], None] * np.cross(nrm, e2)) / two_area
    norms = np.linalg.norm(grad, axis=1, keepdims=True)
    x_field = -grad / np.where(norms > 0, norms, 1.0)

    # integrated divergence per vertex: one scatter of the six corner terms
    cots = []
    for a, b in ((p1 - p0, p2 - p0), (p2 - p1, p0 - p1), (p0 - p2, p1 - p2)):
        cots.append(np.einsum("ij,ij->i", a, b) / np.linalg.norm(np.cross(a, b), axis=1))
    cot0, cot1, cot2 = cots  # cot of angle at corners 0, 1, 2
    opp_cot = {(0, 1): cot2, (1, 0): cot2, (1, 2): cot0, (2, 1): cot0, (0, 2): cot1, (2, 0): cot1}
    pts = (p0, p1, p2)
    idx, contribs = [], []
    for ci in range(3):
        for cj in range(3):
            if cj == ci:
                continue
            e = pts[cj] - pts[ci]
            idx.append(t[:, ci])
            contribs.append(0.5 * opp_cot[(ci, cj)] * np.einsum("ij,ij->i", e, x_field))
    div = np.bincount(np.concatenate(idx), weights=np.concatenate(contribs), minlength=n)

    phi = cg_solve(pair.stiffness, -div, deflate_constant=True)
    phi -= phi[source]
    if np.median(phi) < 0:  # sign is fixed by the divergence convention; guard anyway
        phi = -phi
    return np.maximum(phi, 0.0)


def laplacian_smooth(points, pair: LaplacianPair, step: float = 0.5,
                     iters: int = 10) -> PointCloud:
    """Explicit per-axis diffusion of positions with an adaptive step; `iters` >= 0."""
    if not 0.0 < step <= 1.0:
        raise ValueError("step must lie in (0, 1]")
    if iters < 0:
        raise ValueError(f"iters must be non-negative, got {iters}")
    pts = np.asarray(getattr(points, "points", points), dtype=np.float64).copy()
    lam = lambda_max_estimate(pair.stiffness, pair.mass)
    dt = step / max(lam, 1e-300)
    for _ in range(iters):
        pts -= dt * pair.apply(pts)
    return PointCloud(pts)


def spectral_filter(pair: LaplacianPair, signal: np.ndarray, gains,
                    n_modes: int, residual: str = "keep") -> np.ndarray:
    """Rescale the first `n_modes` eigen-coefficients of a signal.

    `gains` is a scalar or a length-n_modes array; a non-finite signal or
    gain raises `ValueError`.
    The part of the signal above the retained modes is kept verbatim
    (residual="keep") or dropped (residual="drop").

    The output is well defined only when the gains are equal across each
    repeated eigenvalue and `n_modes` does not split one. Otherwise it
    depends on the basis of that eigenspace, which `eig_smallest` returns
    arbitrarily.
    """
    if residual not in ("keep", "drop"):
        raise ValueError("residual policy must be 'keep' or 'drop'")
    if not 1 <= n_modes < pair.n:
        raise ValueError("n_modes must be in [1, n)")
    sig = np.asarray(signal, dtype=np.float64)
    flat = sig.reshape(pair.n, -1)
    g = np.broadcast_to(np.asarray(gains, dtype=np.float64), (n_modes,))
    if not (np.all(np.isfinite(flat)) and np.all(np.isfinite(g))):
        raise ValueError("signal and gains must be finite")
    basis = eig_smallest(pair.stiffness, pair.mass, n_modes).vectors
    coeff = _gemm(basis.T, pair.mass[:, None] * flat)
    out = _gemm(basis, g[:, None] * coeff)
    if residual == "keep":
        out += flat - _gemm(basis, coeff)
    return out.reshape(sig.shape)


@dataclass
class DeformationConstraints:
    fixed_indices: np.ndarray
    fixed_positions: np.ndarray
    handle_indices: np.ndarray
    handle_positions: np.ndarray

    def __post_init__(self):
        self.fixed_indices = np.asarray(self.fixed_indices, dtype=np.int64).reshape(-1)
        self.handle_indices = np.asarray(self.handle_indices, dtype=np.int64).reshape(-1)
        self.fixed_positions = np.asarray(self.fixed_positions, dtype=np.float64).reshape(-1, 3)
        self.handle_positions = np.asarray(self.handle_positions, dtype=np.float64).reshape(-1, 3)
        if self.fixed_indices.size == 0:
            raise ValueError("at least one fixed vertex is required")
        if len(self.fixed_indices) != len(self.fixed_positions):
            raise ValueError("fixed index/position count mismatch")
        if len(self.handle_indices) != len(self.handle_positions):
            raise ValueError("handle index/position count mismatch")
        if np.intersect1d(self.fixed_indices, self.handle_indices).size:
            raise ValueError("fixed and handle sets must be disjoint")
        if not (np.all(np.isfinite(self.fixed_positions))
                and np.all(np.isfinite(self.handle_positions))):
            raise ValueError("constraint positions must be finite")

    @property
    def indices(self) -> np.ndarray:
        return np.r_[self.fixed_indices, self.handle_indices]

    @property
    def positions(self) -> np.ndarray:
        return np.r_[self.fixed_positions, self.handle_positions]


def _fit_rotations(cov: np.ndarray) -> np.ndarray:
    """Per-vertex Kabsch fit: the rotation R_i maximizing tr(R_i S_i) for each (3, 3) S_i."""
    try:
        u, _, vt = np.linalg.svd(cov)
    except np.linalg.LinAlgError:
        rot = np.tile(np.eye(3), (len(cov), 1, 1))
        for i, s in enumerate(cov):
            try:
                ui, _, vti = np.linalg.svd(s)
            except np.linalg.LinAlgError:
                continue
            d = np.sign(np.linalg.det(vti.T @ ui.T))
            rot[i] = (vti.T * np.array([1.0, 1.0, d])) @ ui.T
        return rot
    det = np.sign(np.linalg.det(np.transpose(vt, (0, 2, 1)) @ np.transpose(u, (0, 2, 1))))
    vt = vt.copy()
    vt[:, 2, :] *= det[:, None]
    return np.transpose(vt, (0, 2, 1)) @ np.transpose(u, (0, 2, 1))


def arap_deform(points, graph, pair: LaplacianPair,
                constraints: DeformationConstraints, iters: int = 10,
                return_energy: bool = False):
    """Local/global as-rigid-as-possible deformation on the operator's 1-rings.

    The 1-rings and weights are the pair's own (Sorkine & Alexa 2007): the
    pairs u = (i, j), i < j, stored in the stiffness's upper triangle, with
    w_u = -L_ij (`LaplacianPair.edges()`). A stored zero, a dead edge, stays a
    pair of weight zero. So the rotation fit sees exactly the edges the
    global solve couples, for every operator, including one not built on a
    KNN graph. `graph` is not read; it stays positional only because the
    benchmark's workloads still pass it, and goes once they stop.

    Starts from the naive Laplacian solve (identity rotations), then
    alternates rotation fitting with the constrained global solve. The energy
    after each iteration is asserted non-increasing (up to solver tolerance);
    `iters` must be non-negative.

    The work runs on the pairs' signed incidence B, (B f)_u = f_i - f_j. The
    weights w_u and rest edges e_u = B p are formed once per call, and each
    iteration forms R_i e_u and R_j e_u once. The right-hand side
    b_i = sum_j w_ij/2 (R_i + R_j) e_ij uses them as b = B^T (w_u/2 (R_i + R_j) e_u):
    since e_ji = -e_ij, a pair adds its term to b_i and subtracts it from b_j.
    The energy uses them too, as sum_u w_u (|c_u - R_i e_u|^2 + |c_u - R_j e_u|^2)
    with c_u = B x. The covariances S_i = sum_j w_ij e_ij c_ij^T are one
    product of the unsigned (n, e) incidence with the (e, 9) outer products
    w_u e_u c_u^T.

    Before factoring, every connected component of the stiffness (stored
    zeros dropped) must hold a constrained vertex; otherwise the free block
    is singular and `SolveError` is raised. With every component pinned the
    free block is symmetric positive definite, so it is factored once with
    diagonal pivots in a symmetric fill-reducing order (SuperLU's symmetric
    mode), and every solve is checked by its true residual.
    """
    if iters < 0:
        raise ValueError(f"iters must be non-negative, got {iters}")
    rest = np.asarray(getattr(points, "points", points), dtype=np.float64)
    n = len(rest)
    l = pair.stiffness.csr
    cidx = constraints.indices
    if cidx.size and (cidx.min() < 0 or cidx.max() >= n):
        raise ValueError("constraint index out of range")
    n_comp, comp = pair.components()
    if np.unique(comp[cidx]).size < n_comp:
        raise SolveError("ARAP system is singular: a component holds no constrained vertex",
                         float("inf"))
    free = np.ones(n, dtype=bool)
    free[cidx] = False
    fidx = np.flatnonzero(free)
    pinned = np.flatnonzero(~free)  # not cidx: a repeated index must count once
    l_free_rows = l[fidx]
    l_ff = l_free_rows[:, fidx].tocsc()
    l_fc = l_free_rows[:, pinned]
    try:  # every global step solves with the same matrix
        lu = splu(l_ff, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as err:
        raise SolveError("ARAP system is singular", float("inf")) from err

    ui, uj, w = pair.edges()
    inc = incidence(ui, uj, n)  # (B f)_u = f_i - f_j for the pair u = (i, j)
    ring = abs(inc).T.tocsr()  # (n, e): vertex i sums the pairs that touch it
    e_rest = inc @ rest
    we = w[:, None] * e_rest

    current = rest.copy()
    current[cidx] = constraints.positions

    def global_step(r_i, r_j):
        rhs = (inc.T @ (0.5 * w[:, None] * (r_i + r_j)))[fidx] - l_fc @ current[pinned]
        x = lu.solve(rhs)
        resid = np.linalg.norm(l_ff @ x - rhs, axis=0)
        scale = np.linalg.norm(rhs, axis=0)
        if not np.all(resid <= 1e-10 * scale):  # a NaN residual fails too
            worst = float(np.max(resid / np.maximum(scale, 1e-300)))
            raise SolveError("ARAP global solve missed its residual", worst)
        new = current.copy()
        new[fidx] = x
        return new

    current = global_step(e_rest, e_rest)  # identity rotations
    cur = inc @ current
    energies = []
    prev = None
    for _ in range(iters):
        rot = _fit_rotations((ring @ (we[:, :, None] * cur[:, None, :]).reshape(-1, 9))
                             .reshape(n, 3, 3))
        r_i = np.einsum("eab,eb->ea", rot[ui], e_rest)
        r_j = np.einsum("eab,eb->ea", rot[uj], e_rest)
        current = global_step(r_i, r_j)
        cur = inc @ current
        # pair u = (i, j) in both directions: |cur - R_i e|^2 and |-cur + R_j e|^2
        d_i, d_j = cur - r_i, cur - r_j
        energy = float(w @ (np.einsum("ea,ea->e", d_i, d_i) + np.einsum("ea,ea->e", d_j, d_j)))
        if prev is not None and energy > prev + 1e-8 * max(1.0, prev):
            raise AssertionError(f"ARAP energy increased: {prev:.6e} -> {energy:.6e}")
        energies.append(energy)
        prev = energy
    cloud = PointCloud(current)
    return (cloud, energies) if return_energy else cloud
