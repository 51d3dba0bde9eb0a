import numpy as np
import pytest

from helpers import dense_generalized_eigs
from pointlap import apps
from pointlap.apps import (DeformationConstraints, arap_deform, geodesic_heat,
                           heat_diffuse, laplacian_smooth, spectral_filter)
from pointlap.geometry import (SHAPE_KINDS, GeometryError, Mesh, grid_plane, icosphere,
                               make_shape, normalize_unit_box)
from pointlap.knn import build_knn
from pointlap.laplacian import (LaplacianPair, assemble_learned, cotangent_laplacian,
                                uniform_laplacian)
from pointlap.sparse import SolveError, SparseMatrix, cg_solve


def two_vertex_pair():
    stiffness = SparseMatrix.from_coo(2, [0, 0, 1, 1], [0, 1, 0, 1],
                                      [1.0, -1.0, -1.0, 1.0])
    return LaplacianPair(stiffness, np.ones(2), tag="uniform")


@pytest.fixture(scope="module")
def blob_pair():
    mesh = normalize_unit_box(make_shape("blended-blob", 642, seed=4))
    return mesh, cotangent_laplacian(mesh)


class TestHeatDiffuse:
    def test_constant_fixed_point(self, blob_pair):
        mesh, pair = blob_pair
        u = heat_diffuse(pair, np.full(pair.n, 3.25), steps=50)
        assert np.abs(u - 3.25).max() < 1e-12

    def test_two_vertex_analytic(self):
        # du/dt = -Lu with u0 = (1, 0): u(t) = (1 + e^{-2t}, 1 - e^{-2t}) / 2
        pair = two_vertex_pair()
        u = heat_diffuse(pair, np.array([1.0, 0.0]), dt=1e-3, steps=1000)
        expected = np.array([0.5 + 0.5 * np.exp(-2.0), 0.5 - 0.5 * np.exp(-2.0)])
        assert np.abs(u - expected).max() < 1e-3

    def test_mass_weighted_conservation(self, blob_pair):
        mesh, pair = blob_pair
        rng = np.random.default_rng(0)
        u0 = rng.standard_normal(pair.n)
        total0 = float(pair.mass @ u0)
        u = heat_diffuse(pair, u0, dt=1e-3, steps=1000)
        drift = abs(float(pair.mass @ u) - total0) / max(abs(total0), 1e-300)
        assert drift < 1e-9

    def test_instability_raises_before_stepping(self):
        pair = two_vertex_pair()
        with pytest.raises(FloatingPointError, match=r"dt \* lambda_max = 3 >= 2"):
            heat_diffuse(pair, np.array([1.0, 0.0]), dt=1.5, steps=1)

    def test_undershot_estimate_is_caught_per_step(self, monkeypatch):
        # the λmax estimate can undershoot; the per-step check still stops the run
        monkeypatch.setattr(apps, "lambda_max_estimate", lambda stiffness, mass: 1.0)
        with pytest.raises(FloatingPointError, match="heat diffusion diverged at step"):
            heat_diffuse(two_vertex_pair(), np.array([1.0, 0.0]), dt=1.5, steps=5000)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            heat_diffuse(two_vertex_pair(), np.ones(3), steps=1)

    @pytest.mark.parametrize("dt, steps", [(-1e-3, 10), (0.0, 10), (np.nan, 10),
                                           (np.inf, 10), (1e-3, -3)])
    def test_rejects_bad_time_step(self, dt, steps):
        with pytest.raises(ValueError, match="dt must be|steps must be"):
            heat_diffuse(two_vertex_pair(), np.array([1.0, 0.0]), dt=dt, steps=steps)


def quadrant_grid(nx=32, ny=32):
    """33 x 33 grid with quadrant-symmetric diagonals around the center."""
    xs = np.linspace(-1, 1, nx + 1)
    ys = np.linspace(-1, 1, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    verts = np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)], axis=1)

    def vid(i, j):
        return i * (ny + 1) + j

    tris = []
    for i in range(nx):
        for j in range(ny):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            if (i < nx // 2) == (j < ny // 2):
                tris += [[a, b, c], [a, c, d]]
            else:
                tris += [[a, b, d], [b, c, d]]
    return Mesh(verts, np.asarray(tris))


def geodesic_oracle(mesh, pair, source):
    """The heat method built step by step: edges deduplicated as rows, the
    system assembled from triplets, the divergence scattered one corner term
    at a time with np.add.at."""
    v, t = mesh.vertices, mesh.triangles
    n = mesh.num_vertices
    e = np.r_[t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]
    e.sort(axis=1)
    e = np.unique(e, axis=0)
    h = float(np.linalg.norm(v[e[:, 0]] - v[e[:, 1]], axis=1).mean())
    t_heat = h * h / (float(mesh.triangle_areas().sum()) / n)
    rows, cols, vals = pair.stiffness.scaled(t_heat).to_coo()
    idx = np.arange(n)
    system = SparseMatrix.from_coo(n, np.r_[rows, idx], np.r_[cols, idx], np.r_[vals, pair.mass])
    delta = np.zeros(n)
    delta[source] = 1.0
    u = cg_solve(system, delta)
    p0, p1, p2 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    normal = np.cross(p1 - p0, p2 - p0)
    two_area = np.linalg.norm(normal, axis=1, keepdims=True)
    nrm = normal / two_area
    grad = (u[t[:, 0], None] * np.cross(nrm, p2 - p1)
            + u[t[:, 1], None] * np.cross(nrm, p0 - p2)
            + u[t[:, 2], None] * np.cross(nrm, p1 - p0)) / two_area
    norms = np.linalg.norm(grad, axis=1, keepdims=True)
    x_field = -grad / np.where(norms > 0, norms, 1.0)
    cot = [np.einsum("ij,ij->i", a, b) / np.linalg.norm(np.cross(a, b), axis=1)
           for a, b in ((p1 - p0, p2 - p0), (p2 - p1, p0 - p1), (p0 - p2, p1 - p2))]
    pts = (p0, p1, p2)
    div = np.zeros(n)
    for ci in range(3):
        for cj in range(3):
            if cj != ci:
                opp = cot[3 - ci - cj]  # the corner opposite edge (ci, cj)
                term = np.einsum("ij,ij->i", pts[cj] - pts[ci], x_field)
                np.add.at(div, t[:, ci], 0.5 * opp * term)
    phi = cg_solve(pair.stiffness, -div, deflate_constant=True)
    phi -= phi[source]
    if np.median(phi) < 0:
        phi = -phi
    return np.maximum(phi, 0.0)


class TestGeodesic:
    @pytest.mark.parametrize("mesh, source", [(quadrant_grid(16, 16), 40),
                                              (icosphere(3), 7)], ids=["grid", "sphere"])
    def test_matches_oracle_bitwise(self, mesh, source):
        pair = cotangent_laplacian(mesh)
        assert np.array_equal(geodesic_heat(mesh, pair, source),
                              geodesic_oracle(mesh, pair, source))

    def test_rejects_meshes_without_area(self):
        mesh = grid_plane(4, 4)
        pair = cotangent_laplacian(mesh)
        with pytest.raises(GeometryError, match="no triangles"):
            geodesic_heat(Mesh(mesh.vertices, np.zeros((0, 3))), pair, 0)
        # vertices 0, 1 and 2 lie on one grid line
        flat = Mesh(mesh.vertices, np.r_[mesh.triangles, [[0, 1, 2]]])
        with pytest.raises(GeometryError, match=f"degenerate triangle {mesh.num_triangles}"):
            geodesic_heat(flat, pair, 0)

    def test_source_zero_and_nonnegative(self, blob_pair):
        mesh, pair = blob_pair
        phi = geodesic_heat(mesh, pair, source=5)
        assert phi[5] == 0.0
        assert phi.min() >= 0.0

    def test_flat_grid_accuracy_envelope(self):
        # the heat method's error concentrates at the source-adjacent rings;
        # away from them the flat-grid field tracks Euclidean distance
        mesh = quadrant_grid()
        pair = cotangent_laplacian(mesh)
        src = 16 * 33 + 16
        phi = geodesic_heat(mesh, pair, src)
        d = np.linalg.norm(mesh.vertices - mesh.vertices[src], axis=1)
        interior = np.all(np.abs(mesh.vertices[:, :2]) < 1.0 - 1.5 / 16, axis=1)
        mask = interior & (d > 1e-12)
        rel = np.abs(phi[mask] - d[mask]) / d[mask]
        assert rel.mean() < 0.025
        assert rel.max() < 0.10

    def test_sphere_great_circle(self):
        sphere = icosphere(3)  # ~unit sphere, 642 vertices
        pair = cotangent_laplacian(sphere)
        phi = geodesic_heat(sphere, pair, source=0)
        arc = np.arccos(np.clip(sphere.vertices @ sphere.vertices[0], -1.0, 1.0))
        mask = arc > 1e-9
        rel = np.abs(phi[mask] - arc[mask]) / arc[mask]
        assert rel.mean() < 0.05

    def test_validation(self, blob_pair):
        mesh, pair = blob_pair
        with pytest.raises(ValueError):
            geodesic_heat(mesh, pair, source=-1)
        other = cotangent_laplacian(icosphere(1))
        with pytest.raises(ValueError):
            geodesic_heat(mesh, other, source=0)


class TestSmoothing:
    def test_flat_plane_fixed(self):
        # linear coordinates are harmonic, so interior vertices are fixed
        # points; boundary shrinkage creeps inward one ring per iteration,
        # hence "interior" means clear of the 10-iteration influence zone
        mesh = grid_plane(24, 24)
        pair = cotangent_laplacian(mesh)
        out = laplacian_smooth(mesh.vertices, pair, step=0.5, iters=10)
        interior = np.all(np.abs(mesh.vertices[:, :2]) <= 0.5, axis=1)
        disp = np.linalg.norm(out.points - mesh.vertices, axis=1)
        assert disp[interior].max() < 1e-6

    def test_noisy_sphere_variance_decreases(self):
        sphere = icosphere(3)
        rng = np.random.default_rng(1)
        noisy = sphere.vertices * (1.0 + 0.02 * rng.standard_normal(sphere.num_vertices))[:, None]
        pair = cotangent_laplacian(Mesh(noisy, sphere.triangles))
        pts = noisy
        var_prev = np.var(np.linalg.norm(pts, axis=1))
        for _ in range(4):
            pts = laplacian_smooth(pts, pair, step=0.5, iters=5).points
            var = np.var(np.linalg.norm(pts, axis=1))
            assert var < var_prev
            var_prev = var

    def test_mass_weighted_centroid_preserved(self, blob_pair):
        mesh, pair = blob_pair
        out = laplacian_smooth(mesh.vertices, pair, step=0.5, iters=20)
        before = pair.mass @ mesh.vertices
        after = pair.mass @ out.points
        assert np.abs(after - before).max() < 1e-9 * max(1.0, np.abs(before).max())

    def test_step_validation(self, blob_pair):
        mesh, pair = blob_pair
        with pytest.raises(ValueError):
            laplacian_smooth(mesh.vertices, pair, step=1.5)

    def test_negative_iters_rejected(self, blob_pair):
        mesh, pair = blob_pair
        with pytest.raises(ValueError, match="iters must be"):
            laplacian_smooth(mesh.vertices, pair, iters=-3)


class TestSpectralFilter:
    def test_all_pass_identity(self, blob_pair):
        mesh, pair = blob_pair
        out = spectral_filter(pair, mesh.vertices, 1.0, 20, residual="keep")
        assert np.abs(out - mesh.vertices).max() < 1e-8

    def test_low_pass_idempotent(self, blob_pair):
        mesh, pair = blob_pair
        once = spectral_filter(pair, mesh.vertices, 1.0, 20, residual="drop")
        twice = spectral_filter(pair, once, 1.0, 20, residual="drop")
        assert np.abs(twice - once).max() < 1e-8

    def test_ring_matches_dft(self):
        theta = 2 * np.pi * np.arange(64) / 64
        ring = np.stack([np.cos(theta), np.sin(theta), np.zeros(64)], axis=1)
        pair = uniform_laplacian(build_knn(ring, k=2))
        rng = np.random.default_rng(2)
        sig = rng.standard_normal(64)
        # keep frequencies 0..4: the 9 lowest ring-Laplacian modes
        filtered = spectral_filter(pair, sig, 1.0, 9, residual="drop")
        spectrum = np.fft.rfft(sig)
        spectrum[5:] = 0.0
        assert np.abs(filtered - np.fft.irfft(spectrum, 64)).max() < 1e-8

    def test_gain_forms(self, blob_pair):
        mesh, pair = blob_pair
        sig = mesh.vertices[:, 0]
        arr = spectral_filter(pair, sig, np.full(10, 0.7), 10)
        scalar = spectral_filter(pair, sig, 0.7, 10)
        assert np.array_equal(arr, scalar)

    def test_low_pass_matches_dense_projection(self, blob_pair):
        # 642 vertices at 20 modes take the Krylov path (6 * 41 basis vectors < 642)
        mesh, pair = blob_pair
        m, x = pair.mass, mesh.vertices
        lam, v = dense_generalized_eigs(pair.stiffness.to_dense(), m)
        assert lam[20] - lam[19] > 1e-3 * lam[20]  # so the 20-mode subspace is unique
        v = v[:, :20]
        expected = v @ (v.T @ (m[:, None] * x))
        out = spectral_filter(pair, x, 1.0, 20, residual="drop")
        assert np.abs(out - expected).max() <= 1e-9 * np.abs(expected).max()

    def test_rejects_non_finite_input(self, blob_pair):
        mesh, pair = blob_pair
        sig = mesh.vertices.copy()
        sig[7, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            spectral_filter(pair, sig, 1.0, 10)
        gains = np.ones(10)
        gains[3] = np.inf
        with pytest.raises(ValueError, match="finite"):
            spectral_filter(pair, mesh.vertices, gains, 10)

    def test_validation(self, blob_pair):
        mesh, pair = blob_pair
        with pytest.raises(ValueError):
            spectral_filter(pair, mesh.vertices, 1.0, 0)
        with pytest.raises(ValueError):
            spectral_filter(pair, mesh.vertices, 1.0, 5, residual="maybe")


class TestArap:
    @pytest.fixture(scope="class")
    def bar(self):
        mesh = normalize_unit_box(make_shape("box", 600, seed=12))
        return mesh, build_knn(mesh.vertices, k=8), cotangent_laplacian(mesh)

    def test_rest_constraints_give_rest(self, bar):
        mesh, graph, pair = bar
        pts = mesh.vertices
        idx = np.arange(0, len(pts), 7)
        cons = DeformationConstraints(idx, pts[idx], np.zeros(0, dtype=int),
                                      np.zeros((0, 3)))
        out = arap_deform(pts, graph, pair, cons, iters=3)
        assert np.abs(out.points - pts).max() < 1e-8

    def test_rigid_translation_exact(self, bar):
        mesh, graph, pair = bar
        pts = mesh.vertices
        rng = np.random.default_rng(3)
        idx = rng.choice(len(pts), 40, replace=False)
        t = np.array([0.3, -0.2, 0.5])
        cons = DeformationConstraints(idx[:20], pts[idx[:20]] + t,
                                      idx[20:], pts[idx[20:]] + t)
        out, energies = arap_deform(pts, graph, pair, cons, iters=5, return_energy=True)
        assert np.abs(out.points - (pts + t)).max() < 1e-8
        assert energies[-1] < 1e-12

    def test_bend_energy_non_increasing(self, bar):
        mesh, graph, pair = bar
        pts = mesh.vertices
        x = pts[:, 0]
        fixed = np.flatnonzero(x < np.quantile(x, 0.1))
        handle = np.flatnonzero(x > np.quantile(x, 0.9))
        cons = DeformationConstraints(fixed, pts[fixed], handle,
                                      pts[handle] + np.array([0.2, 0.3, -0.1]))
        out, energies = arap_deform(pts, graph, pair, cons, iters=10, return_energy=True)
        assert len(energies) == 10
        for a, b in zip(energies, energies[1:]):
            assert b <= a * (1 + 1e-9)
        # constrained vertices are pinned exactly
        assert np.abs(out.points[fixed] - pts[fixed]).max() == 0.0

    def test_repeated_fixed_index_counts_once(self, bar):
        mesh, graph, pair = bar
        pts = mesh.vertices
        x = pts[:, 0]
        fixed = np.flatnonzero(x < np.quantile(x, 0.1))
        handle = np.flatnonzero(x > np.quantile(x, 0.9))
        target = pts[handle] + np.array([0.2, 0.3, -0.1])
        once = arap_deform(pts, graph, pair,
                           DeformationConstraints(fixed, pts[fixed], handle, target), iters=3)
        twice_idx = np.r_[fixed, fixed[::3]]
        twice = arap_deform(pts, graph, pair,
                            DeformationConstraints(twice_idx, pts[twice_idx], handle, target),
                            iters=3)
        assert np.array_equal(twice.points, once.points)

    def test_constraint_validation(self):
        with pytest.raises(ValueError):
            DeformationConstraints(np.zeros(0, dtype=int), np.zeros((0, 3)),
                                   np.array([1]), np.zeros((1, 3)))
        with pytest.raises(ValueError):
            DeformationConstraints(np.array([1]), np.zeros((1, 3)),
                                   np.array([1]), np.zeros((1, 3)))

    @pytest.mark.parametrize("which", ["fixed", "handle"])
    def test_non_finite_constraint_rejected(self, which):
        fixed, handle = np.zeros((1, 3)), np.zeros((1, 3))
        (fixed if which == "fixed" else handle)[0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            DeformationConstraints(np.array([0]), fixed, np.array([1]), handle)

    def test_rigid_motion_exact(self, bar):
        # every constraint moved by one rotation and translation: the rigid
        # motion of the whole cloud is the zero-energy optimum, and reaching
        # it needs the R_j term of the right-hand side
        mesh, graph, pair = bar
        pts = mesh.vertices
        axis = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
        k = np.cross(np.eye(3), axis)  # k @ v = axis x v
        theta = np.radians(30.0)
        rot = np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * k @ k
        moved = pts @ rot.T + np.array([0.3, -0.2, 0.5])
        idx = np.arange(0, len(pts), 3)
        half = len(idx) // 2
        cons = DeformationConstraints(idx[:half], moved[idx[:half]],
                                      idx[half:], moved[idx[half:]])
        out, energies = arap_deform(pts, graph, pair, cons, iters=30, return_energy=True)
        assert np.abs(out.points - moved).max() < 1e-8
        assert energies[-1] < 1e-12

    @pytest.mark.parametrize("kind", SHAPE_KINDS)
    def test_cotangent_rest_on_every_kind(self, kind):
        # the rest shape has zero energy on the operator's own 1-rings; the KNN
        # graph passed in must not be read, as its edges miss some of the mesh's
        mesh = make_shape(kind, 700, 0)
        pts = mesh.vertices
        x = pts[:, np.argmax(np.ptp(pts, axis=0))]
        fixed = np.flatnonzero(x <= np.quantile(x, 0.15))
        handle = np.flatnonzero(x >= np.quantile(x, 0.85))
        cons = DeformationConstraints(fixed, pts[fixed], handle, pts[handle])
        out = arap_deform(pts, build_knn(pts, k=8), cotangent_laplacian(mesh), cons, iters=10)
        assert np.abs(out.points - pts).max() < 1e-9

    @pytest.mark.parametrize("source", ["uniform", "learned"])
    def test_graph_argument_is_not_read(self, bar, source):
        mesh, graph, _ = bar
        pts = mesh.vertices
        if source == "uniform":
            pair = uniform_laplacian(graph)
        else:
            rng = np.random.default_rng(4)
            w = rng.uniform(0.5, 1.5, graph.num_edges // 2)
            w[::17] = 0.0  # dead edges stay in the 1-rings
            pair = assemble_learned(graph, w, rng.uniform(0.5, 1.5, graph.num_vertices))
        x = pts[:, 0]
        fixed = np.flatnonzero(x < np.quantile(x, 0.1))
        handle = np.flatnonzero(x > np.quantile(x, 0.9))
        cons = DeformationConstraints(fixed, pts[fixed], handle,
                                      pts[handle] + np.array([0.2, 0.3, -0.1]))
        runs = [arap_deform(pts, g, pair, cons, iters=3, return_energy=True)
                for g in (graph, build_knn(pts, k=4), None)]
        for out, energies in runs[1:]:
            assert np.array_equal(out.points, runs[0][0].points)
            assert energies == runs[0][1]

    def test_unpinned_component_raises(self):
        rng = np.random.default_rng(0)
        pts = np.r_[rng.standard_normal((200, 3)), rng.standard_normal((200, 3)) + 20.0]
        graph = build_knn(pts, k=8)
        idx = np.arange(0, 200, 10)  # the second cluster holds no constraint
        cons = DeformationConstraints(idx[:10], pts[idx[:10]], idx[10:], pts[idx[10:]] + 0.5)
        with pytest.raises(SolveError, match="component"):
            arap_deform(pts, graph, uniform_laplacian(graph), cons, iters=3)

    def test_negative_iters_rejected(self, bar):
        mesh, graph, pair = bar
        pts = mesh.vertices
        cons = DeformationConstraints([0], pts[:1], np.zeros(0, dtype=int), np.zeros((0, 3)))
        with pytest.raises(ValueError, match="iters must be"):
            arap_deform(pts, graph, pair, cons, iters=-2)
