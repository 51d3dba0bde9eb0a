import numpy as np
import pytest

from pointlap.geometry import make_shape, normalize_unit_box
from pointlap.laplacian import cotangent_laplacian
from pointlap.probes import (EVAL_PROBE_COUNT, SPATIAL_FREQUENCIES, ProbeMeta, ProbeSet,
                             eval_probe_set, load_probes, save_probes, spatial_probes,
                             spectral_probes)


@pytest.fixture(scope="module")
def gt_pair():
    mesh = normalize_unit_box(make_shape("sphere", 162, seed=0))
    return cotangent_laplacian(mesh), mesh


class TestSpectral:
    def test_count_and_scaling(self, gt_pair):
        # sphere eigenvalues are degenerate, so vectors are only defined up
        # to rotations within an eigenspace; verify the eigenpair property
        # and the 1/(lambda + 0.1) scale instead of comparing to a re-solve
        gt, _ = gt_pair
        probes = spectral_probes(gt, count=20)
        assert probes.count == 20
        lam = np.array([m.eigenvalue for m in probes.meta])
        assert np.all(np.diff(lam) >= -1e-12)
        for col, m in zip(probes.values.T, probes.meta):
            assert m.kind == "spectral"
            u = col * (m.eigenvalue + 0.1)
            assert abs(u @ (gt.mass * u) - 1.0) < 1e-8
            resid = gt.stiffness @ u - m.eigenvalue * gt.mass * u
            assert np.linalg.norm(resid) < 1e-8 * max(np.linalg.norm(gt.stiffness @ u), 1e-6)

    def test_unit_scale_at_lambda_point_nine(self):
        # 1/(0.9 + 0.1) = 1: a probe at eigenvalue 0.9 keeps its eigenvector scale
        assert abs(1.0 / (0.9 + 0.1) - 1.0) < 1e-15

    def test_zero_mode_excluded(self, gt_pair):
        gt, _ = gt_pair
        probes = spectral_probes(gt, count=12)
        assert all(m.eigenvalue > 1e-6 for m in probes.meta)
        assert np.all(probes.values.var(axis=0) > 0)

    def test_m_orthogonal_before_scaling(self, gt_pair):
        gt, _ = gt_pair
        probes = spectral_probes(gt, count=10)
        lam = np.array([m.eigenvalue for m in probes.meta])
        unscaled = probes.values * (lam + 0.1)
        gram = unscaled.T @ (gt.mass[:, None] * unscaled)
        assert np.abs(gram - np.eye(10)).max() < 1e-8

    def test_count_validation(self, gt_pair):
        gt, _ = gt_pair
        with pytest.raises(ValueError):
            spectral_probes(gt, count=gt.n)


class TestSpatial:
    def test_fourteen_probes(self):
        pts = np.random.default_rng(0).random((30, 3))
        probes = spatial_probes(pts, seed=1)
        assert probes.count == 14
        assert len(SPATIAL_FREQUENCIES) == 14
        assert SPATIAL_FREQUENCIES[0] == 1.0
        assert abs(SPATIAL_FREQUENCIES[13] - 2 ** 6.5) < 1e-12

    def test_amplitude_bound(self):
        pts = np.random.default_rng(1).random((100, 3)) * 10
        probes = spatial_probes(pts, seed=2)
        for col, meta in zip(probes.values.T, probes.meta):
            assert np.abs(col).max() <= 1.0 / (2.0 * meta.k) + 1e-15

    def test_formula_reconstruction(self):
        pts = np.random.default_rng(2).random((50, 3)) * 2 - 1
        probes = spatial_probes(pts, seed=3)
        for col, m in zip(probes.values.T, probes.meta):
            a, b, c = m.direction
            assert abs(a + b + c - 1.0) < 1e-12
            assert min(a, b, c) >= 0.0
            assert 0.75 <= m.psi <= 1.25
            assert 0.0 <= m.phi < 2 * np.pi
            t = pts @ np.array([a, b, c])
            expect = np.sin(m.k * m.psi * t + m.phi) / (2 * m.k)
            assert np.abs(col - expect).max() < 1e-12

    def test_zero_phase_at_origin(self):
        pts = np.zeros((5, 3))
        probes = spatial_probes(pts, seed=4)
        for col, m in zip(probes.values.T, probes.meta):
            assert np.abs(col - np.sin(m.phi) / (2 * m.k)).max() < 1e-15

    def test_deterministic(self):
        pts = np.random.default_rng(3).random((20, 3))
        a = spatial_probes(pts, seed=9)
        b = spatial_probes(pts, seed=9)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, spatial_probes(pts, seed=10).values)


class TestEvalSet:
    def test_counts_and_order(self, gt_pair):
        gt, mesh = gt_pair
        probes = eval_probe_set(gt, mesh.vertices)
        assert probes.count == EVAL_PROBE_COUNT == 112
        kinds = [m.kind for m in probes.meta]
        assert kinds[:64] == ["spectral"] * 64
        assert kinds[64:106] == ["sinusoid"] * 42
        assert kinds[106:] == ["polynomial"] * 6

    def test_eval_sinusoids_no_frequency_noise(self, gt_pair):
        gt, mesh = gt_pair
        probes = eval_probe_set(gt, mesh.vertices)
        sin_meta = probes.meta[64:106]
        assert all(m.psi == 1.0 for m in sin_meta)
        ks = sorted({m.k for m in sin_meta})
        assert ks == [1, 2, 4, 8, 16, 32, 64]
        assert sorted({m.phi for m in sin_meta}) == [0.0, np.pi / 2]

    def test_polynomial_value(self, gt_pair):
        gt, mesh = gt_pair
        pts = mesh.vertices.copy()
        pts[0] = [0.5, -0.25, 0.125]
        probes = eval_probe_set(gt, pts)
        row = probes.values[0]
        assert abs(row[106] - 0.5) < 1e-15       # x
        assert abs(row[109] - 0.25) < 1e-15      # x^2
        assert abs(row[111] - 0.125**2) < 1e-15  # z^2

    def test_precomputed_spectral_reused(self, gt_pair):
        gt, mesh = gt_pair
        spectral = spectral_probes(gt, count=64)
        probes = eval_probe_set(gt, mesh.vertices, spectral=spectral)
        assert np.array_equal(probes.values[:, :64], spectral.values)
        with pytest.raises(ValueError):
            eval_probe_set(gt, mesh.vertices, spectral=spectral.take(10))


class TestProbeIO:
    def test_binary_round_trip(self, gt_pair, tmp_path):
        gt, mesh = gt_pair
        probes = ProbeSet.concatenate([
            spectral_probes(gt, count=6), spatial_probes(mesh.vertices, seed=0)])
        path = tmp_path / "p.probes"
        save_probes(path, probes)
        again = load_probes(path)
        assert np.array_equal(again.values, probes.values)
        assert [m.kind for m in again.meta] == [m.kind for m in probes.meta]
        assert again.meta[0].eigenvalue == probes.meta[0].eigenvalue
        assert again.meta[6].direction == probes.meta[6].direction

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "x.probes"
        path.write_bytes(b"JUNKxxxx")
        with pytest.raises(ValueError):
            load_probes(path)

    def test_rejects_header_mismatch(self, tmp_path):
        path = tmp_path / "p.probes"
        probes = ProbeSet(np.arange(6.0).reshape(3, 2),
                          [ProbeMeta("spectral", eigenvalue=0.0), ProbeMeta("spectral", 1.0)])
        save_probes(path, probes)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="p.probes"):
            load_probes(path)
        # one meta record for two columns
        probes.meta = probes.meta[:1]
        save_probes(path, probes)
        with pytest.raises(ValueError, match="p.probes.*meta"):
            load_probes(path)

    def test_take_and_concatenate(self):
        a = ProbeSet(np.ones((4, 3)))
        b = ProbeSet(np.zeros((4, 2)))
        both = ProbeSet.concatenate([a, b])
        assert both.count == 5
        assert both.take(3).values.shape == (4, 3)
