import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import brute_knn
from pointlap import autodiff as ad
from pointlap.autodiff import Tape, Tensor
from pointlap.geometry import SHAPE_KINDS, make_shape
from pointlap.knn import (KnnGraph, build_knn, coarsen_by_voxel, graph_from_edges,
                          nearest_neighbors)
from pointlap.laplacian import uniform_laplacian
from pointlap.model import _pool


def edges_of(graph):
    return set(zip(graph.edge_src.tolist(), graph.edge_dst.tolist()))


def brute_symmetrized(pts, k):
    """Sorted (src, dst) rows of the symmetrized brute-force KNN relation."""
    nb = brute_knn(pts, k)
    src = np.repeat(np.arange(len(pts)), k)
    return np.unique(np.r_[np.stack([src, nb.ravel()], 1), np.stack([nb.ravel(), src], 1)],
                     axis=0)


def integer_lattice(m):
    return np.array([[x, y, z] for x in range(m) for y in range(m) for z in range(m)],
                    dtype=np.float64)


class TestBuildKnn:
    def test_two_points(self):
        g = build_knn(np.array([[0.0, 0, 0], [1, 0, 0]]), k=1)
        assert edges_of(g) == {(0, 1), (1, 0)}
        assert g.degree.tolist() == [1, 1]

    def test_collinear_symmetrization(self):
        pts = np.array([[0.0, 0, 0], [1, 0, 0], [3, 0, 0]])
        g = build_knn(pts, k=1)
        # nearest sets: 0->1, 1->0, 2->1; symmetrization adds (1, 2)
        assert edges_of(g) == {(0, 1), (1, 0), (1, 2), (2, 1)}

    def test_tie_break_by_index(self):
        # index 1 and index 2 are equidistant from 0; the smaller index wins
        from pointlap.knn import nearest_neighbors

        pts = np.array([[0.0, 0, 0], [-1, 0, 0], [1, 0, 0]])
        assert nearest_neighbors(pts, 1)[0].tolist() == [1]
        grid = np.array([[x, y, z] for x in range(4) for y in range(4) for z in range(4)],
                        dtype=np.float64)
        nbrs = nearest_neighbors(grid, 8)
        brute = brute_knn(grid, 8)
        for i in range(len(grid)):
            assert nbrs[i].tolist() == brute[i].tolist()

    @pytest.mark.parametrize("n,k", [(50, 8), (200, 8), (120, 4)])
    def test_matches_brute_force(self, n, k):
        rng = np.random.default_rng(n + k)
        pts = rng.random((n, 3))
        g = build_knn(pts, k=k)
        nb = brute_knn(pts, k)
        src = np.repeat(np.arange(n), k)
        expected = np.unique(
            np.r_[np.stack([src, nb.ravel()], 1), np.stack([nb.ravel(), src], 1)], axis=0)
        assert np.array_equal(expected[:, 0], g.edge_src)
        assert np.array_equal(expected[:, 1], g.edge_dst)

    def test_ties_beyond_first_query_widen(self):
        # the centre of the lattice shell max|p| = 2 has 6 points at d2 = 4 and
        # 24 tied at d2 = 5, more than the first k + 9 candidates hold; the
        # shuffle puts the smallest tied indices anywhere in the tree
        grid = integer_lattice(5) - 2.0
        shell = np.r_[grid[np.abs(grid).max(axis=1) == 2], np.zeros((1, 3))]
        pts = shell[np.random.default_rng(7).permutation(len(shell))]
        assert np.array_equal(nearest_neighbors(pts, 8), brute_knn(pts, 8))

    @pytest.mark.parametrize("cloud", [*SHAPE_KINDS, "lattice-with-duplicates"])
    def test_structured_clouds_match_brute_force(self, cloud):
        if cloud in SHAPE_KINDS:
            pts = make_shape(cloud, 200, seed=4).vertices
        else:
            grid = integer_lattice(5)
            pts = np.r_[grid, grid[::4], grid[::9]]
        g = build_knn(pts, k=8)
        expected = brute_symmetrized(pts, 8)
        assert np.array_equal(expected[:, 0], g.edge_src)
        assert np.array_equal(expected[:, 1], g.edge_dst)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            build_knn(np.zeros((5, 3)), k=8)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        # k = 0 would widen the candidate query round after round up to all n points
        with pytest.raises(ValueError, match="k must be at least 1"):
            build_knn(np.random.default_rng(0).random((30, 3)), k=k)

    def test_nonfinite_rejected(self):
        pts = np.zeros((10, 3))
        pts[3, 1] = np.inf
        with pytest.raises(ValueError):
            build_knn(pts, k=2)

    @given(st.integers(0, 10_000))
    def test_symmetry_and_degree(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((40, 3))
        g = build_knn(pts, k=5)
        e = edges_of(g)
        assert all((j, i) in e for i, j in e)
        assert np.all(g.degree >= 5)
        assert not any(i == j for i, j in e)

    def test_sparsity_near_table_value(self):
        # mean nonzeros per row (degree + self loop) ~ 9.8 at k = 8
        mesh = make_shape("blended-blob", 642, seed=2)
        g = build_knn(mesh.vertices, k=8)
        assert 9.0 <= uniform_laplacian(g).sparsity() <= 11.0

    def test_determinism(self):
        rng = np.random.default_rng(5)
        pts = rng.random((100, 3))
        a = build_knn(pts, k=8)
        b = build_knn(pts.copy(), k=8)
        assert np.array_equal(a.edge_src, b.edge_src)
        assert np.array_equal(a.edge_dst, b.edge_dst)

    def test_incidence_is_exact_edge_difference(self):
        g = build_knn(make_shape("blended-blob", 642, seed=6).vertices, k=8)
        ui, uj = g.undirected_pairs()
        f = np.random.default_rng(2).standard_normal((g.num_vertices, 3))
        assert g.incidence.shape == (len(ui), g.num_vertices)
        assert np.array_equal(g.incidence @ f, f[ui] - f[uj])
        assert np.array_equal(g.incidence @ f[:, 0], f[ui, 0] - f[uj, 0])
        assert g.incidence is g.incidence


class TestCoarsening:
    def test_single_voxel(self):
        rng = np.random.default_rng(0)
        pts = rng.random((20, 3)) * 0.05
        g = build_knn(pts, k=3)
        level = coarsen_by_voxel(g, voxel_size=1.0)
        assert level.num_coarse == 1
        assert np.allclose(level.coarse.positions[0], pts.mean(axis=0))

    def test_corners_bijective(self):
        corners = np.array([[x, y, z] for x in (-1.0, 1.0) for y in (-1.0, 1.0)
                            for z in (-1.0, 1.0)])
        g = build_knn(corners, k=3)
        level = coarsen_by_voxel(g, voxel_size=1.0)
        assert level.num_coarse == 8
        assert sorted(level.mapping.tolist()) == list(range(8))

    def test_voxel_covering_bbox_gives_one_vertex(self):
        rng = np.random.default_rng(1)
        pts = rng.random((30, 3)) * 2 - 1
        g = build_knn(pts, k=3)
        extent = (pts.max(0) - pts.min(0)).max()
        level = coarsen_by_voxel(g, voxel_size=extent * 1.5)
        assert level.num_coarse == 1

    def test_pool_mean_and_unpool_roundtrip(self):
        rng = np.random.default_rng(2)
        pts = rng.random((20, 3))
        g = build_knn(pts, k=3)
        level = coarsen_by_voxel(g, voxel_size=0.3)
        feats = rng.standard_normal((20, 5))
        pooled = _pool(Tape(), Tensor(feats), level).data
        # naive grouping oracle
        for c in range(level.num_coarse):
            members = np.flatnonzero(level.mapping == c)
            assert np.abs(pooled[c] - feats[members].mean(axis=0)).max() < 1e-12
        # constant-per-voxel field survives unpool(pool(.))
        const = pooled[level.mapping]
        again = ad.gather_rows(Tape(), _pool(Tape(), Tensor(const), level), level.mapping)
        assert np.abs(again.data - const).max() < 1e-12

    def test_bijective_pool_is_permutation(self):
        corners = np.array([[x, y, z] for x in (-1.0, 1.0) for y in (-1.0, 1.0)
                            for z in (-1.0, 1.0)])
        g = build_knn(corners, k=3)
        level = coarsen_by_voxel(g, voxel_size=1.0)
        feats = np.arange(8.0)[:, None]
        pooled = _pool(Tape(), Tensor(feats), level).data
        assert sorted(pooled.ravel().tolist()) == list(range(8))

    def test_translation_covariant(self):
        rng = np.random.default_rng(3)
        pts = rng.random((50, 3))
        g = build_knn(pts, k=4)
        shift = np.array([12.3, -4.56, 0.789])
        g2 = KnnGraph(pts + shift, g.edge_src, g.edge_dst, g.degree, k=4)
        a = coarsen_by_voxel(g, 0.25)
        b = coarsen_by_voxel(g2, 0.25)
        assert np.array_equal(a.mapping, b.mapping)

    def test_shape_validation(self):
        rng = np.random.default_rng(4)
        g = build_knn(rng.random((20, 3)), k=3)
        level = coarsen_by_voxel(g, 0.3)
        with pytest.raises(ValueError):
            _pool(Tape(), Tensor(np.zeros((7, 2))), level)
        # a coarse array with too few rows leaves some of the mapping out of range
        with pytest.raises(IndexError):
            ad.gather_rows(Tape(), Tensor(np.zeros((level.num_coarse - 1, 2))), level.mapping)

    def test_coarse_edges_are_edge_images(self):
        rng = np.random.default_rng(5)
        pts = rng.random((40, 3))
        g = build_knn(pts, k=4)
        level = coarsen_by_voxel(g, 0.4)
        expected = set()
        for i, j in zip(g.edge_src, g.edge_dst):
            a, b = level.mapping[i], level.mapping[j]
            if a != b:
                expected.add((int(a), int(b)))
        assert edges_of(level.coarse) == expected

    @pytest.mark.parametrize("voxel_size,anchor", [(0.2, np.array([0.5, 0.4, 0.6])),
                                                   (1e-7, None)])
    def test_mapping_matches_unique_rows(self, voxel_size, anchor):
        # an anchor inside the cloud gives negative keys; at 1e-7 on a unit
        # cloud three keys packed into one int64 would overflow
        pts = np.random.default_rng(6).random((300, 3))
        g = build_knn(pts, k=4)
        origin = pts.min(axis=0) if anchor is None else anchor
        keys = np.floor((pts - origin) / voxel_size).astype(np.int64)
        uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
        level = coarsen_by_voxel(g, voxel_size, anchor=anchor)
        assert (keys < 0).any() == (anchor is not None)
        assert level.num_coarse == len(uniq)
        assert np.array_equal(level.mapping, inverse.ravel())

    def test_invalid_voxel_size(self):
        g = build_knn(np.random.default_rng(0).random((10, 3)), k=2)
        for voxel_size in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                coarsen_by_voxel(g, voxel_size)


def test_graph_from_edges_dedup():
    pos = np.zeros((3, 3))
    g = graph_from_edges(pos, [0, 0, 1, 2], [1, 1, 0, 2], k=1)
    assert edges_of(g) == {(0, 1), (1, 0)}
