import numpy as np
import pytest

from pointlap.geometry import GeometryError, Mesh, grid_plane, make_shape
from pointlap.knn import build_knn
from pointlap.laplacian import (LaplacianPair, assemble_learned,
                                cotangent_laplacian, heat_kernel_laplacian,
                                uniform_laplacian)


@pytest.fixture(scope="module")
def blob_graph():
    mesh = make_shape("blended-blob", 642, seed=6)
    return build_knn(mesh.vertices, k=8)


class TestCotangent:
    def test_square_diagonal_weight_zero(self):
        mesh = Mesh(np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]),
                    np.array([[0, 1, 2], [0, 2, 3]]))
        dense = cotangent_laplacian(mesh).stiffness.to_dense()
        assert abs(dense[0, 2]) < 1e-14

    def test_equilateral_half_convention(self):
        mesh = Mesh(np.array([[0.0, 0, 0], [1, 0, 0], [0.5, np.sqrt(3) / 2, 0]]),
                    np.array([[0, 1, 2]]))
        dense = cotangent_laplacian(mesh).stiffness.to_dense()
        expected = 1.0 / (2.0 * np.sqrt(3.0))
        for i, j in ((0, 1), (1, 2), (0, 2)):
            assert abs(-dense[i, j] - expected) < 1e-12

    def test_zero_row_sums(self):
        mesh = make_shape("torus", 700, seed=1)
        pair = cotangent_laplacian(mesh)
        rows = pair.stiffness @ np.ones(pair.n)
        assert np.abs(rows).max() < 1e-10

    def test_mass_mean_one_and_positive(self):
        pair = cotangent_laplacian(make_shape("cylinder", 650, seed=2))
        assert np.all(pair.mass > 0)
        assert abs(pair.mass.mean() - 1.0) < 1e-12

    def test_exact_symmetry(self):
        pair = cotangent_laplacian(make_shape("blended-blob", 642, seed=7))
        assert pair.stiffness.max_asymmetry() == 0.0

    def test_psd_even_with_obtuse_triangles(self):
        pair = cotangent_laplacian(make_shape("blended-blob", 642, seed=8))
        rng = np.random.default_rng(0)
        for _ in range(20):
            f = rng.standard_normal(pair.n)
            assert f @ (pair.stiffness @ f) >= -1e-9

    def test_degenerate_triangle_named(self):
        mesh = Mesh(np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0]]),
                    np.array([[0, 3, 1], [0, 1, 2]]))
        with pytest.raises(GeometryError) as err:
            cotangent_laplacian(mesh)
        assert "1" in str(err.value)

    def test_no_triangles_rejected(self):
        with pytest.raises(GeometryError):
            cotangent_laplacian(Mesh(np.zeros((3, 3)), np.zeros((0, 3))))


class TestUniform:
    def test_path_graph_matrix(self):
        pts = np.array([[0.0, 0, 0], [1, 0, 0], [3, 0, 0]])
        pair = uniform_laplacian(build_knn(pts, k=1))
        assert np.array_equal(pair.stiffness.to_dense(),
                              [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
        assert np.array_equal(pair.mass, np.ones(3))

    def test_complete_graph_diag_and_spectrum(self):
        pts = np.array([[0.0, 0, 0], [1, 0, 0], [0.5, 1, 0]])
        pair = uniform_laplacian(build_knn(pts, k=2))
        dense = pair.stiffness.to_dense()
        assert np.array_equal(np.diag(dense), [2, 2, 2])
        w = np.linalg.eigvalsh(dense)
        assert np.allclose(w, [0, 3, 3], atol=1e-12)


class TestHeatKernel:
    def test_formula_values(self):
        pts = np.array([[0.0, 0, 0], [2.0, 0, 0], [5.0, 0, 0]])
        pair = heat_kernel_laplacian(build_knn(pts, k=1), t=1.0)
        dense = pair.stiffness.to_dense()
        assert abs(-dense[0, 1] - np.exp(-1.0)) < 1e-12

    def test_identical_points_weight_one(self):
        pts = np.array([[0.0, 0, 0], [0.0, 0, 0], [9.0, 0, 0]])
        pair = heat_kernel_laplacian(build_knn(pts, k=1), t=0.5)
        assert abs(-pair.stiffness.to_dense()[0, 1] - 1.0) < 1e-14

    def test_monotone_in_distance(self, blob_graph):
        pair = heat_kernel_laplacian(blob_graph, t=0.01)
        ei, ej = blob_graph.undirected_pairs()
        d2 = np.sum((blob_graph.positions[ei] - blob_graph.positions[ej]) ** 2, axis=1)
        dense_w = -pair.stiffness.to_dense()[ei, ej]
        rng = np.random.default_rng(1)
        for _ in range(100):
            a, b = rng.integers(0, len(ei), 2)
            if d2[a] < d2[b]:
                assert dense_w[a] >= dense_w[b]

    def test_invalid_t(self, blob_graph):
        with pytest.raises(ValueError):
            heat_kernel_laplacian(blob_graph, t=0.0)

    def test_nan_t_rejected(self, blob_graph):
        with pytest.raises(ValueError, match="finite"):
            heat_kernel_laplacian(blob_graph, t=float("nan"))

    def test_default_t_is_mean_squared_edge_length(self, blob_graph):
        ei, ej = blob_graph.undirected_pairs()
        t = float(np.mean(np.sum((blob_graph.positions[ei] - blob_graph.positions[ej]) ** 2,
                                 axis=1)))
        default = heat_kernel_laplacian(blob_graph)
        explicit = heat_kernel_laplacian(blob_graph, t=t)
        assert np.array_equal(default.stiffness.data, explicit.stiffness.data)
        assert np.array_equal(default.mass, explicit.mass)

    def test_mass_is_weight_row_sum_normalized(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.5, 0, 0]])
        g = build_knn(pts, k=1)
        pair = heat_kernel_laplacian(g, t=1.0)
        w01 = np.exp(-1.0 / 4.0)
        w12 = np.exp(-1.5**2 / 4.0)
        raw = np.array([w01, w01 + w12, w12])
        assert np.allclose(pair.mass, raw / raw.mean(), atol=1e-14)


class TestAssembleLearned:
    def test_single_edge(self):
        g = build_knn(np.array([[0.0, 0, 0], [1, 0, 0]]), k=1)
        pair = assemble_learned(g, np.array([2.0]), np.array([1.0, 1.0]))
        assert np.array_equal(pair.stiffness.to_dense(), [[2, -2], [-2, 2]])

    def test_zero_weights_zero_matrix(self):
        g = build_knn(np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]]), k=1)
        ei, _ = g.undirected_pairs()
        pair = assemble_learned(g, np.zeros(len(ei)), np.ones(3))
        assert np.abs(pair.stiffness.to_dense()).max() == 0.0

    def test_quadratic_form_oracle(self, blob_graph):
        rng = np.random.default_rng(3)
        ei, ej = blob_graph.undirected_pairs()
        w = rng.random(len(ei))
        pair = assemble_learned(blob_graph, w, rng.random(blob_graph.num_vertices) + 0.5)
        for _ in range(20):
            f = rng.standard_normal(blob_graph.num_vertices)
            quad = f @ (pair.stiffness @ f)
            direct = np.sum(w * (f[ei] - f[ej]) ** 2)
            assert abs(quad - direct) < 1e-10 * max(1.0, abs(direct))

    def test_locality_matches_degree(self, blob_graph):
        rng = np.random.default_rng(4)
        ei, _ = blob_graph.undirected_pairs()
        pair = assemble_learned(blob_graph, rng.random(len(ei)) + 0.1,
                                np.ones(blob_graph.num_vertices))
        assert np.array_equal(np.diff(pair.stiffness.indptr), blob_graph.degree + 1)
        assert 9.0 <= pair.sparsity() <= 11.0

    def test_incidence_product_is_the_stiffness(self, blob_graph):
        # B^T diag(w) B, densely, pins the sign convention L_ij = -w_ij
        rng = np.random.default_rng(5)
        b = blob_graph.incidence.toarray()
        w = rng.random(b.shape[0])
        pair = assemble_learned(blob_graph, w, rng.random(blob_graph.num_vertices) + 0.5)
        dense = pair.stiffness.to_dense()
        assert np.abs(b.T @ (w[:, None] * b) - dense).max() <= 1e-15 * np.abs(dense).max()

    def test_edges_are_the_graph_pairs_and_weights(self, blob_graph):
        # w_ij = -L_ij over the stored upper triangle, in the graph's pair
        # order, with a zero (dead) weight kept as an edge
        ui, uj = blob_graph.undirected_pairs()
        w = np.random.default_rng(2).random(len(ui))
        w[::10] = 0.0
        pair = assemble_learned(blob_graph, w, np.ones(blob_graph.num_vertices))
        ei, ej, ew = pair.edges()
        assert np.array_equal(ei, ui) and np.array_equal(ej, uj)
        assert np.array_equal(ew, w)

    def test_nan_weight_rejected(self, blob_graph):
        w = np.ones(len(blob_graph.undirected_pairs()[0]))
        w[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            assemble_learned(blob_graph, w, np.ones(blob_graph.num_vertices))

    def test_nan_mass_rejected(self, blob_graph):
        m = np.ones(blob_graph.num_vertices)
        m[7] = np.nan
        with pytest.raises(ValueError, match="finite"):
            assemble_learned(blob_graph, np.ones(len(blob_graph.undirected_pairs()[0])), m)

    def test_validation(self, blob_graph):
        ei, _ = blob_graph.undirected_pairs()
        n = blob_graph.num_vertices
        with pytest.raises(ValueError):
            assemble_learned(blob_graph, -np.ones(len(ei)), np.ones(n))
        with pytest.raises(ValueError):
            assemble_learned(blob_graph, np.ones(len(ei) - 1), np.ones(n))
        with pytest.raises(ValueError):
            assemble_learned(blob_graph, np.ones(len(ei)), np.zeros(n))


class TestApply:
    def test_constant_killed(self):
        pair = cotangent_laplacian(make_shape("sphere", 642, seed=0))
        out = pair.apply(np.ones(pair.n))
        assert np.abs(out).max() < 1e-10

    def test_two_vertex_example(self):
        from pointlap.sparse import SparseMatrix

        stiffness = SparseMatrix.from_coo(2, [0, 0, 1, 1], [0, 1, 0, 1],
                                          [1.0, -1.0, -1.0, 1.0])
        pair = LaplacianPair(stiffness, np.ones(2), tag="uniform")
        assert np.array_equal(pair.apply(np.array([1.0, 0.0])), [1.0, -1.0])

    def test_linear_function_harmonic_on_plane(self):
        mesh = grid_plane(40, 40)
        pair = cotangent_laplacian(mesh)
        f = 0.3 * mesh.vertices[:, 0] - 1.7 * mesh.vertices[:, 1]
        out = pair.apply(f)
        xy = mesh.vertices[:, :2]
        interior = np.all(np.abs(xy) < 1.0 - 2.1 / 40, axis=1)
        assert np.abs(out[interior]).max() < 1e-6

    def test_dim_mismatch(self):
        pair = uniform_laplacian(build_knn(np.random.default_rng(0).random((10, 3)), k=2))
        with pytest.raises(ValueError):
            pair.apply(np.ones(11))
