import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pointlap.geometry import (SHAPE_KINDS, GeometryError, Mesh, PointCloud,
                               grid_plane, icosphere, make_shape,
                               normalize_unit_box, points_from_mesh)


def edge_use_counts(mesh):
    t = mesh.triangles
    e = np.r_[t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]
    e.sort(axis=1)
    _, counts = np.unique(e, axis=0, return_counts=True)
    return counts


class TestNormalize:
    def test_cube_zero_two(self):
        mesh = Mesh(np.array([[0.0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2],
                              [2, 2, 2]]), np.zeros((0, 3)))
        out = normalize_unit_box(mesh)
        assert np.allclose(out.vertices.min(axis=0), -1)
        assert np.allclose(out.vertices.max(axis=0), 1)

    def test_fixed_point(self):
        mesh = Mesh(np.array([[-1.0, -1, -1], [1, 1, 1], [0.25, -0.5, 0.75]]),
                    np.zeros((0, 3)))
        out = normalize_unit_box(mesh)
        assert np.allclose(out.vertices, mesh.vertices, atol=1e-15)

    def test_anisotropic_box(self):
        mesh = Mesh(np.array([[0.0, 0, 0], [4, 2, 2]]), np.zeros((0, 3)))
        out = normalize_unit_box(mesh)
        assert np.allclose(out.vertices, [[-1, -0.5, -0.5], [1, 0.5, 0.5]])

    def test_degenerate_rejected(self):
        mesh = Mesh(np.tile([[1.0, 2.0, 3.0]], (4, 1)), np.zeros((0, 3)))
        with pytest.raises(GeometryError):
            normalize_unit_box(mesh)

    @given(st.integers(0, 2**31 - 1))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        verts = rng.standard_normal((10, 3)) * rng.uniform(0.1, 50) + rng.uniform(-5, 5, 3)
        once = normalize_unit_box(Mesh(verts, np.zeros((0, 3))))
        twice = normalize_unit_box(once)
        assert np.abs(twice.vertices - once.vertices).max() < 1e-12


class TestPointsFromMesh:
    def test_identity_and_order(self):
        mesh = icosphere(1)
        cloud = points_from_mesh(mesh)
        assert len(cloud) == mesh.num_vertices
        assert np.array_equal(cloud.points, mesh.vertices)

    def test_empty_triangles_ok(self):
        mesh = Mesh(np.random.default_rng(0).random((7, 3)), np.zeros((0, 3)))
        assert len(points_from_mesh(mesh)) == 7

    def test_nonfinite_rejected(self):
        with pytest.raises(GeometryError):
            PointCloud(np.array([[0.0, 0.0, np.nan]]))


class TestGenerators:
    def test_sphere_topology(self):
        mesh = make_shape("sphere", 1000, seed=4)
        assert mesh.euler_characteristic() == 2

    def test_torus_topology(self):
        mesh = make_shape("torus", 900, seed=4)
        assert mesh.euler_characteristic() == 0

    @pytest.mark.parametrize("kind", SHAPE_KINDS)
    def test_valid_and_sized(self, kind):
        mesh = make_shape(kind, 700, seed=11)
        assert 300 <= mesh.num_vertices <= 1500
        assert mesh.triangle_areas().min() > 1e-12
        counts = edge_use_counts(mesh)
        if kind == "plane":
            assert set(counts.tolist()) <= {1, 2}
        else:
            assert set(counts.tolist()) == {2}  # watertight

    @pytest.mark.parametrize("kind", SHAPE_KINDS)
    def test_deterministic(self, kind):
        a = make_shape(kind, 600, seed=9)
        b = make_shape(kind, 600, seed=9)
        assert np.array_equal(a.vertices, b.vertices)
        assert np.array_equal(a.triangles, b.triangles)

    def test_seed_changes_output(self):
        a = make_shape("blended-blob", 600, seed=1)
        b = make_shape("blended-blob", 600, seed=2)
        assert not np.array_equal(a.vertices, b.vertices)

    def test_unknown_kind(self):
        with pytest.raises(GeometryError):
            make_shape("dodecahedron", 600, seed=0)

    def test_resolution_scales_counts(self):
        small = make_shape("torus", 520, seed=0).num_vertices
        large = make_shape("torus", 2500, seed=0).num_vertices
        assert large > 2 * small


class TestMeshBasics:
    def test_index_validation(self):
        with pytest.raises(GeometryError):
            Mesh(np.zeros((3, 3)), np.array([[0, 1, 9]]))

    def test_plane_grid_counts(self):
        mesh = grid_plane(4, 3)
        assert mesh.num_vertices == 5 * 4
        assert mesh.num_triangles == 4 * 3 * 2


def unique_rows_oracle(mesh):
    t = mesh.triangles
    e = np.r_[t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]
    e.sort(axis=1)
    return np.unique(e, axis=0)


class TestUndirectedEdges:
    @pytest.mark.parametrize("mesh", [
        icosphere(2),  # closed
        grid_plane(5, 4),  # open, with boundary edges
        Mesh(np.eye(4)[:, :3], [[0, 1, 2], [2, 1, 0], [1, 3, 2]]),  # a triangle in both orientations
    ], ids=["icosphere", "plane", "repeated-triangle"])
    def test_matches_unique_rows(self, mesh):
        edges = mesh.undirected_edges()
        assert edges.dtype == np.int64
        assert np.array_equal(edges, unique_rows_oracle(mesh))

    def test_empty(self):
        edges = Mesh(np.zeros((3, 3)), np.zeros((0, 3))).undirected_edges()
        assert edges.shape == (0, 2)
        assert edges.dtype == np.int64

    def test_nondegenerate_areas(self):
        mesh = grid_plane(2, 2)
        assert np.array_equal(mesh.nondegenerate_triangle_areas(), mesh.triangle_areas())
        with pytest.raises(GeometryError, match="no triangles"):
            Mesh(mesh.vertices, np.zeros((0, 3))).nondegenerate_triangle_areas()
        flat = Mesh(np.r_[mesh.vertices, mesh.vertices[:1]],
                    np.r_[mesh.triangles, [[0, 1, mesh.num_vertices]]])
        with pytest.raises(GeometryError, match=f"degenerate triangle {mesh.num_triangles}"):
            flat.nondegenerate_triangle_areas()
