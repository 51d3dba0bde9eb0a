import struct

import numpy as np
import pytest

from helpers import fail_on_second_write
from pointlap import meshio
from pointlap.geometry import icosphere, make_shape
from pointlap.laplacian import cotangent_laplacian
from pointlap.meshio import (MeshParseError, load_mesh, load_obj, load_ply,
                             save_obj, save_ply, scalar_to_colors)


def test_minimal_obj(tmp_path):
    path = tmp_path / "tri.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    mesh = load_obj(path)
    assert mesh.num_vertices == 3
    assert mesh.num_triangles == 1


def test_obj_out_of_range_index(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n")
    with pytest.raises(MeshParseError) as err:
        load_obj(path)
    assert "line 4" in str(err.value)


def test_obj_bad_vertex_reports_line(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 zero 0\n")
    with pytest.raises(MeshParseError) as err:
        load_obj(path)
    assert "line 1" in str(err.value)


def test_obj_round_trip_bit_identical(tmp_path):
    mesh = make_shape("box", 600, seed=5)
    path = tmp_path / "cube.obj"
    save_obj(path, mesh)
    again = load_obj(path)
    assert np.array_equal(again.vertices, mesh.vertices)
    assert np.array_equal(again.triangles, mesh.triangles)


def test_obj_fan_triangulation_and_slashes(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text(
        "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1/1 2/2 3/3 4/4\n")
    mesh = load_obj(path)
    assert mesh.num_triangles == 2
    assert np.array_equal(mesh.triangles, [[0, 1, 2], [0, 2, 3]])


def test_obj_negative_indices(tmp_path):
    path = tmp_path / "neg.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n")
    assert np.array_equal(load_obj(path).triangles, [[0, 1, 2]])


@pytest.mark.parametrize("binary", [False, True])
def test_ply_round_trip(tmp_path, binary):
    mesh = icosphere(1)
    path = tmp_path / "m.ply"
    save_ply(path, mesh, binary=binary)
    again = load_ply(path)
    tol = 1e-6 if binary else 0.0  # binary stores float32
    assert np.abs(again.vertices - mesh.vertices).max() <= tol
    assert np.array_equal(again.triangles, mesh.triangles)


@pytest.mark.parametrize("binary", [False, True])
def test_ply_points_with_colors(tmp_path, binary):
    rng = np.random.default_rng(0)
    pts = rng.random((20, 3))
    colors = scalar_to_colors(pts[:, 0])
    path = tmp_path / "p.ply"
    save_ply(path, pts, colors=colors, binary=binary)
    again = load_ply(path)
    assert again.num_vertices == 20
    assert again.num_triangles == 0


def test_ply_rejects_garbage(tmp_path):
    path = tmp_path / "x.ply"
    path.write_bytes(b"not a ply at all")
    with pytest.raises(MeshParseError):
        load_ply(path)


def test_load_mesh_dispatch(tmp_path):
    mesh = icosphere(0)
    obj = tmp_path / "m.obj"
    ply = tmp_path / "m.ply"
    save_obj(obj, mesh)
    save_ply(ply, mesh)
    assert load_mesh(obj).num_vertices == mesh.num_vertices
    assert load_mesh(ply).num_vertices == mesh.num_vertices
    with pytest.raises(FileNotFoundError):
        load_mesh(tmp_path / "missing.obj")


def test_binary_ply_layout(tmp_path):
    """Per vertex 3 little-endian float32 and 3 uchar; per face uchar 3 and 3 int32."""
    mesh = icosphere(1)
    colors = scalar_to_colors(mesh.vertices[:, 2])
    path = tmp_path / "m.ply"
    save_ply(path, mesh, colors=colors, binary=True)
    blob = path.read_bytes()
    body = blob[blob.index(b"end_header\n") + len(b"end_header\n"):]
    expected = b"".join(struct.pack("<3f3B", *v, *c)
                        for v, c in zip(mesh.vertices.tolist(), colors.tolist()))
    expected += b"".join(struct.pack("<B3i", 3, *t) for t in mesh.triangles.tolist())
    assert body == expected


@pytest.mark.parametrize("fmt", ["mtx", "binary-ply"])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, fmt):
    """A save that fails part way leaves the old bytes and no partial file."""
    from pointlap.sparse import save_matrix_market

    path = tmp_path / ("L.mtx" if fmt == "mtx" else "points.ply")

    def save(mesh):
        if fmt == "mtx":
            save_matrix_market(path, cotangent_laplacian(mesh).stiffness)
        else:
            save_ply(path, mesh, binary=True)

    save(icosphere(1))
    before = path.read_bytes()
    fail_on_second_write(monkeypatch, meshio)
    with pytest.raises(OSError, match="disk full"):
        save(icosphere(2))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


class TestColors:
    def test_shape_and_dtype(self):
        c = scalar_to_colors(np.linspace(0, 1, 100))
        assert c.shape == (100, 3)
        assert c.dtype == np.uint8

    def test_constant_field(self):
        c = scalar_to_colors(np.full(5, 3.7))
        assert np.all(c == c[0])

    def test_ends_of_table_differ(self):
        c = scalar_to_colors(np.array([0.0, 1.0]))
        assert not np.array_equal(c[0], c[1])

    def test_explicit_range_clips(self):
        c = scalar_to_colors(np.array([-10.0, 0.5, 10.0]), vmin=0.0, vmax=1.0)
        assert np.array_equal(c[0], scalar_to_colors(np.array([0.0, 1.0]))[0])
