"""Mesh / point-cloud types, normalization, and procedural desk-scale shapes.

Shape generators produce manifold, watertight meshes (the plane keeps its
boundary on purpose) with roughly uniform triangulations. Every generator is
deterministic in (kind, resolution, seed); a seeded rotation and seeded
dimension jitter put the output in generic position so downstream KNN
construction never sees exact distance ties.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SHAPE_KINDS = ("sphere", "torus", "box", "plane", "cylinder", "blended-blob")


class GeometryError(ValueError):
    pass


@dataclass
class Mesh:
    vertices: np.ndarray  # (n, 3) float64
    triangles: np.ndarray  # (m, 3) int64

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if self.triangles.size and (
            self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices)
        ):
            raise GeometryError("triangle index out of range")

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    def undirected_edges(self) -> np.ndarray:
        """Unique undirected edges (e, 2) int64, lower index first.

        Rows are in lexicographic (lo, hi) order, as `np.unique(..., axis=0)`
        gives them: each edge is one key lo * n + hi, and the keys are sorted
        and deduplicated (a sort is several times faster than `np.unique`'s
        hashing here).
        """
        t = self.triangles
        a, b = t.ravel(), t[:, [1, 2, 0]].ravel()  # the three sides of each triangle
        n = max(self.num_vertices, 1)
        key = np.minimum(a, b) * n + np.maximum(a, b)
        key.sort()
        return np.column_stack(np.divmod(key[np.diff(key, prepend=-1) != 0], n))

    def euler_characteristic(self) -> int:
        return self.num_vertices - len(self.undirected_edges()) + self.num_triangles

    def triangle_areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        return 0.5 * np.linalg.norm(
            np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1
        )

    def corner_cotangents(self) -> np.ndarray:
        """(m, 3) cotangent of each triangle's angle at corners 0, 1 and 2:
        dot(u, w) / |u x w| for the two edges u, w leaving the corner."""
        p = self.vertices[self.triangles]
        cots = np.empty((self.num_triangles, 3))
        for c in range(3):
            u, w = p[:, (c + 1) % 3] - p[:, c], p[:, (c + 2) % 3] - p[:, c]
            cots[:, c] = np.einsum("ij,ij->i", u, w) / np.linalg.norm(np.cross(u, w), axis=1)
        return cots

    def nondegenerate_triangle_areas(self) -> np.ndarray:
        """Triangle areas; GeometryError names a triangle of area <= 1e-14, or there are none."""
        if self.num_triangles == 0:
            raise GeometryError("mesh has no triangles")
        areas = self.triangle_areas()
        bad = np.flatnonzero(areas <= 1e-14)
        if bad.size:
            raise GeometryError(f"degenerate triangle {int(bad[0])} (area ~ 0)")
        return areas


@dataclass
class PointCloud:
    points: np.ndarray  # (n, 3) float64

    def __post_init__(self):
        self.points = np.ascontiguousarray(self.points, dtype=np.float64).reshape(-1, 3)
        if not np.all(np.isfinite(self.points)):
            raise GeometryError("point cloud contains non-finite coordinates")

    def __len__(self) -> int:
        return len(self.points)


def points_from_mesh(mesh: Mesh) -> PointCloud:
    """Drop connectivity; point i is vertex i, order preserved."""
    return PointCloud(mesh.vertices.copy())


def normalize_unit_box(mesh: Mesh) -> Mesh:
    """Center on the bounding box and scale the largest extent to [-1, 1]."""
    if mesh.num_vertices == 0:
        raise GeometryError("cannot normalize an empty mesh")
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    extent = float((hi - lo).max())
    if extent <= 0.0:
        raise GeometryError("degenerate mesh: all vertices coincide")
    center = 0.5 * (lo + hi)
    verts = (mesh.vertices - center) * (2.0 / extent)
    return Mesh(verts, mesh.triangles.copy())


# -- generators ---------------------------------------------------------------

def _rotation_matrix(rng: np.random.Generator) -> np.ndarray:
    # QR of a Gaussian matrix, sign-fixed, det forced to +1
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def icosphere(subdivisions: int) -> Mesh:
    """Subdivided icosahedron projected to the unit sphere."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=np.float64,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    tris = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    verts_list = list(verts)
    for _ in range(subdivisions):
        midpoint: dict[tuple[int, int], int] = {}

        def mid(a: int, b: int) -> int:
            key = (a, b) if a < b else (b, a)
            if key not in midpoint:
                p = verts_list[a] + verts_list[b]
                verts_list.append(p / np.linalg.norm(p))
                midpoint[key] = len(verts_list) - 1
            return midpoint[key]

        new_tris = []
        for a, b, c in tris:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_tris += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        tris = np.asarray(new_tris, dtype=np.int64)
    return Mesh(np.asarray(verts_list), tris)


def grid_plane(nx: int, ny: int, size_x: float = 2.0, size_y: float = 2.0) -> Mesh:
    """Open rectangular grid in the z = 0 plane with (nx+1)(ny+1) vertices."""
    xs = np.linspace(-size_x / 2, size_x / 2, nx + 1)
    ys = np.linspace(-size_y / 2, size_y / 2, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    verts = np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)], axis=1)

    def vid(i, j):
        return i * (ny + 1) + j

    tris = []
    for i in range(nx):
        for j in range(ny):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            tris += [[a, b, c], [a, c, d]]
    return Mesh(verts, np.asarray(tris, dtype=np.int64))


def torus_mesh(nu: int, nv: int, r_major: float = 1.0, r_minor: float = 0.35) -> Mesh:
    us = 2 * np.pi * np.arange(nu) / nu
    vs = 2 * np.pi * np.arange(nv) / nv
    verts = np.empty((nu * nv, 3))
    for i, u in enumerate(us):
        ring = (r_major + r_minor * np.cos(vs))[:, None] * np.array([np.cos(u), np.sin(u), 0.0])
        ring[:, 2] = r_minor * np.sin(vs)
        verts[i * nv:(i + 1) * nv] = ring
    tris = []
    for i in range(nu):
        for j in range(nv):
            a = i * nv + j
            b = ((i + 1) % nu) * nv + j
            c = ((i + 1) % nu) * nv + (j + 1) % nv
            d = i * nv + (j + 1) % nv
            tris += [[a, b, c], [a, c, d]]
    return Mesh(verts, np.asarray(tris, dtype=np.int64))


def box_mesh(dims, spacing: float) -> Mesh:
    """Watertight axis-aligned box surface with ~uniform grid faces."""
    dims = np.asarray(dims, dtype=np.float64)
    counts = np.maximum(1, np.round(dims / spacing).astype(int))
    nx, ny, nz = (int(c) for c in counts)
    step = dims / counts
    index: dict[tuple[int, int, int], int] = {}
    verts: list[np.ndarray] = []

    def vid(i, j, k):
        key = (i, j, k)
        if key not in index:
            index[key] = len(verts)
            verts.append(np.array([i * step[0], j * step[1], k * step[2]]) - dims / 2)
        return index[key]

    tris: list[list[int]] = []

    def face(corner_fn, n1, n2, flip):
        for a in range(n1):
            for b in range(n2):
                q = [vid(*corner_fn(a, b)), vid(*corner_fn(a + 1, b)),
                     vid(*corner_fn(a + 1, b + 1)), vid(*corner_fn(a, b + 1))]
                t1, t2 = [q[0], q[1], q[2]], [q[0], q[2], q[3]]
                if flip:
                    t1, t2 = t1[::-1], t2[::-1]
                tris.extend([t1, t2])

    face(lambda a, b: (a, b, 0), nx, ny, True)
    face(lambda a, b: (a, b, nz), nx, ny, False)
    face(lambda a, b: (a, 0, b), nx, nz, False)
    face(lambda a, b: (a, ny, b), nx, nz, True)
    face(lambda a, b: (0, a, b), ny, nz, True)
    face(lambda a, b: (nx, a, b), ny, nz, False)
    return Mesh(np.asarray(verts), np.asarray(tris, dtype=np.int64))


def cylinder_mesh(n_around: int, n_height: int, n_cap_rings: int,
                  radius: float = 0.5, height: float = 2.0) -> Mesh:
    """Closed cylinder: quad-grid side, concentric-ring caps, welded rims."""
    verts: list[np.ndarray] = []
    angles = 2 * np.pi * np.arange(n_around) / n_around
    ring_xy = np.stack([np.cos(angles), np.sin(angles)], axis=1)

    side = np.empty((n_height + 1, n_around), dtype=np.int64)
    for h in range(n_height + 1):
        z = height * (h / n_height - 0.5)
        for a in range(n_around):
            side[h, a] = len(verts)
            verts.append(np.array([radius * ring_xy[a, 0], radius * ring_xy[a, 1], z]))
    tris: list[list[int]] = []
    for h in range(n_height):
        for a in range(n_around):
            p, q = side[h, a], side[h, (a + 1) % n_around]
            r, s = side[h + 1, a], side[h + 1, (a + 1) % n_around]
            tris += [[p, q, s], [p, s, r]]

    for top in (False, True):
        z = height * (0.5 if top else -0.5)
        rim = side[n_height if top else 0]
        rings = [rim]
        for m in range(n_cap_rings - 1, 0, -1):
            r_m = radius * m / n_cap_rings
            ring = []
            for a in range(n_around):
                ring.append(len(verts))
                verts.append(np.array([r_m * ring_xy[a, 0], r_m * ring_xy[a, 1], z]))
            rings.append(np.asarray(ring, dtype=np.int64))
        center = len(verts)
        verts.append(np.array([0.0, 0.0, z]))
        for outer, inner in zip(rings[:-1], rings[1:]):
            for a in range(n_around):
                p, q = outer[a], outer[(a + 1) % n_around]
                r, s = inner[a], inner[(a + 1) % n_around]
                t1, t2 = [p, q, s], [p, s, r]
                if not top:
                    t1, t2 = t1[::-1], t2[::-1]
                tris += [t1, t2]
        last = rings[-1]
        for a in range(n_around):
            t1 = [last[a], last[(a + 1) % n_around], center]
            if not top:
                t1 = t1[::-1]
            tris.append(t1)
    return Mesh(np.asarray(verts), np.asarray(tris, dtype=np.int64))


def _blob(subdivisions: int, rng: np.random.Generator) -> Mesh:
    mesh = icosphere(subdivisions)
    dirs = mesh.vertices
    radial = np.ones(len(dirs))
    for _ in range(rng.integers(3, 7)):
        center = rng.standard_normal(3)
        center /= np.linalg.norm(center)
        amp = rng.uniform(-0.25, 0.35)
        width = rng.uniform(0.35, 0.8)
        d2 = np.sum((dirs - center) ** 2, axis=1)
        radial += amp * np.exp(-d2 / width**2)
    return Mesh(dirs * radial[:, None], mesh.triangles)


def _subdiv_for(resolution: int) -> int:
    # icosphere vertex counts: 12, 42, 162, 642, 2562, 10242
    counts = [12, 42, 162, 642, 2562, 10242]
    return int(np.argmin([abs(c - resolution) for c in counts]))


def make_shape(kind: str, resolution: int, seed: int) -> Mesh:
    """Procedural shape with roughly `resolution` vertices, deterministic in seed."""
    if kind not in SHAPE_KINDS:
        raise GeometryError(f"unsupported shape kind {kind!r}")
    rng = np.random.default_rng(
        np.random.SeedSequence([SHAPE_KINDS.index(kind), resolution, seed])
    )
    if kind == "sphere":
        mesh = icosphere(_subdiv_for(resolution))
    elif kind == "blended-blob":
        mesh = _blob(_subdiv_for(resolution), rng)
    elif kind == "torus":
        ratio = rng.uniform(0.22, 0.42)
        # nu/nv chosen so quads are near-square: nu/nv ~ r_major/r_minor
        nv = max(6, int(round(np.sqrt(resolution * ratio))))
        nu = max(8, int(round(resolution / nv)))
        mesh = torus_mesh(nu, nv, 1.0, ratio)
    elif kind == "box":
        thin = rng.random() < 0.5
        if thin:
            dims = np.array([2.0, rng.uniform(0.8, 2.0), rng.uniform(0.08, 0.25)])
        else:
            dims = np.array([2.0, rng.uniform(0.7, 1.8), rng.uniform(0.5, 1.4)])
        area = 2 * (dims[0] * dims[1] + dims[1] * dims[2] + dims[0] * dims[2])
        spacing = float(np.sqrt(area / max(resolution, 8)))
        mesh = box_mesh(dims, spacing)
    elif kind == "plane":
        aspect = rng.uniform(0.5, 1.0)
        nx = max(4, int(round(np.sqrt(resolution / aspect))) - 1)
        ny = max(4, int(round(aspect * (nx + 1))) - 1)
        mesh = grid_plane(nx, ny, 2.0, 2.0 * aspect)
    elif kind == "cylinder":
        radius = rng.uniform(0.35, 0.6)
        height = 2.0
        # ~uniform spacing h: side has 2*pi*r*height/h^2 verts, caps 2*pi*r^2/h^2
        total_area = 2 * np.pi * radius * height + 2 * np.pi * radius**2
        h = float(np.sqrt(total_area / max(resolution, 8)))
        n_around = max(8, int(round(2 * np.pi * radius / h)))
        n_height = max(3, int(round(height / h)))
        n_cap_rings = max(2, int(round(radius / h)))
        mesh = cylinder_mesh(n_around, n_height, n_cap_rings, radius, height)
    else:
        raise GeometryError(f"unsupported shape kind {kind!r}")
    rot = _rotation_matrix(rng)
    mesh = Mesh(mesh.vertices @ rot.T, mesh.triangles)
    areas = mesh.triangle_areas()
    if areas.size and areas.min() <= 1e-14:
        raise GeometryError(f"generator produced a degenerate triangle in {kind!r}")
    return mesh
