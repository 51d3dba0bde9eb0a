"""Symmetrized K-nearest-neighbor graphs and voxel coarsening.

Neighbor candidates come from ``scipy.spatial.cKDTree``; their squared
distances are then recomputed with one fixed formula and each row is
ordered by (distance, index), so exact ties go to the smaller index and
graphs are bit-reproducible. A row is final only once its candidate list
reaches strictly past the k-th distance (or holds every point); otherwise
it is queried again with twice the candidates, which keeps lattice ties
and duplicated points exact. The voxel grid is anchored at the cloud's
bounding-box minimum, which keeps coarsening covariant under translation.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_array
from scipy.spatial import cKDTree

from .geometry import PointCloud

# candidates queried per point beyond k; rows with ties at the k-th distance widen
_EXTRA = 9
# a candidate list is complete once its farthest d2 exceeds the k-th by this factor
_TIE_RTOL = 1e-9


def nearest_neighbors(points: np.ndarray, k: int) -> np.ndarray:
    """(n, k) indices of each point's k nearest other points, by (d2, index)."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    tree = cKDTree(pts)
    out = np.empty((n, k), dtype=np.int64)
    rows = np.arange(n, dtype=np.int64)
    m = min(n, k + _EXTRA)
    while rows.size:
        idx = tree.query(pts[rows], m)[1]
        d2 = np.sum((pts[idx] - pts[rows][:, None, :]) ** 2, axis=2)
        d2[idx == rows[:, None]] = np.inf
        order = np.lexsort((idx, d2), axis=-1)
        idx = np.take_along_axis(idx, order, axis=1)
        d2 = np.take_along_axis(d2, order, axis=1)
        out[rows] = idx[:, :k]
        if m == n:
            break
        farthest = np.where(np.isfinite(d2), d2, -np.inf).max(axis=1)
        rows = rows[farthest <= d2[:, k - 1] * (1.0 + _TIE_RTOL)]
        m = min(n, 2 * m)
    return out


@dataclass
class KnnGraph:
    """Symmetric directed edge list without explicit self-loops.

    Self-loops exist implicitly on every vertex (they carry the Laplacian
    diagonal and enter the sparsity count, but never message passing).
    """

    positions: np.ndarray        # (n, 3)
    edge_src: np.ndarray         # (e,) int64, sorted lexicographically with edge_dst
    edge_dst: np.ndarray
    degree: np.ndarray           # (n,) neighbor count, self-loop excluded
    k: int = 0

    @property
    def num_vertices(self) -> int:
        return len(self.positions)

    @property
    def num_edges(self) -> int:
        return len(self.edge_src)

    def undirected_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(i, j) arrays with i < j, one entry per undirected edge, sorted."""
        keep = self.edge_src < self.edge_dst
        return self.edge_src[keep], self.edge_dst[keep]

    @cached_property
    def incidence(self) -> csr_array:
        """(e_u, n) signed incidence B over `undirected_pairs()`: (B f)_k = f_i - f_j for the
        k-th pair (i, j), exact because row k stores its +1 at i before its -1 at j."""
        ui, uj = self.undirected_pairs()
        return csr_array((np.tile([1.0, -1.0], len(ui)), np.c_[ui, uj].ravel(),
                          np.arange(0, 2 * len(ui) + 1, 2)), shape=(len(ui), self.num_vertices))


def build_knn(points, k: int = 8) -> KnnGraph:
    """Symmetrized KNN graph; requires k >= 1 and at least k + 1 points."""
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    pts = points.points if isinstance(points, PointCloud) else np.asarray(points, dtype=np.float64)
    pts = pts.reshape(-1, 3)
    n = len(pts)
    if n < k + 1:
        raise ValueError(f"need at least {k + 1} points for k={k}, got {n}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("non-finite coordinates")
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    return graph_from_edges(pts, src, nearest_neighbors(pts, k).ravel(), k=k)


def graph_from_edges(positions: np.ndarray, src, dst, k: int = 0) -> KnnGraph:
    """Graph from an arbitrary directed edge list; symmetrized and deduplicated."""
    n = len(positions)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    # one int64 key per directed edge; sorting it is sorting (src, dst) pairs,
    # and a sort plus a diff dedups it several times faster than np.unique's hashing
    keys = np.r_[src * n + dst, dst * n + src]
    keys.sort()
    edge_src, edge_dst = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
    degree = np.bincount(edge_src, minlength=n).astype(np.int64)
    return KnnGraph(np.asarray(positions, dtype=np.float64), edge_src, edge_dst, degree, k=k)


@dataclass
class CoarseningLevel:
    mapping: np.ndarray          # fine vertex -> coarse vertex
    coarse: KnnGraph
    voxel_size: float
    counts: np.ndarray           # fine vertices per coarse vertex

    @property
    def num_coarse(self) -> int:
        return self.coarse.num_vertices


def coarsen_by_voxel(graph: KnnGraph, voxel_size: float,
                     anchor: np.ndarray | None = None) -> CoarseningLevel:
    """Merge vertices sharing a voxel; coarse edges are images of fine edges.

    The grid is anchored at the bounding-box minimum (or the caller-supplied
    anchor) so translating the cloud translates the voxel assignment with it.
    """
    if not (np.isfinite(voxel_size) and voxel_size > 0):
        raise ValueError(f"voxel_size must be finite and positive, got {voxel_size}")
    pos = graph.positions
    if anchor is None:
        anchor = pos.min(axis=0)
    keys = np.floor((pos - anchor) / voxel_size).astype(np.int64)
    # lexicographic row order, as np.unique(keys, axis=0) gives, without
    # packing the three keys into one integer (a tiny voxel would overflow it)
    order = np.lexsort(keys.T[::-1])
    sorted_keys = keys[order]
    first = np.r_[True, np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1)]
    mapping = np.empty(len(keys), dtype=np.int64)
    mapping[order] = np.cumsum(first) - 1
    nc = int(first.sum())
    counts = np.bincount(mapping, minlength=nc).astype(np.int64)
    centroids = np.zeros((nc, 3))
    for a in range(3):
        centroids[:, a] = np.bincount(mapping, weights=pos[:, a], minlength=nc)
    centroids /= counts[:, None]
    coarse = graph_from_edges(centroids, mapping[graph.edge_src], mapping[graph.edge_dst], k=graph.k)
    return CoarseningLevel(mapping, coarse, float(voxel_size), counts)
