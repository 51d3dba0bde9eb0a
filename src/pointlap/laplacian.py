"""Stiffness/mass pairs: cotangent ground truth, graph baselines, learned assembly.

Conventions pinned here and relied on everywhere else:
  * stiffness L has L_ij = -w_ij off the diagonal and L_ii = sum_j w_ij,
    so row sums vanish and f'Lf = sum_{i<j} w_ij (f_i - f_j)^2 >= 0;
  * cotangent weights carry the 1/2 factor, w_ij = (cot a + cot b) / 2;
  * mass vectors are normalized to mean 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components

from .geometry import GeometryError, Mesh
from .knn import KnnGraph
from .sparse import SparseMatrix, spmv


@dataclass(frozen=True)
class LaplacianPair:
    """Symmetric stiffness matrix with a positive mean-1 mass vector."""

    stiffness: SparseMatrix
    mass: np.ndarray
    tag: str

    @property
    def n(self) -> int:
        return self.stiffness.n

    def apply(self, f: np.ndarray) -> np.ndarray:
        """The operator action M^{-1} L f for a vector or a column block."""
        f = np.asarray(f, dtype=np.float64)
        out = spmv(self.stiffness, f)
        return out / (self.mass[:, None] if f.ndim == 2 else self.mass)

    def sparsity(self) -> float:
        return self.stiffness.nnz / self.n

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The operator's undirected edges: (i, j, w) over the stored upper triangle
        (i < j, in row order), with w_ij = -L_ij. A stored zero is a dead edge and is kept."""
        rows, cols, vals = self.stiffness.to_coo()
        upper = rows < cols
        return rows[upper], cols[upper], -vals[upper]

    def components(self) -> tuple[int, np.ndarray]:
        """Connected components of the stiffness graph, with stored zeros (dead edges) dropped:
        their count and each vertex's label."""
        alive = self.stiffness.csr.copy()
        alive.eliminate_zeros()
        return connected_components(alive, directed=False)


def _normalized_mass(masses: np.ndarray) -> np.ndarray:
    masses = np.asarray(masses, dtype=np.float64)
    if not np.all((masses > 0) & (masses < np.inf)):  # NaN fails both
        raise ValueError("masses must be positive and finite")
    return masses / masses.mean()


def _assemble_symmetric(n: int, ei: np.ndarray, ej: np.ndarray, w: np.ndarray) -> SparseMatrix:
    """Zero-row-sum stiffness from one weight per undirected edge."""
    rows = np.r_[ei, ej, ei, ej]
    cols = np.r_[ej, ei, ei, ej]
    vals = np.r_[-w, -w, w, w]
    return SparseMatrix.from_coo(n, rows, cols, vals)


def cotangent_laplacian(mesh: Mesh) -> LaplacianPair:
    """Cotangent stiffness and mixed Voronoi masses on a triangle mesh.

    Voronoi corner areas are used for non-obtuse triangles; obtuse triangles
    fall back to a third of the triangle area per corner. Degenerate
    triangles are rejected by index.
    """
    v = mesh.vertices
    t = mesh.triangles
    areas = mesh.nondegenerate_triangle_areas()
    p0, p1, p2 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]

    # cot at corner c = dot(u, v) / |u x v| for the two edges leaving c
    def cot_at(a, b, c):
        u, w = b - a, c - a
        return np.einsum("ij,ij->i", u, w) / np.linalg.norm(np.cross(u, w), axis=1)

    cot0 = cot_at(p0, p1, p2)
    cot1 = cot_at(p1, p2, p0)
    cot2 = cot_at(p2, p0, p1)
    n = mesh.num_vertices
    # edge opposite corner 0 is (1,2), etc.; each side contributes cot/2
    ei = np.r_[t[:, 1], t[:, 2], t[:, 0]]
    ej = np.r_[t[:, 2], t[:, 0], t[:, 1]]
    w = 0.5 * np.r_[cot0, cot1, cot2]
    stiffness = _assemble_symmetric(n, ei, ej, w)

    # mixed Voronoi mass
    l0 = np.sum((p2 - p1) ** 2, axis=1)  # squared length opposite corner 0
    l1 = np.sum((p0 - p2) ** 2, axis=1)
    l2 = np.sum((p1 - p0) ** 2, axis=1)
    obtuse = (cot0 < 0) | (cot1 < 0) | (cot2 < 0)
    vor0 = (l2 * cot2 + l1 * cot1) / 8.0
    vor1 = (l0 * cot0 + l2 * cot2) / 8.0
    vor2 = (l1 * cot1 + l0 * cot0) / 8.0
    third = areas / 3.0
    a0 = np.where(obtuse, third, vor0)
    a1 = np.where(obtuse, third, vor1)
    a2 = np.where(obtuse, third, vor2)
    mass = np.bincount(np.r_[t[:, 0], t[:, 1], t[:, 2]], weights=np.r_[a0, a1, a2], minlength=n)
    if np.any(mass <= 0):
        raise GeometryError("vertex with non-positive Voronoi area (unreferenced vertex?)")
    return LaplacianPair(stiffness, _normalized_mass(mass), tag="cotangent")


def uniform_laplacian(graph: KnnGraph) -> LaplacianPair:
    """Unit weights on graph edges, identity mass."""
    ei, ej = graph.undirected_pairs()
    stiffness = _assemble_symmetric(graph.num_vertices, ei, ej, np.ones(len(ei)))
    return LaplacianPair(stiffness, np.ones(graph.num_vertices), tag="uniform")


def heat_kernel_laplacian(graph: KnnGraph, t: float | None = None) -> LaplacianPair:
    """Gaussian edge weights exp(-|xi - xj|^2 / 4t) on the KNN graph.

    A triangulation-free simplification of the local-triangulation heat
    kernel construction; mass is the row sum of weights, mean-normalized.
    The default t is the mean squared KNN edge length.
    """
    ei, ej = graph.undirected_pairs()
    d2 = np.sum((graph.positions[ei] - graph.positions[ej]) ** 2, axis=1)
    if t is None:
        t = float(np.mean(d2))
    if not 0 < t < np.inf:
        raise ValueError("t must be positive and finite")
    w = np.exp(-d2 / (4.0 * t))
    stiffness = _assemble_symmetric(graph.num_vertices, ei, ej, w)
    mass = np.bincount(np.r_[ei, ej], weights=np.r_[w, w], minlength=graph.num_vertices)
    return LaplacianPair(stiffness, _normalized_mass(mass), tag="heat-kernel")


def assemble_learned(graph: KnnGraph, edge_weights: np.ndarray,
                     masses: np.ndarray) -> LaplacianPair:
    """Stiffness/mass pair from predicted weights, one per undirected edge.

    Weight order must match the rows of ``graph.incidence`` (``undirected_pairs()``).
    """
    ei, ej = graph.undirected_pairs()
    w = np.asarray(edge_weights, dtype=np.float64).reshape(-1)
    if w.shape != ei.shape:
        raise ValueError(f"expected {len(ei)} edge weights, got {len(w)}")
    if not np.all((w >= 0) & (w < np.inf)):
        raise ValueError("edge weights must be nonnegative and finite")
    masses = np.asarray(masses, dtype=np.float64).reshape(-1)
    if masses.shape != (graph.num_vertices,):
        raise ValueError("one mass per vertex required")
    stiffness = _assemble_symmetric(graph.num_vertices, ei, ej, w)
    return LaplacianPair(stiffness, _normalized_mass(masses), tag="learned")
