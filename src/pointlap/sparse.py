"""Sparse symmetric matrices, CG, and the smallest eigenpairs.

`SparseMatrix` owns the storage format: `from_coo` sorts triplets and sums
duplicates into CSR arrays, and every kernel (products, dense copies) runs on
scipy's CSR view of those same arrays. `cg_solve` is scipy's conjugate
gradients with a Jacobi preconditioner, and it checks the true residual of
whatever it returns. MatrixMarket files are read by `scipy.io`.

The generalized problem L x = lambda M x with diagonal positive M is reduced
to an ordinary symmetric problem through the exact similarity transform
M^{-1/2} L M^{-1/2}; eigenvectors are mapped back and M-normalized. The
eigenpairs come from scipy's shift-invert ARPACK, followed by one
Rayleigh-Ritz pass, an inertia count that catches missed copies of repeated
eigenvalues, and a check of every pair's true residual.

numpy and scipy each bundle their own OpenBLAS, each with its own thread
pool. ARPACK, SuperLU and LAPACK run on scipy's, so the dense products of an
eigensolve (`_gemm`) run there too: a numpy product in between wakes numpy's
pool while scipy's workers still spin, and with as many threads as cores the
two pools slow each other. On 2 cores at 2 threads per pool, moving these
products and those of `apps.spectral_filter` off numpy took a 20-mode filter
of four 2.5k-point clouds from 0.41 s to 0.31 s (medians of 10 runs).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dgemm
from scipy.sparse import csc_array, csr_array, diags_array, eye_array
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, cg, eigsh, splu

from .meshio import write_atomic


class SolveError(RuntimeError):
    """An iterative solver failed to reach the requested tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class SparseMatrix:
    """Square CSR matrix: sorted column indices per row, duplicates merged."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @staticmethod
    def from_coo(n, rows, cols, vals) -> "SparseMatrix":
        """Build CSR from triplets; duplicate (i, j) entries are summed.

        A stable sort by (row, col) keeps each run of duplicates in input
        order, and `np.add.reduceat` adds the run's first entry to numpy's
        pairwise sum of the rest: [1e16, 1, 1, -1e16] sums to 2.0, where left
        to right gives 0.0. That association is part of the contract: scipy's
        own COO-to-CSR conversion sums in another order, and a one-ulp change
        on the diagonal of a sphere or torus Laplacian rotates the basis of a
        repeated eigenvalue, so the spectral probes change by O(1).
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("rows/cols/vals length mismatch")
        if rows.size and (rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n):
            raise ValueError("index out of range for %d x %d matrix" % (n, n))
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if rows.size:
            first = np.r_[True, (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])]
            starts = np.flatnonzero(first)
            vals = np.add.reduceat(vals, starts)
            rows, cols = rows[starts], cols[starts]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return SparseMatrix(n, indptr, cols, vals)

    @cached_property
    def csr(self) -> csr_array:
        """scipy's view of the same arrays; the arrays are never written after construction."""
        return csr_array((self.data, self.indices, self.indptr), shape=(self.n, self.n))

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    def to_coo(self):
        rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        return rows, self.indices.copy(), self.data.copy()

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()

    def scaled(self, s: float) -> "SparseMatrix":
        return SparseMatrix(self.n, self.indptr, self.indices, self.data * float(s))

    def add_diagonal(self, d) -> "SparseMatrix":
        """Return self + diag(d) as a new matrix; stored zeros stay stored."""
        d = np.broadcast_to(np.asarray(d, dtype=np.float64), (self.n,))
        c = self.csr.copy()
        c.setdiag(c.diagonal() + d)
        c.sort_indices()
        return SparseMatrix(self.n, c.indptr.astype(np.int64), c.indices.astype(np.int64), c.data)

    def max_asymmetry(self) -> float:
        """max |A - A^T|."""
        return float(abs(self.csr - self.csr.T).max())

    def __matmul__(self, x):
        return spmv(self, x)


def spmv(a: SparseMatrix, x: np.ndarray) -> np.ndarray:
    """CSR product A @ x for a vector (n,) or a column block (n, p)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != a.n:
        raise ValueError(f"dimension mismatch: matrix is {a.n}, operand has {x.shape[0]} rows")
    return a.csr @ x


def cg_solve(a: SparseMatrix, b: np.ndarray, tol: float = 1e-10,
             max_iter: int | None = None, deflate_constant: bool = False) -> np.ndarray:
    """Solve A x = b for SPD (or deflated PSD) A by scipy's conjugate gradients.

    The preconditioner is Jacobi, diag(A)^-1 (rows with a zero diagonal are
    left unscaled). With ``deflate_constant`` the constant vector is
    projected out of b and of every product, which makes zero-row-sum
    Laplacian systems solvable when b is (numerically) orthogonal to the
    kernel. The true residual ||P(b - A x)|| of the result is checked against
    ``tol * ||P b||`` whether or not CG reported convergence, and
    `SolveError` is raised if it fails; at most ``max_iter`` (default 10 n)
    iterations are run.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (a.n,):
        raise ValueError("right-hand side has wrong shape")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side is not finite")

    def project(v):
        return v - v.mean() if deflate_constant else v

    b = project(b)
    nb = np.linalg.norm(b)
    if nb == 0.0:
        return np.zeros(a.n)
    d = a.csr.diagonal()
    inv_d = np.where(np.abs(d) > 1e-300, 1.0 / np.where(d == 0, 1.0, d), 1.0)
    op = LinearOperator((a.n, a.n), matvec=lambda v: project(spmv(a, v)), dtype=np.float64)
    x, _ = cg(op, b, rtol=tol, atol=0.0, maxiter=10 * a.n if max_iter is None else max_iter,
              M=diags_array(inv_d))
    res = np.linalg.norm(project(b - spmv(a, x)))
    if res <= tol * nb:
        return x
    raise SolveError("conjugate gradients did not converge", res / nb)


@dataclass(frozen=True)
class EigenPairs:
    """Smallest eigenpairs of L x = lambda M x, ascending, M-orthonormal."""

    values: np.ndarray
    vectors: np.ndarray  # column i pairs with values[i]

    def __len__(self) -> int:
        return int(self.values.size)


def lambda_max_estimate(l: SparseMatrix, m: np.ndarray, iters: int = 60, seed: int = 0) -> float:
    """Power-iteration estimate of the largest eigenvalue of M^{-1/2} L M^{-1/2}."""
    s = 1.0 / np.sqrt(np.asarray(m, dtype=np.float64))
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(l.n)
    y /= np.linalg.norm(y)
    lam = 0.0
    for _ in range(iters):
        z = s * spmv(l, s * y)
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return 0.0
        lam = y @ z
        y = z / nz
    return float(abs(lam))


def _count_below(a: csc_array, tau: float) -> int:
    """Eigenvalues of the symmetric `a` below `tau`, by Sylvester's law of inertia.

    a - tau I is factored with diagonal pivots in a symmetric order, so the
    diagonal of U holds the pivots of an LDL^T factorization.
    """
    lu = splu(a - tau * eye_array(a.shape[0], format="csc"), permc_spec="MMD_AT_PLUS_A",
              diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolveError("the inertia count needed an off-diagonal pivot", float("nan"))
    return int(np.count_nonzero(lu.U.diagonal() < 0))


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b on scipy's BLAS for a 2-D `a` and a 1-D or 2-D `b`, returned C-ordered.

    It is computed as (b^T a^T)^T in Fortran order, so C-ordered operands and
    their transposes reach BLAS as views, without a copy.
    """
    def t(x):  # x^T as a BLAS operand: the array and its transpose flag
        return (x.T, 0) if x.flags.c_contiguous else (x, 1)

    vec = b.ndim == 1
    bt, tb = t(b[:, None] if vec else b)
    at, ta = t(a)
    c = dgemm(1.0, bt, at, trans_a=tb, trans_b=ta).T
    return c[:, 0] if vec else c


def _rayleigh_ritz(a: csc_array, y: np.ndarray, count: int):
    """The `count` lowest Ritz pairs of `a` on span(y), with A times the vectors.

    The Ritz vectors come out orthonormal; a rank-deficient block (a vector
    found twice) raises `SolveError`.
    """
    ay = a @ y
    try:
        theta, rot = scipy.linalg.eigh(_gemm(y.T, ay), _gemm(y.T, y),
                                       subset_by_index=(0, count - 1))
    except np.linalg.LinAlgError as err:
        raise SolveError("the eigenvector block is rank-deficient", float("inf")) from err
    return theta, _gemm(y, rot), _gemm(ay, rot)


def eig_smallest(l: SparseMatrix, m: np.ndarray, count: int, seed: int = 0,
                 tol: float = 1e-10, max_dim: int | None = None) -> EigenPairs:
    """The `count` smallest pairs of PSD `l` by shift-invert ARPACK (scipy `eigsh`).

    A = M^{-1/2} L M^{-1/2} is shifted by sigma = -1e-6 g, with g the
    Gershgorin bound on its spectrum, so A - sigma I is SPD and the lowest
    eigenvalues become the largest of the inverted operator; it is factored
    once. The block gets one Rayleigh-Ritz pass, which also orthonormalizes
    it. A single Krylov space holds one copy of each repeated eigenvalue, so
    the eigenvalues below the top one are counted by inertia, and missing
    copies are sought by a rerun on the orthogonal complement of the pairs
    found. While the basis would be a sixth of the space or more, a dense
    LAPACK solve is as fast and is used instead. Every returned pair has
    passed a check of its true residual
    ||A y - theta y|| <= tol * max(|theta|, 1e-3 g); otherwise `SolveError`
    is raised. `max_dim` caps each ARPACK run at that many basis vectors and
    one pass. The start vector is drawn from `seed`, so results are
    reproducible; each eigenvector's largest-magnitude entry is made positive.
    """
    n = l.n
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (n,) or np.any(m <= 0):
        raise ValueError("mass vector must be positive with length n")
    if not 0 < count < n:
        raise ValueError(f"count must be in (0, {n})")
    if max_dim is not None and max_dim <= count:
        raise ValueError("max_dim must exceed count")
    s = 1.0 / np.sqrt(m)
    d = diags_array(s)
    a = (d @ l.csr @ d).tocsc()
    g = max(float(abs(a).sum(axis=0).max()), 1e-300)
    ncv = min(n, max(2 * count + 1, 20) if max_dim is None else max_dim)
    if 6 * ncv > n:
        theta, y = scipy.linalg.eigh(a.toarray(), subset_by_index=(0, count - 1))
        ay = a @ y
    else:
        rng = np.random.default_rng(seed)
        sigma = -1e-6 * g
        lu = splu(a - sigma * eye_array(n, format="csc"))
        found = np.empty((n, 0))

        def project(x):  # onto the orthogonal complement of the pairs found
            return x - _gemm(found, _gemm(found.T, x)) if found.size else x

        op = LinearOperator((n, n), matvec=lambda x: project(lu.solve(project(x))),
                            dtype=np.float64)
        missing = count
        for _ in range(count):
            try:
                z = eigsh(a, k=min(missing, count), sigma=sigma, which="LM", OPinv=op,
                          v0=project(rng.standard_normal(n)),
                          ncv=None if max_dim is None else ncv,
                          maxiter=None if max_dim is None else 1)[1]
            except ArpackNoConvergence as err:
                raise SolveError(f"ARPACK converged {len(err.eigenvalues)} of {count} pairs "
                                 f"with {ncv} basis vectors", float("inf")) from err
            theta, y, ay = _rayleigh_ritz(a, np.hstack([found, z]), count)
            tau = theta[-1] - 1e-8 * max(abs(theta[-1]), 1e-3 * g)
            missing = _count_below(a, tau) - int(np.count_nonzero(theta < tau))
            if missing <= 0:
                break
            found = y
        if missing != 0:
            raise SolveError(f"{missing} eigenvalues below {theta[-1]:.6g} were not found",
                             float("inf"))
    resid = np.linalg.norm(ay - y * theta, axis=0)
    worst = float(np.max(resid / np.maximum(np.abs(theta), 1e-3 * g)))
    if not worst <= tol:
        raise SolveError("eigenpairs failed the residual check", worst)
    vectors = s[:, None] * y
    # fix signs: largest-magnitude entry positive (first index wins ties)
    for j in range(count):
        i = int(np.argmax(np.abs(vectors[:, j])))
        if vectors[i, j] < 0:
            vectors[:, j] = -vectors[:, j]
    return EigenPairs(values=theta, vectors=vectors)


# -- MatrixMarket and plain-text vector IO -----------------------------------

def save_matrix_market(path, a: SparseMatrix) -> None:
    """Write symmetric `a` as its lower triangle, each value in shortest round-trip form."""
    rows, cols, vals = a.to_coo()
    keep = rows >= cols
    rows, cols, vals = rows[keep] + 1, cols[keep] + 1, vals[keep]
    write_atomic(path, "%%MatrixMarket matrix coordinate real symmetric\n",
                 f"{a.n} {a.n} {vals.size}\n",
                 "".join(f"{i} {j} {v!r}\n"
                         for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist())))


def load_matrix_market(path) -> SparseMatrix:
    """Read a square coordinate MatrixMarket matrix with real or integer values.

    A symmetric file's lower triangle is mirrored and duplicate entries are
    summed, in `from_coo`'s order. Anything else, or a malformed file, raises
    `ValueError` naming the path.
    """
    import scipy.io  # no command reads .mtx files, so none pays for this import

    try:
        n, cols, _, fmt, field, _ = scipy.io.mminfo(path)
        if fmt != "coordinate" or field not in ("real", "integer") or n != cols:
            raise ValueError(f"expected a square real coordinate matrix, got {fmt} {field} "
                             f"{n} x {cols}")
        coo = scipy.io.mmread(path).tocoo()
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err
    return SparseMatrix.from_coo(n, coo.row, coo.col, coo.data)


def save_vector(path, v: np.ndarray) -> None:
    write_atomic(path, "".join(f"{x!r}\n" for x in np.asarray(v, dtype=np.float64).tolist()))


def load_vector(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as f:
        return np.array([float(line) for line in f if line.strip()], dtype=np.float64)
