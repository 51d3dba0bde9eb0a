import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import dense_generalized_eigs, rel_err
from pointlap.geometry import icosphere, make_shape, normalize_unit_box
from pointlap.laplacian import assemble_learned, cotangent_laplacian, uniform_laplacian
from pointlap.knn import build_knn
from pointlap.sparse import (SolveError, SparseMatrix, _gemm, cg_solve,
                             eig_smallest, lambda_max_estimate,
                             load_matrix_market, load_vector,
                             save_matrix_market, save_vector, spmv)


def eye(n):
    idx = np.arange(n)
    return SparseMatrix.from_coo(n, idx, idx, np.ones(n))


def random_sparse(rng, n, density=0.2):
    dense = np.where(rng.random((n, n)) < density, rng.standard_normal((n, n)), 0.0)
    rows, cols = np.nonzero(dense)
    return SparseMatrix.from_coo(n, rows, cols, dense[rows, cols]), dense


class TestCSR:
    def test_duplicates_summed(self):
        a = SparseMatrix.from_coo(2, [0, 0, 1], [1, 1, 0], [2.0, 3.0, 1.0])
        assert a.nnz == 2
        assert a.to_dense()[0, 1] == 5.0

    def test_indices_sorted_per_row(self):
        a = SparseMatrix.from_coo(3, [0, 0, 0], [2, 0, 1], [1.0, 2.0, 3.0])
        assert a.indices.tolist() == [0, 1, 2]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            SparseMatrix.from_coo(2, [0], [5], [1.0])

    def test_add_diagonal_and_scale(self):
        a = SparseMatrix.from_coo(2, [0, 1], [1, 0], [1.0, 1.0])
        b = a.scaled(2.0).add_diagonal(np.array([3.0, 4.0]))
        assert np.array_equal(b.to_dense(), [[3, 2], [2, 4]])

    @pytest.mark.parametrize("d", [2.5, np.array([1.0, -2.0, 3.0, 0.5])],
                             ids=["scalar", "vector"])
    def test_add_diagonal_keeps_pattern(self, d):
        # row 1 has no diagonal entry; (2, 3) is a stored zero that must stay stored
        rows, cols = [0, 0, 1, 2, 2, 3, 3], [0, 1, 0, 2, 3, 2, 3]
        vals = [4.0, -1.0, -1.0, 2.0, 0.0, 0.0, 1.0]
        a = SparseMatrix.from_coo(4, rows, cols, vals)
        b = a.add_diagonal(d)
        assert np.array_equal(b.to_dense(), a.to_dense() + np.diag(np.broadcast_to(d, (4,))))
        idx = np.arange(4)
        old = SparseMatrix.from_coo(4, np.r_[rows, idx], np.r_[cols, idx],
                                    np.r_[vals, np.broadcast_to(d, (4,))])
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(b, name), getattr(old, name))
        assert b.indptr.dtype == b.indices.dtype == np.int64
        assert all(np.all(np.diff(b.indices[b.indptr[i]:b.indptr[i + 1]]) > 0) for i in range(4))
        assert np.array_equal(a.to_dense()[1], [-1.0, 0.0, 0.0, 0.0])  # a is unchanged

    @pytest.mark.parametrize("case", ["cotangent", "learned"])
    def test_from_coo_sums_in_input_order(self, case, monkeypatch):
        # the order of summation is pinned bit for bit: a stable sort by
        # (row, col), then each run of duplicates summed left to right
        seen = []
        from_coo = SparseMatrix.from_coo
        monkeypatch.setattr(SparseMatrix, "from_coo",
                            staticmethod(lambda *t: seen.append(t) or from_coo(*t)))
        if case == "cotangent":
            a = cotangent_laplacian(icosphere(3)).stiffness
        else:
            rng = np.random.default_rng(5)
            g = build_knn(rng.random((200, 3)), k=6)
            w = rng.random(len(g.undirected_pairs()[0]))
            w[::7] = 0.0
            a = assemble_learned(g, w, np.ones(200)).stiffness
        n, rows, cols, vals = seen[-1]
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        starts = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])])
        assert np.array_equal(a.indptr, np.searchsorted(rows[starts], np.arange(n + 1)))
        assert np.array_equal(a.indices, cols[starts])
        assert np.array_equal(a.data, np.add.reduceat(vals, starts))

    def test_transpose_and_asymmetry(self):
        a = SparseMatrix.from_coo(2, [0], [1], [5.0])
        assert a.max_asymmetry() == 5.0
        sym = SparseMatrix.from_coo(2, [0, 1], [1, 0], [5.0, 5.0])
        assert sym.max_asymmetry() == 0.0


class TestSpmv:
    def test_row_sums(self):
        a = SparseMatrix.from_coo(2, [0, 0, 1, 1], [0, 1, 0, 1], [2.0, -1.0, -1.0, 2.0])
        assert np.array_equal(a @ np.ones(2), [1.0, 1.0])

    def test_dense_oracle(self):
        rng = np.random.default_rng(0)
        a, dense = random_sparse(rng, 30)
        x = rng.standard_normal(30)
        assert np.abs(a @ x - dense @ x).max() < 1e-12
        block = rng.standard_normal((30, 4))
        assert np.abs(a @ block - dense @ block).max() < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            spmv(eye(3), np.ones(4))

    @given(st.integers(0, 10_000))
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        a, _ = random_sparse(rng, 12)
        x, y = rng.standard_normal((2, 12))
        al, be = rng.standard_normal(2)
        lhs = a @ (al * x + be * y)
        rhs = al * (a @ x) + be * (a @ y)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_empty_rows(self):
        a = SparseMatrix.from_coo(3, [0], [0], [2.0])
        assert np.array_equal(a @ np.ones(3), [2.0, 0.0, 0.0])


@pytest.mark.parametrize("layout", ["c", "f", "strided"])
def test_gemm_matches_matmul(layout):
    rng = np.random.default_rng(3)
    y, z = rng.standard_normal((60, 7)), rng.standard_normal((60, 7))
    r, v = rng.standard_normal((7, 5)), rng.standard_normal(60)
    if layout == "f":
        y, r = np.asfortranarray(y), np.asfortranarray(r)
    elif layout == "strided":
        y, v = rng.standard_normal((120, 7))[::2], rng.standard_normal(120)[::2]
    for a, b in ((y.T, z), (y.T, y), (y, r), (y.T, v), (y, r[:, 0])):
        c = _gemm(a, b)
        assert c.shape == (a @ b).shape and c.flags.c_contiguous
        assert np.abs(c - a @ b).max() <= 1e-13 * np.abs(a @ b).max()


class TestCG:
    def test_identity_one_step(self):
        b = np.array([1.0, -2.0, 3.0])
        assert np.allclose(cg_solve(eye(3), b), b)

    def test_diagonal(self):
        a = SparseMatrix.from_coo(3, [0, 1, 2], [0, 1, 2], [1.0, 2.0, 4.0])
        assert np.allclose(cg_solve(a, np.array([1.0, 2.0, 4.0])), 1.0)

    def test_random_spd_vs_dense(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((25, 25))
        spd = m @ m.T + 25 * np.eye(25)
        rows, cols = np.nonzero(spd)
        a = SparseMatrix.from_coo(25, rows, cols, spd[rows, cols])
        b = rng.standard_normal(25)
        x = cg_solve(a, b)
        assert np.linalg.norm(x - np.linalg.solve(spd, b)) / np.linalg.norm(x) < 1e-8

    def test_deflated_singular_system(self):
        g = build_knn(np.random.default_rng(2).random((40, 3)), k=4)
        pair = uniform_laplacian(g)
        b = np.random.default_rng(3).standard_normal(40)
        b -= b.mean()
        x = cg_solve(pair.stiffness, b, deflate_constant=True)
        assert np.linalg.norm(pair.stiffness @ x - b) <= 1e-8 * np.linalg.norm(b)

    def test_nonconvergence_raises(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((25, 25))
        spd = m @ m.T + np.eye(25)
        rows, cols = np.nonzero(spd)
        a = SparseMatrix.from_coo(25, rows, cols, spd[rows, cols])
        with pytest.raises(SolveError) as err:
            cg_solve(a, rng.standard_normal(25), tol=1e-14, max_iter=2)
        assert err.value.residual > 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_rhs_rejected(self, bad):
        # rejected before any iteration: an iteration limit of 0 would
        # otherwise end in SolveError
        b = np.ones(3)
        b[1] = bad
        with pytest.raises(ValueError, match="not finite"):
            cg_solve(eye(3), b, max_iter=0)


class TestEig:
    def test_path_graph(self):
        l = SparseMatrix.from_coo(
            3, [0, 0, 1, 1, 1, 2, 2], [0, 1, 0, 1, 2, 1, 2],
            [1.0, -1, -1, 2, -1, -1, 1])
        pairs = eig_smallest(l, np.ones(3), 2)
        assert np.allclose(pairs.values, [0.0, 1.0], atol=1e-10)

    def test_zero_mode_constant_vector(self):
        g = build_knn(np.random.default_rng(0).random((30, 3)), k=4)
        pair = uniform_laplacian(g)
        pairs = eig_smallest(pair.stiffness, pair.mass, 3)
        assert abs(pairs.values[0]) < 1e-10
        v0 = pairs.vectors[:, 0]
        assert np.abs(v0 - v0[0]).max() < 1e-8

    def test_sphere_cotangent_vs_dense(self, sphere_mesh_162):
        gt = cotangent_laplacian(sphere_mesh_162)
        pairs = eig_smallest(gt.stiffness, gt.mass, 20)
        w, _ = dense_generalized_eigs(gt.stiffness.to_dense(), gt.mass)
        lam_max = w[-1]
        for got, want in zip(pairs.values, w[:20]):
            assert rel_err(got, want, floor=1e-6 * lam_max) < 1e-8

    def test_m_orthonormal(self, sphere_mesh_162):
        gt = cotangent_laplacian(sphere_mesh_162)
        pairs = eig_smallest(gt.stiffness, gt.mass, 10)
        v = pairs.vectors
        gram = v.T @ (gt.mass[:, None] * v)
        assert np.abs(gram - np.eye(10)).max() < 1e-8

    def test_residual_invariant(self, sphere_mesh_162):
        gt = cotangent_laplacian(sphere_mesh_162)
        pairs = eig_smallest(gt.stiffness, gt.mass, 10)
        lam_max = lambda_max_estimate(gt.stiffness, gt.mass)
        for lam, v in zip(pairs.values, pairs.vectors.T):
            lv = gt.stiffness @ v
            resid = np.linalg.norm(lv - lam * gt.mass * v)
            assert resid <= 1e-8 * max(np.linalg.norm(lv), 1e-6 * lam_max)

    def test_psd_spectrum_nonnegative(self, sphere_mesh_162):
        gt = cotangent_laplacian(sphere_mesh_162)
        pairs = eig_smallest(gt.stiffness, gt.mass, 12)
        assert np.all(pairs.values >= -1e-10)

    def test_repeated_eigenvalues_disconnected(self):
        # two disconnected edges: spectrum {0, 0, 2, 2}
        l = SparseMatrix.from_coo(
            4, [0, 0, 1, 1, 2, 2, 3, 3], [0, 1, 0, 1, 2, 3, 2, 3],
            [1.0, -1, -1, 1, 1, -1, -1, 1])
        pairs = eig_smallest(l, np.ones(4), 3)
        assert np.allclose(pairs.values, [0.0, 0.0, 2.0], atol=1e-10)

    def test_sign_convention(self, sphere_mesh_162):
        gt = cotangent_laplacian(sphere_mesh_162)
        pairs = eig_smallest(gt.stiffness, gt.mass, 6)
        for v in pairs.vectors.T:
            assert v[np.argmax(np.abs(v))] > 0

    def test_deterministic(self, sphere_mesh_162):
        gt = cotangent_laplacian(sphere_mesh_162)
        a = eig_smallest(gt.stiffness, gt.mass, 8, seed=7)
        b = eig_smallest(gt.stiffness, gt.mass, 8, seed=7)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    def test_sphere_22_pairs_vs_dense(self):
        # 22 pairs cut through a threefold eigenvalue of this sphere; a
        # restarted basis once gave Ritz pairs off by 5e-5 here
        gt = cotangent_laplacian(normalize_unit_box(make_shape("sphere", 162, seed=0)))
        pairs = eig_smallest(gt.stiffness, gt.mass, 22)
        w, _ = dense_generalized_eigs(gt.stiffness.to_dense(), gt.mass)
        # the solver's own floor: the zero eigenvalue is judged against lam_max
        for got, want in zip(pairs.values, w[:22]):
            assert rel_err(got, want, floor=1e-3 * w[-1]) < 1e-10
        for lam, u in zip(pairs.values, pairs.vectors.T):
            lu = gt.stiffness @ u
            resid = lu - lam * gt.mass * u
            assert np.linalg.norm(resid) < 1e-8 * max(np.linalg.norm(lu), 1e-6)

    @pytest.mark.parametrize("count", [22, 40])
    def test_three_sphere_copies_vs_dense(self, count):
        # three disconnected copies: three zero modes and every eigenvalue
        # threefold, at a size where the Krylov path runs (not the dense one)
        gt = cotangent_laplacian(normalize_unit_box(make_shape("sphere", 162, seed=0)))
        rows, cols, vals = gt.stiffness.to_coo()
        n = gt.n
        l = SparseMatrix.from_coo(3 * n, np.r_[rows, rows + n, rows + 2 * n],
                                  np.r_[cols, cols + n, cols + 2 * n], np.r_[vals, vals, vals])
        mass = np.tile(gt.mass, 3)
        pairs = eig_smallest(l, mass, count)
        w, _ = dense_generalized_eigs(l.to_dense(), mass)
        assert np.abs(pairs.values - w[:count]).max() <= 1e-10 * w[-1]
        for lam, u in zip(pairs.values, pairs.vectors.T):
            lu = l @ u
            resid = lu - lam * mass * u
            assert np.linalg.norm(resid) < 1e-8 * max(np.linalg.norm(lu), 1e-6)

    def test_indefinite_raises(self, sphere_mesh_162):
        # L - 0.5 M has negative eigenvalues that the shift below zero cannot
        # reach first; the inertia count must refuse the pairs it finds
        gt = cotangent_laplacian(sphere_mesh_162)
        with pytest.raises(SolveError):
            eig_smallest(gt.stiffness.add_diagonal(-0.5 * gt.mass), gt.mass, 6)

    def test_unconverged_raises(self, sphere_mesh_162):
        gt = cotangent_laplacian(sphere_mesh_162)
        with pytest.raises(SolveError) as err:
            eig_smallest(gt.stiffness, gt.mass, 10, max_dim=15)
        assert err.value.residual > 1e-10

    def test_count_validation(self):
        l = eye(4)
        with pytest.raises(ValueError):
            eig_smallest(l, np.ones(4), 4)
        with pytest.raises(ValueError):
            eig_smallest(l, np.array([1.0, -1.0, 1.0, 1.0]), 2)


class TestIO:
    def test_matrix_market_round_trip(self, tmp_path):
        path = tmp_path / "l.mtx"
        for l in (cotangent_laplacian(icosphere(3)).stiffness,
                  uniform_laplacian(build_knn(np.random.default_rng(4).random((25, 3)), k=4)).stiffness):
            save_matrix_market(path, l)
            assert path.read_text().splitlines()[0] == "%%MatrixMarket matrix coordinate real symmetric"
            again = load_matrix_market(path)
            assert again.n == l.n
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(again, name), getattr(l, name))

    def test_matrix_market_general(self, tmp_path):
        # written by hand: a general file whose duplicated (1, 2) entry is summed
        path = tmp_path / "g.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 3\n1 2 1.5\n2 1 -1\n1 2 2.25\n")
        assert np.array_equal(load_matrix_market(path).to_dense(), [[0.0, 3.75], [-1.0, 0.0]])

    @pytest.mark.parametrize("text", [
        "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
        "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 3 2.5\n",
        "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n",
    ], ids=["array", "non-square", "pattern"])
    def test_rejects_other_matrices(self, text, tmp_path):
        path = tmp_path / "x.mtx"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_matrix_market(path)

    def test_vector_round_trip(self, tmp_path):
        v = np.array([1.0, -2.25, 3.5e-17])
        path = tmp_path / "v.txt"
        save_vector(path, v)
        assert np.array_equal(load_vector(path), v)

    def test_rejects_non_mm(self, tmp_path):
        path = tmp_path / "x.mtx"
        path.write_text("hello\n")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_matrix_market(path)
