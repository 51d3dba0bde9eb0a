import numpy as np
import pytest
from scipy.sparse import csr_array

from helpers import op_gradcheck
from pointlap import autodiff as ad
from pointlap.autodiff import (NO_TAPE, NonFiniteError, Parameter, Tape, Tensor,
                               adamw_step, kaiming_uniform, load_checkpoint, save_checkpoint)


def scalarize(tape, t, const):
    return ad.sum_all(tape, ad.mul(tape, t, const))


class TestForwardValues:
    def test_linear_identity(self):
        x = Tensor(np.random.default_rng(0).random((4, 3)))
        w = Parameter("w", np.eye(3))
        b = Parameter("b", np.zeros(3))
        out = ad.linear(Tape(), x, w, b)
        assert np.array_equal(out.data, x.data)

    def test_linear_bias_gradient_is_ones(self):
        tape = Tape()
        x = Tensor(np.random.default_rng(1).random((5, 3)))
        w = Parameter("w", np.random.default_rng(2).random((3, 2)))
        b = Parameter("b", np.zeros(2))
        out = ad.sum_all(tape, ad.linear(tape, x, w, b))
        tape.backward(out)
        assert np.array_equal(b.grad, [5.0, 5.0])

    def test_relu_values(self):
        out = ad.relu(Tape(), Tensor(np.array([-2.0, 3.0, 0.0])))
        assert out.data.tolist() == [0.0, 3.0, 0.0]

    def test_softplus_values(self):
        tape = Tape()
        x = Parameter("x", np.array([0.0]))
        out = ad.softplus(tape, x)
        assert abs(out.data[0] - np.log(2.0)) < 1e-12
        total = ad.sum_all(tape, out)
        tape.backward(total)
        assert abs(x.grad[0] - 0.5) < 1e-12

    def test_softplus_overflow_safe(self):
        out = ad.softplus(Tape(), Tensor(np.array([50.0, 800.0])))
        assert abs(out.data[0] - 50.0) < 1e-9
        assert np.isfinite(out.data[1])

    def test_group_norm_constant_row_gives_beta(self):
        gamma = Parameter("g", np.ones(4))
        beta = Parameter("b", np.full(4, 2.5))
        x = Tensor(np.full((3, 4), 7.0))
        out = ad.group_norm(Tape(), x, 2, gamma, beta)
        assert np.abs(out.data - 2.5).max() < 1e-12

    def test_group_norm_standardizes_pair(self):
        gamma = Parameter("g", np.ones(2))
        beta = Parameter("b", np.zeros(2))
        out = ad.group_norm(Tape(), Tensor(np.array([[1.0, 3.0]])), 1, gamma, beta)
        expected = 1.0 / np.sqrt(1.0 + 1e-5)
        assert np.abs(out.data - [[-expected, expected]]).max() < 1e-12

    def test_group_norm_divisibility(self):
        with pytest.raises(ValueError):
            ad.group_norm(Tape(), Tensor(np.zeros((2, 6))), 4,
                          Parameter("g", np.ones(6)), Parameter("b", np.zeros(6)))

    def test_scatter_permutation(self):
        msgs = Tensor(np.array([[1.0], [2.0], [3.0]]))
        out = ad.scatter_sum(Tape(), msgs, np.array([2, 0, 1]), 3)
        assert out.data.ravel().tolist() == [2.0, 3.0, 1.0]

    def test_scatter_accumulates(self):
        msgs = Tensor(np.array([[1.0], [2.0]]))
        out = ad.scatter_sum(Tape(), msgs, np.array([0, 0]), 2)
        assert out.data.ravel().tolist() == [3.0, 0.0]

    def test_scatter_bounds(self):
        with pytest.raises(IndexError):
            ad.scatter_sum(Tape(), Tensor(np.ones((1, 1))), np.array([5]), 2)

    def test_adjacency_sum_values(self):
        x = Tensor(np.arange(6.0).reshape(3, 2))
        adj = csr_array((np.ones(3), [1, 2, 0], [0, 2, 3, 3]), shape=(3, 3))
        out = ad.adjacency_sum(Tape(), x, adj)
        assert np.array_equal(out.data, [[6.0, 8.0], [0.0, 1.0], [0.0, 0.0]])


class TestGradChecks:
    """Central finite differences (h = 1e-6, rel tol 1e-4), 20 instances per op."""

    def run(self, make, n_params, seed):
        rng = np.random.default_rng(seed)
        params, build = make(rng)
        worst = op_gradcheck(build, params, rng, instances=20)
        assert worst < 1e-4, worst

    def test_add_sub_mul_div(self):
        def make(rng):
            a = Parameter("a", rng.standard_normal((4, 3)))
            b = Parameter("b", rng.standard_normal((4, 3)) + 3.0)
            c = Tensor(rng.standard_normal((4, 3)))

            def build(tape):
                t = ad.add(tape, ad.mul(tape, a, b), ad.sub(tape, a, b))
                t = ad.div(tape, t, b)
                return scalarize(tape, t, c)

            return [a, b], build

        self.run(make, 2, 0)

    def test_broadcasting_paths(self):
        def make(rng):
            a = Parameter("a", rng.standard_normal((5, 3)))
            col = Parameter("col", rng.standard_normal((5, 1)) + 2.5)
            row = Parameter("row", rng.standard_normal(3))
            c = Tensor(rng.standard_normal((5, 3)))

            def build(tape):
                t = ad.mul(tape, a, row)
                t = ad.div(tape, t, col)
                t = ad.add(tape, t, ad.mul(tape, col, row))
                return scalarize(tape, t, c)

            return [a, col, row], build

        self.run(make, 3, 1)

    def test_linear_matmul(self):
        def make(rng):
            x = Parameter("x", rng.standard_normal((5, 3)))
            w = Parameter("w", rng.standard_normal((3, 4)))
            b = Parameter("b", rng.standard_normal(4))
            c = Tensor(rng.standard_normal((5, 4)))

            def build(tape):
                t = ad.linear(tape, x, w, b)
                t = ad.mul(tape, t, t)
                return scalarize(tape, t, c)

            return [x, w, b], build

        self.run(make, 3, 2)

    def test_relu_softplus(self):
        def make(rng):
            # offsets keep values away from the relu kink at the fd scale
            x = Parameter("x", rng.standard_normal((6, 4)) + 0.5)
            c = Tensor(rng.standard_normal((6, 4)))

            def build(tape):
                t = ad.add(tape, ad.relu(tape, x), ad.softplus(tape, x))
                return scalarize(tape, t, c)

            return [x], build

        self.run(make, 1, 3)

    def test_group_norm(self):
        def make(rng):
            x = Parameter("x", rng.standard_normal((4, 8)))
            g = Parameter("g", rng.standard_normal(8) + 1.5)
            b = Parameter("b", rng.standard_normal(8))
            c = Tensor(rng.standard_normal((4, 8)))

            def build(tape):
                return scalarize(tape, ad.group_norm(tape, x, 2, g, b), c)

            return [x, g, b], build

        self.run(make, 3, 4)

    def test_gather_scatter(self):
        idx = np.array([3, 0, 0, 2, 4, 1, 1])

        def make(rng):
            x = Parameter("x", rng.standard_normal((5, 2)))
            c = Tensor(rng.standard_normal((5, 2)))

            def build(tape):
                g = ad.gather_rows(tape, x, idx)
                s = ad.scatter_sum(tape, g, idx, 5)
                return scalarize(tape, s, c)

            return [x], build

        self.run(make, 1, 5)

    def test_adjacency_and_concat_linear(self):
        adj = csr_array((np.ones(10), [1, 2, 0, 2, 3, 0, 1, 1, 4, 3], [0, 2, 5, 7, 9, 10]),
                        shape=(5, 5))

        def make(rng):
            x = Parameter("x", rng.standard_normal((5, 3)))
            w = Parameter("w", rng.standard_normal((5, 4)))
            geom = Tensor(rng.standard_normal((5, 2)))
            c = Tensor(rng.standard_normal((5, 4)))

            def build(tape):
                s = ad.adjacency_sum(tape, x, adj)
                t = ad.concat_linear(tape, [s, geom], w)
                return scalarize(tape, t, c)

            return [x, w], build

        # note: this table is intentionally symmetric as a vertex relation
        self.run(make, 2, 6)

    def test_graph_conv(self):
        adj = csr_array((np.ones(10), [1, 2, 0, 2, 3, 0, 1, 1, 4, 3], [0, 2, 5, 7, 9, 10]),
                        shape=(5, 5))

        def make(rng):
            x = Parameter("x", rng.standard_normal((5, 3)))
            w0 = Parameter("w0", rng.standard_normal((3, 4)))
            w1 = Parameter("w1", rng.standard_normal((5, 4)))
            geom = rng.standard_normal((5, 2))
            c = Tensor(rng.standard_normal((5, 4)))

            def build(tape):
                return scalarize(tape, ad.graph_conv(tape, x, adj, geom, w0, w1), c)

            return [x, w0, w1], build

        self.run(make, 3, 10)

    def test_adjacency_sum_rectangular(self):
        # a signed incidence B (3 edges, 4 vertices) and its transpose: the
        # backward must multiply by the transpose of the forward operator
        b = csr_array((np.tile([1.0, -1.0], 3), [0, 1, 0, 3, 2, 3], [0, 2, 4, 6]), shape=(3, 4))

        def make(rng):
            x = Parameter("x", rng.standard_normal((4, 2)))
            w = Parameter("w", rng.random((3, 1)) + 0.5)
            c = Tensor(rng.standard_normal((4, 2)))

            def build(tape):
                diff = ad.adjacency_sum(tape, x, b)
                lx = ad.adjacency_sum(tape, ad.mul(tape, w, diff), b.T)
                return scalarize(tape, lx, c)

            return [x, w], build

        self.run(make, 2, 9)

    def test_concat_cols_and_mean(self):
        def make(rng):
            a = Parameter("a", rng.standard_normal((4, 2)))
            b = Parameter("b", rng.standard_normal((4, 3)))
            c = Tensor(rng.standard_normal((4, 5)))

            def build(tape):
                t = ad.concat_cols(tape, [a, b])
                t = ad.mul(tape, t, c)
                return ad.mean_all(tape, t)

            return [a, b], build

        self.run(make, 2, 7)


def test_graph_conv_bytes_match_composition():
    """The fused op against adjacency_sum, matmul on W1's row slices and add."""
    rng = np.random.default_rng(12)
    n, c, c_out = 30, 6, 5
    upper = np.triu(rng.random((n, n)) < 0.2, 1)
    adj = csr_array((upper | upper.T).astype(np.float64))
    geom = rng.standard_normal((n, 4))
    x_data, w0_data = rng.standard_normal((n, c)), rng.standard_normal((c, c_out))
    w1_data, upstream = rng.standard_normal((c + 4, c_out)), rng.standard_normal((n, c_out))
    other = Tensor(rng.standard_normal((n, c)))

    def run(conv):
        x, w0, w1 = Parameter("x", x_data), Parameter("w0", w0_data), Parameter("w1", w1_data)
        tape = Tape()
        out = conv(tape, x, w0, w1)
        # a consumer recorded later reaches x.grad first, so the order of
        # the conv's two contributions shows in the bytes
        tape.backward(ad.add(tape, scalarize(tape, out, Tensor(upstream)),
                             scalarize(tape, x, other)))
        return out.data, x.grad, w0.grad, w1.grad

    w1_parts = []

    def composed(tape, x, w0, w1):
        w1_parts[:] = Parameter("w1a", w1.data[:c]), Parameter("w1b", w1.data[c:])
        agg = ad.add(tape, ad.matmul(tape, ad.adjacency_sum(tape, x, adj), w1_parts[0]),
                     ad.matmul(tape, Tensor(geom), w1_parts[1]))
        return ad.add(tape, ad.matmul(tape, x, w0), agg)

    fused = run(lambda tape, x, w0, w1: ad.graph_conv(tape, x, adj, geom, w0, w1))
    *reference, _ = run(composed)
    reference.append(np.concatenate([p.grad for p in w1_parts], axis=0))
    for got, want in zip(fused, reference):
        assert got.tobytes() == want.tobytes()


def test_accumulation_leaves_shared_first_gradient_intact():
    """Three contributions to `a`; the first is shared with `b` through add."""
    rng = np.random.default_rng(13)
    a = Parameter("a", rng.standard_normal((4, 3)))
    b = Parameter("b", rng.standard_normal((4, 3)))
    c1, c2, c3 = (Tensor(rng.standard_normal((4, 3))) for _ in range(3))
    tape = Tape()
    u = ad.mul(tape, a, c1)                  # third contribution to a
    v = ad.mul(tape, a, c2)                  # second
    s = ad.add(tape, a, b)                   # first, the same array as b's
    total = ad.add(tape, ad.add(tape, u, v), s)
    tape.backward(ad.sum_all(tape, ad.mul(tape, total, c3)))
    upstream = np.ones((4, 3)) * c3.data
    assert s.grad.tobytes() == upstream.tobytes()
    assert b.grad.tobytes() == upstream.tobytes()
    expected = (upstream + upstream * c2.data) + upstream * c1.data
    assert a.grad.tobytes() == expected.tobytes()
    assert a.grad is not b.grad


def test_accumulation_does_not_write_an_array_set_from_outside():
    x = Parameter("x", np.ones(3))
    mine = np.zeros(3)
    x.grad = mine
    for _ in range(2):
        tape = Tape()
        tape.backward(ad.sum_all(tape, x))
    assert np.array_equal(mine, np.zeros(3))
    assert np.array_equal(x.grad, [2.0, 2.0, 2.0])


def test_adamw_moments_in_place_match_out_of_place():
    rng = np.random.default_rng(14)
    p = Parameter("p", rng.standard_normal(6))
    m, v, data = np.zeros(6), np.zeros(6), p.data.copy()
    for step in range(1, 4):
        g = rng.standard_normal(6)
        p.grad = g
        adamw_step([p], lr=1e-2)
        data *= 1.0 - 1e-2 * 0.01
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * (g * g)
        data -= 1e-2 * (m / (1.0 - 0.9 ** step)) / (np.sqrt(v / (1.0 - 0.999 ** step)) + 1e-8)
    assert p.m.tobytes() == m.tobytes()
    assert p.v.tobytes() == v.tobytes()
    assert p.data.tobytes() == data.tobytes()


class TestTapeSemantics:
    def test_single_backward(self):
        tape = Tape()
        x = Parameter("x", np.ones(3))
        out = ad.sum_all(tape, x)
        tape.backward(out)
        with pytest.raises(RuntimeError):
            tape.backward(out)

    def test_backward_needs_scalar(self):
        tape = Tape()
        x = Parameter("x", np.ones(3))
        with pytest.raises(ValueError):
            tape.backward(x)

    def test_grads_accumulate_across_tapes(self):
        x = Parameter("x", np.ones(3))
        for _ in range(2):
            tape = Tape()
            tape.backward(ad.sum_all(tape, x))
        assert np.array_equal(x.grad, [2.0, 2.0, 2.0])

    def test_tape_linearity(self):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((3, 2))
        c1 = Tensor(rng.standard_normal((3, 2)))
        c2 = Tensor(rng.standard_normal((3, 2)))

        def grad_of(build):
            p = Parameter("p", data.copy())
            tape = Tape()
            tape.backward(build(tape, p))
            return p.grad

        g1 = grad_of(lambda t, p: scalarize(t, ad.mul(t, p, p), c1))
        g2 = grad_of(lambda t, p: scalarize(t, ad.softplus(t, p), c2))
        both = grad_of(lambda t, p: ad.add(
            t, scalarize(t, ad.mul(t, p, p), c1), scalarize(t, ad.softplus(t, p), c2)))
        assert np.abs(both - (g1 + g2)).max() < 1e-12

    def test_nan_detection_raises(self):
        tape = Tape()
        a = Tensor(np.array([1.0]))
        b = Tensor(np.array([0.0]))
        with np.errstate(divide="ignore"), pytest.raises(NonFiniteError):
            ad.div(tape, a, b)

    def test_ndim_limit(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 2, 2)))


class TestAdamW:
    def test_zero_grad_zero_decay_is_identity(self):
        p = Parameter("p", np.array([1.0, -2.0]))
        p.grad = np.zeros(2)
        adamw_step([p], lr=0.1, weight_decay=0.0)
        assert np.array_equal(p.data, [1.0, -2.0])

    def test_single_step_bias_corrected(self):
        p = Parameter("p", np.array([0.0]))
        p.grad = np.array([1.0])
        adamw_step([p], lr=1e-3, weight_decay=0.0)
        assert abs(p.data[0] + 1e-3) < 1e-8

    def test_decoupled_decay(self):
        p = Parameter("p", np.array([10.0]))
        p.grad = np.array([0.0])
        adamw_step([p], lr=0.5, weight_decay=0.01)
        assert abs(p.data[0] - 10.0 * (1 - 0.5 * 0.01)) < 1e-12

    def test_missing_gradient(self):
        p = Parameter("p", np.array([1.0]))
        with pytest.raises(ValueError):
            adamw_step([p], lr=1e-3)

    def test_step_counts_each_update(self):
        p = Parameter("p", np.array([1.0]))
        p.grad = np.array([1.0])
        adamw_step([p], lr=1e-3)
        adamw_step([p], lr=1e-3)
        assert p.step == 2


class TestInitAndCheckpoints:
    def test_kaiming_bound_and_determinism(self):
        a = kaiming_uniform(np.random.default_rng(3), 9, (9, 5))
        b = kaiming_uniform(np.random.default_rng(3), 9, (9, 5))
        assert np.array_equal(a, b)
        assert np.abs(a).max() <= np.sqrt(6.0 / 9.0)

    def test_checkpoint_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        params = {"layer.w": Parameter("layer.w", rng.standard_normal((3, 2))),
                  "layer.b": Parameter("layer.b", rng.standard_normal(2))}
        params["layer.w"].step = 17
        save_checkpoint(tmp_path / "ck", params, extra={"note": 1})
        again, extra = load_checkpoint(tmp_path / "ck")
        assert extra == {"note": 1}
        assert set(again) == set(params)
        for name in params:
            assert np.array_equal(again[name].data, params[name].data)
        assert again["layer.w"].step == 17


    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(8)
        names = ("a.w", "b.w", "c.w")
        first = {n: Parameter(n, rng.standard_normal((4, 3))) for n in names}
        save_checkpoint(tmp_path / "ck", first)

        class FailingFile:
            """Binary writer that raises on the second parameter's write."""

            def __init__(self, f):
                self.f, self.writes = f, 0

            def write(self, blob):
                self.writes += 1
                if self.writes == 2:
                    raise OSError("disk full")
                return self.f.write(blob)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

        def failing_open(file, mode="r", *args, **kwargs):
            f = open(file, mode, *args, **kwargs)
            return FailingFile(f) if mode == "wb" else f

        monkeypatch.setattr(ad, "open", failing_open, raising=False)
        second = {n: Parameter(n, rng.standard_normal((4, 3))) for n in names}
        with pytest.raises(OSError):
            save_checkpoint(tmp_path / "ck", second)
        monkeypatch.undo()
        again, _ = load_checkpoint(tmp_path / "ck")
        for n in names:
            assert np.array_equal(again[n].data, first[n].data)

def test_scatter_plan_matches_naive():
    rng = np.random.default_rng(5)
    targets = rng.integers(0, 7, 40)
    g = rng.standard_normal((40, 3))
    naive = np.zeros((7, 3))
    np.add.at(naive, targets, g)
    out = ad.scatter_sum(Tape(), Tensor(g), targets, 7)
    assert np.abs(out.data - naive).max() < 1e-12


@pytest.mark.parametrize("idx", [[5, 0, 5, 2, 2, 5, 0], [6, 6, 6], []],
                         ids=["unsorted-repeated", "one-row", "empty"])
def test_gather_rows_backward_matches_add_at(idx):
    idx = np.array(idx, dtype=np.int64)
    rng = np.random.default_rng(len(idx))
    x = Parameter("x", rng.standard_normal((7, 3)))
    upstream = rng.standard_normal((len(idx), 3))
    tape = Tape()
    out = ad.gather_rows(tape, x, idx)
    tape.backward(ad.sum_all(tape, ad.mul(tape, out, Tensor(upstream))))
    expected = np.zeros((7, 3))
    np.add.at(expected, idx, upstream)
    assert x.grad.shape == (7, 3)
    assert np.abs(x.grad - expected).max() < 1e-12


class TestSinglePassKernels:
    """group_norm, softplus and the finite check against their plain formulas."""

    @pytest.mark.parametrize("channels", [32, 64, 128])
    def test_group_norm_matches_mean_var(self, channels):
        rng = np.random.default_rng(channels)
        groups, eps = 8, 1e-5
        x = rng.standard_normal((50, channels)) * 3.0 + 1.0
        gamma = Parameter("g", rng.standard_normal(channels))
        beta = Parameter("b", rng.standard_normal(channels))
        out = ad.group_norm(Tape(), Tensor(x), groups, gamma, beta, eps)
        xg = x.reshape(50, groups, -1)
        mu = xg.mean(axis=2, keepdims=True)
        var = xg.var(axis=2, keepdims=True)
        ref = ((xg - mu) / np.sqrt(var + eps)).reshape(50, channels) * gamma.data + beta.data
        assert np.abs(out.data - ref).max() < 1e-14

    @pytest.mark.parametrize("s", [8, 16])
    def test_group_norm_gradcheck(self, s):
        rng = np.random.default_rng(s)
        x = Parameter("x", rng.standard_normal((4, 2 * s)))
        g = Parameter("g", rng.standard_normal(2 * s) + 1.5)
        b = Parameter("b", rng.standard_normal(2 * s))
        c = Tensor(rng.standard_normal((4, 2 * s)))

        def build(tape):
            return scalarize(tape, ad.group_norm(tape, x, 2, g, b), c)

        assert op_gradcheck(build, [x, g, b], rng, instances=20) < 1e-4

    @staticmethod
    def _softplus_inputs():
        special = np.array([0.0, -0.0, 1e-300, -1e-300, 50.0, -50.0,
                            745.0, -745.0, 800.0, -800.0])
        draws = np.random.default_rng(11).standard_normal((3, 10**5))
        draws *= np.array([[1.0], [3.0], [30.0]])
        return np.concatenate([special, draws.ravel()])

    def test_softplus_within_4_ulp_of_logaddexp(self):
        x = self._softplus_inputs()
        out = ad.softplus(Tape(), Tensor(x))
        np.testing.assert_array_max_ulp(out.data, np.logaddexp(0.0, x), maxulp=4)

    def test_softplus_bytes_match_plain_formula(self):
        x = self._softplus_inputs()
        out = ad.softplus(NO_TAPE, Tensor(x))
        ref = np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))
        assert out.data.tobytes() == ref.tobytes()

    def test_softplus_gradient_is_the_sigmoid(self):
        x = Parameter("x", self._softplus_inputs())
        tape = Tape()
        tape.backward(ad.sum_all(tape, ad.softplus(tape, x)))
        e = np.exp(-np.abs(x.data))
        sigmoid = np.where(x.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        assert x.grad.tobytes() == sigmoid.tobytes()

    def test_validate_passes_finite_array_whose_sum_overflows(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ad._validate(np.array([1e308, 1e308]), "test")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_validate_raises_on_non_finite(self, bad):
        data = np.ones((3, 4))
        data[1, 2] = bad
        with pytest.raises(NonFiniteError):
            ad._validate(data, "test")
        data[0, 0] = -data[1, 2]
        with pytest.raises(NonFiniteError):
            ad._validate(data, "test")
