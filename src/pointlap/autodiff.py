"""Minimal reverse-mode autodiff over float64 numpy arrays (ndim <= 2).

A Tape collects backward closures in forward execution order, which is a
topological order by construction; backward walks it once in reverse. Every
op validates its output for non-finite values and raises immediately, so a
diverging run fails at the op that produced the NaN.

An op keeps only what its backward reads: its inputs and its output, plus
an array of its own only where recomputing it would cost a pass over the
op's work (`group_norm` keeps the standardized input, `graph_conv` keeps
A x). `softplus` recomputes exp(-|x|) instead of keeping it. `NO_TAPE` runs
the same ops forward only: it drops every backward closure as it is
recorded, so no intermediate outlives the op that made it, and it refuses
to backpropagate. Inference passes it in place of a `Tape`; the forward
numbers are identical on either.

Gradients accumulate in place. The first contribution to a tensor is
stored as it is, and may be shared with a sibling (`add` hands the same
array to both inputs) or be a read-only broadcast view, so it is never
written; the second allocates the sum, which the tensor then owns and
later contributions add into.
"""
from __future__ import annotations

import json
import os

import numpy as np
from scipy.sparse import csc_array

from .meshio import write_atomic

class NonFiniteError(FloatingPointError):
    pass


def _validate(data: np.ndarray, op: str) -> None:
    # a sum of finite values is finite unless it overflows, and a NaN or an
    # inf makes it non-finite, so the element scan runs only when it is not
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.add.reduce(data, axis=None)
    if not np.isfinite(total) and not np.all(np.isfinite(data)):
        raise NonFiniteError(f"non-finite values produced by {op}")


class Tensor:
    __slots__ = ("data", "_grad", "_owns_grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        if self.data.ndim > 2:
            raise ValueError("tensors are at most 2-D")
        self.grad = None
        self.requires_grad = requires_grad

    @property
    def grad(self) -> np.ndarray | None:
        return self._grad

    @grad.setter
    def grad(self, value) -> None:
        # an array set from outside may be shared, so it is never written
        self._grad = value
        self._owns_grad = False

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """Named leaf tensor with persistent gradient and AdamW state."""

    __slots__ = ("name", "m", "v", "step")

    def __init__(self, name: str, data):
        super().__init__(data, requires_grad=True)
        self.name = name
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)
        self.step = 0


class Tape:
    """Op records for one forward pass; backward may run exactly once."""

    def __init__(self):
        self.records: list = []
        self.consumed = False

    def record(self, fn) -> None:
        self.records.append(fn)

    def backward(self, loss: Tensor) -> None:
        if self.consumed:
            raise RuntimeError("tape already backpropagated")
        self.consumed = True
        if loss.data.size != 1:
            raise ValueError("backward starts from a scalar")
        loss.grad = np.ones_like(loss.data)
        for fn in reversed(self.records):
            fn()


class _NoTape:
    """Forward-only stand-in for a Tape: keeps no backward closures."""

    def record(self, fn) -> None:
        pass

    def backward(self, loss: Tensor) -> None:
        raise RuntimeError("NO_TAPE records no ops and cannot backpropagate")


NO_TAPE = _NoTape()


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _accum(t: Tensor, g: np.ndarray) -> None:
    g = _unbroadcast(np.asarray(g, dtype=np.float64), t.data.shape)
    if t._grad is None:
        t.grad = g
    elif t._owns_grad:
        t._grad += g
    else:
        t._grad = t._grad + g
        t._owns_grad = True


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _binary(tape: Tape, a, b, op: str, fwd, da, db) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = Tensor(fwd(a.data, b.data), requires_grad=a.requires_grad or b.requires_grad)
    _validate(out.data, op)

    def bwd():
        g = out.grad
        if g is None:
            return
        if a.requires_grad:
            _accum(a, da(g, a.data, b.data))
        if b.requires_grad:
            _accum(b, db(g, a.data, b.data))

    tape.record(bwd)
    return out


def add(tape, a, b):
    return _binary(tape, a, b, "add", lambda x, y: x + y,
                   lambda g, x, y: g, lambda g, x, y: g)


def sub(tape, a, b):
    return _binary(tape, a, b, "sub", lambda x, y: x - y,
                   lambda g, x, y: g, lambda g, x, y: -g)


def mul(tape, a, b):
    return _binary(tape, a, b, "mul", lambda x, y: x * y,
                   lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(tape, a, b):
    return _binary(tape, a, b, "div", lambda x, y: x / y,
                   lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))


def matmul(tape: Tape, x: Tensor, w: Tensor) -> Tensor:
    out = Tensor(x.data @ w.data, requires_grad=x.requires_grad or w.requires_grad)
    _validate(out.data, "matmul")

    def bwd():
        g = out.grad
        if g is None:
            return
        if x.requires_grad:
            _accum(x, g @ w.data.T)
        if w.requires_grad:
            _accum(w, x.data.T @ g)

    tape.record(bwd)
    return out


def linear(tape: Tape, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ W + b for x (n, c_in), W (c_in, c_out), b (c_out,)."""
    # the bias goes into the product in place: numpy would keep both alive
    y = x.data @ w.data
    y += b.data
    out = Tensor(y, requires_grad=x.requires_grad or w.requires_grad or b.requires_grad)
    _validate(out.data, "linear")

    def bwd():
        g = out.grad
        if g is None:
            return
        if x.requires_grad:
            _accum(x, g @ w.data.T)
        if w.requires_grad:
            _accum(w, x.data.T @ g)
        if b.requires_grad:
            _accum(b, g.sum(axis=0))

    tape.record(bwd)
    return out


def relu(tape: Tape, x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0), requires_grad=x.requires_grad)

    def bwd():
        if out.grad is not None and x.requires_grad:
            _accum(x, out.grad * (x.data > 0))

    tape.record(bwd)
    return out


def _exp_neg_abs(x: np.ndarray) -> np.ndarray:
    e = np.abs(x)
    np.negative(e, out=e)
    return np.exp(e, out=e)


def softplus(tape: Tape, x: Tensor) -> Tensor:
    """log(1 + exp(x)) as max(x, 0) + log1p(exp(-|x|)), which cannot overflow.

    The output is built in one buffer; adding x where x > 0 is the same
    addition as max(x, 0) + log1p(...), and elsewhere that sum is log1p(...)
    itself. The backward recomputes exp(-|x|) rather than keeping it.
    """
    y = _exp_neg_abs(x.data)
    np.log1p(y, out=y)
    np.add(y, x.data, out=y, where=x.data > 0)
    out = Tensor(y, requires_grad=x.requires_grad)
    _validate(out.data, "softplus")

    def bwd():
        # the logistic sigmoid: 1 / (1 + e) for x >= 0, e / (1 + e) below
        if out.grad is not None and x.requires_grad:
            e = _exp_neg_abs(x.data)
            s = np.where(x.data >= 0, 1.0, e)
            e += 1.0
            s /= e
            s *= out.grad
            _accum(x, s)

    tape.record(bwd)
    return out


def group_norm(tape: Tape, x: Tensor, groups: int, gamma: Tensor, beta: Tensor,
               eps: float = 1e-5) -> Tensor:
    """Per-row, per-group standardization followed by a channel affine."""
    n, c = x.data.shape
    if c % groups != 0:
        raise ValueError(f"{c} channels not divisible by {groups} groups")
    s = c // groups
    xg = x.data.reshape(n, groups, s)
    # two passes, mean then centered squares: E[x^2] - E[x]^2 would cancel
    mu = np.einsum("ngs->ng", xg)[:, :, None] / s
    d = xg - mu
    var = np.einsum("ngs,ngs->ng", d, d)[:, :, None] / s
    istd = 1.0 / np.sqrt(var + eps)
    d *= istd
    xhat = d.reshape(n, c)
    y = xhat * gamma.data
    y += beta.data
    out = Tensor(y, requires_grad=x.requires_grad or gamma.requires_grad or beta.requires_grad)
    _validate(out.data, "group_norm")

    def bwd():
        g = out.grad
        if g is None:
            return
        if beta.requires_grad:
            _accum(beta, g.sum(axis=0))
        gx = g * xhat
        if gamma.requires_grad:
            _accum(gamma, gx.sum(axis=0))
        if x.requires_grad:
            # dx = istd (dxh - mean_s dxh - xhat mean_s(dxh xhat)), dxh = g gamma;
            # dxh xhat is gx gamma, so g * xhat is formed once
            gx *= gamma.data
            dxh = g * gamma.data
            d3 = dxh.reshape(n, groups, s)
            m1 = np.einsum("ngs->ng", d3)[:, :, None] / s
            m2 = np.einsum("ngs->ng", gx.reshape(n, groups, s))[:, :, None] / s
            d3 -= m1
            d3 -= xhat.reshape(n, groups, s) * m2
            d3 *= istd
            _accum(x, dxh)

    tape.record(bwd)
    return out


def _scatter_matrix(targets: np.ndarray, n: int) -> csc_array:
    """(n, m) matrix with a one at (targets[k], k), for m = len(targets).

    Its product with an (m, c) array adds row k of the array into row
    targets[k] of the (n, c) result, in ascending k.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if targets.size and (targets.min() < 0 or targets.max() >= n):
        raise IndexError("scatter target out of range")
    m = targets.shape[0]
    return csc_array((np.ones(m), targets, np.arange(m + 1)), shape=(n, m))


def gather_rows(tape: Tape, x: Tensor, idx: np.ndarray) -> Tensor:
    idx = np.asarray(idx, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= x.data.shape[0]):
        raise IndexError("gather index out of range")
    out = Tensor(x.data[idx], requires_grad=x.requires_grad)

    def bwd():
        if out.grad is not None and x.requires_grad:
            _accum(x, _scatter_matrix(idx, x.data.shape[0]) @ out.grad)

    tape.record(bwd)
    return out


def scatter_sum(tape: Tape, messages: Tensor, targets: np.ndarray, n: int) -> Tensor:
    """Row i of the result is the sum of messages whose target is i."""
    targets = np.asarray(targets, dtype=np.int64)
    scatter = _scatter_matrix(targets, n)
    if targets.shape[0] != messages.data.shape[0]:
        raise ValueError("one target per message required")
    out = Tensor(scatter @ messages.data, requires_grad=messages.requires_grad)

    def bwd():
        if out.grad is not None and messages.requires_grad:
            _accum(messages, out.grad[targets])

    tape.record(bwd)
    return out


def adjacency_sum(tape: Tape, x: Tensor, a) -> Tensor:
    """The sparse product a @ x for a scipy matrix `a`, with backward a.T @ g."""
    out = Tensor(a @ x.data, requires_grad=x.requires_grad)

    def bwd():
        if out.grad is not None and x.requires_grad:
            _accum(x, a.T @ out.grad)

    tape.record(bwd)
    return out


def graph_conv(tape: Tape, x: Tensor, adj, geom: np.ndarray, w0: Tensor,
               w1: Tensor) -> Tensor:
    """x W0 + [A x || geom] W1 as one op, for a scipy sparse A = `adj`.

    The sums run in the order of `add(matmul(x, W0), concat_linear(
    [adjacency_sum(x, A), geom], W1))`, so the bytes match that composition,
    and the tape keeps only p = A x. x's gradient gets g W0^T first, then
    A^T (g W1[:c]^T), as in the composition.
    """
    c = x.data.shape[1]
    p = adj @ x.data
    agg = p @ w1.data[:c]
    agg += geom @ w1.data[c:]
    y = x.data @ w0.data
    y += agg
    out = Tensor(y, requires_grad=x.requires_grad or w0.requires_grad or w1.requires_grad)
    _validate(out.data, "graph_conv")

    def bwd():
        g = out.grad
        if g is None:
            return
        if x.requires_grad:
            _accum(x, g @ w0.data.T)
        if w0.requires_grad:
            _accum(w0, x.data.T @ g)
        if w1.requires_grad:
            _accum(w1, np.concatenate([p.T @ g, geom.T @ g], axis=0))
        if x.requires_grad:
            _accum(x, adj.T @ (g @ w1.data[:c].T))

    tape.record(bwd)
    return out


def concat_linear(tape: Tape, parts: list, w: Tensor) -> Tensor:
    """concat_cols(parts) @ w without materializing the concatenation.

    The model's graph convolution runs on `graph_conv` instead; this op
    stays because the benchmark's tracer (`perfbench/tracer.py`) looks it
    up by name.
    """
    parts = [_wrap(p) for p in parts]
    offsets = np.cumsum([0] + [p.data.shape[1] for p in parts])
    if offsets[-1] != w.data.shape[0]:
        raise ValueError("weight rows must match total part width")
    acc = None
    for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
        term = p.data @ w.data[lo:hi]
        acc = term if acc is None else acc + term
    out = Tensor(acc, requires_grad=w.requires_grad or any(p.requires_grad for p in parts))
    _validate(out.data, "concat_linear")

    def bwd():
        g = out.grad
        if g is None:
            return
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                _accum(p, g @ w.data[lo:hi].T)
        if w.requires_grad:
            _accum(w, np.concatenate([p.data.T @ g for p in parts], axis=0))

    tape.record(bwd)
    return out


def concat_cols(tape: Tape, parts: list) -> Tensor:
    parts = [_wrap(p) for p in parts]
    out = Tensor(np.concatenate([p.data for p in parts], axis=1),
                 requires_grad=any(p.requires_grad for p in parts))
    offsets = np.cumsum([0] + [p.data.shape[1] for p in parts])

    def bwd():
        g = out.grad
        if g is None:
            return
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                _accum(p, g[:, lo:hi])

    tape.record(bwd)
    return out


def sum_all(tape: Tape, x: Tensor) -> Tensor:
    out = Tensor(x.data.sum(), requires_grad=x.requires_grad)

    def bwd():
        if out.grad is not None and x.requires_grad:
            _accum(x, np.broadcast_to(out.grad, x.data.shape))

    tape.record(bwd)
    return out


def mean_all(tape: Tape, x: Tensor) -> Tensor:
    out = Tensor(x.data.mean(), requires_grad=x.requires_grad)
    inv = 1.0 / x.data.size

    def bwd():
        if out.grad is not None and x.requires_grad:
            _accum(x, np.broadcast_to(out.grad * inv, x.data.shape))

    tape.record(bwd)
    return out


# -- optimizer ----------------------------------------------------------------

def adamw_step(params, lr: float, beta1: float = 0.9, beta2: float = 0.999,
               eps: float = 1e-8, weight_decay: float = 0.01) -> None:
    """Decoupled weight decay, then a bias-corrected Adam moment update."""
    for p in params:
        if p.grad is None:
            raise ValueError(f"parameter {p.name!r} has no gradient")
        p.step += 1
        if weight_decay:
            p.data *= 1.0 - lr * weight_decay
        g = p.grad
        p.m *= beta1
        p.m += (1.0 - beta1) * g
        p.v *= beta2
        p.v += (1.0 - beta2) * (g * g)
        mhat = p.m / (1.0 - beta1 ** p.step)
        vhat = p.v / (1.0 - beta2 ** p.step)
        p.data -= lr * mhat / (np.sqrt(vhat) + eps)


# -- initialization -----------------------------------------------------------

def kaiming_uniform(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = np.sqrt(6.0 / max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


# -- checkpoints --------------------------------------------------------------

def save_checkpoint(path, params: dict, extra: dict | None = None) -> None:
    """Directory checkpoint: manifest.json plus one params.bin blob file."""
    os.makedirs(path, exist_ok=True)
    entries, blobs, offset = [], [], 0
    for name in sorted(params):
        p = params[name]
        blobs.append(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
        entries.append({"name": name, "shape": list(p.data.shape),
                        "offset": offset, "nbytes": len(blobs[-1]), "step": p.step})
        offset += len(blobs[-1])
    # both files are written aside and swapped in, so a save that fails part
    # way leaves the previous checkpoint readable
    write_atomic(os.path.join(path, "params.bin"), *blobs)
    manifest = {"format": 1, "params": entries, "extra": extra or {}}
    write_atomic(os.path.join(path, "manifest.json"),
                 json.dumps(manifest, indent=1, sort_keys=True))


def load_checkpoint(path) -> tuple[dict, dict]:
    """Returns ({name: Parameter}, extra-manifest dict). Unless the entries tile params.bin in
    order, 8 bytes per value, ValueError names the file and the parameter."""
    with open(os.path.join(path, "manifest.json"), "r", encoding="utf-8") as f:
        manifest = json.load(f)
    bin_path = os.path.join(path, "params.bin")
    with open(bin_path, "rb") as f:
        raw = f.read()
    params, offset = {}, 0
    for ent in manifest["params"]:
        count = int(np.prod(ent["shape"], dtype=int))
        if (ent["offset"], ent["nbytes"]) != (offset, 8 * count) or offset + 8 * count > len(raw):
            raise ValueError(f"{bin_path}: parameter {ent['name']!r} of shape {ent['shape']} "
                             f"needs bytes {offset} to {offset + 8 * count} of a {len(raw)}-byte "
                             f"file; the manifest says {ent['nbytes']} at offset {ent['offset']}")
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(ent["shape"])
        p = Parameter(ent["name"], arr.copy())
        p.step = ent.get("step", 0)
        params[ent["name"]] = p
        offset += 8 * count
    if offset != len(raw):
        raise ValueError(f"{bin_path}: {len(raw) - offset} bytes after the last parameter")
    return params, manifest.get("extra", {})
