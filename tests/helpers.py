"""Shared numerical oracles and a write-fault injector for the test suite.

The oracles are deliberately independent of the library's fast paths:
dense matrices, exhaustive scans, and plain finite differences.
"""
import numpy as np


def rel_err(a: float, b: float, floor: float = 1e-6) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def dense_generalized_eigs(stiffness_dense: np.ndarray, mass: np.ndarray):
    """Dense oracle for L x = lambda M x with diagonal M."""
    s = 1.0 / np.sqrt(mass)
    w, y = np.linalg.eigh(s[:, None] * stiffness_dense * s[None, :])
    return w, s[:, None] * y


def brute_knn(points: np.ndarray, k: int) -> np.ndarray:
    """Exhaustive k-nearest-neighbors with (distance, index) tie-breaking."""
    n = len(points)
    out = np.empty((n, k), dtype=np.int64)
    for i in range(n):
        d2 = np.sum((points - points[i]) ** 2, axis=1)
        d2[i] = np.inf
        order = sorted(range(n), key=lambda j: (d2[j], j))
        out[i] = order[:k]
    return out


def op_gradcheck(build, params, rng, instances=20, h=1e-6, tol=1e-4):
    """Central finite differences on random parameter components.

    `build(tape)` must return a scalar loss tensor reusing `params`.
    """
    from pointlap.autodiff import Tape

    worst = 0.0
    tape = Tape()
    out = build(tape)
    tape.backward(out)
    grads = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]
    for p in params:
        p.grad = None
    for _ in range(instances):
        which = int(rng.integers(len(params)))
        p = params[which]
        flat = p.data.ravel()
        i = int(rng.integers(flat.size))
        orig = flat[i]
        flat[i] = orig + h
        fp = build(Tape()).item()
        flat[i] = orig - h
        fm = build(Tape()).item()
        flat[i] = orig
        fd = (fp - fm) / (2 * h)
        an = grads[which].ravel()[i]
        worst = max(worst, rel_err(fd, an))
    return worst


def directional_gradcheck(loss_fn, params, rng, trials=30, h=1e-6, floor=1e-8):
    """FD of the loss along random unit directions vs the analytic gradient.

    This probes the full gradient vector at once, which keeps the comparison
    far above the finite-difference noise floor; per-component checks live
    in the op-level tests.
    """
    from pointlap.autodiff import Tape

    tape = Tape()
    out = loss_fn(tape)
    tape.backward(out)
    names = list(range(len(params)))
    grad_vec = np.concatenate([
        (p.grad if p.grad is not None else np.zeros_like(p.data)).ravel() for p in params
    ])
    for p in params:
        p.grad = None
    saved = [p.data.copy() for p in params]
    worst = 0.0
    for _ in range(trials):
        d = rng.standard_normal(grad_vec.size)
        d /= np.linalg.norm(d)
        vals = []
        for sgn in (1.0, -1.0):
            off = 0
            for p, base in zip(params, saved):
                p.data = base + sgn * h * d[off:off + p.data.size].reshape(p.data.shape)
                off += p.data.size
            vals.append(loss_fn(Tape()).item())
        for p, base in zip(params, saved):
            p.data = base
        fd = (vals[0] - vals[1]) / (2 * h)
        worst = max(worst, rel_err(fd, float(grad_vec @ d), floor))
    return worst


def fail_on_second_write(monkeypatch, module):
    """Make every binary file that `module` opens raise OSError on its second write."""

    class FailingFile:
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

    monkeypatch.setattr(module, "open", failing_open, raising=False)
