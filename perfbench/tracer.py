"""Span tracer that wraps pointlap's public functions from the outside.

`Tracer.install()` replaces each traced function with a wrapper in every
loaded ``pointlap`` module that holds a reference to it (functions imported
by name are separate bindings), and on the owning class for methods.
`Tracer.uninstall()` puts the originals back. Each call records one span
(name, start, end, parent); spans stay in memory until the run ends.

`sparse.spmv` is only counted, not timed: every sparse product is charged to
the innermost open span, which turns spmv counts under `sparse.cg_solve`,
`sparse.eig_smallest` and `sparse.lambda_max_estimate` into solver
iteration counts.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute, span name); "Class.method" attributes patch the class.
TRACED = (
    ("cli", "generate_dataset", "cli.generate_dataset"),
    ("cli", "load_dataset", "cli.load_dataset"),
    ("geometry", "make_shape", "geometry.make_shape"),
    ("laplacian", "cotangent_laplacian", "laplacian.cotangent_laplacian"),
    ("laplacian", "assemble_learned", "laplacian.assemble_learned"),
    ("probes", "spectral_probes", "probes.spectral_probes"),
    ("probes", "spatial_probes", "probes.spatial_probes"),
    ("probes", "eval_probe_set", "probes.eval_probe_set"),
    ("probes", "save_probes", "probes.save_probes"),
    ("sparse", "eig_smallest", "sparse.eig_smallest"),
    ("sparse", "lambda_max_estimate", "sparse.lambda_max_estimate"),
    ("sparse", "cg_solve", "sparse.cg_solve"),
    ("sparse", "save_matrix_market", "sparse.save_matrix_market"),
    ("meshio", "save_obj", "meshio.save"),
    ("meshio", "save_ply", "meshio.save"),
    ("knn", "build_knn", "knn.build_knn"),
    ("model", "build_hierarchy", "model.build_hierarchy"),
    ("model", "LaplacianNet.forward", "model.forward"),
    ("model", "LaplacianNet.predict_pair", "model.predict_pair"),
    ("autodiff", "adjacency_sum", "autodiff.adjacency_sum"),
    ("autodiff", "concat_linear", "autodiff.concat_linear"),
    ("autodiff", "group_norm", "autodiff.group_norm"),
    ("autodiff", "matmul", "autodiff.matmul"),
    ("autodiff", "gather_rows", "autodiff.gather_rows"),
    ("autodiff", "scatter_sum", "autodiff.scatter_sum"),
    ("autodiff", "Tape.backward", "autodiff.backward"),
    ("autodiff", "adamw_step", "autodiff.adamw_step"),
    ("training", "train", "training.train"),
    ("training", "total_loss_on_tape", "training.total_loss_on_tape"),
    ("training", "evaluate", "training.evaluate"),
    ("apps", "heat_diffuse", "apps.heat_diffuse"),
    ("apps", "geodesic_heat", "apps.geodesic_heat"),
    ("apps", "laplacian_smooth", "apps.laplacian_smooth"),
    ("apps", "spectral_filter", "apps.spectral_filter"),
    ("apps", "arap_deform", "apps.arap_deform"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TRACED))
SOLVERS = ("sparse.cg_solve", "sparse.eig_smallest", "sparse.lambda_max_estimate")


PACKAGE = "pointlap"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (name, start, end, parent index or -1)
        self.spmv_counts: dict[int, int] = defaultdict(int)  # innermost span index -> calls
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- installation ---------------------------------------------------------

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _rebind(self, original, replacement) -> None:
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, name in TRACED:
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls)[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._span(name, original))
            else:
                original = getattr(module, attr)
                self._rebind(original, self._span(name, original))
        spmv = sys.modules[f"{PACKAGE}.sparse"].spmv
        self._rebind(spmv, self._spmv_counter(spmv))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
        return wrapper

    def _spmv_counter(self, fn):
        stack, counts = self._stack, self.spmv_counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[stack[-1] if stack else -1] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: inclusive seconds, self seconds and calls.

        Inclusive time of a name counts only its outermost spans, so a
        function that calls itself is not counted twice.
        """
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child_time = [0.0] * len(self.spans)
        for i in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent = self.spans[i]
            duration = end - start
            calls[name] += 1
            self_time[name] += duration - child_time[i]
            if parent >= 0:
                child_time[parent] += duration
            if not self._has_ancestor(i, name):
                inclusive[name] += duration
        spmv_under = defaultdict(int)
        for index, count in self.spmv_counts.items():
            owner = self.spans[index][0] if index >= 0 else "(untraced)"
            spmv_under[owner] += count
        return {"inclusive": dict(inclusive), "self": dict(self_time),
                "calls": dict(calls), "spmv_under": dict(spmv_under),
                "spans": len(self.spans)}

    def _has_ancestor(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def calls_under(self, name: str, ancestor: str) -> int:
        """Number of `name` spans that have an `ancestor` span above them."""
        total = 0
        for i, span in enumerate(self.spans):
            if span[0] == name and self._has_ancestor(i, ancestor):
                total += 1
        return total
