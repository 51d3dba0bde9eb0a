"""Learned Laplacian operators for unoriented point clouds on KNN graphs.

The names below load their submodule on first use (PEP 562), so importing
``pointlap.cli`` loads neither numpy nor scipy before ``--threads`` sets the
BLAS thread variables.
"""

import importlib

__version__ = "0.1.0"

_SOURCES = {
    "geometry": ("Mesh", "PointCloud", "make_shape", "normalize_unit_box", "points_from_mesh"),
    "knn": ("KnnGraph", "build_knn", "coarsen_by_voxel"),
    "laplacian": ("LaplacianPair", "assemble_learned", "cotangent_laplacian",
                  "heat_kernel_laplacian", "uniform_laplacian"),
    "model": ("LaplacianNet", "ModelConfig", "build_hierarchy"),
    "probes": ("ProbeSet", "eval_probe_set", "spatial_probes", "spectral_probes"),
    "sparse": ("SparseMatrix", "cg_solve", "eig_smallest", "spmv"),
    "training": ("TrainConfig", "evaluate", "loss_laplacian", "loss_mass", "train"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
