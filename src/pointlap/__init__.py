"""Learned Laplacian operators for unoriented point clouds on KNN graphs.

Import the submodules, e.g. ``from pointlap import apps, laplacian``. The
package itself imports nothing, so ``pointlap.cli`` loads neither numpy nor
scipy before ``--threads`` sets the BLAS thread variables.
"""

__version__ = "0.1.0"
