"""Planted quasi-clique recovery via rank-sparsity convex decomposition.

Library layout:

- ``linalg``: dense kernels (truncated SVD, matrix norms, proximal operators,
  tangent-space and support projectors, power-iteration operator norm).
- ``instances``: seeded planted-instance generation and grid seed derivation.
- ``solver``: one augmented-Lagrangian loop for the plain decomposition and
  the quasi-clique constrained program.
- ``certificate``: dual-certificate construction (golfing plus a Neumann
  series summed by conjugate gradients) and numerical verification of the
  optimality conditions.
- ``experiments``: Monte-Carlo recovery grids over size and density axes.
- ``fileio``: text/CSV/JSON readers and writers for all artifact types.
- ``cli``: the ``qcr`` command-line entry point.

The package exports every public name (the ``__all__``) of its five library
modules: ``instances``, ``linalg``, ``solver``, ``certificate`` and
``experiments``.
"""

__version__ = "0.1.0"

from . import certificate, experiments, instances, linalg, solver
from .certificate import *
from .experiments import *
from .instances import *
from .linalg import *
from .solver import *

__all__ = [
    *instances.__all__,
    *linalg.__all__,
    *solver.__all__,
    *certificate.__all__,
    *experiments.__all__,
    "__version__",
]
