"""Planted quasi-clique recovery via rank-sparsity convex decomposition.

Library layout:

- ``linalg``: dense kernels (truncated SVD, matrix norms, proximal operators,
  tangent-space and support projectors, power-iteration operator norm).
- ``instances``: seeded planted-instance generation and auxiliary random
  matrix models.
- ``solver``: augmented-Lagrangian decomposition solver, plain and
  quasi-clique constrained modes.
- ``certificate``: dual-certificate construction (golfing plus truncated
  Neumann series) and numerical verification of the optimality conditions.
- ``experiments``: Monte-Carlo recovery grids over size and density axes.
- ``fileio``: text/CSV/JSON readers and writers for all artifact types.
- ``cli``: the ``qcr`` command-line entry point.
"""

__version__ = "0.1.0"

from .certificate import (
    CertificateReport,
    GolfingConfig,
    IncoherenceReport,
    NeumannDivergenceError,
    golfing_QB,
    incoherence,
    neumann_QC,
    partition_complement,
    verify_certificate,
)
from .experiments import (
    GridSpec,
    RecoveryGrid,
    export_grid,
    planted_size,
    run_phase_grid,
    run_size_grid,
)
from .instances import (
    InstanceParams,
    PlantedInstance,
    derive_seed,
    gen_bernoulli_support,
    gen_low_rank,
    gen_planted,
    gen_random_sign_sparse,
)
from .linalg import (
    NORM_KINDS,
    SupportSet,
    SvdFactors,
    TangentSpace,
    norm,
    opnorm_PGammaPT,
    project_support,
    project_T,
    project_T_perp,
    soft_threshold,
    sv_threshold,
    svd,
)
from .solver import (
    RECOVERY_TOL,
    DecompositionResult,
    InfeasibleError,
    QuasiCliqueParams,
    SolverOptions,
    recovery_success,
    relative_error,
    solve_quasi_clique,
    solve_rpca,
)

__all__ = [
    "CertificateReport",
    "DecompositionResult",
    "GolfingConfig",
    "GridSpec",
    "IncoherenceReport",
    "InfeasibleError",
    "InstanceParams",
    "NORM_KINDS",
    "NeumannDivergenceError",
    "PlantedInstance",
    "QuasiCliqueParams",
    "RECOVERY_TOL",
    "RecoveryGrid",
    "SolverOptions",
    "SupportSet",
    "SvdFactors",
    "TangentSpace",
    "derive_seed",
    "export_grid",
    "gen_bernoulli_support",
    "gen_low_rank",
    "gen_planted",
    "gen_random_sign_sparse",
    "golfing_QB",
    "incoherence",
    "neumann_QC",
    "norm",
    "opnorm_PGammaPT",
    "partition_complement",
    "planted_size",
    "project_support",
    "project_T",
    "project_T_perp",
    "recovery_success",
    "relative_error",
    "run_phase_grid",
    "run_size_grid",
    "soft_threshold",
    "solve_quasi_clique",
    "solve_rpca",
    "sv_threshold",
    "svd",
    "verify_certificate",
    "__version__",
]
