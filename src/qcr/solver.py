"""Augmented-Lagrangian splitting solvers for the rank-sparsity decomposition
program min ||B||_* + lambda*||C||_1 s.t. B + C = M and its density-constrained
variant min ||X||_* + lambda*||A - X||_1 s.t. sum(X) >= gamma*eta^2, X in [0,1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _as_square, norm, soft_threshold, sv_threshold

__all__ = [
    "SolverOptions",
    "QuasiCliqueParams",
    "DecompositionResult",
    "InfeasibleError",
    "solve_rpca",
    "solve_quasi_clique",
    "recovery_success",
    "relative_error",
    "RECOVERY_TOL",
]

RECOVERY_TOL = 1e-6


class InfeasibleError(ValueError):
    """The density constraint cannot be met (or recovery is structurally impossible)."""


@dataclass(frozen=True)
class SolverOptions:
    """Solver knobs. lam defaults to 1/sqrt(n), resolved at solve time when
    left None. mu0 is the starting penalty; when left None each solver picks
    its own from the input matrix: solve_rpca starts at 0.25/mean(|M|)
    (resolve_mu0), solve_quasi_clique at 1.25/||A||_2, the inexact-ALM start
    of Lin, Chen and Ma (arXiv:1009.5055), under which the nuclear prox
    threshold 1/pen begins near the top eigenvalue and keeps few of them. A
    given mu0 overrides both. mu_growth is read by solve_rpca only:
    solve_quasi_clique ignores it and rebalances its penalty by a factor 2
    every 10 iterations instead."""

    lam: float | None = None
    mu0: float | None = None
    mu_growth: float = 1.5
    tol_primal: float = 1e-8
    max_iters: int = 2000

    def __post_init__(self):
        if self.lam is not None and not 0 < self.lam < math.inf:
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        if self.mu0 is not None and not 0 < self.mu0 < math.inf:
            raise ValueError(f"mu0 must be positive and finite, got {self.mu0}")
        if not 1.0 <= self.mu_growth < math.inf:
            raise ValueError(f"mu_growth must be finite and >= 1, got {self.mu_growth}")
        if not 0 < self.tol_primal < math.inf:
            raise ValueError(f"tol_primal must be positive and finite, got {self.tol_primal}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")

    def resolve_lam(self, n: int) -> float:
        return self.lam if self.lam is not None else 1.0 / math.sqrt(n)

    def resolve_mu0(self, M: np.ndarray) -> float:
        if self.mu0 is not None:
            return self.mu0
        return 0.25 / max(float(np.abs(M).mean()), 1e-12)


@dataclass(frozen=True)
class QuasiCliqueParams:
    """Density-constraint parameters: target edge density gamma and target
    quasi-clique size eta (the constraint reads sum(X) >= gamma * eta**2)."""

    gamma: float
    eta: int

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma}")
        if int(self.eta) != self.eta or self.eta < 1:
            raise ValueError(f"eta must be a positive integer, got {self.eta}")


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    B_star: np.ndarray
    C_star: np.ndarray
    iterations: int
    primal_residual: float
    objective: float
    converged: bool
    final_penalty: float | None = None  # mu (solve_rpca) or pen (solve_quasi_clique) at exit


def solve_rpca(M, opts: SolverOptions | None = None) -> DecompositionResult:
    """Minimize ||B||_* + lam*||C||_1 subject to B + C = M.

    Inexact augmented-Lagrangian iteration with exact proximal steps: B by
    singular-value shrinkage (warm-started from the previous B), C by
    entrywise shrinkage, followed by a dual ascent step on the constraint. The penalty grows by mu_growth whenever the
    primal residual has not shrunk by a factor 0.9 over the last 10 iterations.
    """
    M = _as_square(M)
    opts = opts or SolverOptions()
    lam = opts.resolve_lam(M.shape[0])
    mu = opts.resolve_mu0(M)
    norm_M = max(float(np.linalg.norm(M)), 1e-12)

    B = np.zeros_like(M)
    C = np.zeros_like(M)
    Y = np.zeros_like(M)
    hist: list[float] = []
    converged = False
    residual = float(np.linalg.norm(M)) / norm_M

    for _k in range(opts.max_iters):
        B = sv_threshold(M - C + Y / mu, 1.0 / mu, warm=B)
        C = soft_threshold(M - B + Y / mu, lam / mu)
        R = M - B - C
        Y = Y + mu * R
        residual = float(np.linalg.norm(R)) / norm_M
        hist.append(residual)
        if residual <= opts.tol_primal:
            converged = True
            break
        if len(hist) > 10 and hist[-1] > 0.9 * hist[-11]:
            mu *= opts.mu_growth

    objective = norm(B, "nuclear") + lam * norm(C, "l1")
    return DecompositionResult(
        B_star=B,
        C_star=C,
        iterations=len(hist),
        primal_residual=residual,
        objective=objective,
        converged=converged,
        final_penalty=mu,
    )


def _project_box_halfspace(W, total: float):
    """Euclidean projection onto {X : 0 <= X <= 1, sum(X) >= total}: by the
    KKT conditions, clip(W + t, 0, 1) for the least t >= 0 whose sum reaches
    total. That sum is piecewise linear in t, its slope rising by one at each
    breakpoint -w and falling by one at each 1 - w, so one sweep over the
    sorted breakpoints finds t. Should rounding leave the sum short, t moves
    up by growing multiples of its ulp until the result is feasible. The
    caller guarantees total <= W.size."""
    X = np.clip(W, 0.0, 1.0)
    if float(X.sum()) >= total:
        return X
    del X
    # the breakpoints, slopes and sums are built in place, without the
    # temporaries of concatenate and diff, and freed before the final clip:
    # a binding call holds at most three arrays of 2 * W.size entries
    N = W.size
    pts = np.empty(2 * N)
    np.negative(W, out=pts[:N].reshape(W.shape))
    pts[:N].sort()
    np.add(pts[:N], 1.0, out=pts[N:])
    order = np.argsort(pts, kind="stable")
    pts = pts[order]
    slope = np.where(order < N, 1.0, -1.0)
    del order
    np.cumsum(slope, out=slope)
    # sum at each breakpoint; it is 0 at the first, where every w + t <= 0
    reach = np.empty(2 * N)
    reach[0] = 0.0
    np.subtract(pts[1:], pts[:-1], out=reach[1:])
    reach[1:] *= slope[:-1]
    np.cumsum(reach[1:], out=reach[1:])
    k = min(int(np.searchsorted(reach, total)), pts.size - 1)
    t = pts[k - 1] + (total - reach[k - 1]) / slope[k - 1]
    del pts, slope, reach
    step = np.spacing(t)
    X = np.clip(W + t, 0.0, 1.0)
    # ends once t lifts every entry to 1 at the latest, as total <= W.size
    while float(X.sum()) < total:
        t, step = t + step, 2.0 * step
        X = np.clip(W + t, 0.0, 1.0)
    return X


def solve_quasi_clique(A, qc: QuasiCliqueParams, opts: SolverOptions | None = None) -> DecompositionResult:
    """Minimize ||X||_* + lam*||A - X||_1 over X in [0,1]^{n x n} with
    sum(X) >= gamma * eta**2.

    Three-operator consensus splitting: one copy takes the nuclear prox
    (warm-started from its previous value), one
    the l1 prox of the residual A - X, one the Euclidean projection onto the
    box/halfspace intersection (clip(W + t, 0, 1) with the least shift t >= 0
    that meets the density target). The penalty is rebalanced every 10
    iterations to keep primal and dual residuals comparable; convergence
    requires both below tol_primal. The reported primal_residual is the
    largest consensus gap max_i ||Z_i - X||_F / ||A||_F.
    """
    A = _as_square(A)
    opts = opts or SolverOptions()
    n = A.shape[0]
    lam = opts.resolve_lam(n)
    target = qc.gamma * qc.eta * qc.eta
    if target > n * n:
        raise InfeasibleError(
            f"density target gamma*eta^2 = {target:g} exceeds the box capacity n^2 = {n * n}"
        )
    total_mass = float(A.sum())
    if target > total_mass:
        raise InfeasibleError(
            f"density target gamma*eta^2 = {target:g} exceeds the total edge mass "
            f"sum(A) = {total_mass:g}; recovery is structurally impossible"
        )

    # sum(A) >= target > 0 above, so A is nonzero
    pen = opts.mu0 if opts.mu0 is not None else 1.25 / norm(A, "spectral")
    norm_A = max(float(np.linalg.norm(A)), 1e-12)
    X = np.clip(A, 0.0, 1.0)
    Z1 = X.copy()
    Z3 = X.copy()
    U1 = np.zeros_like(A)
    U2 = np.zeros_like(A)
    U3 = np.zeros_like(A)
    gap = np.empty_like(A)
    r_primal = np.inf
    converged = False
    iterations = 0

    for k in range(1, opts.max_iters + 1):
        iterations = k
        Z1 = sv_threshold(X - U1, 1.0 / pen, warm=Z1)
        Z2 = A - soft_threshold(A - (X - U2), lam / pen)
        Z3 = _project_box_halfspace(X - U3, target)
        X_new = (Z1 + U1 + Z2 + U2 + Z3 + U3) / 3.0
        # each consensus gap Z_i - X_new, formed once in one buffer, feeds
        # both the primal residual and the scaled dual update
        r_primal = 0.0
        for Z, U in ((Z1, U1), (Z2, U2), (Z3, U3)):
            np.subtract(Z, X_new, out=gap)
            r_primal = max(r_primal, float(np.linalg.norm(gap)))
            U += gap
        r_primal /= norm_A
        r_dual = pen * float(np.linalg.norm(X_new - X)) / norm_A
        X = X_new
        if r_primal <= opts.tol_primal and r_dual <= opts.tol_primal:
            converged = True
            break
        # residual balancing; scaled duals must shrink when the penalty grows
        if k % 10 == 0:
            if r_primal > 10 * r_dual:
                pen *= 2.0
                U1 /= 2.0
                U2 /= 2.0
                U3 /= 2.0
            elif r_dual > 10 * r_primal:
                pen /= 2.0
                U1 *= 2.0
                U2 *= 2.0
                U3 *= 2.0

    objective = norm(Z3, "nuclear") + lam * norm(A - Z3, "l1")
    return DecompositionResult(
        B_star=Z3,
        C_star=A - Z3,
        iterations=iterations,
        primal_residual=r_primal,
        objective=objective,
        converged=converged,
        final_penalty=pen,
    )


def relative_error(B_star, B0) -> float:
    """||B0 - B_star||_F / ||B0||_F, or ||B_star||_F when B0 = 0."""
    B_star = np.asarray(B_star, dtype=float)
    B0 = np.asarray(B0, dtype=float)
    if B_star.shape != B0.shape:
        raise ValueError(f"shape mismatch: {B_star.shape} vs {B0.shape}")
    denom = float(np.linalg.norm(B0))
    if denom == 0.0:
        return float(np.linalg.norm(B_star))
    return float(np.linalg.norm(B0 - B_star)) / denom


def recovery_success(B_star, B0) -> bool:
    """True iff the relative Frobenius error is at most 1e-6 (inclusive)."""
    return relative_error(B_star, B0) <= RECOVERY_TOL
