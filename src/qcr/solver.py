"""One inexact augmented-Lagrangian loop for the rank-sparsity decomposition
program min ||B||_* + lambda*||C||_1 s.t. B + C = M and its density-constrained
variant min ||B||_* + lambda*||A - B||_1 s.t. sum(B) >= gamma*eta^2, B in [0,1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _as_square, _as_int, _ProxCarry, norm, soft_threshold, sv_threshold

__all__ = [
    "SolverOptions",
    "QuasiCliqueParams",
    "DecompositionResult",
    "InfeasibleError",
    "solve_rpca",
    "solve_quasi_clique",
    "relative_error",
    "RECOVERY_TOL",
    "recovery_verdict",
]


class InfeasibleError(ValueError):
    """The density constraint cannot be met (or recovery is structurally impossible)."""


@dataclass(frozen=True)
class SolverOptions:
    """Solver knobs, read alike by both solvers. lam defaults to 1/sqrt(n),
    resolved at solve time when left None. mu0 is the starting penalty; when
    left None each solver computes its own start from the input matrix, as
    its docstring states. The penalty grows by mu_growth whenever the primal
    residual has not shrunk by a factor 0.9 over the last 10 iterations; the
    solve stops once that residual is at most tol_primal, or after max_iters
    iterations."""

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
        if _as_int(self.max_iters, "max_iters") < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")

    def resolve_lam(self, n: int) -> float:
        return self.lam if self.lam is not None else 1.0 / math.sqrt(n)


@dataclass(frozen=True)
class QuasiCliqueParams:
    """Density-constraint parameters: target edge density gamma and target
    quasi-clique size eta (the constraint reads sum(X) >= gamma * eta**2)."""

    gamma: float
    eta: int

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma}")
        if _as_int(self.eta, "eta") < 1:
            raise ValueError(f"eta must be a positive integer, got {self.eta}")


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    B_star: np.ndarray
    C_star: np.ndarray
    iterations: int
    primal_residual: float
    objective: float
    converged: bool
    final_penalty: float


def _alm(M, c_prox, mu, opts: SolverOptions):
    """Inexact augmented-Lagrangian iteration for min ||B||_* + g(C) subject
    to B + C = M, from the penalty mu, on the schedule of SolverOptions.
    Each pass takes B by singular-value shrinkage, with one _ProxCarry for
    the whole solve: it holds the eigenvectors the previous call kept, the
    basis the next call's block steps start from, none on the first call,
    and a bound proven on one call that can certify later ones. Then C by
    c_prox, then a dual ascent step on the constraint.
    c_prox(V, kappa) is the prox of g/mu at V, called with kappa = lam/mu:
    soft_threshold when g = lam*||C||_1. Returns the last B and C and the
    result's iterations, primal_residual, converged and final_penalty.
    An iterate that turns non-finite makes the residual non-finite, which
    raises ValueError, also on the last iteration."""
    lam = opts.resolve_lam(M.shape[0])
    norm_M = max(float(np.linalg.norm(M)), 1e-12)

    C = np.zeros_like(M)
    Y = np.zeros_like(M)
    carry = _ProxCarry()
    hist: list[float] = []

    for _k in range(opts.max_iters):
        B = sv_threshold(M - C + Y / mu, 1.0 / mu, carry=carry)
        C = c_prox(M - B + Y / mu, lam / mu)
        R = M - B - C
        Y = Y + mu * R
        residual = float(np.linalg.norm(R)) / norm_M
        if not math.isfinite(residual):
            raise ValueError(f"iteration {len(hist) + 1} produced a non-finite iterate")
        hist.append(residual)
        if residual <= opts.tol_primal:
            break
        if len(hist) > 10 and hist[-1] > 0.9 * hist[-11]:
            mu *= opts.mu_growth

    stats = {"iterations": len(hist), "primal_residual": residual, "final_penalty": mu}
    # the loop breaks exactly when the residual reaches tol_primal
    stats["converged"] = residual <= opts.tol_primal
    return B, C, stats


def _result(B, C, lam: float, stats: dict) -> DecompositionResult:
    objective = norm(B, "nuclear") + lam * norm(C, "l1")
    return DecompositionResult(B_star=B, C_star=C, objective=objective, **stats)


def solve_rpca(M, opts: SolverOptions | None = None) -> DecompositionResult:
    """Minimize ||B||_* + lam*||C||_1 subject to B + C = M.

    The inexact augmented-Lagrangian iteration of SolverOptions, with C by
    entrywise shrinkage, from the penalty 0.25/mean(|M|) unless opts.mu0 is
    given. The reported primal_residual is ||M - B - C||_F / ||M||_F.
    """
    M = _as_square(M)
    opts = opts or SolverOptions()
    mu0 = opts.mu0 if opts.mu0 is not None else 0.25 / max(float(np.abs(M).mean()), 1e-12)
    B, C, stats = _alm(M, soft_threshold, mu0, opts)
    return _result(B, C, opts.resolve_lam(M.shape[0]), stats)


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


def _l1_prox_in_box_halfspace(A, target: float):
    """The C-step of the quasi-clique program for a 0/1 matrix A: the prox
    V, kappa -> argmin kappa*||C||_1 + ||C - V||_F^2 / 2 subject to A - C in
    {X : 0 <= X <= 1, sum(X) >= target}. Over the box, kappa*|a - x| is
    linear in x for a in {0, 1}, so the prox is a projection:
    C = A - proj(A - V + kappa*(2A - 1))."""
    sign = 2.0 * A - 1.0

    def prox(V, kappa):
        return A - _project_box_halfspace(A - V + kappa * sign, target)

    return prox


def solve_quasi_clique(A, qc: QuasiCliqueParams, opts: SolverOptions | None = None) -> DecompositionResult:
    """Minimize ||B||_* + lam*||A - B||_1 over B in [0,1]^{n x n} with
    sum(B) >= gamma * eta**2, for a 0/1 matrix A.

    The same inexact augmented-Lagrangian iteration as solve_rpca, on
    B + C = A with the constraint moved onto C: its C-step is the l1 prox
    subject to A - C in the box/halfspace set (clip(W + t, 0, 1) with the
    least shift t >= 0 that meets the density target). Only the start
    differs: 1.25/||A||_2 unless opts.mu0 is given, the inexact-ALM start of
    Lin, Chen and Ma (arXiv:1009.5055), under which the nuclear prox
    threshold 1/mu begins near the top eigenvalue and keeps few of them.
    Returns B* = A - C, which lies in the box exactly, and C* = A - B*. The
    reported primal_residual is ||A - B - C||_F / ||A||_F with B the last
    singular-value shrinkage, which is also how far B* lies from it.
    """
    A = _as_square(A)
    opts = opts or SolverOptions()
    n = A.shape[0]
    other = A[(A != 0.0) & (A != 1.0)]
    if other.size:
        raise ValueError(f"solve_quasi_clique needs a 0/1 matrix, got an entry {other[0]:g}")
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
    mu0 = opts.mu0 if opts.mu0 is not None else 1.25 / norm(A, "spectral")
    _, C, stats = _alm(A, _l1_prox_in_box_halfspace(A, target), mu0, opts)
    B_star = A - C
    return _result(B_star, A - B_star, opts.resolve_lam(n), stats)


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


RECOVERY_TOL = 1e-6


def recovery_verdict(result: DecompositionResult, pattern) -> tuple[bool, float]:
    """Score a solve against a block pattern: (recovered, rel), with rel the
    relative_error of result.B_star to pattern. The solve recovers the
    pattern when it converged and rel is at most RECOVERY_TOL."""
    rel = relative_error(result.B_star, pattern)
    return result.converged and rel <= RECOVERY_TOL, rel
