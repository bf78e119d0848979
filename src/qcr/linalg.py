"""Dense square-matrix kernels: SVD factors, matrix norms, proximal operators,
and the projection operators onto tangent spaces and support sets that the
solver and certificate modules compose."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NORM_KINDS",
    "SvdFactors",
    "SupportSet",
    "TangentSpace",
    "svd",
    "norm",
    "soft_threshold",
    "sv_threshold",
    "project_T",
    "project_T_perp",
    "project_support",
    "opnorm_PGammaPT",
]

NORM_KINDS = ("nuclear", "spectral", "frobenius", "l1", "linf", "linf2")

_ORTHO_TOL = 1e-10
_POWER_ITER_CAP = 10_000


def _as_matrix(M, name="M"):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"{name} must be a 2-d matrix, got ndim={M.ndim}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} contains non-finite entries")
    return M


def _as_square(M, name="M"):
    M = _as_matrix(M, name)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    return M


@dataclass(frozen=True, eq=False)
class SvdFactors:
    """Truncated SVD M ~ U @ diag(sigma) @ V.T with numerical rank r = len(sigma).

    sigma is nonincreasing and U, V are column-orthonormal.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        if self.U.shape != self.V.shape or self.U.shape[1] != self.sigma.shape[0]:
            raise ValueError("inconsistent factor shapes")
        if np.any(np.diff(self.sigma) > 0) or np.any(self.sigma < 0):
            raise ValueError("sigma must be nonincreasing and nonnegative")

    @property
    def n(self) -> int:
        return self.U.shape[0]

    @property
    def rank(self) -> int:
        return self.sigma.shape[0]


@dataclass(frozen=True, eq=False)
class SupportSet:
    """Index set over an n x n grid, stored as a boolean mask."""

    n: int
    mask: np.ndarray

    def __post_init__(self):
        if self.mask.shape != (self.n, self.n) or self.mask.dtype != np.bool_:
            raise ValueError("mask must be a boolean (n, n) array")
        self.mask.flags.writeable = False

    @classmethod
    def from_mask(cls, mask) -> "SupportSet":
        # a copy, so that freezing it leaves the caller's array writable
        mask = np.array(mask, dtype=bool, order="C")
        if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
            raise ValueError("mask must be square")
        return cls(mask.shape[0], mask)

    def __len__(self) -> int:
        return int(self.mask.sum())


@dataclass(frozen=True, eq=False)
class TangentSpace:
    """Tangent space {U @ X.T + Y @ V.T} of the rank-r matrix with factors U, V."""

    U: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        if self.U.ndim != 2 or self.U.shape != self.V.shape:
            raise ValueError("U and V must share shape (n, r)")
        r = self.r
        for name, W in (("U", self.U), ("V", self.V)):
            err = np.abs(W.T @ W - np.eye(r)).max() if r else 0.0
            if err > _ORTHO_TOL:
                raise ValueError(f"{name} not column-orthonormal (max deviation {err:.2e})")

    @classmethod
    def from_factors(cls, factors: SvdFactors) -> "TangentSpace":
        return cls(factors.U, factors.V)

    @property
    def n(self) -> int:
        return self.U.shape[0]

    @property
    def r(self) -> int:
        return self.U.shape[1]


def svd(M, rank_tol: float = 1e-8) -> SvdFactors:
    """Truncated SVD of a square matrix, keeping sigma_i > rank_tol * sigma_1."""
    M = _as_square(M)
    if not (0.0 < rank_tol < 1.0):
        raise ValueError(f"rank_tol must lie in (0, 1), got {rank_tol}")
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    r = int(np.count_nonzero(s > rank_tol * s[0])) if s.size else 0
    return SvdFactors(
        np.ascontiguousarray(U[:, :r]),
        np.ascontiguousarray(s[:r]),
        np.ascontiguousarray(Vt[:r].T),
    )


def norm(M, kind: str) -> float:
    """Matrix norm: nuclear, spectral, frobenius, entrywise l1/linf, or linf2
    (the max over all row and column Euclidean norms)."""
    M = _as_matrix(M)
    if kind in ("nuclear", "spectral", "linf2") and M.shape[0] != M.shape[1]:
        raise ValueError(f"{kind} norm requires a square matrix, got {M.shape}")
    if kind == "nuclear":
        return float(np.linalg.svd(M, compute_uv=False).sum())
    if kind == "spectral":
        return float(np.linalg.svd(M, compute_uv=False).max(initial=0.0))
    if kind == "frobenius":
        return float(np.linalg.norm(M))
    if kind == "l1":
        return float(np.abs(M).sum())
    if kind == "linf":
        return float(np.abs(M).max(initial=0.0))
    if kind == "linf2":
        rows = np.sqrt((M * M).sum(axis=1))
        cols = np.sqrt((M * M).sum(axis=0))
        return float(max(rows.max(initial=0.0), cols.max(initial=0.0)))
    raise ValueError(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")


def soft_threshold(M, tau: float) -> np.ndarray:
    """Entrywise shrinkage sign(m) * max(|m| - tau, 0), the prox of tau*||.||_1."""
    M = _as_matrix(M)
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    return np.sign(M) * np.maximum(np.abs(M) - tau, 0.0)


def sv_threshold(M, tau: float) -> np.ndarray:
    """Singular-value shrinkage U @ diag(max(sigma - tau, 0)) @ V.T, the prox of
    tau*||.||_*.

    An exactly symmetric M takes the symmetric eigen path: with M = Q diag(w) Q.T
    (eigh), the prox is Q diag(sign(w) * max(|w| - tau, 0)) Q.T, symmetrized
    so that the output is exactly symmetric too. The solvers' other steps are
    entrywise, so a symmetric input keeps every later prox on this path. Any
    other M uses the SVD."""
    M = _as_square(M)
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    if np.array_equal(M, M.T):
        w, Q = np.linalg.eigh(M)
        R = (Q * (np.sign(w) * np.maximum(np.abs(w) - tau, 0.0))) @ Q.T
        return 0.5 * (R + R.T)
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    s = np.maximum(s - tau, 0.0)
    return (U * s) @ Vt


def _tangent_factors(Z, T: TangentSpace):
    """Factors (A, W) of P_T(Z) = U @ A + W @ V.T: A = U.T @ Z and
    W = Z @ V - U @ (A @ V), so that U.T @ W = 0."""
    A = T.U.T @ Z
    return A, Z @ T.V - T.U @ (A @ T.V)


class _Entries:
    """Entries (rows, cols) of a support set, with the rows U[rows] and
    V[cols] of a tangent space's factors, gathered once for the sparse
    tangent kernels below."""

    def __init__(self, S: SupportSet, T: TangentSpace):
        n, r = T.n, T.r
        self.flat = np.flatnonzero(S.mask)
        self.rows, self.cols = np.divmod(self.flat, n)
        self.U = T.U[self.rows]
        self.V = T.V[self.cols]
        # bincount bins of the (n, r) factor entries each sampled entry feeds
        k = np.arange(r)
        self.row_bins = (self.rows[:, None] * r + k).ravel()
        self.col_bins = (self.cols[:, None] * r + k).ravel()


def _tangent_factors_at(vals, E: _Entries, T: TangentSpace):
    """Factors (A, W) of P_T(Z) for the Z that holds vals on E and zeros
    elsewhere: A.T and Z @ V are bincounts of the sampled rows of U and V,
    O(|E| r + n r^2)."""
    n, r = T.n, T.r
    A = np.bincount(E.col_bins, (E.U * vals[:, None]).ravel(), n * r).reshape(n, r).T
    ZV = np.bincount(E.row_bins, (E.V * vals[:, None]).ravel(), n * r).reshape(n, r)
    return A, ZV - T.U @ (A @ T.V)


def _tangent_at(A, W, E: _Entries):
    """Entries of U @ A + W @ V.T on E, O(|E| r)."""
    return np.einsum("ij,ji->i", E.U, A[:, E.cols]) + np.einsum("ij,ij->i", W[E.rows], E.V)


def _tangent_dot(A1, W1, A2, W2) -> float:
    """<U A1 + W1 V.T, U A2 + W2 V.T> = <A1, A2> + <W1, W2>, as U and V are
    orthonormal and U.T @ W = 0."""
    return float(np.vdot(A1, A2) + np.vdot(W1, W2))


def project_T(Z, T: TangentSpace) -> np.ndarray:
    """Orthogonal projection U@U.T@Z + Z@V@V.T - U@U.T@Z@V@V.T onto T.

    With the factors A = U.T@Z and W = Z@V - U@(A@V) of the projection, which
    the certificate kernels keep in place of n x n tangent matrices, it is
    U@A + W@V.T, formed as one GEMM [U W] @ [A; V.T] of inner dimension 2r:
    O(n^2 r)."""
    Z = _as_matrix(Z, "Z")
    if Z.shape != (T.n, T.n):
        raise ValueError(f"Z shape {Z.shape} does not match tangent space n={T.n}")
    A, W = _tangent_factors(Z, T)
    return np.hstack((T.U, W)) @ np.vstack((A, T.V.T))


def project_T_perp(Z, T: TangentSpace) -> np.ndarray:
    """Orthogonal projection Z - P_T(Z) = (I - U@U.T) @ Z @ (I - V@V.T) onto the
    complement of T."""
    Z = _as_matrix(Z, "Z")
    return Z - project_T(Z, T)


def project_support(Z, S: SupportSet) -> np.ndarray:
    """Zero out all entries outside the support set."""
    Z = _as_matrix(Z, "Z")
    if Z.shape != (S.n, S.n):
        raise ValueError(f"Z shape {Z.shape} does not match support n={S.n}")
    return np.where(S.mask, Z, 0.0)


def opnorm_PGammaPT(S: SupportSet, T: TangentSpace, tol: float = 1e-6) -> float:
    """Operator norm of P_Gamma composed with P_T over matrix space.

    Computed as sqrt of the top eigenvalue of the symmetric composition
    P_T P_Gamma P_T by power iteration with a deterministic random start.
    The start is projected into T once; the iterates then stay inside T and
    are held as their factors (A, W), X = U@A + W@V.T. Each step
    X <- P_T P_Gamma X reads X on Gamma's entries and projects those values
    back to factors, O(|Gamma| r + n r^2) instead of a dense n x n
    projection. On hitting the iteration cap a warning is issued and the
    best estimate returned.
    """
    if not (0.0 < tol < 1.0):
        raise ValueError(f"tol must lie in (0, 1), got {tol}")
    if S.n != T.n:
        raise ValueError("support and tangent space dimensions differ")
    if len(S) == 0 or T.r == 0:
        return 0.0

    rng = np.random.default_rng(0x9E3779B9)
    X = rng.standard_normal((S.n, S.n))
    X /= np.linalg.norm(X)
    A, W = _tangent_factors(X, T)
    E = _Entries(S, T)
    lam_prev = np.inf
    lam = 0.0
    for _ in range(_POWER_ITER_CAP):
        FA, FW = _tangent_factors_at(_tangent_at(A, W, E), E, T)
        lam = max(_tangent_dot(A, W, FA, FW), 0.0)
        nrm = np.sqrt(_tangent_dot(FA, FW, FA, FW))
        if nrm == 0.0:
            return 0.0
        A, W = FA / nrm, FW / nrm
        if abs(lam - lam_prev) <= tol * max(lam, 1e-300):
            return float(np.sqrt(lam))
        lam_prev = lam
    warnings.warn(
        "power iteration for the support/tangent operator norm did not converge "
        f"within {_POWER_ITER_CAP} iterations; returning the last estimate",
        RuntimeWarning,
    )
    return float(np.sqrt(lam))
