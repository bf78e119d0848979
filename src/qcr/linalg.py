"""Dense square-matrix kernels: SVD factors, matrix norms, proximal operators,
and the projection operators onto tangent spaces and support sets that the
solver and certificate modules compose."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

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
_POWER_ITER_TOL = 1e-6


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
    """Index set over an n x n grid, stored as a read-only copy of a boolean
    mask, so that the caller's array stays writable and a later write to it
    leaves the set unchanged."""

    n: int
    mask: np.ndarray

    def __post_init__(self):
        if self.mask.shape != (self.n, self.n) or self.mask.dtype != np.bool_:
            raise ValueError("mask must be a boolean (n, n) array")
        mask = self.mask.copy()
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)

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

    @property
    def n(self) -> int:
        return self.U.shape[0]

    @property
    def r(self) -> int:
        return self.U.shape[1]


def _nonzero_part(M):
    """The boolean masks of the rows and columns of M that hold a nonzero
    entry, and the submatrix of M where they cross."""
    rows, cols = M.any(axis=1), M.any(axis=0)
    return rows, cols, M[np.ix_(rows, cols)]


def svd(M, rank_tol: float = 1e-8) -> SvdFactors:
    """Truncated SVD of a square matrix, keeping sigma_i > rank_tol * sigma_1.

    Only the part S of M on its nonzero rows and columns is factored; a zero
    row of M gets a zero row of U, and a zero column a zero row of V, both
    exact zeros. So a planted block is factored at the side of its block.
    An exactly symmetric S, as a symmetric M gives and as sv_threshold
    tests, takes one eigh: with S = Q diag(w) Q.T and the eigenpairs ordered
    by |w| descending, sigma = |w|, U = Q and V = Q * sign(w). Any other S
    uses the SVD."""
    M = _as_square(M)
    if not (0.0 < rank_tol < 1.0):
        raise ValueError(f"rank_tol must lie in (0, 1), got {rank_tol}")
    rows, cols, S = _nonzero_part(M)
    if np.array_equal(S, S.T):
        w, Q = np.linalg.eigh(S)
        order = np.argsort(-np.abs(w), kind="stable")
        w, Q = w[order], Q[:, order]
        s = np.abs(w)
        Us, Vs = Q, Q * np.copysign(1.0, w)
    else:
        Us, s, Vt = np.linalg.svd(S, full_matrices=False)
        Vs = Vt.T
    r = int(np.count_nonzero(s > rank_tol * s[0])) if s.size else 0
    U, V = np.zeros((2, M.shape[0], r))
    U[rows], V[cols] = Us[:, :r], Vs[:, :r]
    return SvdFactors(U, np.ascontiguousarray(s[:r]), V)


def norm(M, kind: str) -> float:
    """Matrix norm: nuclear, spectral, frobenius, entrywise l1/linf, or linf2
    (the max over all row and column Euclidean norms).

    The spectral norm is the square root of the top eigenvalue, by eigvalsh,
    of the Gram matrix S @ S.T of the part S of M on its nonzero rows and
    columns, taken along S's shorter side; no SVD is run. It lies within
    1e-14 (relative) of the largest singular value np.linalg.svd gives."""
    M = _as_matrix(M)
    if kind in ("nuclear", "spectral", "linf2") and M.shape[0] != M.shape[1]:
        raise ValueError(f"{kind} norm requires a square matrix, got {M.shape}")
    if kind == "nuclear":
        return float(np.linalg.svd(M, compute_uv=False).sum())
    if kind == "spectral":
        S = _nonzero_part(M)[2]
        if S.shape[0] > S.shape[1]:
            S = S.T
        return math.sqrt(max(float(np.linalg.eigvalsh(S @ S.T)[-1]), 0.0)) if S.size else 0.0
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


def sv_threshold(M, tau: float, *, warm=None, carry=None) -> np.ndarray:
    """Singular-value shrinkage U @ diag(max(sigma - tau, 0)) @ V.T, the prox of
    tau*||.||_*.

    An exactly symmetric M takes the symmetric eigen path: with M = Q diag(w) Q.T,
    the prox is Q diag(sign(w) * max(|w| - tau, 0)) Q.T, symmetrized so that
    the output is exactly symmetric too. The solvers' other steps are
    entrywise, so a symmetric input keeps every later prox on this path. Any
    other M uses the SVD.

    warm, on the eigen path, is a matrix whose range is close to the span of
    the eigenvectors the prox keeps, such as the previous output of an
    iterative solver. For n >= 128 and a warm of rank at most 8, the prox
    is first tried as a certified low-rank prox (see _certified_prox): at
    most 16 block subspace steps from the range of warm, accepted only when
    a residual bound, and either two Cholesky factorizations or a bound
    carried from an earlier call in carry, prove the result within
    sqrt(2) * 1e-13 * ||M||_F of the exact prox. Otherwise the prox is one
    full eigh. carry is a _ProxCarry that one solve hands to each of its
    calls, or None. warm and carry only pick the path, and a carried bound
    only proves what the Cholesky pair would: the output depends on M, tau
    and warm alone. Below n = 128 a full eigh costs no more than the
    attempt."""
    M = _as_square(M)
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    if np.array_equal(M, M.T):
        R = None
        if warm is not None and M.shape[0] >= _WARM_MIN_N:
            warm = _as_square(warm, "warm")
            if warm.shape != M.shape:
                raise ValueError(f"warm shape {warm.shape} does not match M shape {M.shape}")
            R = _certified_prox(M, tau, warm, carry)
        if R is None:
            w, Q = np.linalg.eigh(M)
            keep = np.abs(w) > tau
            w, Q = w[keep], Q[:, keep]
            R = (Q * (w - np.copysign(tau, w))) @ Q.T
        return 0.5 * (R + R.T)
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    s = np.maximum(s - tau, 0.0)
    return (U * s) @ Vt


@lru_cache(maxsize=8)
def _gaussian(seed: int, shape: tuple, unit: bool = False) -> np.ndarray:
    """The standard normal draw of the given shape from default_rng(seed),
    scaled to unit Frobenius norm when unit: a fixed start, drawn on first
    use and then returned as one read-only array."""
    X = np.random.default_rng(seed).standard_normal(shape)
    if unit:
        X /= np.linalg.norm(X)
    X.flags.writeable = False
    return X


# The certified low-rank prox: the least n it is tried at, the largest warm
# rank, the start vectors added to the warm range, the most block steps, the
# residual bound relative to ||M||_F, the seed of the sketch of warm and the
# shift, as a fraction of tau, at which a Cholesky pair first tries to prove
# a bound it can hand on (see _certified_prox).
#
# With the floor at 0, the seed-0 phase grid (n = 100, one trial per cell)
# certifies 863 of its 10,377 prox calls, fails 9,514 attempts and runs
# 12.52 -> 12.65 s (medians of 4, alternated in one process, 2-core x86-64,
# OpenBLAS, 1 thread), with no iteration count changed; so it stays at 128.
# A shift of 0.95 or 0.9 in place of 0.99 fails the first pair on so many
# calls of n = 400 plain solves that they factor more than with no carried
# bound at all (48-54 Cholesky calls against 32-36).
_WARM_MIN_N = 128
_WARM_RANK_MAX = 8
_WARM_EXTRA = 4
_WARM_STEPS = 16
_WARM_RTOL = 1e-13
_WARM_SEED = 0x5EED
_CARRY_SHIFT = 0.99


@dataclass(eq=False)
class _ProxCarry:
    """What the certified prox calls of one solve hand on to later calls: a
    copy M_ref of an input whose dropped spectrum a Cholesky pair proved
    small, the number `kept` of Ritz values it kept, and the bound b with
    all but `kept` eigenvalues of M_ref in (-b, b). M_ref is None until the
    first such proof."""

    M_ref: np.ndarray | None = None
    kept: int = 0
    bound: float = math.inf


def _certified_prox(M, tau: float, warm, carry=None):
    """The prox of the symmetric M from block subspace steps started at the
    range of warm, or None when it cannot be certified.

    The steps end with Ritz pairs (Q, theta) of M, kept where |theta| > tau.
    With the residual R = M Q - Q diag(theta) and D = (I - QQ.T) M (I - QQ.T),
    the matrix M - R Q.T - Q R.T is block diagonal: diag(theta) on range(Q),
    D on its complement. When -tau I < D < tau I its prox is exactly
    Q diag(sign(theta) (|theta| - tau)) Q.T. The prox is nonexpansive, so
    that is within ||R Q.T + Q R.T||_F = sqrt(2) ||R||_F of the prox of M.
    It is accepted when ||R||_F <= 1e-13 ||M||_F.

    Two proofs of -tau I < D < tau I are tried, in turn. The first is a bound
    carried in carry from an earlier call on M_ref, whose eigenvalues all
    but k = carry.kept lie in (-b, b). By Weyl's inequality the eigenvalues
    of M, and then those of M - R Q.T - Q R.T, in the same sorted positions
    lie within ||M - M_ref||_F, and then sqrt(2) ||R||_F, further out. So
    when this call keeps k Ritz values too and
    b + ||M - M_ref||_F + sqrt(2) ||R||_F < tau, at most k eigenvalues of
    M - R Q.T - Q R.T reach tau in magnitude, and theta holds k of them:
    D holds none. The second is Cholesky factorizations of
    s I - D and s I + D, first at s = _CARRY_SHIFT * tau, then at s = tau.
    A pair that succeeds at the smaller s puts the n - k eigenvalues of the
    block D in (-s, s), so those of M in (-b, b) with
    b = s + sqrt(2) ||R||_F; M, k and b then replace what carry held.
    With carry None only the pair at tau is tried.

    Each step filters the block by M^2 - tau^2 I / 2, a multiple of the
    Chebyshev polynomial T_2(M / tau), which is at most 1 in magnitude on
    the spectrum the prox drops, then orthonormalizes it and takes the Ritz
    pairs. With a kept eigenvalue at 2.45 tau and a dropped one at 0.88 tau,
    as late in a quasi-clique solve, the residual needs more than 8 steps
    from a rank-one warm start. The budget of 16 certifies as many calls of
    such a solve at n = 200, 400 and 800 as 32 steps do. The attempt ends
    early, with None, when warm has rank above _WARM_RANK_MAX, when a kept
    Ritz value lies within a factor 2 of tau (the steps would converge too
    slowly) or when the residual, shrinking at its last rate, would miss the
    bound within _WARM_STEPS steps."""
    n = M.shape[0]
    b = _WARM_RANK_MAX + _WARM_EXTRA
    if not tau > 0.0 or n <= 2 * b:
        return None
    # a cheap exit for a warm of high rank: b of its columns already span
    # more than _WARM_RANK_MAX dimensions
    C = warm[:, :: n // b][:, :b]
    g = np.linalg.eigvalsh(C.T @ C)
    if np.count_nonzero(g > 1e-12 * g[-1]) > _WARM_RANK_MAX:
        return None
    omega = _gaussian(_WARM_SEED, (n, b))
    U, s, _ = np.linalg.svd(warm @ omega, full_matrices=False)
    k = int(np.count_nonzero(s > 1e-10 * s[0]))
    if not 0 < k <= _WARM_RANK_MAX:
        return None
    V = np.linalg.qr(np.hstack((U[:, :k], omega[:, :_WARM_EXTRA])))[0]
    bound = _WARM_RTOL * float(np.linalg.norm(M))
    last = np.inf
    for step in range(_WARM_STEPS):
        MV = M @ V
        theta, S = np.linalg.eigh(V.T @ MV)
        keep = np.abs(theta) > tau
        if not keep.any() or np.abs(theta[keep]).min() < 2.0 * tau:
            return None
        Q, MQ, theta = V @ S[:, keep], MV @ S[:, keep], theta[keep]
        res = float(np.linalg.norm(MQ - Q * theta))
        if res <= bound:
            break
        if res * (res / last) ** (_WARM_STEPS - 1 - step) > bound:
            return None
        last = res
        V = np.linalg.qr(M @ MV - (0.5 * tau * tau) * V)[0]
    spread = math.sqrt(2.0) * res
    carried = (
        carry is not None and carry.kept == theta.size and carry.bound + spread < tau
        and carry.bound + float(np.linalg.norm(M - carry.M_ref)) + spread < tau
    )
    if not carried:
        s = _proven_shift(M, Q, MQ, (tau,) if carry is None else (_CARRY_SHIFT * tau, tau))
        if s is None:
            return None
        if s < tau:
            carry.M_ref = M.copy()
            carry.kept = theta.size
            carry.bound = s + spread
    return (Q * (theta - np.copysign(tau, theta))) @ Q.T


def _proven_shift(M, Q, MQ, shifts):
    """The first s in shifts with -s I < D < s I, for D = (I - QQ.T) M (I - QQ.T)
    and Q column-orthonormal, as proven by Cholesky factorizations of s I - D
    and s I + D; None when no s is."""
    # -D = [Q E] [E Q].T - M with E = MQ - Q (Q.T MQ) / 2; each pair factors
    # in the storage of -D, negated in place with its diagonal d between the
    # two factorizations, the diagonal rewritten from d for each
    n = M.shape[0]
    E = MQ - 0.5 * Q @ (Q.T @ MQ)
    D = np.hstack((Q, E)) @ np.vstack((E.T, Q.T)) - M
    d = D.diagonal().copy()
    for s in shifts:
        try:
            for _ in range(2):
                D.flat[:: n + 1] = d + s
                np.linalg.cholesky(D)
                np.negative(D, out=D)
                np.negative(d, out=d)
        except np.linalg.LinAlgError:
            continue
        return s
    return None


# A tangent element U @ A + W @ V.T, with U.T @ W = 0, is held as one flat
# vector x of length 2 n r: A.T (n x r) then W (n x r), each row-major, so
# that x.reshape(2, n, r) is (A.T, W). As U and V are orthonormal, the
# Frobenius inner product of two tangent elements is the dot of their vectors.


def _tangent_factors(Z, T: TangentSpace) -> np.ndarray:
    """The vector of P_T(Z): A = U.T @ Z and W = Z @ V - U @ (A @ V)."""
    A = T.U.T @ Z
    return np.concatenate((A.T, Z @ T.V - T.U @ (A @ T.V))).ravel()


def _deflate(x, T: TangentSpace) -> np.ndarray:
    """Subtract U @ (A @ V) from the W half of x in place, so that the x
    holding Z @ V in that half becomes the vector of P_T(Z); returns x."""
    X = x.reshape((2,) + T.U.shape)
    X[1] -= T.U @ (X[0].T @ T.V)
    return x


class _Entries:
    """Entries of an n x n grid given by their sorted flat indices
    i * n + j, gathered once for the sparse tangent kernels below. Entry
    (i, j) reads A.T[j] and W[i] of a tangent vector, at the positions
    bins[e] = [j r + k, n r + i r + k] for k < r, and weighs them by
    F[e] = [U[i], V[j]]: the entry of U @ A + W @ V.T is F[e] . x[bins[e]].
    Slicing an _Entries takes a run of its entries, as views."""

    def __init__(self, flat, bins, F):
        self.flat = flat
        self.bins = bins
        self.F = F

    @classmethod
    def gather(cls, flat, T: TangentSpace) -> "_Entries":
        n, r = T.n, T.r
        if not flat.size:  # the empty cross set of every planted certificate
            return cls(flat, np.empty((0, 2 * r), dtype=np.intp), np.empty((0, 2 * r)))
        rows, cols = np.divmod(flat, n)
        k = np.arange(r)
        bins = np.hstack((cols[:, None] * r + k, n * r + rows[:, None] * r + k))
        return cls(flat, bins, np.hstack((T.U[rows], T.V[cols])))

    def __getitem__(self, run: slice) -> "_Entries":
        return _Entries(self.flat[run], self.bins[run], self.F[run])


def _tangent_at(x, E: _Entries) -> np.ndarray:
    """Entries of the tangent element x on E, O(|E| r)."""
    return np.einsum("ij,ij->i", E.F, x[E.bins])


def _tangent_factors_at(vals, E: _Entries, T: TangentSpace) -> np.ndarray:
    """The vector of P_T(Z) for the Z that holds vals on E and zeros
    elsewhere: A.T and Z @ V are one bincount of the sampled rows of U and
    V, O(|E| r + n r^2)."""
    x = np.bincount(E.bins.ravel(), (E.F * vals[:, None]).ravel(), 2 * T.n * T.r)
    # bincount counts in integers when E is empty, even with weights
    return _deflate(x.astype(float, copy=False), T)


def _tangent_dense(x, T: TangentSpace) -> np.ndarray:
    """The n x n tangent element U @ A + W @ V.T of the vector x, as one GEMM
    [U W] @ [A; V.T] of inner dimension 2r."""
    X = x.reshape((2,) + T.U.shape)
    return np.hstack((T.U, X[1])) @ np.vstack((X[0].T, T.V.T))


def _tangent_blocks(mask, T: TangentSpace) -> np.ndarray:
    """The blocks S_j = sum_i G_ij U_i.T U_i, then R_i = sum_j G_ij V_j.T V_j,
    of the n x n 0/1 mask G, made exactly symmetric, as one (2 n, r, r)
    array."""
    n, r = T.n, T.r
    G = mask.astype(float)
    blocks = np.concatenate((
        G.T @ (T.U[:, :, None] * T.U[:, None, :]).reshape(n, r * r),
        G @ (T.V[:, :, None] * T.V[:, None, :]).reshape(n, r * r),
    )).reshape(2 * n, r, r)
    return 0.5 * (blocks + blocks.transpose(0, 2, 1))


class _GammaTangentOperator:
    """P_T P_Gamma P_T restricted to T, as a map from the vector x of a
    tangent element X (see _tangent_factors) to that of P_T P_Gamma X.
    opnorm_PGammaPT and neumann_QC each build one and apply it at every
    step of the power iteration and of conjugate gradients.

    Gamma is split in two. Its cross set E is its entries in supp(U) x
    supp(V), the rows where U is nonzero crossed with those where V is; the
    rest goes to the r x r blocks S_j and R_i of _tangent_blocks. On the
    rest every cross term G_ij U_ik V_jl is zero, so there P_T P_Gamma P_T
    is the blockwise product of the blocks with x, O(n r^2), with no rank-r
    correction: column j of the product's A half is S_j A_j, and S_j != 0
    needs an entry (i, j) of the rest with U_i != 0, so V_j = 0, and every
    term of A @ V has a factor that is exactly 0. A step adds to that the
    image of E: X read on E and projected back to factors,
    O(|E| r + n r^2). E is empty on every planted certificate, where U and
    V vanish outside the planted block and Gamma lies outside it."""

    def __init__(self, S: SupportSet, T: TangentSpace):
        self.T = T
        rows = np.flatnonzero(T.U.any(axis=1))
        # E read on the rows of supp(U) alone, with no n x n temporary
        cross = S.mask[rows] & T.V.any(axis=1)
        flat = np.empty(0, dtype=np.intp)
        rest = S.mask
        if cross.any():
            i, j = np.nonzero(cross)
            i = rows[i]
            flat = i * T.n + j  # sorted, as rows ascend
            rest = rest.copy()
            rest[i, j] = False
        self.E = _Entries.gather(flat, T)
        self.blocks = _tangent_blocks(rest, T)

    def __call__(self, x):
        B = self.blocks
        y = (B @ x.reshape(B.shape[:2] + (1,))).ravel()
        if self.E.flat.size:
            y += _tangent_factors_at(_tangent_at(x, self.E), self.E, self.T)
        return y


def project_T(Z, T: TangentSpace) -> np.ndarray:
    """Orthogonal projection U@U.T@Z + Z@V@V.T - U@U.T@Z@V@V.T onto T.

    With the factors A = U.T@Z and W = Z@V - U@(A@V) of the projection, which
    the certificate kernels keep in place of n x n tangent matrices, it is
    U@A + W@V.T, formed as one GEMM [U W] @ [A; V.T] of inner dimension 2r:
    O(n^2 r)."""
    Z = _as_matrix(Z, "Z")
    if Z.shape != (T.n, T.n):
        raise ValueError(f"Z shape {Z.shape} does not match tangent space n={T.n}")
    return _tangent_dense(_tangent_factors(Z, T), T)


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


def opnorm_PGammaPT(S: SupportSet, T: TangentSpace) -> float:
    """Operator norm of P_Gamma composed with P_T over matrix space.

    Computed as sqrt of the top eigenvalue of the symmetric composition
    P_T P_Gamma P_T by power iteration with a deterministic random start.
    The start is projected into T once; the iterates then stay inside T and
    are held as flat vectors of their factors, x = [vec A.T; vec W] with
    X = U@A + W@V.T (see _tangent_factors), on which the Frobenius inner
    product is the dot product. Each step applies _GammaTangentOperator,
    built once here: a product with its 2 n blocks of r x r, O(n r^2), plus,
    for the entries of Gamma in supp(U) x supp(V), a read of X there
    projected back to factors, O(|E| r + n r^2). On hitting the iteration
    cap a warning is issued and the best estimate returned.

    The result is a lower estimate of the norm. Each step's eigenvalue
    estimate is the Rayleigh quotient <X, P_T P_Gamma P_T X> of a unit X,
    which never exceeds the top eigenvalue, and the iteration stops once that
    quotient changes by at most _POWER_ITER_TOL = 1e-6, relative, from one
    step to the next. So it bounds the step-to-step change, not the error:
    when the top eigenvalues lie close together the quotient creeps up
    slowly, and the estimate can stop further below the norm than 1e-6
    suggests. The report's gate reads it; neumann_QC does not.

    On planted instances the exact norm is known: U and V vanish outside
    the planted block and Gamma lies outside it, so the cross set is empty,
    the operator is block diagonal with the r x r blocks S_j and R_i, and
    the squared norm is their top eigenvalue. On the n = 100 suite
    certificates the estimate lies 6e-7 to 1.7e-4 (relative) below it.
    """
    if S.n != T.n:
        raise ValueError("support and tangent space dimensions differ")
    if len(S) == 0 or T.r == 0:
        return 0.0

    x = _tangent_factors(_gaussian(0x9E3779B9, (S.n, S.n), unit=True), T)
    step = _GammaTangentOperator(S, T)
    lam_prev = np.inf
    lam = 0.0
    for _ in range(_POWER_ITER_CAP):
        y = step(x)
        # ndarray.dot is the BLAS dot that @ reaches, with less dispatch
        lam = max(float(x.dot(y)), 0.0)
        nrm = math.sqrt(y.dot(y))
        if nrm == 0.0:
            return 0.0
        x = y
        x /= nrm
        if abs(lam - lam_prev) <= _POWER_ITER_TOL * max(lam, 1e-300):
            return math.sqrt(lam)
        lam_prev = lam
    warnings.warn(
        "power iteration for the support/tangent operator norm did not converge "
        f"within {_POWER_ITER_CAP} iterations; returning the last estimate",
        RuntimeWarning,
    )
    return math.sqrt(lam)
