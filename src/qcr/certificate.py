"""Dual-certificate construction and verification for the rank-sparsity
decomposition of a planted instance.

The low-rank half of the certificate comes from a golfing scheme over random
batches of the noise-free index set; the sparse half from a Neumann series
summed by conjugate gradients. Verification measures the five sufficient
conditions on those two matrices together with the operator-norm and
regularization gates, and also reports the combined-dual diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instances import InstanceParams, PlantedInstance, _bernoulli_words, derive_seed
from .linalg import (
    SupportSet,
    SvdFactors,
    TangentSpace,
    _as_int,
    _as_matrix,
    _Entries,
    _GammaTangentOperator,
    _tangent_at,
    _tangent_dense,
    _tangent_factors,
    _tangent_factors_at,
    norm,
    opnorm_PGammaPT,
    project_T_perp,
    svd,
)
from .solver import SolverOptions

__all__ = [
    "IncoherenceReport",
    "GolfingConfig",
    "CertificateReport",
    "NeumannDivergenceError",
    "incoherence",
    "partition_complement",
    "golfing_QB",
    "neumann_QC",
    "verify_certificate",
    "DEFAULT_RANK_TOL",
    "Check",
    "CONDITIONS",
    "GATES",
]

# Rank cut used when factoring a planted block: the sampled block has one
# dominant singular value ~ gamma*n_c and a noise bulk ~ 2*sqrt(gamma*(1-gamma)*n_c),
# so a fixed relative cut of 0.25 isolates the planted direction for the sizes
# and densities of interest.
DEFAULT_RANK_TOL = 0.25

_CERT_SEED_TAG = 0xCE27


@dataclass(frozen=True)
class Check:
    """One verified inequality: the CertificateReport field named measured
    must stand in relation ("<" or "<=") to scale, or to scale * lam when
    lam_scaled."""

    label: str
    measured: str
    relation: str
    scale: float
    lam_scaled: bool = False

    def threshold(self, lam: float) -> float:
        return self.scale * lam if self.lam_scaled else self.scale

    def holds(self, value: float, lam: float) -> bool:
        bound = self.threshold(lam)
        return value < bound if self.relation == "<" else value <= bound


# The five sufficient conditions, in the order of CertificateReport.conditions.
# On a planted instance (ii) measures exactly 0.0: Gamma lies outside the
# planted block, and U V^T and Q_B both vanish there, since golfing's residual
# starts as U V^T and every batch reads, and so adds, zeros off the block.
CONDITIONS = (
    Check("spectral norm of golfing half", "norm_QB", "<", 1 / 8),
    Check("on-support residual of golfing half", "residual_golfing", "<", 1 / 8, lam_scaled=True),
    Check("off-support entry norm, golfing half", "linf_complement_B", "<", 1 / 4, lam_scaled=True),
    Check("spectral norm of series half", "norm_QC", "<", 1 / 8),
    Check("off-support entry norm, series half", "linf_complement_C", "<", 1 / 4),
)

# The gates that CertificateReport.overall requires on top of the conditions.
GATES = (
    Check("support/tangent operator norm", "opnorm_PGPT", "<=", 1 / 2),
    Check("lambda", "lam", "<", 1.0),
)


class NeumannDivergenceError(RuntimeError):
    """The Neumann series for the sparse dual half does not converge."""


@dataclass(frozen=True)
class IncoherenceReport:
    """Smallest incoherence parameters for which the row, column, and joint
    conditions hold with equality at the binding term."""

    mu_row: float
    mu_col: float
    mu_joint: float
    mu: float
    r: int
    n: int


@dataclass(frozen=True)
class GolfingConfig:
    """Golfing batch schedule: k0 batches, each sampled Bernoulli(q), with q
    derived from the overall probability p via q = 1 - p**(1/k0) so that
    (1 - q)**k0 = p."""

    k0: int
    p: float
    seed: int

    def __post_init__(self):
        if _as_int(self.k0, "k0") < 1:
            raise ValueError(f"k0 must be >= 1, got {self.k0}")
        # p = 0 (q = 1) is legal for partitioning alone; golfing_QB
        # separately requires a positive p for its 1/p scaling
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"p must lie in [0, 1], got {self.p}")

    @property
    def q(self) -> float:
        return 1.0 - self.p ** (1.0 / self.k0)

    @classmethod
    def for_instance(
        cls,
        params: InstanceParams,
        p: float | None = None,
        seed: int | None = None,
        k0: int | None = None,
    ) -> "GolfingConfig":
        """Schedule for an instance: p defaults to gamma, seed to one derived
        from the instance seed, and k0 to 20 * max(1, ceil(log n))."""
        if k0 is None:
            # at least one round of 20 batches, also at n = 1 where log n = 0
            k0 = 20 * max(1, math.ceil(math.log(params.n)))
        return cls(
            k0=k0,
            p=params.gamma if p is None else p,
            seed=derive_seed(params.seed, _CERT_SEED_TAG) if seed is None else seed,
        )


@dataclass(frozen=True, eq=False)
class CertificateReport:
    """Certificate verification output.

    conditions holds the five flags of CONDITIONS, in order, and margins
    their measured / threshold ratios; overall additionally requires every
    GATES check. joint_* fields report the same style of measurement on the
    summed dual. On planted instances joint_residual is about 0 by
    construction: U V.T and Q_B vanish on Gamma, and neumann_QC makes
    P_Gamma Q_C = lam * sign_C0 up to its CG tolerance, so it checks that
    solve and is not a certificate condition. linf2_QB, linf2_QC and
    linf2_Q are the l_{inf,2} norms (largest row or column Euclidean norm)
    of Q_B, Q_C and Q_B + Q_C, the norm the abstract states its recovery
    bound in; they are measured only and enter no check.
    """

    Q_B: np.ndarray
    Q_C: np.ndarray
    norm_QB: float
    residual_golfing: float
    linf_complement_B: float
    norm_QC: float
    linf_complement_C: float
    opnorm_PGPT: float
    lam: float
    conditions: tuple[bool, bool, bool, bool, bool]
    margins: tuple[float, float, float, float, float]
    overall: bool
    golfing_trace: tuple[float, ...]
    joint_norm_Q: float
    joint_residual: float
    joint_linf_complement: float
    linf2_QB: float
    linf2_QC: float
    linf2_Q: float
    incoherence: IncoherenceReport
    config: GolfingConfig
    regime_threshold: float
    regime_ok: bool


def incoherence(B0, rank_tol: float = 1e-8) -> IncoherenceReport:
    """Incoherence parameters of the numerical row/column spaces of B0."""
    return _incoherence_of(svd(B0, rank_tol))


def _incoherence_of(factors: SvdFactors) -> IncoherenceReport:
    n, r = factors.n, factors.rank
    if r == 0:
        raise ValueError("incoherence is undefined for the zero matrix")
    mu_row = n / r * float((factors.U * factors.U).sum(axis=1).max())
    mu_col = n / r * float((factors.V * factors.V).sum(axis=1).max())
    E = factors.U @ factors.V.T
    mu_joint = n * n / r * float(np.abs(E).max()) ** 2
    return IncoherenceReport(
        mu_row=mu_row,
        mu_col=mu_col,
        mu_joint=mu_joint,
        mu=max(mu_row, mu_col, mu_joint),
        r=r,
        n=n,
    )


def partition_complement(Gamma: SupportSet, cfg: GolfingConfig, T: TangentSpace) -> list[np.ndarray]:
    """Draw k0 index batches, each Bernoulli(q) over supp(U) x supp(V) (the
    rows where U is nonzero crossed with those where V is) outside Gamma. A
    batch is the sorted flat indices i * n + j of its entries. Golfing adds
    exact zeros at the other entries when its residual vanishes there, as
    on a planted instance.

    Batch k reads entry (i, j) from word k * n * n + i * n + j of one Philox
    stream seeded with cfg.seed and keeps it when the word passes the
    instances' Bernoulli(q) word test, that of Generator.random(...) < q on
    the same stream; so a batch is the full-grid draw filtered to
    supp(U) x supp(V). Only the words of the rows from the first to the
    last of supp(U) are drawn; _skip_words moves past the others."""
    n = Gamma.n
    if T.n != n:
        raise ValueError("support and tangent space dimensions differ")
    in_U = T.U.any(axis=1)
    rows = np.flatnonzero(in_U)
    lo, hi = (int(rows[0]) * n, (int(rows[-1]) + 1) * n) if rows.size else (0, 0)
    keep = (in_U[:, None] & T.V.any(axis=1) & ~Gamma.mask).ravel()[lo:hi]
    bits = np.random.Philox(cfg.seed)
    hit = np.empty(hi - lo, dtype=bool)
    batches = []
    drawn = 0
    for k in range(cfg.k0):
        _skip_words(bits, drawn, k * n * n + lo)
        flat = np.flatnonzero(_bernoulli_words(bits.random_raw(hit.size), cfg.q, out=hit))
        batches.append(flat[keep[flat]] + lo)
        drawn = k * n * n + hi
    return batches


def _skip_words(bits: np.random.Philox, drawn: int, to: int) -> None:
    """Move a Philox stream that has given its first `drawn` raw words on to
    word `to` >= drawn. Philox makes its words in blocks of four, and
    Philox.advance skips whole blocks and drops the rest of a block begun;
    the words of the last block before `to` are drawn and dropped."""
    if to == drawn:
        return
    begun = -(-drawn // 4)
    if to // 4 >= begun:
        bits.advance(to // 4 - begun)
        drawn = to - to % 4
    bits.random_raw(to - drawn)


def _gather_batches(batches, T: TangentSpace) -> list[_Entries]:
    """Check that every batch is a 1-d integer array of strictly increasing
    flat indices in [0, n * n), and gather the entries of all of them at
    once; returns one _Entries run per batch."""
    n = T.n
    for flat in batches:
        if not (isinstance(flat, np.ndarray) and flat.ndim == 1 and flat.dtype.kind in "iu"):
            raise ValueError("a batch must be a 1-d integer array of flat indices")
    # an unsigned index past the int64 range wraps to a negative one
    flat = np.concatenate(batches, dtype=np.int64, casting="unsafe")
    ends = np.cumsum([b.size for b in batches])
    rising = flat[1:] > flat[:-1]
    # the first entry of a batch may lie below the last of the one before
    starts = ends[:-1]
    rising[starts[(starts > 0) & (starts < flat.size)] - 1] = True
    if flat.size and not (flat.min() >= 0 and flat.max() < n * n and rising.all()):
        raise ValueError(f"a batch must hold strictly increasing flat indices in [0, {n * n})")
    E = _Entries.gather(flat, T)
    return [E[lo:hi] for lo, hi in zip(np.concatenate(([0], starts)), ends)]


def golfing_QB(T: TangentSpace, batches: list[np.ndarray], p: float):
    """Golfing construction of the low-rank dual half.

    Iterates Y_k = Y_{k-1} + (1/p) * P_{batch_k} P_T (UV^T - Y_{k-1}) in the
    residual form: with Z_0 = UV^T and Z_k = UV^T - P_T Y_k, each batch adds
    G_k = (1/p) * P_{batch_k} Z_{k-1} to Y and subtracts P_T G_k from Z. Z
    lives in T and is held as the flat vector x = [vec A.T; vec W] of its
    factors, Z = U@A + W@V.T, starting from A = V.T, W = 0. The batches are
    checked, and their rows, columns and rows of U and V gathered, once for
    all of them; a batch then reads Z on its entries and projects G back to
    factors, O(|batch| r + n r^2). Y = G_1 + ... + G_k0 is summed once,
    after the loop, by one bincount over all batches, so the only dense
    projection is the last one. Each batch is an array of strictly
    increasing flat indices i * n + j, as partition_complement draws them;
    entries outside supp(U) x supp(V), where a planted residual vanishes,
    may be left out of it, as they add exact zeros. Returns (Q_B, trace)
    with Q_B the projection of the final Y onto the tangent complement and
    trace the Frobenius norms sqrt(||A||^2 + ||W||^2) of Z_0, ..., Z_k0.
    """
    if not batches:
        raise ValueError("batches must be nonempty")
    if not (0.0 < p <= 1.0):
        raise ValueError(f"p must lie in (0, 1], got {p}")
    runs = _gather_batches(batches, T)
    x = np.concatenate((T.V, np.zeros_like(T.U))).ravel()
    a, w = x.reshape(2, -1)
    trace = [math.sqrt(a.dot(a) + w.dot(w))]
    added = []
    for E in runs:
        G = _tangent_at(x, E) / p
        added.append(G)
        x -= _tangent_factors_at(G, E, T)
        trace.append(math.sqrt(a.dot(a) + w.dot(w)))
    # bincount adds in array order, so an entry in several batches sums in
    # batch order from 0.0, as a per-batch Y[E.flat] += G would; with no
    # entries at all it counts in integers
    flat = np.concatenate([E.flat for E in runs])
    Y = np.bincount(flat, np.concatenate(added), T.n * T.n).astype(float, copy=False)
    return project_T_perp(Y.reshape(T.n, T.n), T), trace


def neumann_QC(Gamma: SupportSet, T: TangentSpace, sign_C0, lam: float) -> np.ndarray:
    """Neumann series for the sparse dual half, summed by conjugate gradients.

    Q_C = lam * P_Tperp sum_k (P_Gamma P_T P_Gamma)^k sign_C0. With s_0 =
    P_T sign_C0 and K = P_T P_Gamma P_T, the terms after the first are
    P_Gamma K^k s_0, so the sum is sign_C0 + P_Gamma y where (I - K) y = s_0.
    Conjugate gradients (Hestenes & Stiefel 1952) solve that in T, on the
    flat vectors of tangent factors (see _tangent_factors), with K applied
    by _GammaTangentOperator, until the residual is at most 1e-10 *
    ||sign_C0||_F; ||P_Gamma Q_C - lam * sign_C0||_F is then at most lam
    times it. Raises NeumannDivergenceError when a search direction p has
    <p, K p> >= (1 - 1e-6)^2 <p, p>, which proves ||P_Gamma P_T|| >= 1 -
    1e-6, or when the residual is still above the tolerance after dim T =
    2 n r - r^2 steps.
    """
    if Gamma.n != T.n:
        raise ValueError("support and tangent space dimensions differ")
    sign_C0 = _as_matrix(sign_C0, "sign_C0")
    if sign_C0.shape != (Gamma.n, Gamma.n):
        raise ValueError("sign_C0 shape does not match the support")
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    if np.any(sign_C0[~Gamma.mask] != 0):
        raise ValueError("sign_C0 must be supported on Gamma")

    step = _GammaTangentOperator(Gamma, T)
    res = _tangent_factors(sign_C0, T)
    y = np.zeros_like(res)
    p = res.copy()
    rr = res.dot(res)
    stop = (1e-10 * float(np.linalg.norm(sign_C0))) ** 2
    dim = 2 * T.n * T.r - T.r**2
    for k in range(dim + 1):
        if rr <= stop:
            break
        if k == dim:
            raise NeumannDivergenceError(
                f"no CG convergence in dim T = {dim} steps; the series does not converge"
            )
        Kp = step(p)
        pp, pKp = p.dot(p), p.dot(Kp)
        if pKp >= (1.0 - 1e-6) ** 2 * pp:
            raise NeumannDivergenceError(
                "a direction p with ||P_Gamma P_T p|| >= 0.999999 ||p|| shows the "
                "support/tangent operator norm too close to 1; the series does not converge"
            )
        alpha = rr / (pp - pKp)
        y += alpha * p
        res -= alpha * (p - Kp)
        rr, last = res.dot(res), rr
        p = res + (rr / last) * p
    acc = sign_C0 + np.where(Gamma.mask, _tangent_dense(y, T), 0.0)
    return lam * project_T_perp(acc, T)


def verify_certificate(
    inst: PlantedInstance,
    lam: float | None = None,
    cfg: GolfingConfig | None = None,
    rank_tol: float = DEFAULT_RANK_TOL,
    regime_c0: float = 1.0,
) -> CertificateReport:
    """Construct both dual halves for a planted instance and measure every
    sufficient condition.

    The tangent space comes from the truncated SVD of the planted block at
    rank_tol (defaulting to the spectral-gap cut that isolates the planted
    direction); the noise support of the instance plays Gamma; lam, checked
    like SolverOptions.lam, defaults to 1/sqrt(n); cfg defaults to batches at
    overall probability p = gamma with a seed derived from the instance seed;
    regime_c0, the constant of the sampling-regime threshold
    c0 * mu * r * log(n) / n, must be positive and finite.
    """
    params = inst.params
    n = params.n
    B0 = inst.B0
    if not np.any(B0):
        raise ValueError("certificate verification requires a nonzero planted block")
    lam = SolverOptions(lam=lam).resolve_lam(n)
    if not 0 < regime_c0 < math.inf:
        raise ValueError(f"regime_c0 must be positive and finite, got {regime_c0}")
    if cfg is None:
        cfg = GolfingConfig.for_instance(params)

    factors = svd(B0, rank_tol)
    T = TangentSpace(factors.U, factors.V)
    Gamma = inst.noise_support
    E = factors.U @ factors.V.T
    sign_C0 = np.sign(inst.C0)

    batches = partition_complement(Gamma, cfg, T)
    Q_B, trace = golfing_QB(T, batches, cfg.p)
    opn = opnorm_PGammaPT(Gamma, T)
    Q_C = neumann_QC(Gamma, T, sign_C0, lam)

    on_gamma = Gamma.mask
    measured = {
        "norm_QB": norm(Q_B, "spectral"),
        "residual_golfing": float(np.linalg.norm(np.where(on_gamma, E + Q_B, 0.0))),
        "linf_complement_B": float(np.abs(np.where(on_gamma, 0.0, E + Q_B)).max(initial=0.0)),
        "norm_QC": norm(Q_C, "spectral"),
        "linf_complement_C": float(np.abs(np.where(on_gamma, 0.0, Q_C)).max(initial=0.0)),
        "opnorm_PGPT": opn,
        "lam": lam,
    }
    conditions = tuple(c.holds(measured[c.measured], lam) for c in CONDITIONS)
    margins = tuple(measured[c.measured] / c.threshold(lam) for c in CONDITIONS)
    overall = all(conditions) and all(g.holds(measured[g.measured], lam) for g in GATES)

    Q = Q_B + Q_C
    joint_norm_Q = norm(Q, "spectral")
    joint_residual = float(np.linalg.norm(np.where(on_gamma, E - lam * sign_C0 + Q, 0.0)))
    joint_linf_complement = float(np.abs(np.where(on_gamma, 0.0, E + Q)).max(initial=0.0))

    inc = _incoherence_of(factors)
    regime_threshold = regime_c0 * inc.mu * factors.rank * math.log(n) / n

    return CertificateReport(
        Q_B=Q_B,
        Q_C=Q_C,
        **measured,
        conditions=conditions,
        margins=margins,
        overall=overall,
        golfing_trace=tuple(trace),
        joint_norm_Q=joint_norm_Q,
        joint_residual=joint_residual,
        joint_linf_complement=joint_linf_complement,
        linf2_QB=norm(Q_B, "linf2"),
        linf2_QC=norm(Q_C, "linf2"),
        linf2_Q=norm(Q, "linf2"),
        incoherence=inc,
        config=cfg,
        regime_threshold=regime_threshold,
        regime_ok=cfg.p >= regime_threshold,
    )

