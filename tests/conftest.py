"""Shared fixtures and hypothesis profiles."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from qcr.fileio import FileFormatError
from qcr.instances import InstanceParams, PlantedInstance
from qcr.linalg import (
    SupportSet,
    TangentSpace,
    _Entries,
    _tangent_at,
    _tangent_factors_at,
    project_support,
    project_T,
    project_T_perp,
)
from qcr.solver import DecompositionResult

settings.register_profile(
    "default",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "acceptance",
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def rng(seed: int) -> np.random.Generator:
    """Counter-based generator so tests are reproducible bit for bit."""
    return np.random.Generator(np.random.Philox(seed))


def gen_bernoulli_support(n: int, p: float, seed: int) -> SupportSet:
    """Include each index pair independently with probability p."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return SupportSet(n, rng(seed).random((n, n)) < p)


def gen_random_sign_sparse(n: int, p: float, seed: int) -> np.ndarray:
    """Entries independently +1 with probability p/2, -1 with probability p/2,
    zero otherwise."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p}")
    u = rng(seed).random((n, n))
    return np.where(u < p / 2, 1.0, np.where(u < p, -1.0, 0.0))


def random_tangent(n: int, r: int, seed: int) -> TangentSpace:
    """A rank-r tangent space with dense random orthonormal U and V."""
    g = rng(seed)
    U, _ = np.linalg.qr(g.standard_normal((n, r)))
    V, _ = np.linalg.qr(g.standard_normal((n, r)))
    return TangentSpace(U=U, V=V)


def planted_tangent(n: int, r: int, rows_u, rows_v, seed: int) -> TangentSpace:
    """A rank-r tangent space whose U and V vanish outside rows_u and rows_v."""
    g = rng(seed)
    U, V = np.zeros((n, r)), np.zeros((n, r))
    U[rows_u] = np.linalg.qr(g.standard_normal((len(rows_u), r)))[0]
    V[rows_v] = np.linalg.qr(g.standard_normal((len(rows_v), r)))[0]
    return TangentSpace(U, V)


def planted_supports(n: int, r: int, same: bool, seed: int, density: float):
    """A planted T, whose U and V vanish outside rows 0..n/2 and 2..n-2 (U = V
    when same), and two Gamma masks: a random one of the given density that
    misses supp(U) x supp(V), and the same plus one entry inside it. Returns
    (T, miss, one, the flat index of that entry)."""
    rows_u = np.arange(n // 2 + 1)
    rows_v = rows_u if same else np.arange(2, n - 1)
    T = planted_tangent(n, r, rows_u, rows_v, seed)
    if same:
        T = TangentSpace(T.U, T.U)
    live = np.zeros((n, n), dtype=bool)
    live[np.ix_(rows_u, rows_v)] = True
    miss = (rng(seed + 1).random((n, n)) < density) & ~live
    one = miss.copy()
    flat = rows_u[1] * n + rows_v[2]
    one.flat[flat] = True
    return T, miss, one, flat


def gen_low_rank(n: int, r: int, seed: int) -> np.ndarray:
    """Random n x n matrix G @ H.T of rank r with standard-normal factors."""
    if not (1 <= r <= n):
        raise ValueError(f"r must satisfy 1 <= r <= n, got r={r}, n={n}")
    g = rng(seed)
    G = g.standard_normal((n, r))
    H = g.standard_normal((n, r))
    return G @ H.T


def planted_reference(params: InstanceParams) -> np.ndarray:
    """A planted adjacency built from doubles: Generator.random over the
    upper triangle in np.triu_indices order, below gamma inside the block
    and rho outside, then mirrored. gen_planted must give the same bytes."""
    n, n_c = params.n, params.n_c
    rng = np.random.Generator(np.random.Philox(params.seed))
    iu, ju = np.triu_indices(n)
    probs = np.where((iu < n_c) & (ju < n_c), params.gamma, params.rho)
    draws = rng.random(iu.size) < probs
    A = np.zeros((n, n))
    A[iu[draws], ju[draws]] = 1.0
    return np.maximum(A, A.T)


def read_instance_reference(path):
    """Instance file parse with every triplet line checked one by one in
    Python; read_instance must return the same instance or raise the same
    FileFormatError."""
    with open(path) as fh:
        raw = [ln.strip() for ln in fh]
    lines = [ln for ln in raw if ln and not ln.startswith("#")]
    if not lines:
        raise FileFormatError(f"{path}: empty instance file")
    head = lines[0].split()
    if len(head) != 5:
        raise FileFormatError(f"{path}: header must be 'n n_c gamma rho seed'")
    try:
        n, n_c = int(head[0]), int(head[1])
        gamma, rho = float(head[2]), float(head[3])
        seed = int(head[4])
        params = InstanceParams(n=n, n_c=n_c, gamma=gamma, rho=rho, seed=seed)
    except ValueError as exc:
        raise FileFormatError(f"{path}: bad header: {exc}") from exc

    A = np.zeros((n, n))
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise FileFormatError(f"{path}: bad triplet line {ln!r}")
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise FileFormatError(f"{path}: bad triplet line {ln!r}") from exc
        if not math.isfinite(v):
            raise FileFormatError(f"{path}: non-finite value in triplet line {ln!r}")
        if not (0 <= i < n and 0 <= j < n):
            raise FileFormatError(f"{path}: index ({i}, {j}) out of range for n={n}")
        A[i, j] = v
    return PlantedInstance(params, A)


def svd_threshold_reference(M, tau, *, carry=None):
    """Singular-value shrinkage by the SVD formula, whatever path sv_threshold
    takes; carry, which only picks that path, is ignored."""
    U, s, Vt = np.linalg.svd(M)
    return (U * np.maximum(s - tau, 0.0)) @ Vt


def dykstra_reference(W, total, tol=1e-10, max_iters=5000):
    """Projection onto {X : 0 <= X <= 1, sum(X) >= total} by Dykstra's
    alternating projections with correction terms, run to a tol fixed point."""
    x = W
    p = np.zeros_like(W)
    q = np.zeros_like(W)
    for _ in range(max_iters):
        y = np.clip(x + p, 0.0, 1.0)
        p = x + p - y
        z = y + q
        deficit = total - float(z.sum())
        x_new = z + deficit / W.size if deficit > 0 else z
        q = z - x_new
        if np.abs(x_new - x).max(initial=0.0) <= tol:
            return x_new
        x = x_new
    raise AssertionError("reference Dykstra projection did not converge")


def shifted_clip_reference(W, total):
    """The box/halfspace projection clip(W + t, 0, 1) by one sweep over the
    sorted breakpoints, each intermediate a fresh array (concatenate, argsort,
    diff); the solver builds the same arrays in place and must agree bitwise."""
    X = np.clip(W, 0.0, 1.0)
    if float(X.sum()) >= total:
        return X
    a = np.sort(-W, axis=None)
    pts = np.concatenate((a, a + 1.0))
    order = np.argsort(pts, kind="stable")
    pts = pts[order]
    slope = np.cumsum(np.where(order < a.size, 1.0, -1.0))
    reach = np.concatenate(([0.0], np.cumsum(slope[:-1] * np.diff(pts))))
    k = min(int(np.searchsorted(reach, total)), pts.size - 1)
    t = pts[k - 1] + (total - reach[k - 1]) / slope[k - 1]
    step = np.spacing(t)
    X = np.clip(W + t, 0.0, 1.0)
    while float(X.sum()) < total:
        t, step = t + step, 2.0 * step
        X = np.clip(W + t, 0.0, 1.0)
    return X


def box_halfspace_l1_prox_reference(A, V, kappa, total):
    """The quasi-clique C-step argmin kappa*||C||_1 + ||C - V||_F^2 / 2
    subject to A - C in {X : 0 <= X <= 1, sum(X) >= total}, by its KKT form
    for any A: A - C = clip(A - soft(V - t, kappa), 0, 1) for the least t >= 0
    whose sum reaches total, found by bisection down to adjacent floats."""

    def X(t):
        W = V - t
        return np.clip(A - np.sign(W) * np.maximum(np.abs(W) - kappa, 0.0), 0.0, 1.0)

    lo, hi = 0.0, 1.0
    if X(lo).sum() >= total:
        return A - X(lo)
    while X(hi).sum() < total:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return A - X(hi)
        if X(mid).sum() >= total:
            hi = mid
        else:
            lo = mid


def augmented_lagrangian(M, B, C, Y, mu, lam):
    """||B||_* + lam*||C||_1 + <Y, M - B - C> + (mu/2) ||M - B - C||_F^2."""
    R = M - B - C
    return (
        float(np.linalg.norm(B, "nuc"))
        + lam * float(np.abs(C).sum())
        + float(np.tensordot(Y, R))
        + 0.5 * mu * float((R * R).sum())
    )


def project_T_reference(Z, T):
    """Tangent projection by the three-term formula UU^T Z + Z VV^T - UU^T Z VV^T."""
    UUt = T.U @ T.U.T
    VVt = T.V @ T.V.T
    return UUt @ Z + Z @ VVt - UUt @ Z @ VVt


def golfing_reference(T, batches, p):
    """Golfing with two tangent projections per batch:
    Y_k = Y_{k-1} + P_{batch_k} P_T (UV^T - Y_{k-1}) / p, trace ||UV^T - P_T Y_k||.
    Each batch is an array of flat indices."""
    E = T.U @ T.V.T
    Y = np.zeros_like(E)
    trace = [float(np.linalg.norm(E))]
    for flat in batches:
        mask = np.zeros(E.size, dtype=bool)
        mask[flat] = True
        Y = Y + np.where(mask.reshape(E.shape), project_T_reference(E - Y, T), 0.0) / p
        trace.append(float(np.linalg.norm(E - project_T_reference(Y, T))))
    return Y - project_T_reference(Y, T), trace


def partition_reference(Gamma, cfg):
    """Golfing batches as boolean masks, one fresh n x n draw each:
    (rng.random((n, n)) < q) & ~Gamma. partition_complement must return
    np.flatnonzero of each mask."""
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    comp = ~Gamma.mask
    batches = []
    for _ in range(cfg.k0):
        draw = rng.random((Gamma.n, Gamma.n)) < cfg.q
        batches.append(SupportSet(Gamma.n, draw & comp))
    return batches


def golfing_loop_reference(T, masks, p):
    """golfing_QB's loop over SupportSet batches, each batch's entries taken
    from its mask by np.flatnonzero; golfing_QB on the matching index arrays
    must agree bitwise."""
    x = np.concatenate((T.V, np.zeros_like(T.U))).ravel()
    a, w = x.reshape(2, -1)
    Y = np.zeros(T.n * T.n)
    trace = [math.sqrt(a @ a + w @ w)]
    for S in masks:
        E = _Entries.gather(np.flatnonzero(S.mask), T)
        G = _tangent_at(x, E) / p
        Y[E.flat] += G
        x -= _tangent_factors_at(G, E, T)
        trace.append(math.sqrt(a @ a + w @ w))
    return project_T_perp(Y.reshape(T.n, T.n), T), trace


def dense_opnorm(S, T):
    """Materialize Z -> P_Gamma(P_T(Z)) as an n^2 x n^2 matrix, return sigma_max."""
    n = S.n
    cols = []
    for j in range(n * n):
        E = np.zeros((n, n))
        E[j // n, j % n] = 1.0
        cols.append(project_support(project_T(E, T), S).ravel())
    L = np.array(cols).T
    return float(np.linalg.svd(L, compute_uv=False)[0])


def opnorm_reference(S, T, tol=1e-6):
    """Power iteration on P_T P_Gamma P_T from the start opnorm_PGammaPT draws;
    returns (sqrt of the top eigenvalue, number of steps)."""
    X = np.random.default_rng(0x9E3779B9).standard_normal((S.n, S.n))
    X /= np.linalg.norm(X)
    lam_prev = np.inf
    for step in range(1, 10_001):
        FX = project_T_reference(np.where(S.mask, project_T_reference(X, T), 0.0), T)
        lam = max(float(np.tensordot(X, FX)), 0.0)
        X = FX / np.linalg.norm(FX)
        if abs(lam - lam_prev) <= tol * lam:
            return float(np.sqrt(lam)), step
        lam_prev = lam
    raise AssertionError("reference power iteration did not converge")


def neumann_reference(Gamma, T, sign_C0, lam, tol=1e-10, max_terms=200):
    """Neumann series lam * P_Tperp sum_k (P_Gamma P_T P_Gamma)^k sign_C0 on dense
    n x n terms with the three-term projection, stopped after the first term
    with norm <= tol * ||sign_C0|| or at max_terms terms. Returns (Q_C, the
    number of terms summed)."""
    base = float(np.linalg.norm(sign_C0))
    term = sign_C0
    acc = sign_C0.copy()
    terms = 1
    for _ in range(1, max_terms):
        term = np.where(Gamma.mask, project_T_reference(term, T), 0.0)
        acc = acc + term
        terms += 1
        if float(np.linalg.norm(term)) <= tol * base:
            break
    return lam * (acc - project_T_reference(acc, T)), terms


def write_json_reference(doc, path):
    """Result/report JSON with every finite float matrix written a row at a
    time, one float.__repr__ per entry; fileio._write_json must write the
    same bytes."""
    runs = []
    for key, value in doc.items():
        rows = (
            isinstance(value, np.ndarray)
            and value.ndim == 2
            and value.size > 0
            and value.dtype.kind == "f"
            and bool(np.isfinite(value).all())
        )
        if not rows and isinstance(value, np.ndarray):
            value = value.tolist()
        if not runs or runs[-1][0] != rows:
            runs.append((rows, {}))
        runs[-1][1][key] = value
    with open(path, "w") as fh:
        for i, (rows, values) in enumerate(runs):
            fh.write(",\n" if i else "{\n")
            if not rows:
                fh.write(json.dumps(values, indent=2)[2:-2])
                continue
            for j, (key, M) in enumerate(values.items()):
                fh.write((",\n" if j else "") + f"  {json.dumps(key)}: [")
                for r, row in enumerate(M):
                    fh.write(f"{',' if r else ''}\n    [\n      ")
                    fh.write(",\n      ".join(map(float.__repr__, row.tolist())))
                    fh.write("\n    ]")
                fh.write("\n  ]")
        fh.write("\n}\n")


def write_matrix_csv_reference(M, path):
    """CSV matrix with one repr per entry."""
    M = np.asarray(M, dtype=float)
    with open(path, "w") as fh:
        for row in M:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def count_calls(monkeypatch, name, *modules):
    """Replace function `name` in each module by one counting wrapper around the
    first module's; return the list that collects the call arguments."""
    calls = []
    real = getattr(modules[0], name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in modules:
        monkeypatch.setattr(mod, name, counting)
    return calls


# (off-block entry of B*, converged, recovered) around the recovery tolerance:
# on an n=2, n_c=1 instance the block pattern has norm 1, so the relative
# error is the off-block entry, 1e-6 being RECOVERY_TOL exactly
VERDICT_CASES = [(1e-6, True, True), (1.5e-6, True, False), (1e-6, False, False)]


def solve_off_pattern(off: float, converged: bool):
    """A stand-in solver whose B* is the n=2, n_c=1 block pattern plus `off`
    in the entry (1, 0) outside the block."""

    def solve(M, *args, **kwargs):
        B = np.array([[1.0, 0.0], [off, 0.0]])
        return DecompositionResult(
            B_star=B, C_star=np.asarray(M) - B, iterations=1, primal_residual=0.0,
            objective=0.0, converged=converged, final_penalty=1.0,
        )

    return solve


@pytest.fixture
def tmp_chdir(tmp_path, monkeypatch):
    """Run a test from inside a fresh temporary directory."""
    monkeypatch.chdir(tmp_path)
    return tmp_path
