"""Dense kernel tests: SVD truncation, norms, prox operators, projectors."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qcr.linalg as linalg_mod
from qcr.certificate import DEFAULT_RANK_TOL, neumann_QC
from qcr.instances import InstanceParams, derive_seed, gen_planted
from qcr.linalg import (
    NORM_KINDS,
    SupportSet,
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

from conftest import (
    count_calls,
    dense_opnorm,
    neumann_reference,
    opnorm_reference,
    planted_supports,
    planted_tangent,
    project_T_reference,
    random_tangent,
    rng,
    svd_threshold_reference,
)


# ---------------------------------------------------------------- svd


def test_svd_identity():
    f = svd(np.eye(3))
    assert f.rank == 3
    assert np.allclose(f.sigma, 1.0)
    assert np.allclose((f.U * f.sigma) @ f.V.T, np.eye(3), atol=1e-12)


def test_svd_ones_rank_one():
    f = svd(np.ones((4, 4)))
    assert f.rank == 1
    assert abs(f.sigma[0] - 4.0) < 1e-12
    assert np.allclose((f.U * f.sigma) @ f.V.T, np.ones((4, 4)), atol=1e-12)


def test_svd_zero_matrix():
    f = svd(np.zeros((5, 5)))
    assert f.rank == 0
    assert f.sigma.shape == (0,)
    assert np.allclose((f.U * f.sigma) @ f.V.T, 0.0)


def test_svd_rank_tol_truncates():
    M = np.diag([1.0, 1e-9])
    assert svd(M).rank == 1
    assert svd(M, rank_tol=1e-10).rank == 2


def test_svd_reconstruct_full_rank():
    M = rng(11).standard_normal((7, 7))
    f = svd(M)
    assert np.abs((f.U * f.sigma) @ f.V.T - M).max() < 1e-10


@pytest.mark.parametrize("eigs", [
    (3.0, -2.0, 1.0, -0.5, 0.0, 0.0),
    (2.0, -2.0, 1.0, 1.0, -1.0, 0.25),
    (-4.0, -4.0, -4.0, 0.1, -1e-12, 0.0),
], ids=["negative", "ties of both signs", "negative tie and rank cut"])
def test_svd_of_symmetric_matrix_matches_lapack_svd(monkeypatch, eigs):
    # an exactly symmetric matrix takes one eigh; its factors give the
    # singular values, the reconstruction and each singular subspace's
    # part of U diag(sigma) V.T that np.linalg.svd gives
    n = len(eigs)
    Q = np.linalg.qr(rng(n + int(eigs[0])).standard_normal((n, n)))[0]
    M = (Q * np.array(eigs)) @ Q.T
    M = np.triu(M) + np.triu(M, 1).T
    assert np.array_equal(M, M.T)
    eigh = count_calls(monkeypatch, "eigh", np.linalg)
    dense = count_calls(monkeypatch, "svd", np.linalg)
    f = svd(M)
    assert (len(eigh), len(dense)) == (1, 0)
    U, s, Vt = np.linalg.svd(M)
    r = int(np.count_nonzero(s > 1e-8 * s[0]))
    assert f.rank == r == np.count_nonzero(np.abs(eigs) > 1e-8 * max(np.abs(eigs)))
    assert np.abs(f.sigma - s[:r]).max() <= 1e-12 * s[0]
    assert np.abs(f.U.T @ f.U - np.eye(r)).max() <= 1e-12
    assert np.abs(f.V.T @ f.V - np.eye(r)).max() <= 1e-12
    assert np.abs((f.U * f.sigma) @ f.V.T - (U[:, :r] * s[:r]) @ Vt[:r]).max() <= 1e-12 * s[0]
    for value in np.unique(np.round(s[:r], 8)):
        mine = np.abs(np.round(f.sigma, 8) - value) == 0
        theirs = np.abs(np.round(s[:r], 8) - value) == 0
        assert np.abs(f.U[:, mine] @ f.V[:, mine].T - U[:, :r][:, theirs] @ Vt[:r][theirs]).max() <= 1e-12


def with_zero_lines(M, rows, cols):
    """M with the given rows and columns set to zero."""
    M = M.copy()
    M[rows] = 0.0
    M[:, cols] = 0.0
    return M


@pytest.mark.parametrize("symmetric", [True, False], ids=["eigh", "svd"])
@pytest.mark.parametrize("n", [6, 40, 100])
def test_svd_factors_the_nonzero_part_alone(monkeypatch, symmetric, n):
    # zero rows get exact zero rows of U, zero columns exact zero rows of V,
    # and the kernel sees the nonzero part alone; the singular values are
    # those of the whole matrix
    g = rng(400 + n)
    X = g.standard_normal((n, n))
    rows, cols = g.random(n) < 0.3, g.random(n) < 0.3
    rows[0] = cols[-1] = True
    if symmetric:
        M = with_zero_lines(X + X.T, rows | cols, rows | cols)
        rows = cols = rows | cols
    else:
        M = with_zero_lines(X, rows, cols)
    eigh = count_calls(monkeypatch, "eigh", np.linalg)
    dense = count_calls(monkeypatch, "svd", np.linalg)
    f = svd(M, rank_tol=1e-10)
    kernel = eigh if symmetric else dense
    assert (len(eigh), len(dense)) == ((1, 0) if symmetric else (0, 1))
    assert kernel[0][0].shape == (np.count_nonzero(~rows), np.count_nonzero(~cols))
    assert np.all(f.U[rows] == 0.0) and np.all(f.V[cols] == 0.0)
    s = np.linalg.svd(M, compute_uv=False)
    r = int(np.count_nonzero(s > 1e-10 * s[0]))
    assert f.rank == r
    assert np.abs(f.sigma - s[:r]).max() <= 1e-14 * s[0]
    assert np.abs((f.U * f.sigma) @ f.V.T - M).max() <= 1e-12 * s[0]


def test_svd_of_a_planted_block_factors_the_block():
    inst = gen_planted(InstanceParams(n=100, n_c=85, gamma=0.85, rho=0.1, seed=derive_seed(1000, 0)))
    f = svd(inst.B0, DEFAULT_RANK_TOL)
    assert f.rank == 1
    assert np.all(f.U[85:] == 0.0) and np.all(f.V[85:] == 0.0)
    assert abs(f.sigma[0] - np.linalg.svd(inst.B0, compute_uv=False)[0]) <= 1e-14 * f.sigma[0]


def test_svd_rejects_nonfinite():
    M = np.ones((3, 3))
    M[1, 1] = np.nan
    with pytest.raises(ValueError):
        svd(M)


# ---------------------------------------------------------------- norms


def test_norm_examples_singular_row():
    # [[3,4],[0,0]] has singular values (5, 0).
    M = np.array([[3.0, 4.0], [0.0, 0.0]])
    assert abs(norm(M, "nuclear") - 5.0) < 1e-12
    assert abs(norm(M, "spectral") - 5.0) < 1e-12
    assert abs(norm(M, "frobenius") - 5.0) < 1e-12
    assert abs(norm(M, "l1") - 7.0) < 1e-12
    assert abs(norm(M, "linf") - 4.0) < 1e-12
    # rows have 2-norms (5, 0); columns (3, 4); max is 5
    assert abs(norm(M, "linf2") - 5.0) < 1e-12


def test_norm_examples_closed_form():
    # eigenvalues of M.T @ M for [[1,2],[3,4]] are 15 +/- sqrt(221)
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    s1 = math.sqrt(15 + math.sqrt(221))
    s2 = math.sqrt(15 - math.sqrt(221))
    assert abs(norm(M, "nuclear") - (s1 + s2)) < 1e-12
    assert abs(norm(M, "spectral") - s1) < 1e-12
    assert abs(norm(M, "frobenius") - math.sqrt(30)) < 1e-12
    assert abs(norm(M, "l1") - 10.0) < 1e-12
    assert abs(norm(M, "linf") - 4.0) < 1e-12
    assert abs(norm(M, "linf2") - 5.0) < 1e-12


def test_norm_unknown_kind():
    with pytest.raises(ValueError):
        norm(np.eye(2), "l2")


@pytest.mark.property
@given(st.integers(0, 2**32 - 1), st.integers(2, 12))
def test_norm_chain(seed, n):
    M = rng(seed).standard_normal((n, n))
    linf, linf2 = norm(M, "linf"), norm(M, "linf2")
    fro, nuc = norm(M, "frobenius"), norm(M, "nuclear")
    spec, l1 = norm(M, "spectral"), norm(M, "l1")
    slack = 1e-10 * max(1.0, fro)
    assert linf <= linf2 + slack
    assert linf2 <= fro + slack
    assert fro <= nuc + slack
    assert spec <= fro + slack
    assert fro <= l1 + slack
    assert spec <= nuc + slack


def spectral_cases() -> dict:
    g = rng(500)
    X = g.standard_normal((60, 60))
    one_row = np.zeros((60, 60))
    one_row[17] = g.standard_normal(60)
    return {
        "random": X,
        "rank-1": np.outer(g.standard_normal(60), g.standard_normal(60)),
        "symmetric": X + X.T,
        "all-zero": np.zeros((60, 60)),
        "one nonzero row": one_row,
        "one nonzero column": one_row.T.copy(),
        "zero rows and columns": with_zero_lines(X, g.random(60) < 0.4, g.random(60) < 0.2),
        "1 x 1": np.array([[-3.0]]),
    }


SPECTRAL_CASES = spectral_cases()


@pytest.mark.parametrize("case", SPECTRAL_CASES)
def test_spectral_norm_is_the_top_singular_value_without_an_svd(monkeypatch, case):
    M = SPECTRAL_CASES[case]
    expected = float(np.linalg.svd(M, compute_uv=False).max())
    dense = count_calls(monkeypatch, "svd", np.linalg)
    got = norm(M, "spectral")
    assert not dense
    assert abs(got - expected) <= 1e-14 * expected
    assert (got == 0.0) == (expected == 0.0)


@pytest.mark.property
@given(st.integers(0, 2**32 - 1), st.integers(2, 12))
def test_linf2_between_linf_scalings(seed, n):
    M = rng(seed).standard_normal((n, n))
    linf, linf2 = norm(M, "linf"), norm(M, "linf2")
    assert linf2 <= math.sqrt(n) * linf + 1e-10


# ---------------------------------------------------------------- prox


def test_soft_threshold_examples():
    x = np.array([[3.0, -1.0], [0.5, -2.5]])
    out = soft_threshold(x, 1.0)
    assert np.allclose(out, [[2.0, 0.0], [0.0, -1.5]], atol=1e-15)


def test_soft_threshold_zero_tau():
    M = rng(1).standard_normal((4, 4))
    assert np.allclose(soft_threshold(M, 0.0), M)


def test_soft_threshold_scalar_prox_oracle():
    # brute-force argmin of tau*|z| + 0.5*(z - x)^2 over a fine grid
    grid = np.linspace(-6, 6, 240001)
    for x in (-3.7, -0.4, 0.0, 0.9, 2.2):
        for tau in (0.3, 1.0, 2.5):
            obj = tau * np.abs(grid) + 0.5 * (grid - x) ** 2
            z_star = grid[np.argmin(obj)]
            got = float(soft_threshold(np.array([[x]]), tau)[0, 0])
            assert abs(got - z_star) < 1e-4


def test_sv_threshold_checks_its_inputs():
    M = random_symmetric(rng(5), 130)
    bad = M.copy()
    bad[3, 4] = bad[4, 3] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        sv_threshold(bad, 0.5)
    with pytest.raises(ValueError, match="non-finite"):
        sv_threshold(M, 0.5, warm=bad)
    with pytest.raises(ValueError, match="warm shape"):
        sv_threshold(M, 0.5, warm=M[:129, :129])
    with pytest.raises(ValueError, match="tau"):
        sv_threshold(M, -0.5)


def test_sv_threshold_diagonal():
    M = np.diag([5.0, 3.0, 1.0])
    assert np.allclose(sv_threshold(M, 2.0), np.diag([3.0, 1.0, 0.0]), atol=1e-12)


def test_sv_threshold_ones():
    # ones(4) = 4 * u u^T with u = (1/2)1; shrinking 4 -> 2 halves every entry
    out = sv_threshold(np.ones((4, 4)), 2.0)
    assert np.allclose(out, 0.5 * np.ones((4, 4)), atol=1e-12)


def test_sv_threshold_kills_small_matrix():
    M = rng(2).standard_normal((5, 5))
    tau = norm(M, "spectral") + 1.0
    assert np.allclose(sv_threshold(M, tau), 0.0, atol=1e-12)


def random_symmetric(g, n):
    X = g.standard_normal((n, n))
    return X + X.T


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 100])
def test_sv_threshold_matches_svd_reference(n, symmetric):
    g = rng(300 + n)
    M = random_symmetric(g, n) if symmetric else g.standard_normal((n, n))
    assert np.array_equal(M, M.T) == symmetric
    if symmetric:
        w = np.linalg.eigvalsh(M)
        assert w[0] < 0 < w[-1]  # indefinite: the sign of w must survive shrinkage
    tau = float(np.median(np.linalg.svd(M, compute_uv=False)))  # shrinks about half away
    Z = sv_threshold(M, tau)
    assert np.abs(Z - svd_threshold_reference(M, tau)).max() <= 1e-10
    if symmetric:
        assert np.array_equal(Z, Z.T)


def spiked(n, seed, spikes, bulk=0.999):
    """Symmetric Q diag(w) Q.T with the eigenvalues `spikes` and n - len(spikes)
    more spread over [-bulk, bulk], Q a random orthogonal matrix; returns the
    matrix and Q."""
    g = rng(seed)
    Q, _ = np.linalg.qr(g.standard_normal((n, n)))
    w = np.concatenate((spikes, g.uniform(-bulk, bulk, n - len(spikes))))
    M = (Q * w) @ Q.T
    return 0.5 * (M + M.T), Q


@pytest.mark.parametrize("n", [50, 100, 200])
def test_certified_prox_matches_svd_reference(n):
    # rank one plus symmetric noise, warm-started from the prox of a nearby
    # matrix, as a solver's previous iterate would be
    g = rng(500 + n)
    u = np.ones(n) / math.sqrt(n)
    M = 30.0 * np.outer(u, u) + random_symmetric(g, n) / (4.0 * math.sqrt(n))
    tau = 1.0
    warm = svd_threshold_reference(M + 1e-3 * random_symmetric(g, n), tau)
    Z = linalg_mod._certified_prox(M, tau, warm)
    assert Z is not None
    assert np.abs(Z - svd_threshold_reference(M, tau)).max() <= 1e-11
    out = sv_threshold(M, tau, warm=warm)
    assert np.abs(out - svd_threshold_reference(M, tau)).max() <= 1e-11
    assert np.array_equal(out, out.T)


def test_certified_prox_converges_within_its_step_budget():
    # a kept eigenvalue at 2.45 tau above a bulk reaching 0.88 tau, as in the
    # late prox calls of a quasi-clique solve: from a rank-one warm start the
    # residual reaches its bound in more than 8 block steps but within 16
    n, tau = 200, 1.0
    M, _ = spiked(n, 11, [2.45], bulk=0.88)
    warm = svd_threshold_reference(M + 1e-3 * random_symmetric(rng(111), n) / math.sqrt(n), tau)
    assert np.linalg.matrix_rank(warm) == 1
    Z = linalg_mod._certified_prox(M, tau, warm)
    assert Z is not None
    assert np.abs(Z - svd_threshold_reference(M, tau)).max() <= 1e-11


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_certified_prox_falls_back_on_eigenvalue_outside_warm(sign):
    # an eigenvalue of magnitude 1.001 tau outside the warm range, above a
    # bulk reaching 0.999 tau, stays out of the block; only the Cholesky of
    # tau I - D (sign +1) or tau I + D (sign -1) can see it
    n, tau = 200, 1.0
    M, Q = spiked(n, 7, [30.0, sign * 1.001])
    warm = 29.0 * np.outer(Q[:, 0], Q[:, 0])
    assert linalg_mod._certified_prox(M, tau, warm) is None
    assert np.array_equal(sv_threshold(M, tau, warm=warm), sv_threshold(M, tau))


@pytest.mark.parametrize("tau, warm", [(0.0, "spike"), (1.0, "zero"), (1.0, "full rank")])
def test_certified_prox_needs_positive_tau_and_low_rank_warm(tau, warm):
    n = 200
    M, Q = spiked(n, 8, [30.0], bulk=0.5)
    W = {
        "spike": 29.0 * np.outer(Q[:, 0], Q[:, 0]),
        "zero": np.zeros((n, n)),
        "full rank": random_symmetric(rng(10), n),
    }[warm]
    assert linalg_mod._certified_prox(M, tau, W) is None
    assert np.array_equal(sv_threshold(M, tau, warm=W), sv_threshold(M, tau))


def carried_spike(spikes, warm_spikes):
    """A spiked M with bulk 0.5 at n = 200, tau = 1, and a warm spanning the
    eigenvectors of its first warm_spikes spikes exactly."""
    M, Q = spiked(200, 8, spikes, bulk=0.5)
    warm = (Q[:, :warm_spikes] * (np.asarray(spikes[:warm_spikes]) - 1.0)) @ Q[:, :warm_spikes].T
    return M, Q, warm


def test_carried_bound_certifies_a_nearby_call_without_factoring(monkeypatch):
    # the pair at 0.99 tau proves the bulk of M below 0.99 tau; a later M
    # within 1e-3 (Frobenius) of it keeps that bound below tau by Weyl
    M, _, warm = carried_spike([30.0], 1)
    carry = linalg_mod._ProxCarry()
    chol = count_calls(monkeypatch, "cholesky", np.linalg)
    assert linalg_mod._certified_prox(M, 1.0, warm, carry) is not None
    assert len(chol) == 2 and carry.kept == 1
    assert 0.99 <= carry.bound < 0.99 + 1e-12
    P = random_symmetric(rng(12), 200)
    M2 = M + 1e-3 * P / np.linalg.norm(P)
    Z = sv_threshold(M2, 1.0, warm=warm, carry=carry)
    assert len(chol) == 2
    assert np.abs(Z - svd_threshold_reference(M2, 1.0)).max() <= 1e-10


def test_carried_bound_rejects_a_dropped_eigenvalue_that_crossed_tau():
    # a bulk eigenvalue moves from at most 0.5 tau to 1.2 tau outside the
    # warm range: the kept count stays 1, and only ||M - M_ref||_F in the
    # carried bound tells the later call apart from M_ref
    M, Q, warm = carried_spike([30.0], 1)
    carry = linalg_mod._ProxCarry()
    assert linalg_mod._certified_prox(M, 1.0, warm, carry) is not None
    q = Q[:, 1]
    M2 = M + (1.2 - q @ M @ q) * np.outer(q, q)
    assert linalg_mod._certified_prox(M2, 1.0, warm, carry) is None
    assert carry.kept == 1
    Z = sv_threshold(M2, 1.0, warm=warm, carry=carry)
    assert np.abs(Z - svd_threshold_reference(M2, 1.0)).max() <= 1e-10


def test_carried_bound_needs_the_same_kept_count():
    # the bound proven with two kept eigenvalues covers all but two; a later
    # call on the same M whose warm misses the spike at 3 tau keeps one, so
    # only the Cholesky pair, which fails, can judge it
    M, _, both = carried_spike([30.0, 3.0], 2)
    carry = linalg_mod._ProxCarry()
    assert linalg_mod._certified_prox(M, 1.0, both, carry) is not None
    assert carry.kept == 2
    one = carried_spike([30.0, 3.0], 1)[2]
    assert linalg_mod._certified_prox(M, 1.0, one, carry) is None
    Z = sv_threshold(M, 1.0, warm=one, carry=carry)
    assert np.abs(Z - svd_threshold_reference(M, 1.0)).max() <= 1e-10


def test_failed_shift_falls_back_to_the_pair_at_tau():
    # a bulk eigenvalue at 0.995 tau fails the pair at 0.99 tau but not the
    # one at tau: the call is certified and records no bound
    M, Q = spiked(200, 9, [30.0, 0.995], bulk=0.5)
    warm = 29.0 * np.outer(Q[:, 0], Q[:, 0])
    carry = linalg_mod._ProxCarry()
    Z = linalg_mod._certified_prox(M, 1.0, warm, carry)
    assert Z is not None and carry.M_ref is None
    assert np.abs(Z - svd_threshold_reference(M, 1.0)).max() <= 1e-11


@pytest.mark.parametrize("seed, shape, unit", [
    (0x9E3779B9, (100, 100), True),
    (linalg_mod._WARM_SEED, (200, linalg_mod._WARM_RANK_MAX + linalg_mod._WARM_EXTRA), False),
], ids=["opnorm start", "prox sketch"])
def test_fixed_starts_are_one_read_only_draw(seed, shape, unit):
    fresh = np.random.default_rng(seed).standard_normal(shape)
    if unit:
        fresh /= np.linalg.norm(fresh)
    X = linalg_mod._gaussian(seed, shape, unit)
    assert X.shape == shape and X.tobytes() == fresh.tobytes()
    assert not X.flags.writeable
    assert linalg_mod._gaussian(seed, shape, unit) is X


@pytest.mark.parametrize("warm", [np.zeros((200, 100)), np.full((200, 200), np.nan)])
def test_sv_threshold_rejects_bad_warm(warm):
    M, _ = spiked(200, 8, [30.0], bulk=0.5)
    with pytest.raises(ValueError, match="warm"):
        sv_threshold(M, 1.0, warm=warm)


@pytest.mark.property
@given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.floats(0.05, 3.0), st.booleans())
def test_sv_threshold_prox_optimality(seed, n, tau, symmetric):
    # prox point must not be beaten by random perturbations of the objective;
    # a symmetric M takes the eigen path, any other M the SVD path
    g = rng(seed)
    M = random_symmetric(g, n) if symmetric else g.standard_normal((n, n))
    Z = sv_threshold(M, tau)

    def obj(W):
        return tau * norm(W, "nuclear") + 0.5 * np.linalg.norm(W - M) ** 2

    base = obj(Z)
    for scale in (1e-3, 1e-2, 1e-1):
        for _ in range(4):
            D = g.standard_normal((n, n))
            assert obj(Z + scale * D / np.linalg.norm(D)) >= base - 1e-10


@pytest.mark.property
@given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.floats(0.05, 3.0))
def test_soft_threshold_prox_optimality(seed, n, tau):
    g = rng(seed)
    M = g.standard_normal((n, n))
    Z = soft_threshold(M, tau)

    def obj(W):
        return tau * np.abs(W).sum() + 0.5 * np.linalg.norm(W - M) ** 2

    base = obj(Z)
    for scale in (1e-3, 1e-2, 1e-1):
        for _ in range(4):
            D = g.standard_normal((n, n))
            assert obj(Z + scale * D / np.linalg.norm(D)) >= base - 1e-10


# ---------------------------------------------------------------- support sets


def test_support_set_mask_read_only():
    S = SupportSet(3, np.zeros((3, 3), dtype=bool))
    with pytest.raises(ValueError):
        S.mask[0, 0] = True


def test_support_set_leaves_caller_array_writable():
    m = np.zeros((3, 3), dtype=bool)
    S = SupportSet(3, m)
    m[0, 0] = True
    assert len(S) == 0
    assert not S.mask[0, 0]


def test_project_support():
    S = SupportSet(2, np.array([[False, True], [False, False]]))
    Z = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(project_support(Z, S), [[0.0, 2.0], [0.0, 0.0]])


# ---------------------------------------------------------------- projectors


@pytest.mark.property
@given(st.integers(0, 2**32 - 1),
       st.integers(2, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
def test_projector_algebra(seed, n_r):
    n, r = n_r
    T = random_tangent(n, r, seed)
    g = rng(seed ^ 0xABCD)
    Z, Z2 = g.standard_normal((n, n)), g.standard_normal((n, n))
    PZ = project_T(Z, T)
    QZ = project_T_perp(Z, T)
    assert np.abs(project_T(PZ, T) - PZ).max() < 1e-10
    assert np.abs(project_T_perp(QZ, T) - QZ).max() < 1e-10
    assert np.abs(PZ + QZ - Z).max() < 1e-10
    # self-adjoint: <P Z, Z2> = <Z, P Z2>
    assert abs(np.sum(PZ * Z2) - np.sum(Z * project_T(Z2, T))) < 1e-10
    assert abs(np.sum(PZ * QZ)) < 1e-8
    assert np.abs(project_T_perp(PZ, T)).max() < 1e-10


@pytest.mark.parametrize("r", [0, 1, 3, 10])
def test_project_T_matches_three_term_reference(r):
    T = random_tangent(10, r, 40 + r)
    assert r == 0 or np.abs(T.U - T.V).max() > 0.1
    Z = rng(41 + r).standard_normal((10, 10))
    assert np.abs(project_T(Z, T) - project_T_reference(Z, T)).max() < 1e-12


def test_projector_rank_zero():
    T = TangentSpace(U=np.zeros((4, 0)), V=np.zeros((4, 0)))
    Z = rng(3).standard_normal((4, 4))
    assert np.allclose(project_T(Z, T), 0.0)
    assert np.allclose(project_T_perp(Z, T), Z)


def test_tangent_rejects_nonorthonormal():
    with pytest.raises(ValueError):
        TangentSpace(U=2.0 * np.eye(3)[:, :1], V=np.eye(3)[:, :1])


# ---------------------------------------------------------------- operator norm


def test_opnorm_empty_support():
    T = random_tangent(5, 2, 0)
    assert opnorm_PGammaPT(SupportSet(5, np.zeros((5, 5), dtype=bool)), T) == 0.0


def test_opnorm_zero_tangent():
    T = TangentSpace(U=np.zeros((5, 0)), V=np.zeros((5, 0)))
    assert opnorm_PGammaPT(SupportSet(5, np.ones((5, 5), dtype=bool)), T) == 0.0


def test_opnorm_full_support_full_tangent(monkeypatch):
    # U spanning R^n makes P_T the identity, so the norm is exactly 1
    monkeypatch.setattr(linalg_mod, "_POWER_ITER_TOL", 1e-12)
    T = random_tangent(4, 4, 5)
    val = opnorm_PGammaPT(SupportSet(4, np.ones((4, 4), dtype=bool)), T)
    assert abs(val - 1.0) < 1e-9


def test_opnorm_matches_dense_oracle(monkeypatch):
    monkeypatch.setattr(linalg_mod, "_POWER_ITER_TOL", 1e-9)
    g = rng(17)
    T = random_tangent(6, 2, 99)
    mask = np.zeros(36, dtype=bool)
    mask[g.choice(36, size=8, replace=False)] = True
    S = SupportSet(6, mask.reshape(6, 6))
    expected = dense_opnorm(S, T)
    assert abs(opnorm_PGammaPT(S, T) - expected) < 1e-6


@pytest.mark.parametrize("rho", [0.1, 0.7, 0.95])
@pytest.mark.parametrize("k", range(3))
def test_opnorm_is_a_lower_estimate_of_the_dense_norm(rho, k):
    # the power iteration returns a Rayleigh quotient, which cannot exceed
    # the top eigenvalue; its tol bounds the step-to-step change, so the
    # estimate is checked against the exact norm of the dense operator
    inst = gen_planted(InstanceParams(n=14, n_c=10, gamma=0.85, rho=rho, seed=derive_seed(1000, k)))
    f = svd(inst.B0, DEFAULT_RANK_TOL)
    T = TangentSpace(f.U, f.V)
    exact = dense_opnorm(inst.noise_support, T)
    est = opnorm_PGammaPT(inst.noise_support, T)
    assert est <= exact * (1 + 1e-12)
    assert exact - est <= 1e-3


@pytest.mark.property
@given(st.integers(0, 2**32 - 1), st.integers(3, 8), st.integers(1, 3))
def test_opnorm_in_unit_interval(seed, n, r):
    g = rng(seed)
    T = random_tangent(n, min(r, n - 1), seed ^ 0x55)
    k = int(g.integers(0, n * n + 1))
    mask = np.zeros(n * n, dtype=bool)
    mask[g.choice(n * n, size=k, replace=False)] = True
    S = SupportSet(n, mask.reshape(n, n))
    val = opnorm_PGammaPT(S, T)
    assert -1e-12 <= val <= 1.0 + 1e-9


@pytest.mark.parametrize("n, r, density", [(12, 2, 0.3), (30, 1, 0.1), (20, 3, 0.6)])
def test_opnorm_matches_reference_with_one_projection_per_step(monkeypatch, n, r, density):
    # each step applies the support/tangent operator once; the 1e-12 match
    # pins the step count to the reference's, and no n x n matrix is
    # projected (the start goes to tangent factors directly)
    T = random_tangent(n, r, n + r)
    S = SupportSet(n, rng(n * r).random((n, n)) < density)
    expected, steps = opnorm_reference(S, T)
    dense = count_calls(monkeypatch, "project_T", linalg_mod)
    applied = count_calls(monkeypatch, "__call__", linalg_mod._GammaTangentOperator)
    val = opnorm_PGammaPT(S, T)
    assert abs(val - expected) <= 1e-12 * expected
    assert len(dense) == 0
    assert len(applied) == steps


@pytest.mark.parametrize("planted", [True, False])
@pytest.mark.parametrize("n, r, density", [
    (12, 2, 0.3), (30, 1, 0.02), (25, 1, 0.6), (10, 3, 0.4),
])
def test_opnorm_matches_reference_on_both_paths(monkeypatch, planted, n, r, density):
    # planted, Gamma goes to the blocks but for one entry in
    # supp(U) x supp(V); with a dense T, all of it is such entries
    if planted:
        T, _, mask, _ = planted_supports(n, r, False, 3 * n + r, density)
    else:
        T, mask = random_tangent(n, r, 3 * n + r), rng(5 * n + r).random((n, n)) < density
    S = SupportSet(n, mask)
    expected, steps = opnorm_reference(S, T)
    applied = count_calls(monkeypatch, "__call__", linalg_mod._GammaTangentOperator)
    val = opnorm_PGammaPT(S, T)
    assert abs(val - expected) <= 1e-12 * expected
    assert len(applied) == steps


def support_masks(n: int, seed: int):
    """An empty, a full, and a random nonsymmetric mask."""
    random = rng(seed).random((n, n)) < 0.3
    assert not np.array_equal(random, random.T)
    return [np.zeros((n, n), dtype=bool), np.ones((n, n), dtype=bool), random]


def operator_supports(n: int, r: int, planted: bool, same: bool, seed: int):
    """(T, Gamma's mask, the flat indices of Gamma in supp(U) x supp(V))
    triples, with U = V when same. Planted, Gamma misses supp(U) x supp(V),
    then meets it in one entry; otherwise T is dense and random, and Gamma
    lies inside supp(U) x supp(V) as the empty, the full and a random mask."""
    if planted:
        T, miss, one, flat = planted_supports(n, r, same, seed, 0.4)
        return [(T, miss, []), (T, one, [flat] if r else [])]
    T = random_tangent(n, r, seed)
    if same:
        T = TangentSpace(T.U, T.U)
    return [(T, mask, np.flatnonzero(mask) if r else []) for mask in support_masks(n, seed + 1)]


@pytest.mark.parametrize("planted", [True, False])
@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_operator_step_matches_dense_projections(planted, r):
    # one step maps the flat vector of X in T to that of P_T(P_Gamma(P_T X)):
    # the blocks on Gamma off supp(U) x supp(V), plus its entries there
    n = 9
    X = rng(41 + r).standard_normal((n, n))
    for T, mask, cross in operator_supports(n, r, planted, False, 40 + r):
        assert r == 0 or np.abs(T.U - T.V).max() > 0.1
        x = linalg_mod._tangent_factors(X, T)
        assert x.shape == (2 * n * r,)
        assert np.abs(linalg_mod._tangent_dense(x, T) - project_T_reference(X, T)).max() <= 1e-12 * n
        step = linalg_mod._GammaTangentOperator(SupportSet(n, mask), T)
        assert np.array_equal(step.E.flat, cross)
        y = step(x)
        assert y.shape == (2 * n * r,)
        got = linalg_mod._tangent_dense(y, T)
        ref = project_T_reference(np.where(mask, project_T_reference(X, T), 0.0), T)
        assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
        # the vector's dot is the Frobenius inner product of the tangent elements
        assert abs(float(x @ y) - float(np.tensordot(project_T_reference(X, T), ref))) <= 1e-12 * n * n


def dense_operator_matrix(S: SupportSet, T: TangentSpace) -> np.ndarray:
    """The (2 n r) x (2 n r) matrix of x -> the vector of P_T P_Gamma X, X =
    U @ A + W @ V.T the tangent element of x = [vec A.T; vec W], built column
    by column from project_T_reference on the unit vectors."""
    n, r = T.n, T.r
    cols = []
    for e in np.eye(2 * n * r):
        At, W = e.reshape(2, n, r)
        X = project_T_reference(T.U @ At.T + W @ T.V.T, T)
        Y = project_T_reference(np.where(S.mask, X, 0.0), T)
        A = T.U.T @ Y
        cols.append(np.concatenate((A.T, Y @ T.V - T.U @ (A @ T.V))).ravel())
    # the reshape gives the empty matrix its shape at r = 0
    return np.array(cols).T.reshape(2 * n * r, 2 * n * r)


@pytest.mark.parametrize("planted", [True, False])
@pytest.mark.parametrize("r", [0, 1, 2, 3])
@pytest.mark.parametrize("same", [False, True])
def test_operator_step_matches_dense_matrix(planted, r, same):
    # a step is the dense matrix of P_T P_Gamma P_T on the flat coordinates,
    # with U != V and with U = V
    n = 8
    x = rng(61 + r).standard_normal(2 * n * r)
    for T, mask, _ in operator_supports(n, r, planted, same, 60 + r):
        S = SupportSet(n, mask)
        M = dense_operator_matrix(S, T)
        step = linalg_mod._GammaTangentOperator(S, T)
        assert np.abs(step(x) - M @ x).max(initial=0.0) <= 1e-12


def suite_certificate(rho: float, k: int):
    """Gamma and T of the n = 100 certify-suite certificate derive_seed(1000, k)."""
    inst = gen_planted(InstanceParams(n=100, n_c=85, gamma=0.85, rho=rho, seed=derive_seed(1000, k)))
    f = svd(inst.B0, DEFAULT_RANK_TOL)
    return inst, TangentSpace(f.U, f.V)


@pytest.mark.parametrize("rho", [0.10, 0.70])
def test_operator_is_block_diagonal_on_suite_certificates(rho):
    # U and V vanish off the planted block and Gamma lies off it, so the
    # operator keeps only the blocks S_j and R_i, and ||P_Gamma P_T||^2 is
    # their top eigenvalue; the power estimate lies at most 2e-4 (relative)
    # below it
    for k in range(20):
        inst, T = suite_certificate(rho, k)
        n, r = T.n, T.r
        step = linalg_mod._GammaTangentOperator(inst.noise_support, T)
        assert step.E.flat.size == 0
        assert step.blocks.shape == (2 * n, r, r)
        exact = math.sqrt(np.linalg.eigvalsh(step.blocks).max())
        est = opnorm_PGammaPT(inst.noise_support, T)
        assert est <= exact
        assert exact - est <= 2e-4 * exact


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("same", [False, True])
def test_block_path_matches_dense_matrix(r, same):
    # Gamma misses supp(U) x supp(V): the operator keeps only its blocks,
    # and matches the dense matrix of P_T P_Gamma P_T
    n = 10
    rows_u, rows_v = np.arange(6), np.arange(2, 8)
    if same:
        T = planted_tangent(n, r, rows_u, rows_u, 80 + r)
        T = TangentSpace(T.U, T.U)
        rows_v = rows_u
    else:
        T = planted_tangent(n, r, rows_u, rows_v, 80 + r)
    live = np.zeros((n, n), dtype=bool)
    live[np.ix_(rows_u, rows_v)] = True
    random = rng(81 + r).random((n, n)) < 0.4
    x = rng(82 + r).standard_normal(2 * n * r)
    for mask in (np.zeros((n, n), dtype=bool), ~live, random & ~live):
        S = SupportSet(n, mask)
        step = linalg_mod._GammaTangentOperator(S, T)
        assert step.E.flat.size == 0
        assert step.blocks.shape == (2 * n, r, r)
        assert np.abs(step(x) - dense_operator_matrix(S, T) @ x).max() <= 1e-12


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 5])
def test_cross_split_matches_dense_references(monkeypatch, r, k):
    # Gamma off a planted block plus k entries inside it: the k entries are
    # the cross set, the rest goes to the blocks, and the step, the norm
    # and the Neumann half match their dense references
    n = 16
    rows_u, rows_v = np.arange(10), np.arange(4, 14)
    T = planted_tangent(n, r, rows_u, rows_v, 120 + r)
    g = rng(121 + r)
    live = np.zeros((n, n), dtype=bool)
    live[np.ix_(rows_u, rows_v)] = True
    rest = (g.random((n, n)) < 0.1) & ~live
    cross = np.sort(g.choice(np.flatnonzero(live), size=k, replace=False))
    mask = rest.copy()
    mask.flat[cross] = True
    S = SupportSet(n, mask)
    step = linalg_mod._GammaTangentOperator(S, T)
    assert np.array_equal(step.E.flat, cross)
    assert np.array_equal(step.blocks, linalg_mod._tangent_blocks(rest, T))
    x = g.standard_normal(2 * n * r)
    assert np.abs(step(x) - dense_operator_matrix(S, T) @ x).max() <= 1e-12
    expected, steps = opnorm_reference(S, T)
    applied = count_calls(monkeypatch, "__call__", linalg_mod._GammaTangentOperator)
    assert abs(opnorm_PGammaPT(S, T) - expected) <= 1e-12 * expected
    assert len(applied) == steps
    sgn = np.where(mask, g.choice([-1.0, 1.0], size=(n, n)), 0.0)
    ref, terms = neumann_reference(S, T, sgn, 0.3, max_terms=1000)
    assert terms < 1000
    got = neumann_QC(S, T, sgn, 0.3)
    assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref)


def test_opnorm_rejects_mismatched_dimensions():
    with pytest.raises(ValueError, match="dimensions differ"):
        opnorm_PGammaPT(SupportSet(12, np.ones((12, 12), dtype=bool)), random_tangent(10, 1, 5))


@pytest.mark.parametrize("rho", [0.10, 0.70])
def test_opnorm_steps_as_the_reference_on_a_suite_certificate(monkeypatch, rho):
    # on the shape the certificate suites run (n = 100, r = 1, an empty
    # cross set), the power iteration applies the operator once per
    # reference step and stops at the same step
    inst = gen_planted(InstanceParams(n=100, n_c=85, gamma=0.85, rho=rho, seed=derive_seed(1000, 0)))
    f = svd(inst.B0, DEFAULT_RANK_TOL)
    T = TangentSpace(f.U, f.V)
    assert T.r == 1
    expected, steps = opnorm_reference(inst.noise_support, T)
    applied = count_calls(monkeypatch, "__call__", linalg_mod._GammaTangentOperator)
    val = opnorm_PGammaPT(inst.noise_support, T)
    assert abs(val - expected) <= 1e-12 * expected
    assert len(applied) == steps


def test_opnorm_warns_at_iteration_cap(monkeypatch):
    monkeypatch.setattr(linalg_mod, "_POWER_ITER_CAP", 3)
    monkeypatch.setattr(linalg_mod, "_POWER_ITER_TOL", 1e-16)
    T = random_tangent(6, 2, 7)
    mask = np.zeros((6, 6), dtype=bool)
    mask[:, :3] = True
    S = SupportSet(6, mask)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        opnorm_PGammaPT(S, T)
    assert any("power iteration" in str(w.message) for w in caught)


def test_norm_kinds_complete():
    assert NORM_KINDS == ("nuclear", "spectral", "frobenius", "l1", "linf", "linf2")
