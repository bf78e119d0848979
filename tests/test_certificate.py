"""Dual-certificate tests: incoherence, batch partitioning, golfing recursion,
Neumann series against a dense oracle, end-to-end verification."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qcr.certificate as certificate
import qcr.linalg as linalg_mod
from qcr.certificate import (
    DEFAULT_RANK_TOL,
    GolfingConfig,
    NeumannDivergenceError,
    golfing_QB,
    incoherence,
    neumann_QC,
    partition_complement,
    verify_certificate,
)
from qcr.instances import InstanceParams, derive_seed, gen_planted
from qcr.linalg import (
    SupportSet,
    TangentSpace,
    norm,
    opnorm_PGammaPT,
    project_support,
    project_T,
    project_T_perp,
    svd,
)

from conftest import (
    count_calls,
    force_fold,
    gen_bernoulli_support,
    gen_low_rank,
    golfing_loop_reference,
    golfing_reference,
    neumann_reference,
    partition_reference,
    rng,
)


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def random_tangent(n: int, r: int, seed: int) -> TangentSpace:
    g = rng(seed)
    U, _ = np.linalg.qr(g.standard_normal((n, r)))
    V, _ = np.linalg.qr(g.standard_normal((n, r)))
    return TangentSpace(U=U, V=V)


def block_tangent(n: int, n_c: int) -> TangentSpace:
    """Rank-1 tangent space of the ideal planted block."""
    pat = np.zeros((n, n))
    pat[:n_c, :n_c] = 1.0
    return TangentSpace.from_factors(svd(pat))


# ---------------------------------------------------------------- incoherence


def test_incoherence_ones_matrix():
    rep = incoherence(np.ones((10, 10)))
    assert rep.r == 1
    assert abs(rep.mu_row - 1.0) < 1e-12
    assert abs(rep.mu_col - 1.0) < 1e-12
    assert abs(rep.mu_joint - 1.0) < 1e-12
    assert abs(rep.mu - 1.0) < 1e-12


def test_incoherence_spike_is_maximally_coherent():
    n = 12
    M = np.zeros((n, n))
    M[0, 0] = 1.0
    rep = incoherence(M)
    assert rep.r == 1
    assert abs(rep.mu_row - n) < 1e-12
    assert abs(rep.mu_col - n) < 1e-12
    assert abs(rep.mu_joint - n * n) < 1e-12


def test_incoherence_identity():
    # full-rank identity: row and column conditions bind at 1; the joint
    # entrywise condition max|UV^T| = 1 forces n^2/r * 1 = n
    n = 9
    rep = incoherence(np.eye(n))
    assert rep.r == n
    assert abs(rep.mu_row - 1.0) < 1e-12
    assert abs(rep.mu_col - 1.0) < 1e-12
    assert abs(rep.mu_joint - n) < 1e-12


def test_incoherence_zero_matrix_rejected():
    with pytest.raises(ValueError):
        incoherence(np.zeros((4, 4)))


@pytest.mark.property
@given(st.integers(0, 2**32 - 1), st.integers(4, 16), st.integers(1, 3))
def test_incoherence_lower_bound(seed, n, r):
    rep = incoherence(gen_low_rank(n, min(r, n), seed=seed))
    assert rep.mu >= 1.0 - 1e-12
    # row/column parameters live in [1, n/r]
    assert 1.0 - 1e-12 <= rep.mu_row <= n / rep.r + 1e-9
    assert 1.0 - 1e-12 <= rep.mu_col <= n / rep.r + 1e-9


@pytest.mark.property
@given(st.integers(0, 2**32 - 1), st.integers(4, 16), st.integers(1, 3))
def test_incoherence_bounds_row_norms_of_E(seed, n, r):
    # the computed mu must make the row/column-norm consequence hold
    M = gen_low_rank(n, min(r, n), seed=seed)
    rep = incoherence(M)
    f = svd(M)
    E = f.U @ f.V.T
    assert norm(E, "linf2") <= math.sqrt(rep.mu * rep.r / n) + 1e-10


# ---------------------------------------------------------------- golfing config


def test_config_default_batch_count():
    cfg = GolfingConfig.for_instance(InstanceParams(n=100, n_c=85, gamma=0.85, rho=0.1, seed=0))
    assert cfg.k0 == 20 * math.ceil(math.log(100))
    assert cfg.k0 == 100


def test_config_default_batch_count_floors_at_one_round():
    # log(1) = 0 would give no batches; from n = 2 on the floor changes nothing
    for n, k0 in ((1, 20), (2, 20), (3, 40), (100, 100)):
        params = InstanceParams(n=n, n_c=1, gamma=0.5, rho=0.0, seed=0)
        assert GolfingConfig.for_instance(params).k0 == k0


@pytest.mark.parametrize("p", [0.05, 0.3, 0.85, 1.0])
def test_config_q_consistent_with_p(p):
    cfg = GolfingConfig.for_instance(InstanceParams(n=50, n_c=40, gamma=p, rho=0.1, seed=1))
    assert cfg.p == p
    assert abs((1.0 - cfg.q) ** cfg.k0 - p) <= 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        GolfingConfig(k0=0, p=0.5, seed=0)
    with pytest.raises(ValueError):
        GolfingConfig(k0=10, p=1.5, seed=0)
    with pytest.raises(ValueError, match="k0 must be >= 1, got 0"):
        GolfingConfig.for_instance(InstanceParams(n=50, n_c=40, gamma=0.5, rho=0.1, seed=0), k0=0)


def test_config_extreme_q_values():
    assert GolfingConfig(k0=5, p=0.0, seed=0).q == 1.0
    assert GolfingConfig(k0=5, p=1.0, seed=0).q == 0.0


# ---------------------------------------------------------------- partitioning


def test_partition_batch_count_and_disjoint_from_gamma():
    G = gen_bernoulli_support(20, 0.3, seed=4)
    cfg = GolfingConfig(k0=60, p=0.7, seed=9)
    batches = partition_complement(G, cfg)
    assert len(batches) == cfg.k0
    for b in batches:
        assert not G.mask.ravel()[b].any()


def test_partition_q_one_gives_full_complement():
    G = gen_bernoulli_support(15, 0.4, seed=2)
    cfg = GolfingConfig(k0=4, p=0.0, seed=3)
    for b in partition_complement(G, cfg):
        assert np.array_equal(b, np.flatnonzero(~G.mask))


def test_partition_q_zero_gives_empty_batches():
    G = gen_bernoulli_support(15, 0.4, seed=2)
    cfg = GolfingConfig(k0=4, p=1.0, seed=3)
    for b in partition_complement(G, cfg):
        assert b.size == 0


def test_partition_deterministic():
    G = gen_bernoulli_support(20, 0.3, seed=4)
    cfg = GolfingConfig(k0=60, p=0.7, seed=11)
    a = partition_complement(G, cfg)
    b = partition_complement(G, cfg)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("n, rho, k0, p, seed", [
    (1, 0.0, 3, 0.5, 0),
    (1, 1.0, 2, 0.5, 1),
    (7, 0.3, 20, 0.9, 2),
    (20, 0.1, 100, 0.85, 3),
    (40, 0.4, 200, 0.999, 4),
    (33, 0.2, 5, 0.0, 5),
])
def test_partition_matches_mask_reference(n, rho, k0, p, seed):
    # each batch is np.flatnonzero of the mask a fresh n x n draw gives,
    # also at n = 1 and at a q so small that most batches are empty
    G = gen_bernoulli_support(n, rho, seed=seed + 100)
    cfg = GolfingConfig(k0=k0, p=p, seed=seed)
    got = partition_complement(G, cfg)
    ref = partition_reference(G, cfg)
    assert len(got) == len(ref) == k0
    for b, S in zip(got, ref):
        expected = np.flatnonzero(S.mask)
        assert b.dtype == expected.dtype
        assert np.array_equal(b, expected)


@pytest.mark.parametrize("k0, p", [(6, 1.0), (6, 0.0), (1, 0.5)])
def test_partition_matches_mask_reference_at_exact_q(k0, p):
    # q = 0, 1 and 0.5: the word limit is 0, 2^53 (every word) and 2^52
    cfg = GolfingConfig(k0=k0, p=p, seed=17)
    assert cfg.q in (0.0, 0.5, 1.0)
    G = gen_bernoulli_support(30, 0.2, seed=18)
    got = partition_complement(G, cfg)
    ref = partition_reference(G, cfg)
    for b, S in zip(got, ref, strict=True):
        assert np.array_equal(b, np.flatnonzero(S.mask))


@pytest.mark.parametrize("p, kept", [(0.5, [0, 1, 6, 7, 8]), (0.0, list(range(9))), (1.0, [])])
def test_partition_word_test_is_that_of_random(monkeypatch, p, kept):
    # Generator.random turns a Philox word x into (x >> 11) * 2^-53 ...
    words = np.random.Philox(23).random_raw(1000)
    doubles = np.random.Generator(np.random.Philox(23)).random(1000)
    assert np.array_equal((words >> np.uint64(11)) * 2.0**-53, doubles)
    # ... so at q = 0.5 the word with x >> 11 = 2^52 draws 0.5, which is not
    # below q: it and every word above it are left out; q = 1 keeps even
    # the largest word and q = 0 none
    half = 2**52 << 11
    words = np.array(
        [0, half - 1, half, half + 2047, half + 2048, 2**64 - 1, half - 2048, 1 << 11, 2**63 - 1],
        dtype=np.uint64,
    )

    class Stream:
        def __init__(self, seed):
            pass

        def random_raw(self, size):
            assert size == words.size
            return words.copy()

    monkeypatch.setattr(np.random, "Philox", Stream)
    G = SupportSet(3, np.zeros((3, 3), dtype=bool))
    (batch,) = partition_complement(G, GolfingConfig(k0=1, p=p, seed=0))
    assert batch.tolist() == kept


def test_partition_uncovered_fraction_matches_binomial_model():
    # each complement cell is missed by all k0 batches with probability
    # (1 - q)^k0 = p, so the uncovered fraction concentrates near p
    n, p = 40, 0.85
    G = gen_planted(InstanceParams(n=n, n_c=30, gamma=0.85, rho=0.1, seed=1)).noise_support
    comp = ~G.mask
    fracs = []
    for s in range(100):
        batches = partition_complement(G, GolfingConfig(k0=80, p=p, seed=s))
        union = np.zeros((n, n), dtype=bool)
        for b in batches:
            union.flat[b] = True
        fracs.append(1.0 - union[comp].sum() / comp.sum())
    assert abs(np.mean(fracs) - p) < 0.01


# ---------------------------------------------------------------- golfing


def test_golfing_single_full_batch_exact():
    T = random_tangent(10, 2, 5)
    Q_B, trace = golfing_QB(T, [np.arange(100)], p=1.0)
    assert np.abs(Q_B).max() <= 1e-12
    assert trace[-1] <= 1e-12
    assert len(trace) == 2
    assert abs(trace[0] - np.linalg.norm(T.U @ T.V.T)) < 1e-12


def test_golfing_empty_batches_do_nothing():
    T = random_tangent(10, 2, 6)
    E_norm = float(np.linalg.norm(T.U @ T.V.T))
    Q_B, trace = golfing_QB(T, [np.arange(0)] * 3, p=0.5)
    assert np.abs(Q_B).max() == 0.0
    assert all(abs(t - E_norm) < 1e-12 for t in trace)


def test_golfing_output_in_tangent_complement():
    T = block_tangent(30, 20)
    g = rng(8)
    batches = [np.flatnonzero(g.random((30, 30)) < 0.3) for _ in range(40)]
    Q_B, _ = golfing_QB(T, batches, p=0.3)
    leak = np.linalg.norm(project_T(Q_B, T))
    assert leak <= 1e-10 * max(1.0, np.linalg.norm(Q_B))


def test_golfing_validation():
    T = random_tangent(6, 1, 0)
    with pytest.raises(ValueError):
        golfing_QB(T, [], p=0.5)
    with pytest.raises(ValueError):
        golfing_QB(T, [np.arange(36)], p=0.0)
    # an index past n * n, as a batch drawn for n = 7 holds
    with pytest.raises(ValueError):
        golfing_QB(T, [np.arange(49)], p=0.5)


@pytest.mark.parametrize("batch", [
    np.array([-1, 3]),
    np.array([3, 2]),
    np.array([2, 2]),
    np.array([3, 2], dtype=np.uint64),
    np.array([1.0, 2.0]),
    np.array([[1, 2]]),
    [1, 2],
    np.array([0, 36]),
], ids=["negative", "decreasing", "repeated", "unsigned decreasing", "float", "2-d", "list", "n * n"])
def test_golfing_rejects_a_batch_that_is_not_increasing_flat_indices(batch):
    T = random_tangent(6, 1, 0)
    with pytest.raises(ValueError):
        golfing_QB(T, [np.arange(3), batch], p=0.5)


@pytest.mark.parametrize("q, p", [(0.3, 0.3), (0.3, 0.05)])
def test_golfing_matches_two_projection_reference(q, p):
    # at p = 0.05 each batch overshoots by q/p = 6 and the residual grows
    T = block_tangent(30, 20)
    g = rng(77)
    batches = [np.flatnonzero(g.random((30, 30)) < q) for _ in range(12)]
    Q_B, trace = golfing_QB(T, batches, p)
    ref_Q_B, ref_trace = golfing_reference(T, batches, p)
    assert np.linalg.norm(Q_B - ref_Q_B) <= 1e-12 * np.linalg.norm(ref_Q_B)
    assert np.allclose(trace, ref_trace, rtol=1e-12, atol=0.0)
    assert (ref_trace[-1] > ref_trace[0]) == (p < q)


def test_golfing_projects_once_per_batch(monkeypatch):
    # each batch projects its entries to tangent factors once; the only dense
    # n x n projection is the final one onto the tangent complement
    T = block_tangent(20, 12)
    g = rng(78)
    for k in (1, 7, 30):
        batches = [np.flatnonzero(g.random((20, 20)) < 0.3) for _ in range(k)]
        dense = count_calls(monkeypatch, "project_T", linalg_mod)
        sparse = count_calls(monkeypatch, "_tangent_factors_at", linalg_mod, certificate)
        golfing_QB(T, batches, 0.3)
        assert len(dense) == 1
        assert len(sparse) == k


@pytest.mark.parametrize("r", [0, 1, 3, 6])
def test_golfing_matches_per_batch_loop_bitwise(r):
    # each batch gathers its own entries from its index array; the result is
    # that of the same loop over each batch's mask
    n = 25
    T = random_tangent(n, r, 60 + r)
    G = gen_bernoulli_support(n, 0.2, seed=61 + r)
    masks = partition_reference(G, GolfingConfig(k0=30, p=0.4, seed=62 + r))
    Q_B, trace = golfing_QB(T, [np.flatnonzero(S.mask) for S in masks], 0.4)
    ref_Q_B, ref_trace = golfing_loop_reference(T, masks, 0.4)
    assert np.array_equal(Q_B, ref_Q_B)
    assert trace == ref_trace


def test_golfing_matches_per_batch_loop_bitwise_on_a_certificate_schedule():
    inst = gen_planted(InstanceParams(n=100, n_c=85, gamma=0.85, rho=0.1, seed=7))
    T = TangentSpace.from_factors(svd(inst.B0, DEFAULT_RANK_TOL))
    cfg = GolfingConfig.for_instance(inst.params)
    Q_B, trace = golfing_QB(T, partition_complement(inst.noise_support, cfg), cfg.p)
    ref_Q_B, ref_trace = golfing_loop_reference(T, partition_reference(inst.noise_support, cfg), cfg.p)
    assert np.array_equal(Q_B, ref_Q_B)
    assert trace == ref_trace


def median_decay_ratio(trace) -> float:
    """Median step ratio over the decaying segment of a golfing trace.

    Steps below 1e-12 of the initial residual are excluded: past that point
    the recursion has hit the floating-point floor and ratios are noise.
    """
    tr = np.asarray(trace, dtype=float)
    keep = (tr[:-1] > 1e-12 * tr[0]) & (tr[1:] > 0)
    return float(np.median(tr[1:][keep] / tr[:-1][keep]))


def test_golfing_trace_contracts_with_dense_batches():
    # per-batch sampling at q = 0.3 on a size-100 problem satisfies the
    # sampling regime, so every step contracts by a factor well below 1/2
    inst = gen_planted(InstanceParams(n=100, n_c=85, gamma=0.85, rho=0.10, seed=0))
    T = TangentSpace.from_factors(svd(inst.block_pattern))
    g = rng(123)
    batches = [
        np.flatnonzero((g.random((100, 100)) < 0.3) & ~inst.noise_support.mask)
        for _ in range(40)
    ]
    _, trace = golfing_QB(T, batches, 0.3)
    assert median_decay_ratio(trace) <= 0.5


# ---------------------------------------------------------------- neumann


def test_neumann_empty_support_is_zero():
    T = random_tangent(8, 2, 1)
    out = neumann_QC(SupportSet(8, np.zeros((8, 8), dtype=bool)), T, np.zeros((8, 8)), lam=0.3)
    assert np.array_equal(out, np.zeros((8, 8)))


def test_neumann_single_term():
    T = random_tangent(8, 2, 2)
    G = gen_bernoulli_support(8, 0.2, seed=3)
    sgn = project_support(np.ones((8, 8)), G)
    out = neumann_QC(G, T, sgn, lam=0.4, max_terms=1)
    assert np.allclose(out, 0.4 * project_T_perp(sgn, T), atol=1e-12)


def dense_neumann_oracle(G: SupportSet, T: TangentSpace, sgn, lam):
    """Solve the support-restricted system (I - P_G P_T P_G) w = sgn directly."""
    n = G.n
    idx = np.flatnonzero(G.mask).tolist()
    L = np.zeros((len(idx), len(idx)))
    for a, flat in enumerate(idx):
        E = np.zeros((n, n))
        E[flat // n, flat % n] = 1.0
        img = project_support(project_T(E, T), G)
        L[:, a] = [img[f // n, f % n] for f in idx]
    w = np.linalg.solve(np.eye(len(idx)) - L, [sgn[f // n, f % n] for f in idx])
    W = np.zeros((n, n))
    for val, f in zip(w, idx):
        W[f // n, f % n] = val
    return lam * project_T_perp(W, T)


def test_neumann_matches_dense_linear_system():
    g = rng(7)
    n = 8
    T = random_tangent(n, 2, 70)
    mask = np.zeros(n * n, dtype=bool)
    mask[g.choice(n * n, size=6, replace=False)] = True
    G = SupportSet(n, mask.reshape(n, n))
    sgn = np.zeros((n, n))
    for i, j in zip(*np.nonzero(G.mask)):
        sgn[i, j] = g.choice([-1.0, 1.0])
    got = neumann_QC(G, T, sgn, lam=0.3, tol=1e-12, max_terms=500)
    ref = dense_neumann_oracle(G, T, sgn, 0.3)
    assert np.abs(got - ref).max() <= 1e-8


def test_neumann_fixed_point_identity():
    inst = gen_planted(InstanceParams(n=60, n_c=48, gamma=0.85, rho=0.1, seed=5))
    T = TangentSpace.from_factors(svd(inst.B0, DEFAULT_RANK_TOL))
    G = inst.noise_support
    sgn = np.sign(inst.C0)
    lam, tol = 0.1, 1e-10
    Q_C = neumann_QC(G, T, sgn, lam, tol=tol)
    resid = np.linalg.norm(project_support(Q_C, G) - lam * sgn)
    assert resid <= 10 * tol * lam * np.linalg.norm(sgn)


def test_neumann_given_opnorm_is_bit_identical():
    inst = gen_planted(InstanceParams(n=60, n_c=48, gamma=0.85, rho=0.1, seed=5))
    T = TangentSpace.from_factors(svd(inst.B0, DEFAULT_RANK_TOL))
    G, sgn = inst.noise_support, np.sign(inst.C0)
    default = neumann_QC(G, T, sgn, 0.1)
    given_norm = neumann_QC(G, T, sgn, 0.1, opnorm=opnorm_PGammaPT(G, T))
    assert np.array_equal(default, given_norm)


def test_neumann_output_in_tangent_complement():
    inst = gen_planted(InstanceParams(n=60, n_c=48, gamma=0.85, rho=0.1, seed=5))
    T = TangentSpace.from_factors(svd(inst.B0, DEFAULT_RANK_TOL))
    Q_C = neumann_QC(inst.noise_support, T, np.sign(inst.C0), 0.1)
    leak = np.linalg.norm(project_T(Q_C, T))
    assert leak <= 1e-10 * max(1.0, np.linalg.norm(Q_C))


def test_neumann_divergence_raises():
    # a tangent space spanning everything makes the composed operator norm 1
    T = random_tangent(6, 6, 9)
    G = gen_bernoulli_support(6, 0.5, seed=10)
    sgn = project_support(np.ones((6, 6)), G)
    with pytest.raises(NeumannDivergenceError):
        neumann_QC(G, T, sgn, lam=0.3)


def test_neumann_validation():
    T = random_tangent(6, 2, 11)
    G = gen_bernoulli_support(6, 0.3, seed=12)
    off_support = np.ones((6, 6))
    with pytest.raises(ValueError, match="supported"):
        neumann_QC(G, T, off_support, lam=0.3)
    sgn = project_support(np.ones((6, 6)), G)
    with pytest.raises(ValueError):
        neumann_QC(G, T, sgn, lam=-0.1)
    with pytest.raises(ValueError):
        neumann_QC(G, T, sgn, lam=0.3, tol=0.0)
    with pytest.raises(ValueError):
        neumann_QC(G, T, sgn, lam=0.3, max_terms=0)


def test_neumann_warns_when_truncated_early():
    inst = gen_planted(InstanceParams(n=40, n_c=32, gamma=0.85, rho=0.1, seed=6))
    T = TangentSpace.from_factors(svd(inst.B0, DEFAULT_RANK_TOL))
    sgn = np.sign(inst.C0)
    with pytest.warns(RuntimeWarning, match="truncated"):
        neumann_QC(inst.noise_support, T, sgn, 0.1, tol=1e-14, max_terms=3)


@pytest.mark.parametrize("fold", [True, False])
@pytest.mark.parametrize("r, density, max_terms", [
    (1, 0.1, 200), (2, 0.05, 200), (3, 0.05, 200), (1, 0.3, 4),
])
def test_neumann_matches_reference_on_both_paths(monkeypatch, fold, r, density, max_terms):
    # the same sum, the same number of terms (one operator application
    # each after the first), and the warning exactly when the reference
    # stops at max_terms above tolerance
    force_fold(monkeypatch, fold)
    n = 24
    T = random_tangent(n, r, 110 + r)
    G = SupportSet(n, rng(111 + r).random((n, n)) < density)
    assert not np.array_equal(G.mask, G.mask.T)
    sgn = np.where(G.mask, rng(112 + r).choice([-1.0, 1.0], size=(n, n)), 0.0)
    ref, terms = neumann_reference(G, T, sgn, 0.3, max_terms=max_terms)
    opn = opnorm_PGammaPT(G, T)
    applied = count_calls(monkeypatch, "__call__", linalg_mod._GammaTangentOperator)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = neumann_QC(G, T, sgn, lam=0.3, max_terms=max_terms, opnorm=opn)
    assert rel_close(got, ref)
    assert len(applied) == terms - 1
    assert (terms == max_terms) == (max_terms == 4)
    assert len(caught) == (max_terms == 4)
    assert all("truncated at max_terms=4 " in str(w.message) for w in caught)


@pytest.mark.parametrize("fold", [True, False])
def test_neumann_divergence_raises_on_both_paths(monkeypatch, fold):
    force_fold(monkeypatch, fold)
    T = random_tangent(6, 6, 9)
    G = gen_bernoulli_support(6, 0.5, seed=10)
    with pytest.raises(NeumannDivergenceError):
        neumann_QC(G, T, project_support(np.ones((6, 6)), G), lam=0.3)


# ---------------------------------------------------------------- factored kernels vs dense references


def rel_close(got, ref, rtol=1e-12) -> bool:
    """Frobenius distance within rtol of the reference's norm (absolute when
    the reference is zero)."""
    return float(np.linalg.norm(got - ref)) <= rtol * max(float(np.linalg.norm(ref)), 1.0)


@pytest.mark.parametrize("r", [0, 1, 3])
@pytest.mark.parametrize("q, p", [(0.2, 0.5), (0.3, 0.05)])
def test_golfing_factored_matches_dense_reference(r, q, p):
    # independent draws overlap one another; every third batch is empty; at
    # p < q each batch overshoots and the residual grows
    n = 15
    T = random_tangent(n, r, 90 + r)
    assert r == 0 or np.abs(T.U - T.V).max() > 0.1
    g = rng(91 + r)
    batches = [
        np.arange(0) if k % 3 == 2 else np.flatnonzero(g.random((n, n)) < q)
        for k in range(12)
    ]
    assert np.intersect1d(batches[0], batches[1]).size
    Q_B, trace = golfing_QB(T, batches, p)
    ref_Q_B, ref_trace = golfing_reference(T, batches, p)
    assert rel_close(Q_B, ref_Q_B)
    assert np.allclose(trace, ref_trace, rtol=1e-12, atol=1e-12)
    if r:
        assert (ref_trace[-1] > ref_trace[0]) == (p < q)


@pytest.mark.parametrize("r", [0, 1, 3])
@pytest.mark.parametrize("density", [0.0, 0.1])
def test_neumann_factored_matches_dense_reference(r, density):
    n = 20
    T = random_tangent(n, r, 97 + r)
    G = SupportSet(n, rng(98 + r).random((n, n)) < density)
    sgn = np.where(G.mask, rng(99 + r).choice([-1.0, 1.0], size=(n, n)), 0.0)
    assert opnorm_PGammaPT(G, T) < 0.9
    got = neumann_QC(G, T, sgn, lam=0.3)
    ref = neumann_reference(G, T, sgn, 0.3)[0] if len(G) else np.zeros((n, n))
    assert rel_close(got, ref)


# ---------------------------------------------------------------- verification


def test_verify_report_self_consistent():
    inst = gen_planted(InstanceParams(n=60, n_c=48, gamma=0.85, rho=0.10, seed=3))
    rep = verify_certificate(inst)
    lam = rep.lam
    assert rep.conditions == (
        rep.norm_QB < 1 / 8,
        rep.residual_golfing < lam / 8,
        rep.linf_complement_B < lam / 4,
        rep.norm_QC < 1 / 8,
        rep.linf_complement_C < 1 / 4,
    )
    assert rep.overall == (all(rep.conditions) and rep.opnorm_PGPT <= 0.5 and lam < 1)
    assert rep.margins == (
        rep.norm_QB * 8,
        rep.residual_golfing / (lam / 8),
        rep.linf_complement_B / (lam / 4),
        rep.norm_QC * 8,
        rep.linf_complement_C * 4,
    )
    assert tuple(m < 1 for m in rep.margins) == rep.conditions
    assert abs(lam - 1 / math.sqrt(60)) < 1e-15
    assert len(rep.golfing_trace) == rep.config.k0 + 1
    assert rep.incoherence.r >= 1
    assert rep.regime_ok == (rep.config.p >= rep.regime_threshold)


def test_verify_linf2_norms_of_both_halves_and_their_sum():
    # an instance whose sum has a larger l_{inf,2} norm than either half
    inst = gen_planted(InstanceParams(n=30, n_c=24, gamma=0.85, rho=0.01, seed=3))
    rep = verify_certificate(inst)
    Q = rep.Q_B + rep.Q_C
    assert (rep.linf2_QB, rep.linf2_QC, rep.linf2_Q) == (
        norm(rep.Q_B, "linf2"), norm(rep.Q_C, "linf2"), norm(Q, "linf2")
    )
    assert rep.linf2_Q > max(rep.linf2_QB, rep.linf2_QC)
    assert rep.linf2_Q == max(np.linalg.norm(Q, axis=0).max(), np.linalg.norm(Q, axis=1).max())


def test_verify_duals_in_tangent_complement():
    inst = gen_planted(InstanceParams(n=60, n_c=48, gamma=0.85, rho=0.10, seed=4))
    rep = verify_certificate(inst)
    T = TangentSpace.from_factors(svd(inst.B0, DEFAULT_RANK_TOL))
    for Q in (rep.Q_B, rep.Q_C):
        leak = np.linalg.norm(project_T(Q, T))
        assert leak <= 1e-10 * max(1.0, np.linalg.norm(Q))


def test_verify_deterministic():
    inst = gen_planted(InstanceParams(n=50, n_c=40, gamma=0.85, rho=0.10, seed=12))
    a = verify_certificate(inst)
    b = verify_certificate(inst)
    assert np.array_equal(a.Q_B, b.Q_B)
    assert np.array_equal(a.Q_C, b.Q_C)
    assert a.conditions == b.conditions
    assert a.golfing_trace == b.golfing_trace


def test_verify_runs_power_iteration_once(monkeypatch):
    calls = count_calls(monkeypatch, "opnorm_PGammaPT", certificate)
    verify_certificate(gen_planted(InstanceParams(n=50, n_c=40, gamma=0.85, rho=0.10, seed=12)))
    assert len(calls) == 1


def test_verify_factors_planted_block_once(monkeypatch):
    inst = gen_planted(InstanceParams(n=50, n_c=40, gamma=0.85, rho=0.10, seed=12))
    expected = incoherence(inst.B0, DEFAULT_RANK_TOL)
    calls = count_calls(monkeypatch, "svd", certificate)
    rep = verify_certificate(inst)
    assert len(calls) == 1
    assert rep.incoherence == expected


def test_verify_empty_noise_support():
    # no noise: the sparse dual is zero and its conditions hold trivially
    inst = gen_planted(InstanceParams(n=40, n_c=30, gamma=0.85, rho=0.0, seed=7))
    rep = verify_certificate(inst)
    assert np.array_equal(rep.Q_C, np.zeros((40, 40)))
    assert rep.conditions[3] and rep.conditions[4]
    assert rep.norm_QC == 0.0
    assert rep.opnorm_PGPT == 0.0


def test_verify_lambda_gate():
    inst = gen_planted(InstanceParams(n=40, n_c=30, gamma=0.85, rho=0.05, seed=8))
    rep = verify_certificate(inst, lam=1.0)
    assert not rep.overall


def test_verify_rejects_invalid_lambda():
    # the certificate takes its lambda through the solver's option check
    inst = gen_planted(InstanceParams(n=40, n_c=30, gamma=0.85, rho=0.05, seed=8))
    for lam in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="lam must be positive"):
            verify_certificate(inst, lam=lam)


def test_verify_zero_block_rejected():
    # pick a seed whose single-vertex block draws no self-loop
    for seed in range(50):
        inst = gen_planted(InstanceParams(n=6, n_c=1, gamma=0.5, rho=0.2, seed=seed))
        if not np.any(inst.B0):
            with pytest.raises(ValueError, match="nonzero"):
                verify_certificate(inst)
            return
    pytest.fail("no seed produced an empty planted block")


def test_verify_custom_config_respected():
    inst = gen_planted(InstanceParams(n=40, n_c=32, gamma=0.85, rho=0.10, seed=9))
    cfg = GolfingConfig(k0=12, p=0.6, seed=5)
    rep = verify_certificate(inst, cfg=cfg)
    assert rep.config == cfg
    assert len(rep.golfing_trace) == 13


@pytest.mark.parametrize("rho", [0.10, 0.70])
@pytest.mark.parametrize("k", range(3))
def test_verify_keeps_certify_suite_reference(rho, k):
    # the certificate-suite benchmark's recorded outputs, read from
    # perfbench/reference.json without importing perfbench: the conditions
    # and overall verdict exactly, the six norms to the file's tolerance
    doc = json.loads(REFERENCE.read_text())
    recorded = doc["certify-suites"]["1000"][f"rho={rho}/k={k}"]
    params = InstanceParams(n=100, n_c=85, gamma=0.85, rho=rho, seed=derive_seed(1000, k))
    rep = verify_certificate(gen_planted(params), lam=0.1)
    assert list(rep.conditions) == recorded["conditions"]
    assert rep.overall == recorded["overall"]
    assert len(recorded["norms"]) == 6
    for field, value in recorded["norms"].items():
        assert math.isclose(getattr(rep, field), value, rel_tol=doc["norm_rtol"], abs_tol=1e-12), field
