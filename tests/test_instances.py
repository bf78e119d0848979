"""Planted-instance generator tests: exact structure, storage of A alone,
seeded determinism, the bytes of A against a construction from doubles,
binomial support counts, and the random test matrices of conftest."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcr.fileio import read_instance, write_instance
from qcr.instances import InstanceParams, PlantedInstance, derive_seed, gen_planted

from conftest import gen_bernoulli_support, gen_low_rank, gen_random_sign_sparse, planted_reference


def params(n=60, n_c=45, gamma=0.85, rho=0.25, seed=0):
    return InstanceParams(n=n, n_c=n_c, gamma=gamma, rho=rho, seed=seed)


# ---------------------------------------------------------------- validation


@pytest.mark.parametrize(
    "kw",
    [
        {"n": 0},
        {"n_c": 0},
        {"n_c": 61},
        {"gamma": 0.0},
        {"gamma": 1.1},
        {"rho": -0.1},
        {"rho": 1.0},
        {"seed": -1},
        {"seed": 2**64},
    ],
)
def test_params_validation(kw):
    with pytest.raises(ValueError):
        params(**kw)


def test_params_boundary_values_accepted():
    params(gamma=1.0, rho=0.0)
    params(n_c=60)
    params(seed=2**64 - 1)


# ---------------------------------------------------------------- structure


def test_deterministic_block_when_gamma_one_rho_zero():
    inst = gen_planted(params(n=10, n_c=6, gamma=1.0, rho=0.0, seed=5))
    block = np.zeros((10, 10))
    block[:6, :6] = 1.0
    assert np.array_equal(inst.A, block)
    assert np.array_equal(inst.B0, block)
    assert np.array_equal(inst.C0, np.zeros((10, 10)))
    assert np.count_nonzero(inst.B0) == 36
    assert len(inst.noise_support) == 0


def test_block_pattern_is_full_block():
    inst = gen_planted(params(n=12, n_c=7))
    pat = inst.block_pattern
    expect = np.zeros((12, 12))
    expect[:7, :7] = 1.0
    assert np.array_equal(pat, expect)


def test_decomposition_identity_and_disjoint_supports():
    inst = gen_planted(params(seed=9))
    assert np.array_equal(inst.A, inst.B0 + inst.C0)
    assert np.abs(inst.B0 * inst.C0).max() == 0.0
    # B0 is A restricted to the block, C0 the rest
    block = inst.block_pattern.astype(bool)
    assert np.array_equal(inst.B0, np.where(block, inst.A, 0.0))
    assert np.array_equal(inst.C0, np.where(block, 0.0, inst.A))


def test_symmetry_and_binary_entries():
    inst = gen_planted(params(seed=3))
    assert np.array_equal(inst.A, inst.A.T)
    assert set(np.unique(inst.A)) <= {0.0, 1.0}


def test_supports_match_nonzeros():
    inst = gen_planted(params(seed=4))
    block = inst.block_pattern.astype(bool)
    assert np.array_equal(inst.B0 != 0, (inst.A != 0) & block)
    assert np.array_equal(inst.noise_support.mask, (inst.A != 0) & ~block)
    assert np.array_equal(inst._block(), block)


@pytest.mark.property
@given(
    st.integers(0, 2**32 - 1),
    st.integers(4, 40),
    st.floats(0.05, 1.0),
    st.floats(0.0, 0.9),
)
def test_structure_invariants(seed, n, gamma, rho):
    n_c = max(1, (2 * n) // 3)
    inst = gen_planted(InstanceParams(n=n, n_c=n_c, gamma=gamma, rho=rho, seed=seed))
    assert np.array_equal(inst.A, inst.A.T)
    assert np.array_equal(inst.A, inst.B0 + inst.C0)
    assert not ((inst.B0 != 0) & inst.noise_support.mask).any()
    assert np.array_equal((inst.B0 != 0) | inst.noise_support.mask, inst.A != 0)
    # nothing planted outside the block in B0
    assert np.abs(inst.B0[n_c:, :]).max(initial=0.0) == 0.0
    assert np.abs(inst.B0[:, n_c:]).max(initial=0.0) == 0.0


# ---------------------------------------------------------------- storage

DERIVED = ("B0", "C0", "noise_support", "block_pattern")


def split_reference(params, A):
    """The arrays the instance held before it stored A alone, built as then."""
    n, n_c = params.n, params.n_c
    block = np.zeros((n, n), dtype=bool)
    block[:n_c, :n_c] = True
    B0 = np.where(block, A, 0.0)
    C0 = A - B0
    return {
        "B0": B0,
        "C0": C0,
        "noise_support": C0 != 0,
        "block_pattern": block.astype(float),
    }


def weighted_adjacency(n, seed):
    g = np.random.default_rng(seed)
    W = np.where(g.random((n, n)) < 0.4, g.normal(size=(n, n)), 0.0)
    W = W + W.T
    W[0, 1] = W[1, 0] = -0.0
    return W


def test_instance_stores_params_and_A_alone():
    inst = gen_planted(params(seed=6))
    assert [f.name for f in dataclasses.fields(PlantedInstance)] == ["params", "A"]
    for name in DERIVED:
        getattr(inst, name)
    assert set(vars(inst)) == {"params", "A"}


@pytest.mark.parametrize("source", ["gen_planted", "read_instance", "weighted"])
@pytest.mark.parametrize("n_c", [20, 1])
def test_derived_fields_are_bitwise_the_stored_split(tmp_path, source, n_c):
    p = params(n=20, n_c=n_c, gamma=0.7, rho=0.3, seed=11)
    if source == "weighted":
        inst = PlantedInstance(p, weighted_adjacency(20, seed=n_c))
    else:
        inst = gen_planted(p)
        if source == "read_instance":
            path = str(tmp_path / "inst.txt")
            write_instance(inst, path)
            inst = read_instance(path)
    expected = split_reference(p, np.array(inst.A))
    for name in DERIVED:
        got = getattr(inst, name)
        got = got.mask if name == "noise_support" else got
        assert got.dtype == expected[name].dtype and got.shape == (20, 20), name
        assert got.tobytes() == expected[name].tobytes(), name


def with_entry(i, j, v):
    A = np.zeros((10, 10))
    A[i, j] = v
    return A


@pytest.mark.parametrize("A", [
    np.ones(10),                    # 1-d, would broadcast to 10 x 10
    np.ones((12, 12)),              # square, but not n x n
    np.ones((10, 12)),
    np.ones((1, 10, 10)),
    with_entry(2, 3, np.nan),       # inside the block
    with_entry(9, 0, np.inf),       # outside it
], ids=["1d", "12x12", "10x12", "3d", "nan", "inf"])
def test_from_adjacency_rejects_a_bad_adjacency(A):
    # the constructor is the one way to build an instance from an adjacency
    with pytest.raises(ValueError):
        PlantedInstance(params(n=10, n_c=6), A)


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_constructor_stores_a_float_copy_of_the_callers_array(dtype):
    A = np.eye(4, dtype=dtype)
    inst = PlantedInstance(params(n=4, n_c=2), A)
    assert A.flags.writeable
    assert inst.A.dtype == np.float64 and inst.A.flags.c_contiguous and not inst.A.flags.writeable
    assert np.array_equal(inst.A, A)


def test_A_is_a_frozen_copy():
    p = params(n=10, n_c=6)
    A = weighted_adjacency(10, seed=3)
    before = A.copy()
    inst = PlantedInstance(p, A)
    assert not inst.A.flags.writeable and inst.A.flags.c_contiguous
    with pytest.raises(ValueError):
        inst.A[0, 0] = 5.0
    A[0, 0] = A[9, 9] = 5.0
    assert A.flags.writeable
    assert np.array_equal(inst.A, before)
    assert inst.B0.tobytes() == split_reference(p, before)["B0"].tobytes()
    assert inst.C0.tobytes() == split_reference(p, before)["C0"].tobytes()


# ---------------------------------------------------------------- counts


def test_support_counts_within_three_sigma():
    # upper-triangle cells are independent Bernoulli draws, mirrored below;
    # off-diagonal cells contribute 2 to the count, diagonal cells 1
    n, n_c, gamma, rho = 200, 150, 0.85, 0.25
    inst = gen_planted(params(n=n, n_c=n_c, gamma=gamma, rho=rho, seed=2024))

    m_off = n_c * (n_c - 1) // 2
    mean_g = 2 * gamma * m_off + gamma * n_c
    var_g = 4 * gamma * (1 - gamma) * m_off + gamma * (1 - gamma) * n_c
    assert abs(np.count_nonzero(inst.B0) - mean_g) <= 3 * np.sqrt(var_g)

    m_noise_off = n * (n - 1) // 2 - m_off
    mean_c = 2 * rho * m_noise_off + rho * (n - n_c)
    var_c = 4 * rho * (1 - rho) * m_noise_off + rho * (1 - rho) * (n - n_c)
    assert abs(len(inst.noise_support) - mean_c) <= 3 * np.sqrt(var_c)


def test_counts_stable_across_seeds():
    # average density over many seeds concentrates much tighter than 3 sigma
    n, n_c, gamma = 40, 30, 0.6
    cells = n_c * (n_c - 1) + n_c
    rates = [
        np.count_nonzero(gen_planted(params(n=n, n_c=n_c, gamma=gamma, rho=0.1, seed=s)).B0) / cells
        for s in range(100)
    ]
    assert abs(np.mean(rates) - gamma) < 0.01


# ---------------------------------------------------------------- determinism


def test_generation_deterministic():
    a = gen_planted(params(seed=77))
    b = gen_planted(params(seed=77))
    assert np.array_equal(a.A, b.A)
    assert np.array_equal(a.B0, b.B0)
    assert np.array_equal(a.noise_support.mask, b.noise_support.mask)


def test_different_seeds_differ():
    a = gen_planted(params(seed=1))
    b = gen_planted(params(seed=2))
    assert not np.array_equal(a.A, b.A)


@pytest.mark.parametrize("n, n_c, gamma, rho", [
    (1, 1, 0.85, 0.25),
    (1, 1, 1.0, 0.0),
    (7, 3, 0.85, 0.25),
    (31, 31, 0.6, 0.4),
    (40, 17, 1.0, 0.3),
    (40, 17, 0.7, 0.0),
    (100, 85, 0.85, 0.7),
])
def test_generation_is_bitwise_the_reference(n, n_c, gamma, rho):
    # n = 1, odd n, n_c = n, and the limits gamma = 1 (every word) and rho = 0 (none)
    for s in range(25):
        p = params(n=n, n_c=n_c, gamma=gamma, rho=rho, seed=derive_seed(11, s))
        assert gen_planted(p).A.tobytes() == planted_reference(p).tobytes()


# SHA-256 of A.tobytes() for the certificate-suite instances (n=100, n_c=85,
# gamma=0.85, seed derive_seed(1000, k)), as the Generator.random
# construction of planted_reference gave them
SUITE_SHA256 = {
    (0.1, 0): "d4005f567871ee5919286558b2c501ed9436e2ed245451fe4242020fdf84af88",
    (0.1, 1): "a75d9825efc976a00e7f5dbaa77d308462fe25bc1c5e18de958f88ac8fd71eb2",
    (0.1, 2): "ee1e26cfe2926358d77066c8fb93fe19a5dd6b83a0f0449e59dd1caedb9bec31",
    (0.7, 0): "64a328d6a619e69d29998843d654cd625350b3c7bf1972191398a9d7cabd8725",
    (0.7, 1): "be114a2ce6694bab1266bea0ec3584bf15e0d1f65cdf68773b2420c709f5a0af",
    (0.7, 2): "bfeb96c47c4bfa25dcc48d7095242ef03e3e9aea530ce98fe70dc3650833a5ed",
}


@pytest.mark.parametrize("rho, k", sorted(SUITE_SHA256))
def test_suite_instances_keep_their_bytes(rho, k):
    A = gen_planted(params(n=100, n_c=85, gamma=0.85, rho=rho, seed=derive_seed(1000, k))).A
    assert hashlib.sha256(A.tobytes()).hexdigest() == SUITE_SHA256[rho, k]


@pytest.mark.property
@given(
    st.integers(0, 2**32 - 1),
    st.integers(4, 30),
    st.floats(0.1, 1.0),
    st.floats(0.0, 0.9),
)
def test_generation_deterministic_property(seed, n, gamma, rho):
    p = InstanceParams(n=n, n_c=max(1, n // 2), gamma=gamma, rho=rho, seed=seed)
    assert np.array_equal(gen_planted(p).A, gen_planted(p).A)


# ---------------------------------------------------------------- derive_seed


def test_derive_seed_frozen_values():
    # regression anchors: grid reproducibility depends on these exact values
    assert derive_seed(0) == 0
    assert derive_seed(0, 1) == 10451216379200822465
    assert derive_seed(42, 3, 5) == 17453528184514741836
    assert derive_seed(42, 5, 3) == 6478634360146293233


def test_derive_seed_order_sensitive_and_distinct():
    seen = {derive_seed(7, i, j, t) for i in range(4) for j in range(4) for t in range(4)}
    assert len(seen) == 64
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)


@pytest.mark.property
@given(st.integers(0, 2**63 - 1), st.integers(0, 1000), st.integers(0, 1000))
def test_derive_seed_in_range(base, i, j):
    s = derive_seed(base, i, j)
    assert 0 <= s < 2**64


# ---------------------------------------------------------------- conftest test matrices


def test_bernoulli_support_extremes():
    assert len(gen_bernoulli_support(6, 0.0, seed=1)) == 0
    assert len(gen_bernoulli_support(6, 1.0, seed=1)) == 36


def test_bernoulli_support_density():
    counts = [len(gen_bernoulli_support(20, 0.3, seed=s)) for s in range(100)]
    assert abs(np.mean(counts) / 400 - 0.3) < 0.01


def test_sign_sparse_values_and_density():
    M = gen_random_sign_sparse(50, 0.4, seed=12)
    assert set(np.unique(M)) <= {-1.0, 0.0, 1.0}
    frac = np.count_nonzero(M) / M.size
    assert abs(frac - 0.4) < 3 * np.sqrt(0.4 * 0.6 / M.size)
    # signs split evenly among nonzeros
    pos = (M == 1).sum() / max(1, np.count_nonzero(M))
    assert abs(pos - 0.5) < 0.05


def test_sign_sparse_extremes():
    assert np.count_nonzero(gen_random_sign_sparse(8, 0.0, seed=0)) == 0
    assert np.count_nonzero(gen_random_sign_sparse(8, 1.0, seed=0)) == 64


def test_low_rank_has_requested_rank():
    M = gen_low_rank(12, 3, seed=6)
    assert M.shape == (12, 12)
    assert np.linalg.matrix_rank(M) == 3


def test_low_rank_validation():
    with pytest.raises(ValueError):
        gen_low_rank(5, 0, seed=0)
    with pytest.raises(ValueError):
        gen_low_rank(5, 6, seed=0)
