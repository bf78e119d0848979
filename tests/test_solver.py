"""Decomposition solver tests: exact splits, augmented-Lagrangian descent,
constrained mode feasibility, and a small convex-programming cross-check."""

import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qcr.linalg as linalg
import qcr.solver as solver
from qcr.certificate import GolfingConfig
from qcr.experiments import PHASE_GRID
from qcr.instances import InstanceParams, derive_seed, gen_planted
from qcr.solver import (
    RECOVERY_TOL,
    InfeasibleError,
    QuasiCliqueParams,
    SolverOptions,
    relative_error,
    solve_quasi_clique,
    solve_rpca,
)

from conftest import (
    augmented_lagrangian,
    box_halfspace_l1_prox_reference,
    count_calls,
    dykstra_reference,
    gen_low_rank,
    gen_random_sign_sparse,
    rng,
    shifted_clip_reference,
    svd_threshold_reference,
)

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def planted(n=50, n_c=40, gamma=0.85, rho=0.1, seed=21):
    return gen_planted(InstanceParams(n=n, n_c=n_c, gamma=gamma, rho=rho, seed=seed))


# ---------------------------------------------------------------- options


def test_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(lam=0.0)
    with pytest.raises(ValueError):
        SolverOptions(mu0=-1.0)
    with pytest.raises(ValueError):
        SolverOptions(mu_growth=0.5)
    with pytest.raises(ValueError):
        SolverOptions(tol_primal=0.0)
    with pytest.raises(ValueError):
        SolverOptions(max_iters=0)
    for bad in (math.inf, math.nan):
        for field in ("lam", "mu0", "mu_growth", "tol_primal"):
            with pytest.raises(ValueError, match=f"{field} must be"):
                SolverOptions(**{field: bad})


PARAMS = dict(n=10, n_c=4, gamma=0.5, rho=0.1, seed=1)


@pytest.mark.parametrize("field, make, valid", [
    ("max_iters", lambda v: SolverOptions(max_iters=v), 3),
    ("n", lambda v: InstanceParams(**{**PARAMS, "n": v}), 10),
    ("n_c", lambda v: InstanceParams(**{**PARAMS, "n_c": v}), 4),
    ("seed", lambda v: InstanceParams(**{**PARAMS, "seed": v}), 1),
    ("trials", lambda v: dataclasses.replace(PHASE_GRID, trials=v), 2),
    ("k0", lambda v: GolfingConfig(k0=v, p=0.5, seed=0), 3),
    ("eta", lambda v: QuasiCliqueParams(gamma=0.5, eta=v), 5),
], ids=["SolverOptions.max_iters", "InstanceParams.n", "InstanceParams.n_c",
        "InstanceParams.seed", "GridSpec.trials", "GolfingConfig.k0", "QuasiCliqueParams.eta"])
def test_integer_fields_reject_non_integers(field, make, valid):
    # a float count or seed would pass the range checks and fail later, in
    # a range(), a draw or a grid cell; Python and numpy integers pass
    for bad in (2.5, float(valid), str(valid)):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {bad!r}$"):
            make(bad)
    for good in (valid, np.int64(valid)):
        assert getattr(make(good), field) == valid


def test_options_defaults_resolve():
    opts = SolverOptions()
    assert abs(opts.resolve_lam(100) - 0.1) < 1e-15
    M = 2.0 * np.ones((4, 4))
    assert solve_rpca(M, SolverOptions(max_iters=1)).final_penalty == 0.25 / np.abs(M).mean() == 0.125


def test_qc_params_validation():
    with pytest.raises(ValueError):
        QuasiCliqueParams(gamma=0.0, eta=5)
    with pytest.raises(ValueError):
        QuasiCliqueParams(gamma=0.5, eta=0)
    with pytest.raises(ValueError):
        QuasiCliqueParams(gamma=0.5, eta=2.5)


# ---------------------------------------------------------------- plain mode


def test_low_rank_input_goes_to_B():
    L = gen_low_rank(30, 2, seed=3)
    res = solve_rpca(L)
    assert res.converged
    assert relative_error(res.B_star, L) <= 1e-6
    assert np.linalg.norm(res.C_star) <= 1e-6 * np.linalg.norm(L)


def test_sparse_input_goes_to_C():
    S = gen_random_sign_sparse(30, 0.05, seed=4)
    res = solve_rpca(S)
    assert res.converged
    assert relative_error(res.C_star, S) <= 1e-6
    assert np.linalg.norm(res.B_star) <= 1e-6 * max(1.0, np.linalg.norm(S))


def test_planted_instance_recovers_block():
    inst = planted()
    res = solve_rpca(inst.A)
    assert res.converged
    assert relative_error(res.B_star, inst.block_pattern) <= RECOVERY_TOL
    assert res.primal_residual <= 1e-8


def test_result_fields_consistent():
    inst = planted(seed=8)
    res = solve_rpca(inst.A)
    n = inst.params.n
    lam = 1.0 / np.sqrt(n)
    nuc = np.linalg.svd(res.B_star, compute_uv=False).sum()
    assert abs(res.objective - (nuc + lam * np.abs(res.C_star).sum())) < 1e-8 * res.objective
    feas = np.linalg.norm(inst.A - res.B_star - res.C_star) / np.linalg.norm(inst.A)
    assert abs(feas - res.primal_residual) < 1e-12


def test_degenerate_lambda_large_puts_everything_in_B():
    M = gen_low_rank(20, 3, seed=9) + gen_random_sign_sparse(20, 0.1, seed=10)
    res = solve_rpca(M, SolverOptions(lam=1e3))
    assert res.converged
    assert np.abs(res.C_star).max() <= 1e-9
    assert relative_error(res.B_star, M) <= 1e-6


def test_degenerate_lambda_small_puts_everything_in_C():
    M = gen_low_rank(20, 3, seed=9) + gen_random_sign_sparse(20, 0.1, seed=10)
    res = solve_rpca(M, SolverOptions(lam=1e-6))
    assert res.converged
    assert np.abs(res.B_star).max() <= 1e-9
    assert relative_error(res.C_star, M) <= 1e-6


def record_prox_calls(monkeypatch, name):
    """Replace solver.<name> by a wrapper; return the list of (input, tau,
    output) triples it collects, one per call."""
    calls = []
    real = getattr(solver, name)

    def recording(W, tau, **kwargs):
        out = real(W, tau, **kwargs)
        calls.append((W, tau, out))
        return out

    monkeypatch.setattr(solver, name, recording)
    return calls


def test_augmented_lagrangian_decreases_within_each_pass(monkeypatch):
    # each primal pass is a pair of exact prox minimizations at fixed
    # multiplier, so the augmented Lagrangian cannot go up within a pass.
    # Pass k is recovered from its two prox calls: the B-step threshold is
    # 1/mu, and the C-step input M - B + Y/mu gives the multiplier Y.
    inst = planted(n=40, n_c=30, gamma=0.9, rho=0.1, seed=5)
    M = inst.A
    lam = 1.0 / np.sqrt(M.shape[0])
    b_calls = record_prox_calls(monkeypatch, "sv_threshold")
    c_calls = record_prox_calls(monkeypatch, "soft_threshold")
    res = solve_rpca(M)
    assert len(b_calls) == len(c_calls) == res.iterations

    B = C = np.zeros_like(M)
    for (_, tau_B, B_new), (W_C, tau_C, C_new) in zip(b_calls, c_calls):
        mu = 1.0 / tau_B
        assert mu > 0
        assert tau_C == pytest.approx(lam / mu, rel=1e-14)
        Y = mu * (W_C - M + B_new)
        al_before = augmented_lagrangian(M, B, C, Y, mu, lam)
        al_after = augmented_lagrangian(M, B_new, C_new, Y, mu, lam)
        assert al_after <= al_before + 1e-9 * max(1.0, abs(al_before))
        B, C = B_new, C_new
    assert np.array_equal(B, res.B_star) and np.array_equal(C, res.C_star)
    assert float(np.linalg.norm(M - B - C)) / float(np.linalg.norm(M)) == res.primal_residual


@pytest.mark.parametrize("program", ["rpca", "quasi_clique"])
@pytest.mark.parametrize("bad_at, max_iters", [(1, 1), (3, 2000)])
def test_non_finite_iterate_raises(monkeypatch, program, bad_at, max_iters):
    # a C-step output that turns non-finite stops the solve, also on its
    # last iteration, where no later prox would see it
    calls = []

    def poison(C):
        calls.append(None)
        if len(calls) == bad_at:
            C = C.copy()
            C[1, 2] = np.nan
        return C

    A = planted(seed=13).A
    opts = SolverOptions(max_iters=max_iters)
    if program == "rpca":
        real = solver.soft_threshold
        monkeypatch.setattr(solver, "soft_threshold", lambda V, kappa: poison(real(V, kappa)))
        with pytest.raises(ValueError, match="non-finite"):
            solve_rpca(A, opts)
    else:
        real_step = solver._l1_prox_in_box_halfspace

        def c_step(A, target):
            step = real_step(A, target)
            return lambda V, kappa: poison(step(V, kappa))

        monkeypatch.setattr(solver, "_l1_prox_in_box_halfspace", c_step)
        with pytest.raises(ValueError, match="non-finite"):
            solve_quasi_clique(A, QuasiCliqueParams(gamma=0.85, eta=40), opts)
    assert len(calls) == bad_at


def test_nonconvergence_reported_not_raised():
    inst = planted(seed=13)
    res = solve_rpca(inst.A, SolverOptions(max_iters=2))
    assert not res.converged
    assert res.iterations == 2
    assert res.primal_residual > 1e-8


def test_symmetric_input_keeps_solution_symmetric():
    # the prox of a symmetric matrix is exactly symmetric and every other step
    # is entrywise, so symmetry holds bit for bit in both solvers
    inst = planted(seed=14)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plain = solve_rpca(inst.A)
        constrained = solve_quasi_clique(inst.A, QuasiCliqueParams(gamma=0.85, eta=40))
    for res in (plain, constrained):
        assert res.converged
        assert np.array_equal(res.B_star, res.B_star.T)


def phase_grid_params(i, j):
    """Instance parameters of trial 0 of PHASE_GRID cell (i, j)."""
    return InstanceParams(
        n=PHASE_GRID.fixed["n"],
        n_c=PHASE_GRID.fixed["n_c"],
        gamma=PHASE_GRID.axis1_values[i],
        rho=PHASE_GRID.axis2_values[j],
        seed=derive_seed(PHASE_GRID.base_seed, i, j, 0),
    )


def phase_grid_trial(i, j):
    """Iterations, convergence and recovery decision of trial 0 of
    PHASE_GRID cell (i, j)."""
    inst = gen_planted(phase_grid_params(i, j))
    res = solve_rpca(inst.A)
    recovered = res.converged and relative_error(res.B_star, inst.block_pattern) <= RECOVERY_TOL
    return {"converged": res.converged, "iterations": res.iterations, "recovered": recovered}


def recorded_phase_grid_trial(i, j):
    """The phase-grid benchmark's reference observation of the same trial,
    read from perfbench/reference.json without importing perfbench."""
    p = phase_grid_params(i, j)
    recorded = json.loads(REFERENCE.read_text())["phase-grid"][str(PHASE_GRID.base_seed)]
    return recorded[f"gamma={p.gamma}/rho={p.rho}/seed={p.seed}"]


@pytest.mark.parametrize("i, j, recovered", [
    (3, 0, True), (2, 0, True), (2, 1, False), (5, 7, False),
])
def test_eigen_prox_keeps_phase_grid_trials(monkeypatch, i, j, recovered):
    # symmetric adjacency matrices take the eigen prox; the SVD prox must give
    # the same iteration count and recovery decision, and both must match the
    # trajectory the benchmark reference pins
    eigen = phase_grid_trial(i, j)
    assert eigen["recovered"] == recovered
    assert eigen == recorded_phase_grid_trial(i, j)
    monkeypatch.setattr(solver, "sv_threshold", svd_threshold_reference)
    assert phase_grid_trial(i, j) == eigen


def count_certified(monkeypatch):
    """Wrap linalg._certified_prox; return the list that records, call by
    call, whether it certified."""
    certified = []
    real_prox = linalg._certified_prox

    def counting(M, tau, carry):
        out = real_prox(M, tau, carry)
        certified.append(out is not None)
        return out

    monkeypatch.setattr(linalg, "_certified_prox", counting)
    return certified


@pytest.mark.parametrize("solve", [
    solve_rpca, lambda A: solve_quasi_clique(A, QuasiCliqueParams(gamma=0.85, eta=100)),
], ids=["rpca", "quasi_clique"])
def test_certified_prox_serves_a_third_of_an_n200_solve(monkeypatch, solve):
    # from the iteration where B* is rank one, the warm-started prox skips
    # the full eigh; the solve matches one that always takes the eigh
    inst = planted(n=200, n_c=100, seed=0)
    real = solver.sv_threshold
    monkeypatch.setattr(solver, "sv_threshold", lambda M, tau, **kwargs: real(M, tau))
    reference = solve(inst.A)
    monkeypatch.setattr(solver, "sv_threshold", real)
    calls = count_calls(monkeypatch, "sv_threshold", solver)
    certified = count_certified(monkeypatch)
    res = solve(inst.A)
    assert len(calls) == res.iterations == reference.iterations
    assert 3 * sum(certified) >= len(calls)
    assert res.converged and relative_error(res.B_star, inst.block_pattern) <= RECOVERY_TOL
    assert np.abs(res.B_star - reference.B_star).max() <= 1e-9


N200_QC = QuasiCliqueParams(gamma=0.85, eta=100)


def test_quasi_clique_spectral_start_certifies_every_call_after_the_first(monkeypatch):
    # under 1.25/||A||_2 the prox threshold starts near the top eigenvalue,
    # so every prox call keeps few eigenvalues; all but the first, whose
    # fresh carry holds no basis, skip the full eigh
    inst = planted(n=200, n_c=100, seed=0)
    certified = count_certified(monkeypatch)
    res = solve_quasi_clique(inst.A, N200_QC)
    assert len(certified) == res.iterations - 1
    assert all(certified)
    assert res.converged and relative_error(res.B_star, inst.block_pattern) <= RECOVERY_TOL


def test_carried_bound_halves_the_cholesky_calls_of_an_n200_solve(monkeypatch):
    # the solve above proves each certified call with the Cholesky pair or
    # with the bound an earlier pair carries; fewer than one factorization
    # per certified call means most calls are carried
    inst = planted(n=200, n_c=100, seed=0)
    certified = count_certified(monkeypatch)
    chol = count_calls(monkeypatch, "cholesky", np.linalg)
    solve_quasi_clique(inst.A, N200_QC)
    assert 0 < len(chol) < sum(certified)


@pytest.mark.parametrize("solve, counts", [
    (solve_rpca, (42, 18, 41, 16)),
    (lambda A: solve_quasi_clique(A, QuasiCliqueParams(gamma=0.85, eta=200)), (32, 30, 31, 22)),
], ids=["rpca", "quasi_clique"])
def test_prover_counts_of_the_cli_n400_instance(monkeypatch, solve, counts):
    # on the seed-0 instance of the benchmark's cli-n400 workload: the
    # iterations, the certified calls, the certified prox's attempts and the
    # Cholesky factorizations of both programs' solves
    A = planted(n=400, n_c=200, seed=derive_seed(0, 0)).A
    certified = count_certified(monkeypatch)
    chol = count_calls(monkeypatch, "cholesky", np.linalg)
    res = solve(A)
    assert (res.iterations, sum(certified), len(certified), len(chol)) == counts


@pytest.mark.parametrize("n", [200, 400])
@pytest.mark.parametrize("solve", [
    solve_rpca, lambda A: solve_quasi_clique(A, QuasiCliqueParams(gamma=0.85, eta=A.shape[0] // 2)),
], ids=["rpca", "quasi_clique"])
def test_carried_bound_leaves_every_solve_output_unchanged(monkeypatch, solve, n):
    # the carry changes how a certified call is proven, never its output:
    # the solve is bitwise the one whose calls each get a fresh carry that
    # holds only the previous call's basis, and so factor their own pair
    A = planted(n=n, n_c=n // 2, seed=derive_seed(0, 1)).A
    real = solver.sv_threshold

    def fresh_carry(M, tau, carry):
        fresh = linalg._ProxCarry(basis=carry.basis)
        out = real(M, tau, carry=fresh)
        carry.basis = fresh.basis
        return out

    monkeypatch.setattr(solver, "sv_threshold", fresh_carry)
    chol = count_calls(monkeypatch, "cholesky", np.linalg)
    alone = solve(A)
    factored = len(chol)
    monkeypatch.setattr(solver, "sv_threshold", real)
    carried = solve(A)
    assert len(chol) - factored < factored
    assert carried.B_star.tobytes() == alone.B_star.tobytes()
    assert carried.C_star.tobytes() == alone.C_star.tobytes()
    assert (carried.iterations, carried.final_penalty) == (alone.iterations, alone.final_penalty)


# the instance of `qcr gen --n 40 --nc 30 --gamma 0.7 --rho 0.3 --seed 1`, on
# which both penalties grow
SLOW_TAIL = dict(n=40, n_c=30, gamma=0.7, rho=0.3, seed=1)
SLOW_TAIL_QC = QuasiCliqueParams(gamma=0.7, eta=30)


def test_final_penalty_is_the_start_times_the_schedule():
    # both solvers grow the penalty by mu_growth only, so with mu_growth 2
    # it ends at the start times 2**k, and here k >= 1 for both
    A = planted(**SLOW_TAIL).A
    opts = SolverOptions(mu_growth=2.0)
    qc = solve_quasi_clique(A, SLOW_TAIL_QC, opts)
    plain = solve_rpca(A, opts)
    for res, start in ((qc, 1.25 / linalg.norm(A, "spectral")), (plain, 0.25 / np.abs(A).mean())):
        ratio = res.final_penalty / start
        assert ratio >= 2.0
        assert math.frexp(ratio)[0] == 0.5


@pytest.mark.parametrize("solve", [
    solve_rpca, lambda A, opts: solve_quasi_clique(A, SLOW_TAIL_QC, opts),
], ids=["rpca", "quasi_clique"])
def test_given_mu0_is_the_penalty_of_the_first_iteration(solve):
    res = solve(planted(**SLOW_TAIL).A, SolverOptions(mu0=0.37, max_iters=1))
    assert res.iterations == 1
    assert res.final_penalty == 0.37


def test_rejects_nonsquare():
    with pytest.raises(ValueError):
        solve_rpca(np.ones((3, 4)))


@pytest.mark.property
@given(st.integers(0, 2**32 - 1))
def test_converged_implies_feasible(seed):
    inst = gen_planted(InstanceParams(n=30, n_c=20, gamma=0.8, rho=0.2, seed=seed))
    res = solve_rpca(inst.A)
    if res.converged:
        gap = np.linalg.norm(inst.A - res.B_star - res.C_star)
        assert gap <= 1e-8 * np.linalg.norm(inst.A) * (1 + 1e-9)


# ---------------------------------------------------------------- oracle


def cvxpy_objective(M, lam):
    cp = pytest.importorskip("cvxpy")
    n = M.shape[0]
    B = cp.Variable((n, n))
    C = cp.Variable((n, n))
    prob = cp.Problem(
        cp.Minimize(cp.normNuc(B) + lam * cp.norm1(cp.vec(C, order="F"))),
        [B + C == M],
    )
    prob.solve(solver=cp.SCS, eps=1e-9, max_iters=20000)
    return float(prob.value)


def test_matches_convex_reference_small():
    inst = planted(n=12, n_c=8, gamma=0.9, rho=0.2, seed=44)
    res = solve_rpca(inst.A)
    ref = cvxpy_objective(inst.A, 1.0 / np.sqrt(12))
    assert res.converged
    assert abs(res.objective - ref) <= 1e-4 * max(1.0, abs(ref))


# ---------------------------------------------------------------- constrained mode


def test_full_clique_recovered_exactly():
    inst = planted(n=20, n_c=14, gamma=1.0, rho=0.0, seed=0)
    res = solve_quasi_clique(inst.A, QuasiCliqueParams(gamma=1.0, eta=14))
    assert res.converged
    assert relative_error(res.B_star, inst.block_pattern) <= 1e-6


def test_inactive_constraint_matches_plain_solver():
    # eta = 1 makes the mass constraint vacuous, so the constrained problem
    # collapses to the plain decomposition with C = A - X
    inst = planted(n=40, n_c=30, gamma=0.9, rho=0.1, seed=5)
    plain = solve_rpca(inst.A)
    constrained = solve_quasi_clique(inst.A, QuasiCliqueParams(gamma=0.9, eta=1))
    assert constrained.converged
    rel = np.linalg.norm(plain.B_star - constrained.B_star) / np.linalg.norm(plain.B_star)
    assert rel <= 1e-4
    assert abs(plain.objective - constrained.objective) <= 1e-4 * plain.objective


def test_planted_quasi_clique_recovery():
    inst = planted(n=60, n_c=45, gamma=0.85, rho=0.1, seed=11)
    res = solve_quasi_clique(inst.A, QuasiCliqueParams(gamma=0.85, eta=45))
    assert res.converged
    assert relative_error(res.B_star, inst.block_pattern) <= RECOVERY_TOL
    assert np.array_equal(res.C_star, inst.A - res.B_star)


def test_quasi_clique_rejects_a_matrix_that_is_not_0_1():
    A = planted(n=20, n_c=14, seed=1).A.copy()
    A[3, 5] = A[5, 3] = 0.5
    with pytest.raises(ValueError, match="0/1 matrix"):
        solve_quasi_clique(A, QuasiCliqueParams(gamma=0.9, eta=5))


def test_solution_feasible_with_active_constraint():
    # demand more mass than the unconstrained optimum carries
    inst = planted(n=60, n_c=30, gamma=0.85, rho=0.4, seed=2)
    qc = QuasiCliqueParams(gamma=0.85, eta=45)
    target = qc.gamma * qc.eta**2
    assert target <= inst.A.sum()
    res = solve_quasi_clique(inst.A, qc)
    assert res.converged
    assert res.B_star.min() >= -1e-8
    assert res.B_star.max() <= 1.0 + 1e-8
    assert res.B_star.sum() >= target - 1e-6 * target
    # B* = A - C with A - C = clip(W + t, 0, 1) for 0/1 A, so it lies in the
    # box exactly
    assert res.B_star.min() >= 0.0
    assert res.B_star.max() <= 1.0
    # the extra mass is genuinely forced by the constraint
    assert solve_rpca(inst.A).B_star.sum() < target


# ---------------------------------------------------------------- box/halfspace projection


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kappa", [0.05, 0.6])
@pytest.mark.parametrize("binds", [False, True])
def test_c_step_matches_kkt_reference(seed, kappa, binds):
    # the closed form for 0/1 A against clip(A - soft(V - t, kappa), 0, 1)
    # with t found by bisection; targets above the t = 0 sum bind
    r = rng(seed)
    A = (r.random((30, 30)) < 0.4).astype(float)
    V = r.normal(0.0, 0.7, size=A.shape)
    free = box_halfspace_l1_prox_reference(A, V, kappa, 0.0)
    mass = float((A - free).sum())
    total = mass + 0.5 * (A.size - mass) if binds else 0.5 * mass
    C = solver._l1_prox_in_box_halfspace(A, total)(V, kappa)
    ref = box_halfspace_l1_prox_reference(A, V, kappa, total)
    assert (float((A - ref).sum()) > mass) == binds
    assert np.abs(C - ref).max() <= 1e-12
    assert float((A - C).sum()) >= total


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("fill", [0.2, 0.5, 0.9, 0.999])
def test_projection_matches_dykstra(seed, fill):
    # fill is the target as a share of W.size; targets above the clipped sum bind
    W = rng(seed).normal(0.4, 0.8, size=(12, 12))
    total = fill * W.size
    X = solver._project_box_halfspace(W, total)
    assert X.min() >= 0.0 and X.max() <= 1.0
    assert X.sum() >= total
    clipped = np.clip(W, 0.0, 1.0)
    if clipped.sum() >= total:
        assert np.array_equal(X, clipped)
    # at its default tol=1e-10 the reference stops up to 1.4e-8 short of the
    # projection on the fill=0.999 targets, so run it tighter
    ref = dykstra_reference(W, total, tol=1e-13)
    assert np.abs(X - ref).max() <= 1e-9
    # clipping ref into the box drops the mass it held outside, so it may lie
    # closer to W than the (feasible) projection by that rounding-level amount
    assert np.linalg.norm(X - W) <= np.linalg.norm(np.clip(ref, 0.0, 1.0) - W) + 1e-10


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("fill", [0.3, 0.7, 0.95])
def test_projection_matches_fresh_array_reference_bitwise(seed, fill):
    # odd seeds draw normals, even ones a few values with ties, +-0.0 and
    # entries on the box faces
    r = rng(seed)
    if seed % 2:
        W = r.normal(0.4, 0.8, size=(40, 40))
    else:
        W = r.choice([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 1.5], size=(40, 40))
    X = solver._project_box_halfspace(W, fill * W.size)
    ref = shifted_clip_reference(W, fill * W.size)
    assert np.array_equal(X, ref)
    assert np.array_equal(np.signbit(X), np.signbit(ref))


@pytest.mark.property
@given(
    st.lists(st.floats(-3.0, 4.0), min_size=1, max_size=64),
    st.floats(0.0, 1.0),
)
def test_projection_is_shifted_clip(values, fill):
    # KKT form: X = clip(W + t, 0, 1) for one t >= 0
    W = np.array(values)
    X = solver._project_box_halfspace(W, fill * W.size)
    free = (X > 0.0) & (X < 1.0)
    if free.any():
        t = float(np.mean((X - W)[free]))
    else:
        t = max(0.0, float((1.0 - W)[X == 1.0].max(initial=0.0)))
    assert t >= -1e-12
    assert np.abs(X - np.clip(W + t, 0.0, 1.0)).max() <= 1e-12
    # complementary slackness: a positive shift only where the target binds
    if t > 1e-12:
        assert X.sum() <= fill * W.size + 1e-9


def test_infeasible_target_beyond_box():
    inst = planted(n=20, n_c=14, seed=1)
    with pytest.raises(InfeasibleError):
        solve_quasi_clique(inst.A, QuasiCliqueParams(gamma=1.0, eta=21))


def test_infeasible_target_beyond_edge_mass():
    inst = planted(n=20, n_c=14, gamma=0.5, rho=0.05, seed=1)
    with pytest.raises(InfeasibleError, match="edge mass"):
        solve_quasi_clique(inst.A, QuasiCliqueParams(gamma=1.0, eta=19))


# ---------------------------------------------------------------- recovery metric


def test_relative_error_examples():
    B0 = np.ones((3, 3))
    assert relative_error(B0, B0) == 0.0
    assert abs(relative_error(2.0 * B0, B0) - 1.0) < 1e-15
    assert abs(relative_error(B0, np.zeros((3, 3))) - 3.0) < 1e-15
    with pytest.raises(ValueError):
        relative_error(np.ones((2, 2)), np.ones((3, 3)))


def test_recovery_threshold_inclusive():
    # perturbation in an entry disjoint from B0 so the error norm is exact
    B0 = np.zeros((2, 2))
    B0[0, 1] = 1.0
    delta = np.zeros((2, 2))
    delta[1, 0] = RECOVERY_TOL
    assert relative_error(B0 + delta, B0) == RECOVERY_TOL
    assert relative_error(B0 + 1.5 * delta, B0) > RECOVERY_TOL
