"""Acceptance gate: every primary criterion, run end to end at its stated
tolerance and budget. Each test prints one line with the measured numbers.

The certificate-suite criterion for the low-noise regime asserts >= 90/100
overall-true reports. The golfing construction at the default batch schedule
does not meet conditions (iii)-(iv) at n = 100 (measured off-support entry
norm ~ 2x its threshold and series-half spectral norm ~ 4x its threshold, at
every seed); the test states the requirement faithfully and is expected to
fail rather than loosen it.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from qcr.certificate import (
    DEFAULT_RANK_TOL,
    golfing_QB,
    neumann_QC,
    verify_certificate,
)
from qcr.experiments import PHASE_GRID, SIZE_GRID, planted_size, run_phase_grid, run_size_grid
from qcr.instances import InstanceParams, derive_seed, gen_planted
from qcr.linalg import TangentSpace, project_support, project_T, svd
from qcr.solver import RECOVERY_TOL, SolverOptions, relative_error, solve_rpca

cp = pytest.importorskip("cvxpy")

pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="module")
def size_grid():
    start = time.perf_counter()
    grid = run_size_grid(SIZE_GRID)
    return grid, time.perf_counter() - start


@pytest.fixture(scope="module")
def phase_grid():
    start = time.perf_counter()
    grid = run_phase_grid(PHASE_GRID)
    return grid, time.perf_counter() - start


def test_size_grid_reproduction(size_grid):
    grid, elapsed = size_grid
    rate = grid.success_rate
    fractions = SIZE_GRID.axis2_values
    ns = SIZE_GRID.axis1_values

    low = rate[:, fractions.index(0.1)]
    high_cells = [
        (n, f, rate[i, j])
        for i, n in enumerate(ns)
        if n >= 50
        for j, f in enumerate(fractions)
        if f >= 0.6
    ]
    worst_high = min(c[2] for c in high_cells)
    print(
        f"[size grid] fraction 0.1 rates {low.tolist()} (need <= 0.1 each); "
        f"min rate over n>=50, fraction>=0.6: {worst_high} (need >= 0.9); "
        f"{elapsed:.0f}s of 900s budget"
    )
    assert np.all(low <= 0.1), f"fraction-0.1 rates {low.tolist()} exceed 0.1"
    bad = [c for c in high_cells if c[2] < 0.9]
    assert not bad, f"cells below 0.9 in the guaranteed region: {bad}"
    assert elapsed <= 900, f"size grid took {elapsed:.0f}s > 15 min"


def test_phase_grid_reproduction(phase_grid):
    grid, elapsed = phase_grid
    rate = grid.success_rate
    gammas = PHASE_GRID.axis1_values
    rhos = PHASE_GRID.axis2_values

    fail_cols = [j for j, r in enumerate(rhos) if r >= 0.6]
    fail_mass = float(rate[:, fail_cols].max())
    transitions = {}
    for j, r in enumerate(rhos):
        if r <= 0.25:
            transitions[r] = rate[:, j]
    print(
        f"[phase grid] max rate in rho>=0.6 region: {fail_mass} (need 0.0); "
        f"transition rows {{rho: rates along gamma}}: "
        f"{ {r: v.tolist() for r, v in transitions.items()} }; "
        f"{elapsed:.0f}s of 1200s budget"
    )
    assert fail_mass == 0.0, f"nonzero recovery rate {fail_mass} at rho >= 0.6"
    for r, row in transitions.items():
        assert row[0] == 0.0, f"rho={r}: transition must start at 0, got {row.tolist()}"
        assert row[-1] == 1.0, f"rho={r}: transition must end at 1, got {row.tolist()}"
        assert np.all(np.diff(row) >= 0), f"rho={r}: rates not monotone: {row.tolist()}"
    assert elapsed <= 1200, f"phase grid took {elapsed:.0f}s > 20 min"


def test_recovery_criterion_fidelity(size_grid):
    # recompute representative cells trial by trial and reapply the success
    # definition from scratch: converged and ||B* - B0||_F/||B0||_F <= 1e-6
    grid, _ = size_grid
    checked = 0
    for i, j in ((0, 0), (1, 5), (3, 2)):
        n = int(SIZE_GRID.axis1_values[i])
        frac = float(SIZE_GRID.axis2_values[j])
        n_c = planted_size(n, frac)
        successes = 0
        for t in range(SIZE_GRID.trials):
            seed = derive_seed(SIZE_GRID.base_seed, i, j, t)
            inst = gen_planted(InstanceParams(n=n, n_c=n_c, **SIZE_GRID.fixed, seed=seed))
            res = solve_rpca(inst.A)
            rel = relative_error(res.B_star, inst.block_pattern)
            ok = res.converged and rel <= RECOVERY_TOL
            successes += ok
            checked += 1
        assert successes / SIZE_GRID.trials == grid.success_rate[i, j], (
            f"cell (n={n}, fraction={frac}): recomputed rate "
            f"{successes / SIZE_GRID.trials} != reported {grid.success_rate[i, j]}"
        )
    print(f"[recovery criterion] {checked} trials recomputed from scratch; all rates match")


def test_solver_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for k in range(20):
        seed = derive_seed(7, k)
        rng = np.random.Generator(np.random.Philox(seed))
        n = int(rng.integers(8, 16))
        n_c = int(rng.integers(max(2, n // 2), n + 1))
        gamma = float(rng.uniform(0.6, 1.0))
        rho = float(rng.uniform(0.0, 0.4))
        inst = gen_planted(InstanceParams(n=n, n_c=n_c, gamma=gamma, rho=rho, seed=seed))
        res = solve_rpca(inst.A)
        lam = SolverOptions().resolve_lam(n)
        B = cp.Variable((n, n))
        C = cp.Variable((n, n))
        prob = cp.Problem(
            cp.Minimize(cp.normNuc(B) + lam * cp.norm1(cp.vec(C, order="F"))),
            [B + C == inst.A],
        )
        prob.solve(solver=cp.SCS, eps=1e-9, max_iters=50000)
        gap = abs(res.objective - prob.value) / max(1.0, abs(prob.value))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    print(f"[solver oracle] worst relative objective gap {worst:.2e} over 20 instances "
          f"(need <= 1e-4); {elapsed:.0f}s of 120s budget")
    assert worst <= 1e-4, f"objective gap {worst:.2e} exceeds 1e-4"
    assert elapsed <= 120, f"oracle comparison took {elapsed:.0f}s > 2 min"


def certificate_counts(rho: float):
    start = time.perf_counter()
    count = 0
    for k in range(100):
        seed = derive_seed(1000, k)
        inst = gen_planted(InstanceParams(n=100, n_c=85, gamma=0.85, rho=rho, seed=seed))
        rep = verify_certificate(inst, lam=0.1)
        count += rep.overall
    return count, time.perf_counter() - start


def test_certificate_suite_low_noise_regime():
    count, elapsed = certificate_counts(0.10)
    print(f"[certificate suite, rho=0.10] overall true in {count}/100 seeds "
          f"(need >= 90); {elapsed:.0f}s of 600s budget")
    assert elapsed <= 600
    assert count >= 90, (
        f"overall = true in {count}/100 seeds at rho = 0.10, below the required 90; "
        "conditions (iii)-(iv) fail at every seed under the default batch schedule"
    )


def test_certificate_suite_failure_regime():
    count, elapsed = certificate_counts(0.70)
    print(f"[certificate suite, rho=0.70] overall true in {count}/100 seeds "
          f"(need <= 10); {elapsed:.0f}s of 600s budget")
    assert elapsed <= 600
    assert count <= 10, f"overall = true in {count}/100 seeds at rho = 0.70, above 10"


def test_certificate_internals():
    inst = gen_planted(InstanceParams(n=100, n_c=85, gamma=0.85, rho=0.10, seed=0))
    T = TangentSpace.from_factors(svd(inst.B0, DEFAULT_RANK_TOL))
    Gamma = inst.noise_support
    sgn = np.sign(inst.C0)
    lam, tol = 0.1, 1e-10

    Q_C = neumann_QC(Gamma, T, sgn, lam, tol=tol)
    fixed_point = float(np.linalg.norm(project_support(Q_C, Gamma) - lam * sgn))
    fixed_point_budget = 10 * tol * lam * float(np.linalg.norm(sgn))
    assert fixed_point <= fixed_point_budget, (
        f"fixed-point residual {fixed_point:.2e} above {fixed_point_budget:.2e}"
    )
    assert fixed_point <= 1e-8 * float(np.linalg.norm(sgn))

    rep = verify_certificate(inst, lam=lam)
    for name, Q in (("Q_B", rep.Q_B), ("Q_C", rep.Q_C)):
        leak = float(np.linalg.norm(project_T(Q, T)))
        assert leak <= 1e-10 * max(1.0, float(np.linalg.norm(Q))), (
            f"{name} leaks {leak:.2e} into the tangent space"
        )

    # contraction in the per-batch sampling regime: 50 seeds of dense batches
    ratios = []
    for s in range(50):
        g = np.random.Generator(np.random.Philox(s))
        batches = [
            np.flatnonzero((g.random((100, 100)) < 0.3) & ~Gamma.mask)
            for _ in range(40)
        ]
        _, trace = golfing_QB(T, batches, 0.3)
        tr = np.asarray(trace)
        keep = (tr[:-1] > 1e-12 * tr[0]) & (tr[1:] > 0)
        ratios.append(float(np.median(tr[1:][keep] / tr[:-1][keep])))
    median_ratio = float(np.median(ratios))
    print(f"[certificate internals] fixed-point residual {fixed_point:.2e} "
          f"(budget {fixed_point_budget:.2e}); duals in tangent complement to 1e-10; "
          f"median golfing step ratio {median_ratio:.3f} over 50 seeds (need <= 0.5)")
    assert median_ratio <= 0.5, f"median golfing ratio {median_ratio:.3f} above 0.5"
    assert max(ratios) <= 0.5, f"worst-seed golfing ratio {max(ratios):.3f} above 0.5"


def test_property_suites_green_at_volume():
    env = dict(os.environ, HYPOTHESIS_PROFILE="acceptance")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-m", "property", "-q", "--no-header", "-p", "no:cacheprovider"],
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    elapsed = time.perf_counter() - start
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    print(f"[property suites] {tail}; {elapsed:.0f}s of 60s budget")
    assert proc.returncode == 0, f"property suite failed:\n{proc.stdout}\n{proc.stderr}"
    assert elapsed <= 60, f"property suite took {elapsed:.0f}s > 1 min"
