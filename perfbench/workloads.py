"""The three benchmark workloads.

Each workload makes its inputs from the seed in `__init__` (the set-up that
`setup_s` times), then runs passes. A pass returns its timed wall time, one
time per op, and one observation per op. Observations are compared against
the recorded reference when the seed has one; invariants that need no
reference are checked on every op. All checking happens outside the timed
region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time

import numpy as np

import qcr.certificate
import qcr.cli
import qcr.experiments
import qcr.fileio
from qcr.experiments import GridSpec
from qcr.instances import InstanceParams, derive_seed, gen_planted

from spans import restore

NORM_RTOL = 1e-6  # relative tolerance on every recorded certificate norm
SPLIT_RTOL = 1e-7  # ||B* + C* - A||_F / ||A||_F allowed for a converged solve
RECOVERY_TOL = 1e-6  # the paper's success criterion on ||B* - pattern||_F / ||pattern||_F

NORM_FIELDS = (
    "norm_QB",
    "residual_golfing",
    "linf_complement_B",
    "norm_QC",
    "linf_complement_C",
    "opnorm_PGPT",
)


class Calibrator:
    """Measures the host's current speed with a fixed kernel that does not
    depend on qcr: LAPACK's SVD of one seeded symmetric 100x100 matrix.

    On a shared 2-vCPU x86-64 VM the host's speed shifts for minutes at a
    time: the fastest call of this kernel moved from 1.6 to 2.3 ms between
    10-second windows, so every op slows alike. Each `tick` spends about
    SHARE of the time since the previous tick on the kernel, so the mean
    kernel time is a time-weighted sample of the host's speed over the run.
    `factor` rescales a measured time to a host where the kernel takes REF_S.
    """

    REF_S = 2.0e-3
    SHARE = 0.03

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        rng = np.random.default_rng(0xCA11B)
        X = rng.standard_normal((100, 100))
        self.M = X + X.T
        self.spent = 0.0
        self.count = 0
        self.last = None

    def tick(self, count: int | None = None) -> float:
        """Run the kernel; return the seconds this took (0 when disabled)."""
        if not self.enabled:
            return 0.0
        start = time.perf_counter()
        if count is None:
            since = start - self.last if self.last is not None else 0.0
            count = max(1, int(self.SHARE * since / self.REF_S))
        for _ in range(count):
            np.linalg.svd(self.M, full_matrices=False)
        self.last = time.perf_counter()
        self.spent += self.last - start
        self.count += count
        return self.last - start

    @property
    def kernel_s(self) -> float:
        return self.spent / self.count

    @property
    def factor(self) -> float:
        return self.REF_S / self.kernel_s


class Pass:
    """Outcome of one pass: timed wall time, per-op times, and per-op
    observations keyed by op key, plus the invariant violations per key."""

    def __init__(self):
        self.wall = 0.0
        self.op_times: list[float] = []
        self.observed: dict[str, dict] = {}
        self.violations: dict[str, list[str]] = {}

    def violate(self, key: str, why: str) -> None:
        self.violations.setdefault(key, []).append(why)


def same(observed, recorded) -> bool:
    """Exact equality, except floats, which agree to NORM_RTOL."""
    if isinstance(recorded, dict):
        return (
            isinstance(observed, dict)
            and observed.keys() == recorded.keys()
            and all(same(observed[k], recorded[k]) for k in recorded)
        )
    if isinstance(recorded, list):
        return (
            isinstance(observed, list)
            and len(observed) == len(recorded)
            and all(same(o, r) for o, r in zip(observed, recorded))
        )
    if isinstance(recorded, float) and not isinstance(observed, bool):
        return math.isclose(observed, recorded, rel_tol=NORM_RTOL, abs_tol=1e-12)
    return type(observed) is type(recorded) and observed == recorded


def _rel_error(B, pattern) -> float:
    return float(np.linalg.norm(B - pattern) / np.linalg.norm(pattern))


def _split_error(B, C, A) -> float:
    return float(np.linalg.norm(B + C - A) / max(np.linalg.norm(A), 1e-300))


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _certificate_violations(doc: dict) -> list[str]:
    """The five conditions and the overall verdict must follow from the
    reported norms and lambda."""
    lam = doc["lambda"]
    expect = [
        doc["norm_QB"] < 1 / 8,
        doc["residual_golfing"] < lam / 8,
        doc["linf_complement_B"] < lam / 4,
        doc["norm_QC"] < 1 / 8,
        doc["linf_complement_C"] < 1 / 4,
    ]
    out = []
    if list(doc["conditions"]) != expect:
        out.append(f"conditions {doc['conditions']} disagree with norms {expect}")
    overall = all(expect) and doc["opnorm_PGPT"] <= 0.5 and lam < 1
    if doc["overall"] != overall:
        out.append(f"overall {doc['overall']} disagrees with norms ({overall})")
    return out


class PhaseGrid:
    """run_phase_grid over the full 6x8 (gamma, rho) grid at n=100, n_c=85,
    one trial per cell, then export_grid. One op is one trial."""

    GAMMAS = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    RHOS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
    default_seed = 0  # trial t=0 of every cell of the acceptance phase grid

    def __init__(self, seed: int, out_dir: str, tracer, cal: Calibrator):
        self.spec = GridSpec(
            axis1_name="gamma",
            axis1_values=self.GAMMAS,
            axis2_name="rho",
            axis2_values=self.RHOS,
            fixed={"n": 100, "n_c": 85},
            trials=1,
            base_seed=seed,
        )
        self.prefix = os.path.join(out_dir, "phase_grid")
        self.tracer = tracer
        self.cal = cal

    def run_pass(self, index: int) -> Pass:
        out = Pass()
        trials: list[dict] = []
        starts: list[float] = []
        ends: list[float] = []
        calibration = 0.0
        gen = qcr.experiments.gen_planted
        solve = qcr.experiments.solve_rpca
        clock = time.perf_counter

        # _run_cell swallows trial exceptions, so raises are counted here
        def probe_gen(params):
            nonlocal calibration
            if trials:
                ends.append(clock())
            calibration += self.cal.tick()
            starts.append(clock())
            self.tracer.op = len(trials)
            trial = {"params": params, "raised": True}
            trials.append(trial)
            inst = gen(params)
            trial["pattern"] = inst.block_pattern
            return inst

        def probe_solve(M, *args, **kwargs):
            trial = trials[-1]
            res = solve(M, *args, **kwargs)
            trial.update(
                raised=False,
                converged=bool(res.converged),
                iterations=int(res.iterations),
                rel=_rel_error(res.B_star, trial.pop("pattern")),
                split=_split_error(res.B_star, res.C_star, M),
            )
            return res

        undo = [(qcr.experiments, "gen_planted", gen), (qcr.experiments, "solve_rpca", solve)]
        qcr.experiments.gen_planted = probe_gen
        qcr.experiments.solve_rpca = probe_solve
        try:
            self.tracer.op = -1
            t0 = clock()
            grid = qcr.experiments.run_phase_grid(self.spec)
            ends.append(clock())
            self.tracer.op = -1
            qcr.experiments.export_grid(grid, self.prefix)
            out.wall = clock() - t0 - calibration
        finally:
            restore(undo)
        out.op_times = [b - a for a, b in zip(starts, ends)]

        successes = np.zeros((len(self.GAMMAS), len(self.RHOS)))
        for trial in trials:
            p = trial["params"]
            i, j = self.GAMMAS.index(p.gamma), self.RHOS.index(p.rho)
            key = f"gamma={p.gamma}/rho={p.rho}/seed={p.seed}"
            if trial["raised"]:
                out.violate(key, "trial raised")
                continue
            recovered = trial["converged"] and trial["rel"] <= RECOVERY_TOL
            successes[i, j] += recovered
            out.observed[key] = {
                "converged": trial["converged"],
                "recovered": recovered,
                "iterations": trial["iterations"],
            }
            if not trial["converged"]:
                out.violate(key, "solve did not converge")
            elif trial["split"] > SPLIT_RTOL:
                out.violate(key, f"B*+C* differs from A by {trial['split']:.2e}")

        rates = successes / self.spec.trials
        if len(trials) != rates.size * self.spec.trials:
            out.violate("grid", f"{len(trials)} trials ran, expected {rates.size * self.spec.trials}")
        if not np.array_equal(grid.success_rate, rates):
            out.violate("grid", "success_rate disagrees with the trials observed")
        with open(self.prefix + ".csv") as fh:
            rows = [line.split(",")[1:] for line in fh.read().splitlines()[1:]]
        if not np.array_equal(np.array(rows, dtype=float), grid.success_rate):
            out.violate("grid", "CSV disagrees with success_rate")
        out.observed["grid"] = {
            "csv_sha256": _sha256(self.prefix + ".csv"),
            "pgm_sha256": _sha256(self.prefix + ".pgm"),
        }
        return out


class CertifySuites:
    """Both acceptance certificate suites (rho = 0.10 and 0.70; n=100,
    n_c=85, gamma=0.85, lambda=0.1; instance seeds derive_seed(seed, k) for
    k < 100), interleaved. One op is verify_certificate plus write_report.
    A pass is both suites."""

    RHOS = (0.10, 0.70)
    COUNT = 100
    LAM = 0.1
    default_seed = 1000  # the acceptance suites' base seed

    def __init__(self, seed: int, out_dir: str, tracer, cal: Calibrator):
        self.out_dir = out_dir
        self.tracer = tracer
        self.cal = cal
        self.ops = []
        for k in range(self.COUNT):
            for rho in self.RHOS:
                params = InstanceParams(n=100, n_c=85, gamma=0.85, rho=rho, seed=derive_seed(seed, k))
                self.ops.append((f"rho={rho}/k={k}", gen_planted(params)))

    def run_pass(self, index: int) -> Pass:
        out = Pass()
        clock = time.perf_counter
        for op, (key, inst) in enumerate(self.ops):
            path = os.path.join(self.out_dir, f"report_{op:03d}.json")
            self.tracer.op = op
            self.cal.tick()
            t0 = clock()
            try:
                rep = qcr.certificate.verify_certificate(inst, lam=self.LAM)
                qcr.fileio.write_report(rep, path)
            except Exception as exc:
                out.op_times.append(clock() - t0)
                out.violate(key, f"raised {exc!r}")
                continue
            out.op_times.append(clock() - t0)

            with open(path) as fh:
                doc = json.load(fh)
            for why in _certificate_violations(doc):
                out.violate(key, why)
            observed = {
                "conditions": [bool(c) for c in rep.conditions],
                "overall": bool(rep.overall),
                "norms": {f: float(getattr(rep, f)) for f in NORM_FIELDS},
            }
            written = {"conditions": doc["conditions"], "overall": doc["overall"],
                       "norms": {f: doc[f] for f in NORM_FIELDS}}
            if written != observed:
                out.violate(key, "written report differs from the returned report")
            out.observed[key] = observed
        out.wall = float(sum(out.op_times))
        return out


class CliN400:
    """One op is the CLI chain gen, solve --mode plain, solve --mode
    quasi_clique, certify, at n=400, n_c=200, gamma=0.85, rho=0.1, through
    cli.main in-process. Pass k uses instance seed derive_seed(seed, k)."""

    N, NC, GAMMA, RHO = 400, 200, 0.85, 0.1
    default_seed = 0

    def __init__(self, seed: int, out_dir: str, tracer, cal: Calibrator):
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = tracer
        self.cal = cal

    def run_pass(self, index: int) -> Pass:
        out = Pass()
        d = self.out_dir
        inst_path, plain, quasi, report = (
            os.path.join(d, f) for f in ("instance.txt", "plain.json", "quasi.json", "report.json")
        )
        seed = derive_seed(self.seed, index)
        steps = [
            ["gen", "--n", str(self.N), "--nc", str(self.NC), "--gamma", str(self.GAMMA),
             "--rho", str(self.RHO), "--seed", str(seed), "--out", inst_path],
            ["solve", "--input", inst_path, "--mode", "plain", "--out", plain],
            ["solve", "--input", inst_path, "--mode", "quasi_clique", "--out", quasi],
            ["certify", "--input", inst_path, "--out", report],
        ]
        key = f"seed={seed}"
        self.tracer.op = index
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in steps:
                self.cal.tick()
                t0 = time.perf_counter()
                try:
                    codes.append(qcr.cli.main(argv))
                except Exception as exc:
                    out.violate(key, f"qcr {argv[0]} raised {exc!r}")
                    break
                finally:
                    out.wall += time.perf_counter() - t0
        self.cal.tick()
        out.op_times = [out.wall]
        if len(codes) < len(steps):
            return out

        observed = {"exit_codes": codes}
        try:
            A = _read_instance_matrix(inst_path, self.N)
            pattern = np.zeros_like(A)
            pattern[: self.NC, : self.NC] = 1.0
            for label, path, code in (("plain", plain, codes[1]), ("quasi_clique", quasi, codes[2])):
                with open(path) as fh:
                    doc = json.load(fh)
                B, C = np.array(doc["B_star"]), np.array(doc["C_star"])
                if doc["converged"] and _split_error(B, C, A) > SPLIT_RTOL:
                    out.violate(key, f"{label}: B*+C* differs from A")
                if code != (0 if doc["converged"] else 4):
                    out.violate(key, f"{label}: exit {code} with converged={doc['converged']}")
                recovered = bool(doc["converged"]) and _rel_error(B, pattern) <= RECOVERY_TOL
                if doc["recovery"] != recovered:
                    out.violate(key, f"{label}: recovery {doc['recovery']} disagrees with B*")
                observed[f"{label}_recovery"] = recovered
            with open(report) as fh:
                doc = json.load(fh)
            for why in _certificate_violations(doc):
                out.violate(key, why)
            if codes[3] != (0 if doc["overall"] else 1):
                out.violate(key, f"certify: exit {codes[3]} with overall={doc['overall']}")
            observed["conditions"] = doc["conditions"]
            observed["overall"] = doc["overall"]
        except (OSError, ValueError, KeyError) as exc:
            out.violate(key, f"outputs unreadable: {exc!r}")
        out.observed[key] = observed
        return out


def _read_instance_matrix(path: str, n: int) -> np.ndarray:
    with open(path) as fh:
        lines = fh.read().splitlines()[1:]
    ijv = np.array([ln.split() for ln in lines], dtype=float).reshape(-1, 3)
    A = np.zeros((n, n))
    A[ijv[:, 0].astype(int), ijv[:, 1].astype(int)] = ijv[:, 2]
    return A


WORKLOADS = {"phase-grid": PhaseGrid, "certify-suites": CertifySuites, "cli-n400": CliN400}
