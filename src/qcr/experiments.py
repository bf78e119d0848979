"""Monte-Carlo recovery sweeps over (size x planted fraction) and
(density x noise) grids, with deterministic seeding, optional process
parallelism, and CSV/PGM/manifest export.

A cell's instance parameters are its GridSpec's fixed parameters and its two
axis values, by name. Every cell is checked to be a valid instance before
any trial runs; `threads` worker processes (default 1) run the cells, and
the process pool is imported only when there is more than one."""

from __future__ import annotations

import json
import logging
import time
from dataclasses import asdict, dataclass

import numpy as np

from .instances import InstanceParams, derive_seed, gen_planted
from .linalg import _as_int
from .solver import SolverOptions, recovery_verdict, solve_rpca

__all__ = [
    "GridSpec",
    "SIZE_GRID",
    "PHASE_GRID",
    "RecoveryGrid",
    "run_size_grid",
    "run_phase_grid",
    "export_grid",
    "planted_size",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class GridSpec:
    """Two named parameter axes, the fixed remaining instance parameters, the
    per-cell trial count, and the base seed every trial seed derives from."""

    axis1_name: str
    axis1_values: tuple
    axis2_name: str
    axis2_values: tuple
    fixed: dict
    trials: int = 10
    base_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "axis1_values", tuple(self.axis1_values))
        object.__setattr__(self, "axis2_values", tuple(self.axis2_values))
        if _as_int(self.trials, "trials") < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not self.axis1_values or not self.axis2_values:
            raise ValueError("axes must be nonempty")
        names = {self.axis1_name, self.axis2_name} | set(self.fixed)
        if len(names) != 2 + len(self.fixed):
            raise ValueError("axis and fixed parameter names must be disjoint")


# The two headline grids: recovery rate by graph size and planted fraction,
# and by block density and noise density.
SIZE_GRID = GridSpec(
    axis1_name="n",
    axis1_values=(25, 50, 75, 100),
    axis2_name="fraction",
    axis2_values=tuple(round(0.1 * k, 1) for k in range(1, 11)),
    fixed={"gamma": 0.85, "rho": 0.25},
)
PHASE_GRID = GridSpec(
    axis1_name="gamma",
    axis1_values=tuple(round(0.5 + 0.1 * k, 1) for k in range(6)),
    axis2_name="rho",
    axis2_values=tuple(round(0.1 * k, 1) for k in range(8)),
    fixed={"n": 100, "n_c": 85},
)


@dataclass(frozen=True, eq=False)
class RecoveryGrid:
    """Per-cell results: the success rate and mean relative error over the
    cell's trials, its wall time, the solver iterations summed over its
    trials, and how many trials ended unconverged or raised."""

    spec: GridSpec
    success_rate: np.ndarray
    mean_rel_error: np.ndarray
    wall_times: np.ndarray
    iterations: np.ndarray
    nonconverged: np.ndarray
    errors: np.ndarray
    complete: bool = True


def planted_size(n: int, fraction: float) -> int:
    """Planted block size for a fractional specification: fraction*n rounded
    half-up, floored at 1."""
    return max(1, int(np.floor(fraction * n + 0.5)))


def _cell_params(spec: GridSpec, i: int, j: int, seed: int) -> InstanceParams:
    """Instance parameters of cell (i, j): the fixed parameters and the two
    axis values by name, with n_c taken from a planted fraction when the cell
    gives one instead."""
    cell = {**spec.fixed, spec.axis1_name: spec.axis1_values[i], spec.axis2_name: spec.axis2_values[j]}
    n = cell["n"]
    n_c = cell["n_c"] if "n_c" in cell else planted_size(n, float(cell["fraction"]))
    return InstanceParams(n=n, n_c=n_c, gamma=float(cell["gamma"]), rho=float(cell["rho"]), seed=seed)


def _run_cell(args) -> tuple[int, float, float, int, int, int]:
    """Trials of cell (i, j): returns the successes, the summed relative
    error, the wall time, the summed solver iterations, and the counts of
    unconverged and raised trials."""
    spec, i, j = args
    start = time.perf_counter()
    successes = iterations = nonconverged = errors = 0
    rel_sum = 0.0
    for t in range(spec.trials):
        try:
            inst = gen_planted(_cell_params(spec, i, j, derive_seed(spec.base_seed, i, j, t)))
            res = solve_rpca(inst.A, SolverOptions())
            recovered, rel = recovery_verdict(res, inst.block_pattern)
            iterations += res.iterations
            nonconverged += not res.converged
            successes += recovered
        except Exception:
            log.warning("trial (%d, %d, %d) failed", i, j, t, exc_info=True)
            rel = float("inf")
            errors += 1
        rel_sum += rel
    return successes, rel_sum, time.perf_counter() - start, iterations, nonconverged, errors


def _run_grid(spec: GridSpec, threads: int) -> RecoveryGrid:
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    shape = (len(spec.axis1_values), len(spec.axis2_values))
    jobs = [(spec, i, j) for i in range(shape[0]) for j in range(shape[1])]
    # an invalid cell fails every trial the same way, so reject it up front
    for _, i, j in jobs:
        _cell_params(spec, i, j, seed=0)
    success = np.zeros(shape)
    mean_rel = np.zeros(shape)
    wall = np.zeros(shape)
    counts = np.zeros((3,) + shape, dtype=int)
    outcomes: list[tuple] = []
    complete = True
    try:
        if threads > 1:
            from concurrent.futures import ProcessPoolExecutor, as_completed

            with ProcessPoolExecutor(max_workers=threads) as pool:
                futures = [pool.submit(_run_cell, job) for job in jobs]
                try:
                    for future in as_completed(futures):
                        future.result()
                finally:
                    # on an interrupt, start no further cell, wait for the
                    # running ones and keep every cell that finished
                    pool.shutdown(cancel_futures=True)
                    outcomes = [
                        (job, f.result())
                        for job, f in zip(jobs, futures)
                        if not f.cancelled() and f.exception() is None
                    ]
        else:
            for job in jobs:
                outcomes.append((job, _run_cell(job)))
    except KeyboardInterrupt:
        # keep whatever cells finished; the caller exports them flagged incomplete
        complete = False
    for (_, i, j), (successes, rel_sum, secs, *cell_counts) in outcomes:
        success[i, j] = successes / spec.trials
        mean_rel[i, j] = rel_sum / spec.trials
        wall[i, j] = secs
        counts[:, i, j] = cell_counts
    return RecoveryGrid(
        spec=spec,
        success_rate=success,
        mean_rel_error=mean_rel,
        wall_times=wall,
        iterations=counts[0],
        nonconverged=counts[1],
        errors=counts[2],
        complete=complete,
    )


def run_size_grid(spec: GridSpec, threads: int = 1) -> RecoveryGrid:
    """Recovery rates over (graph size, planted fraction) cells at fixed
    gamma, rho. Each trial solves the plain decomposition at lam = 1/sqrt(n)
    and scores recovery of the planted block pattern."""
    if (spec.axis1_name, spec.axis2_name) != ("n", "fraction"):
        raise ValueError("size grid axes must be (n, fraction)")
    if not {"gamma", "rho"} <= set(spec.fixed):
        raise ValueError("size grid requires fixed gamma and rho")
    return _run_grid(spec, threads)


def run_phase_grid(spec: GridSpec, threads: int = 1) -> RecoveryGrid:
    """Recovery rates over (gamma, rho) cells at fixed n, n_c."""
    if (spec.axis1_name, spec.axis2_name) != ("gamma", "rho"):
        raise ValueError("phase grid axes must be (gamma, rho)")
    if not {"n", "n_c"} <= set(spec.fixed):
        raise ValueError("phase grid requires fixed n and n_c")
    return _run_grid(spec, threads)


def _write_bytes(path: str, data: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc


def export_grid(grid: RecoveryGrid, path_prefix: str) -> None:
    """Write <prefix>.csv (header row/column = axis values, cells = success
    rates), <prefix>.pgm (8-bit grayscale, 255 = rate 1.0, axis1 on rows), and
    <prefix>_manifest.json (grid spec, code version, and per cell: timings,
    mean relative errors, summed solver iterations, and the counts of
    unconverged and errored trials)."""
    from . import __version__

    spec = grid.spec
    lines = [",".join([f"{spec.axis1_name}/{spec.axis2_name}"] + [repr(v) for v in spec.axis2_values])]
    for i, v1 in enumerate(spec.axis1_values):
        cells = [repr(float(r)) for r in grid.success_rate[i]]
        lines.append(",".join([repr(v1)] + cells))
    _write_bytes(path_prefix + ".csv", ("\n".join(lines) + "\n").encode())

    pixels = np.rint(np.clip(grid.success_rate, 0.0, 1.0) * 255).astype(np.uint8)
    header = f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode("ascii")
    _write_bytes(path_prefix + ".pgm", header + pixels.tobytes())

    manifest = {
        "spec": asdict(spec),
        "version": __version__,
        "complete": grid.complete,
        "timings": [[float(t) for t in row] for row in grid.wall_times],
        # a cell with an errored trial (rel = inf) has no finite mean: null
        "mean_rel_error": [
            [float(e) if np.isfinite(e) else None for e in row] for row in grid.mean_rel_error
        ],
        "iterations": grid.iterations.tolist(),
        "nonconverged": grid.nonconverged.tolist(),
        "errors": grid.errors.tolist(),
    }
    _write_bytes(path_prefix + "_manifest.json", (json.dumps(manifest, indent=2) + "\n").encode())
