"""Recovery-grid harness tests: seeding determinism, rate quantization,
interrupts, the on-demand process pool, and export file formats."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import qcr.experiments as experiments
from conftest import VERDICT_CASES, count_calls, solve_off_pattern
from qcr import __version__
from qcr.experiments import (
    GridSpec,
    RecoveryGrid,
    export_grid,
    planted_size,
    run_phase_grid,
    run_size_grid,
)


def small_phase_spec(trials=2, base_seed=7):
    return GridSpec(
        axis1_name="gamma",
        axis1_values=(0.8, 1.0),
        axis2_name="rho",
        axis2_values=(0.1, 0.3),
        fixed={"n": 30, "n_c": 22},
        trials=trials,
        base_seed=base_seed,
    )


# ------------------------------------------------------------ GridSpec


def test_spec_validation():
    with pytest.raises(ValueError):
        small_phase_spec(trials=0)
    with pytest.raises(ValueError):
        GridSpec("gamma", (), "rho", (0.1,), fixed={"n": 10, "n_c": 5})
    with pytest.raises(ValueError):
        GridSpec("gamma", (0.5,), "rho", (0.1,), fixed={"rho": 0.2, "n": 10})


def test_spec_coerces_axes_to_tuples():
    spec = GridSpec("gamma", [0.5, 0.6], "rho", [0.1], fixed={"n": 10, "n_c": 5})
    assert spec.axis1_values == (0.5, 0.6)
    assert spec.axis2_values == (0.1,)


def test_planted_size_rounds_half_up_with_floor_one():
    assert planted_size(100, 0.1) == 10
    assert planted_size(25, 0.1) == 3
    assert planted_size(25, 0.5) == 13
    assert planted_size(50, 0.6) == 30
    assert planted_size(10, 0.01) == 1


def test_grid_axis_names_enforced():
    with pytest.raises(ValueError):
        run_size_grid(small_phase_spec())
    spec = GridSpec("n", (20,), "fraction", (0.5,), fixed={"gamma": 0.9})
    with pytest.raises(ValueError):
        run_size_grid(spec)  # missing fixed rho
    with pytest.raises(ValueError):
        run_phase_grid(GridSpec("n", (20,), "fraction", (0.5,), fixed={"gamma": 0.9, "rho": 0.1}))


# ---------------------------------------------------------------- running


def test_phase_grid_shapes_and_rate_quantization():
    grid = run_phase_grid(small_phase_spec(trials=3))
    assert grid.success_rate.shape == (2, 2)
    assert grid.complete
    scaled = grid.success_rate * 3
    assert np.allclose(scaled, np.rint(scaled))
    assert np.all(grid.success_rate >= 0) and np.all(grid.success_rate <= 1)
    assert np.all(grid.wall_times > 0)


def test_grid_deterministic_across_runs_and_thread_counts():
    spec = small_phase_spec()
    a = run_phase_grid(spec, threads=1)
    b = run_phase_grid(spec, threads=1)
    c = run_phase_grid(spec, threads=2)
    assert np.array_equal(a.success_rate, b.success_rate)
    assert np.array_equal(a.mean_rel_error, b.mean_rel_error)
    assert np.array_equal(a.success_rate, c.success_rate)
    assert np.array_equal(a.mean_rel_error, c.mean_rel_error)


def test_grid_base_seed_changes_trials():
    a = run_phase_grid(small_phase_spec(trials=4, base_seed=0))
    b = run_phase_grid(small_phase_spec(trials=4, base_seed=1))
    assert not np.array_equal(a.mean_rel_error, b.mean_rel_error)


def test_size_grid_easy_cell_recovers():
    spec = GridSpec(
        axis1_name="n",
        axis1_values=(40,),
        axis2_name="fraction",
        axis2_values=(0.8,),
        fixed={"gamma": 0.9, "rho": 0.1},
        trials=3,
        base_seed=0,
    )
    grid = run_size_grid(spec)
    assert grid.success_rate[0, 0] == 1.0
    assert grid.mean_rel_error[0, 0] <= 1e-6


@pytest.mark.parametrize("run_grid, spec, threads", [
    (run_phase_grid, GridSpec("gamma", (0.9,), "rho", (0.1,), fixed={"n": 30, "n_c": 40}), 1),
    (run_phase_grid, GridSpec("gamma", (0.9, 1.5), "rho", (0.1,), fixed={"n": 30, "n_c": 22}), 1),
    (run_size_grid, GridSpec("n", (20,), "fraction", (0.5, 1.5), fixed={"gamma": 0.9, "rho": 0.1}), 1),
    (run_phase_grid, GridSpec("gamma", (0.8,), "rho", (0.1,), fixed={"n": 30.9, "n_c": 20.5}), 1),
    (run_size_grid, GridSpec("n", (30.7,), "fraction", (0.5,), fixed={"gamma": 0.9, "rho": 0.1}), 1),
    (run_phase_grid, small_phase_spec(), 0),
    (run_phase_grid, small_phase_spec(), -4),
], ids=["n_c>n", "gamma>1", "fraction>1", "fractional sizes", "fractional n axis", "threads=0",
        "threads=-4"])
def test_invalid_grid_rejected_before_any_trial(monkeypatch, run_grid, spec, threads):
    calls = count_calls(monkeypatch, "gen_planted", experiments)
    with pytest.raises(ValueError):
        run_grid(spec, threads=threads)
    assert calls == []


def test_interrupt_yields_partial_incomplete_grid(monkeypatch):
    calls = {"count": 0}
    real = experiments._run_cell

    def flaky(args):
        if calls["count"] >= 1:
            raise KeyboardInterrupt
        calls["count"] += 1
        return real(args)

    monkeypatch.setattr(experiments, "_run_cell", flaky)
    grid = run_phase_grid(small_phase_spec(), threads=1)
    assert not grid.complete
    # exactly one finished cell carries data, the rest stay zeroed
    assert np.count_nonzero(grid.wall_times) == 1


def interrupting_cell(args):
    """A stand-in for _run_cell: cell (0, 1) leaves a marker file and
    returns; cell (0, 0) waits for the marker, then raises KeyboardInterrupt;
    every other cell returns at once. Worker processes forked from the test
    see this function and its marker path."""
    _, i, j = args
    if (i, j) == (0, 1):
        Path(interrupting_cell.marker).touch()
    elif (i, j) == (0, 0):
        deadline = time.monotonic() + 60
        while not os.path.exists(interrupting_cell.marker) and time.monotonic() < deadline:
            time.sleep(0.01)
        raise KeyboardInterrupt
    return 1, 0.25, 1.0, 5, 0, 0


def test_parallel_interrupt_keeps_every_finished_cell(monkeypatch, tmp_path):
    # cell (0, 1) finishes before cell (0, 0), the first in job order, raises
    monkeypatch.setattr(interrupting_cell, "marker", str(tmp_path / "cell-0-1"), raising=False)
    monkeypatch.setattr(experiments, "_run_cell", interrupting_cell)
    grid = run_phase_grid(small_phase_spec(), threads=2)
    assert not grid.complete
    assert (grid.success_rate[0, 1], grid.mean_rel_error[0, 1], grid.wall_times[0, 1]) == (0.5, 0.125, 1.0)
    assert (grid.iterations[0, 1], grid.nonconverged[0, 1], grid.errors[0, 1]) == (5, 0, 0)
    # the interrupted cell stays zero with zero timing
    assert (grid.success_rate[0, 0], grid.wall_times[0, 0], grid.iterations[0, 0]) == (0.0, 0.0, 0)


def test_importing_qcr_loads_no_process_pool():
    # only a grid with threads > 1 imports the process pool
    code = (
        "import sys, qcr, qcr.cli, qcr.fileio; "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])"
    )
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True, timeout=60
    )
    assert done.stdout.strip() == "[]"


def test_solver_exception_counts_as_failure(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(experiments, "solve_rpca", boom)
    grid = run_phase_grid(small_phase_spec(trials=2))
    assert np.all(grid.success_rate == 0.0)
    assert np.all(np.isinf(grid.mean_rel_error))
    assert grid.complete
    # every raised trial is counted; none ran the solver to an end
    assert np.all(grid.errors == 2)
    assert np.all(grid.iterations == 0) and np.all(grid.nonconverged == 0)


@pytest.mark.parametrize("off, converged, recovered", VERDICT_CASES)
def test_grid_verdict_at_the_recovery_tolerance(monkeypatch, off, converged, recovered):
    monkeypatch.setattr(experiments, "solve_rpca", solve_off_pattern(off, converged))
    grid = run_phase_grid(GridSpec("gamma", (1.0,), "rho", (0.0,), fixed={"n": 2, "n_c": 1}, trials=1))
    assert grid.success_rate.tolist() == [[1.0 if recovered else 0.0]]
    assert grid.mean_rel_error.tolist() == [[off]]


def test_cells_count_iterations_and_unconverged_trials(monkeypatch):
    # each trial's iterations are summed into its cell, and a solve cut at
    # two iterations counts as unconverged, not as an error
    short = experiments.SolverOptions(max_iters=2)
    monkeypatch.setattr(experiments, "SolverOptions", lambda: short)
    solves = count_calls(monkeypatch, "solve_rpca", experiments)
    grid = run_phase_grid(small_phase_spec(trials=3))
    assert len(solves) == 12
    assert np.all(grid.iterations == 6)
    assert np.all(grid.nonconverged == 3)
    assert np.all(grid.errors == 0)
    assert np.all(grid.success_rate == 0.0)


# ---------------------------------------------------------------- export


def handmade_grid(rates, complete=True):
    rates = np.asarray(rates, dtype=float)
    spec = GridSpec(
        axis1_name="n",
        axis1_values=tuple(25 * (i + 1) for i in range(rates.shape[0])),
        axis2_name="fraction",
        axis2_values=tuple(round(0.1 * (j + 1), 1) for j in range(rates.shape[1])),
        fixed={"gamma": 0.85, "rho": 0.25},
        trials=10,
        base_seed=3,
    )
    return RecoveryGrid(
        spec=spec,
        success_rate=rates,
        mean_rel_error=np.zeros_like(rates),
        wall_times=np.full_like(rates, 0.5),
        iterations=np.full(rates.shape, 40),
        nonconverged=np.zeros(rates.shape, dtype=int),
        errors=np.zeros(rates.shape, dtype=int),
        complete=complete,
    )


def test_export_csv_exact_content(tmp_path):
    grid = handmade_grid([[0.0, 0.5], [1.0, 0.1]])
    export_grid(grid, str(tmp_path / "g"))
    text = (tmp_path / "g.csv").read_text()
    assert text == "n/fraction,0.1,0.2\n25,0.0,0.5\n50,1.0,0.1\n"


def test_export_pgm_exact_bytes(tmp_path):
    grid = handmade_grid([[1.0, 0.0]])
    export_grid(grid, str(tmp_path / "g"))
    data = (tmp_path / "g.pgm").read_bytes()
    assert data == b"P5\n2 1\n255\n" + bytes([255, 0])


def test_export_manifest_fields(tmp_path):
    grid = handmade_grid([[0.3, 0.0]], complete=False)
    grid.mean_rel_error[0] = [1.5e-7, np.inf]
    grid.iterations[0] = [2_417, 160]
    grid.nonconverged[0] = [1, 0]
    grid.errors[0] = [0, 1]
    export_grid(grid, str(tmp_path / "g"))
    text = (tmp_path / "g_manifest.json").read_text()
    # strict JSON: an errored cell's infinite mean is null, not Infinity
    manifest = json.loads(text, parse_constant=lambda c: pytest.fail(f"non-JSON constant {c}"))
    assert manifest["mean_rel_error"] == [[1.5e-7, None]]
    # per-cell telemetry: summed iterations, unconverged and errored trials
    assert manifest["iterations"] == [[2_417, 160]]
    assert manifest["nonconverged"] == [[1, 0]]
    assert manifest["errors"] == [[0, 1]]
    assert manifest["version"] == __version__
    assert manifest["complete"] is False
    # every GridSpec field, tuples as lists
    assert manifest["spec"] == {
        "axis1_name": "n",
        "axis1_values": [25],
        "axis2_name": "fraction",
        "axis2_values": [0.1, 0.2],
        "fixed": {"gamma": 0.85, "rho": 0.25},
        "trials": 10,
        "base_seed": 3,
    }
    assert list(manifest["spec"]) == [f.name for f in dataclasses.fields(GridSpec)]
    assert manifest["timings"] == [[0.5, 0.5]]


def test_export_reruns_byte_identical(tmp_path):
    grid = handmade_grid([[0.0, 0.7, 1.0]])
    export_grid(grid, str(tmp_path / "a"))
    export_grid(grid, str(tmp_path / "b"))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()
    assert (tmp_path / "a_manifest.json").read_bytes() == (tmp_path / "b_manifest.json").read_bytes()


def test_export_write_failure_raises_oserror(tmp_path):
    grid = handmade_grid([[0.5]])
    prefix = str(tmp_path / "missing_dir" / "g")
    with pytest.raises(OSError, match=re.escape(f"failed writing {prefix}.csv: ")):
        export_grid(grid, prefix)


@pytest.mark.parametrize("suffix", [".pgm", "_manifest.json"])
def test_export_names_the_file_it_failed_writing(tmp_path, suffix):
    # a directory in the file's place fails that write alone, after the CSV
    (tmp_path / f"g{suffix}").mkdir()
    prefix = str(tmp_path / "g")
    with pytest.raises(OSError, match=re.escape(f"failed writing {prefix}{suffix}: ")):
        export_grid(handmade_grid([[0.5]]), prefix)
