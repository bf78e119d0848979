"""Span recording around qcr's public functions, installed from outside.

Each traced function is replaced, in its defining module and in every qcr
module that bound it by name at import time, by one wrapper that records a
span (name, start, end, parent span, op id). Parents come from a stack of open
spans, so a span's self time is its duration minus the durations of its direct
children, exactly.
"""

from __future__ import annotations

import os
import time

import numpy as np

import qcr
import qcr.certificate
import qcr.cli
import qcr.experiments
import qcr.fileio
import qcr.instances
import qcr.linalg
import qcr.solver

MODULES = (
    qcr,
    qcr.instances,
    qcr.linalg,
    qcr.solver,
    qcr.certificate,
    qcr.experiments,
    qcr.fileio,
    qcr.cli,
)

# Layer = module. Metric names are <module>.<function>.{calls,s,self_s}.
TRACED = (
    "instances.gen_planted",
    "linalg.sv_threshold",
    "linalg.soft_threshold",
    "linalg.opnorm_PGammaPT",
    "linalg.svd",
    "linalg.norm",
    "linalg.project_T",
    "linalg.project_support",
    "solver.solve_rpca",
    "solver.solve_quasi_clique",
    "certificate.verify_certificate",
    "certificate.partition_complement",
    "certificate.golfing_QB",
    "certificate.neumann_QC",
    "certificate.incoherence",
    "experiments.run_phase_grid",
    "experiments.export_grid",
    "fileio.write_instance",
    "fileio.read_matrix_any",
    "fileio.write_result",
    "fileio.write_report",
    "cli.main",
)

_FILE_WRITERS = ("fileio.write_instance", "fileio.write_result", "fileio.write_report")


def rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Point every qcr module attribute that is `original` at `replacement`;
    return the (module, attribute, old value) triples needed to undo it."""
    undo = []
    for mod in MODULES:
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, val))
    return undo


def restore(undo) -> None:
    for mod, attr, val in reversed(undo):
        setattr(mod, attr, val)


class Tracer:
    """Holds spans in memory while installed. `op` is the id stamped on new
    spans; workloads set it as they start each op."""

    def __init__(self):
        self.op = -1
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op_id: list[int] = []
        self._stack: list[int] = []
        self._undo: list = []
        self.iters = {"solver.solve_rpca": [], "solver.solve_quasi_clique": []}
        self.converged = 0
        self.bytes_written = 0
        self.n3_sum = 0

    def install(self) -> None:
        for idx, name in enumerate(TRACED):
            mod_name, fn_name = name.split(".")
            original = getattr(getattr(qcr, mod_name), fn_name)
            self._undo += rebind(original, self._wrap(idx, name, original))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def _wrap(self, idx, name, fn):
        clock = time.perf_counter
        stack = self._stack
        starts, ends = self.start, self.end
        after = self._after_hook(name)

        def traced(*args, **kwargs):
            span = len(starts)
            self.name_id.append(idx)
            self.parent.append(stack[-1] if stack else -1)
            self.op_id.append(self.op)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _after_hook(self, name):
        if name == "linalg.sv_threshold":
            def after(args, kwargs, result):
                self.n3_sum += int(result.shape[0]) ** 3
        elif name in self.iters:
            def after(args, kwargs, result):
                self.iters[name].append(result.iterations)
                if name == "solver.solve_rpca":
                    self.converged += bool(result.converged)
        elif name in _FILE_WRITERS:
            def after(args, kwargs, result):
                path = args[1] if len(args) > 1 else kwargs["path"]
                for p in (path, f"{path}.B_star.csv", f"{path}.C_star.csv"):
                    if os.path.exists(p):
                        self.bytes_written += os.path.getsize(p)
        else:
            after = None
        return after

    def arrays(self):
        names = np.asarray(self.name_id, dtype=np.int64)
        start = np.asarray(self.start)
        end = np.asarray(self.end)
        parent = np.asarray(self.parent, dtype=np.int64)
        return names, start, end, parent, np.asarray(self.op_id, dtype=np.int64)

    def self_times(self) -> np.ndarray:
        names, start, end, parent, _ = self.arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur - child

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        names, start, end, _, _ = self.arrays()
        dur = end - start
        own = self.self_times()
        out: dict[str, tuple[float, str]] = {}
        for idx, name in enumerate(TRACED):
            sel = names == idx
            out[f"{name}.calls"] = (int(sel.sum()), "count")
            out[f"{name}.s"] = (float(dur[sel].sum()), "s")
            out[f"{name}.self_s"] = (float(own[sel].sum()), "s")
        rpca = self.iters["solver.solve_rpca"]
        qc = self.iters["solver.solve_quasi_clique"]
        out["solver.solve_rpca.iters_mean"] = (float(np.mean(rpca)) if rpca else 0.0, "iterations")
        out["solver.solve_rpca.iters_max"] = (int(max(rpca, default=0)), "iterations")
        out["solver.solve_rpca.converged_frac"] = (self.converged / len(rpca) if rpca else 0.0, "fraction")
        out["solver.solve_quasi_clique.iters_mean"] = (float(np.mean(qc)) if qc else 0.0, "iterations")
        solver_s = out["solver.solve_rpca.s"][0] + out["solver.solve_quasi_clique.s"][0]
        total_iters = sum(rpca) + sum(qc)
        out["solver.s_per_iter"] = (solver_s / total_iters if total_iters else 0.0, "s")
        out["fileio.bytes_written"] = (self.bytes_written, "bytes")
        out["linalg.sv_threshold.n3_sum"] = (self.n3_sum, "n3_computed")
        return out

    def write(self, path: str) -> None:
        names, start, end, parent, op = self.arrays()
        t0 = start.min() if start.size else 0.0
        np.savez(
            path,
            names=np.asarray(TRACED),
            name_id=names,
            start=start - t0,
            end=end - t0,
            parent=parent,
            op=op,
        )
