"""File formats: plain-text instances, dense CSV matrices, JSON documents for
solver results and certificate reports, and flat key=value config files."""

from __future__ import annotations

import dataclasses
import json
import math
import warnings

import numpy as np

from .certificate import CertificateReport
from .instances import InstanceParams, PlantedInstance
from .solver import DecompositionResult

__all__ = [
    "FileFormatError",
    "write_instance",
    "read_instance",
    "write_matrix_csv",
    "read_matrix_csv",
    "read_matrix_any",
    "write_result",
    "read_result",
    "write_report",
    "parse_config_file",
    "MATRIX_INLINE_LIMIT",
]

MATRIX_INLINE_LIMIT = 500
# entries per block of _format_rows; every inline matrix is one block
_FORMAT_BLOCK = 1 << 18


class FileFormatError(ValueError):
    """A file exists but does not parse as the expected format."""


def _fmt(x: float) -> str:
    return repr(int(x)) if float(x).is_integer() else repr(float(x))


def write_instance(inst: PlantedInstance, path: str) -> None:
    """Plain-text instance: header line `n n_c gamma rho seed`, then one
    `i j v` line per nonzero of A in row-major order. Each distinct value is
    formatted once."""
    p = inst.params
    ii, jj = np.nonzero(inst.A)
    values, which = np.unique(inst.A[ii, jj], return_inverse=True)
    text = [_fmt(v) for v in values.tolist()]
    lines = [f"{p.n} {p.n_c} {_fmt(p.gamma)} {_fmt(p.rho)} {p.seed}"]
    lines += [f"{i} {j} {text[k]}" for i, j, k in zip(ii.tolist(), jj.tolist(), which.tolist())]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_instance(path: str) -> PlantedInstance:
    """Parse an instance file; the block/noise split is reconstructed from the
    header's n_c (nonzeros inside {0..n_c-1}^2 belong to the planted block)."""
    with open(path) as fh:
        lines = [ln for ln in map(str.strip, fh.read().split("\n")) if ln and ln[0] != "#"]
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

    A = _read_triplets(path, lines[1:], n)
    return PlantedInstance.from_adjacency(params, A)


def _read_triplets(path: str, lines: list[str], n: int) -> np.ndarray:
    """The n x n matrix of the `i j v` lines. They are parsed by one
    np.loadtxt; when that raises or its triplets hold a non-finite value, an
    index out of range or a repeated coordinate (whose winner numpy does not
    fix), the lines are checked one by one instead, which raises on the first
    bad line and lets a repeated coordinate's last line win. np.loadtxt
    accepts no token that int() or float() reads otherwise; numpy 1.x reads
    `1.0` into an integer field with only a DeprecationWarning, so a warning
    also sends the lines to the check."""
    A = np.zeros((n, n))
    if not lines:
        return A
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ijv = np.loadtxt(lines, dtype=[("i", "i8"), ("j", "i8"), ("v", "f8")], comments=None, ndmin=1)
    except (ValueError, OverflowError, Warning):
        ijv = None
    if ijv is not None:
        i, j, v = ijv["i"], ijv["j"], ijv["v"]
        if np.isfinite(v).all() and ((0 <= i) & (i < n) & (0 <= j) & (j < n)).all():
            flat = i * n + j
            if np.diff(np.sort(flat)).all():
                A.flat[flat] = v
                return A
    for ln in lines:
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
    return A


def _format_rows(M, sep: str):
    """Yield each row of the 2-d float matrix M as its entries'
    float.__repr__ joined by sep. The rows go in blocks of at most
    _FORMAT_BLOCK entries, and float.__repr__ runs once per distinct bit
    pattern of a block: np.unique over the int64 view, which keeps 0.0 and
    -0.0 apart. The texts held at once are bounded by the block, whatever
    the size of M."""
    M = np.asarray(M, dtype=np.float64)
    step = max(1, _FORMAT_BLOCK // max(1, M.shape[1]))
    for a in range(0, M.shape[0], step):
        bits = np.ascontiguousarray(M[a : a + step]).view(np.int64)
        patterns, places = np.unique(bits, return_inverse=True)
        texts = np.array(list(map(float.__repr__, patterns.view(np.float64).tolist())), dtype=object)
        for row in places.reshape(bits.shape):
            yield sep.join(texts[row].tolist())


def write_matrix_csv(M, path: str) -> None:
    with open(path, "w") as fh:
        for text in _format_rows(M, ","):
            fh.write(text + "\n")


def read_matrix_csv(path: str) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for lineno, ln in enumerate(fh, 1):
            ln = ln.strip()
            if not ln:
                continue
            try:
                row = [float(x) for x in ln.split(",")]
            except ValueError as exc:
                raise FileFormatError(f"{path}: bad CSV row {ln!r}") from exc
            if not all(map(math.isfinite, row)):
                raise FileFormatError(f"{path}:{lineno}: non-finite entry in CSV row")
            rows.append(row)
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise FileFormatError(f"{path}: empty or ragged CSV matrix")
    return np.asarray(rows)


def read_matrix_any(path: str):
    """Load either an instance file (returns (A, instance)) or a bare CSV
    matrix (returns (M, None)), dispatching on extension."""
    if path.endswith(".csv"):
        return read_matrix_csv(path), None
    inst = read_instance(path)
    return inst.A, inst


def _matrix_payload(M: np.ndarray, path_base: str, tag: str):
    if M.shape[0] <= MATRIX_INLINE_LIMIT:
        return {tag: M}
    sidecar = f"{path_base}.{tag}.csv"
    write_matrix_csv(M, sidecar)
    return {f"{tag}_path": sidecar}


def _write_json(doc: dict, path: str) -> None:
    """Write the non-empty doc as json.dump(doc, fh, indent=2) and a newline
    would, byte for byte, taking each ndarray value as its nested list.
    Matrices of finite floats are written a row at a time by _format_rows,
    in float.__repr__, json's spelling of a finite float, instead of through
    json's pure-Python encoder and without holding their nested lists; each
    run of other values is one json.dumps call."""
    runs: list[tuple[bool, dict]] = []
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
                for r, text in enumerate(_format_rows(M, ",\n      ")):
                    fh.write(f"{',' if r else ''}\n    [\n      {text}\n    ]")
                fh.write("\n  ]")
        fh.write("\n}\n")


def write_result(
    result: DecompositionResult,
    path: str,
    lam: float,
    mode: str,
    extras: dict | None = None,
) -> None:
    doc = {
        "mode": mode,
        "lambda": lam,
        "n": int(result.B_star.shape[0]),
        "iterations": result.iterations,
        "final_penalty": result.final_penalty,
        "primal_residual": result.primal_residual,
        "objective": result.objective,
        "converged": result.converged,
    }
    if extras:
        doc.update(extras)
    doc.update(_matrix_payload(np.asarray(result.B_star), path, "B_star"))
    doc.update(_matrix_payload(np.asarray(result.C_star), path, "C_star"))
    _write_json(doc, path)


def read_result(path: str) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}: bad JSON: {exc}") from exc


def write_report(report: CertificateReport, path: str, include_matrices: bool = False) -> None:
    doc = {
        "lambda": report.lam,
        "norm_QB": report.norm_QB,
        "residual_golfing": report.residual_golfing,
        "linf_complement_B": report.linf_complement_B,
        "norm_QC": report.norm_QC,
        "linf_complement_C": report.linf_complement_C,
        "opnorm_PGPT": report.opnorm_PGPT,
        "conditions": list(report.conditions),
        "margins": list(report.margins),
        "overall": report.overall,
        "joint_norm_Q": report.joint_norm_Q,
        "joint_residual": report.joint_residual,
        "joint_linf_complement": report.joint_linf_complement,
        "linf2_QB": report.linf2_QB,
        "linf2_QC": report.linf2_QC,
        "linf2_Q": report.linf2_Q,
        "golfing_trace": list(report.golfing_trace),
        "incoherence": dataclasses.asdict(report.incoherence),
        "config": {
            "k0": report.config.k0,
            "q": report.config.q,
            "p": report.config.p,
            "seed": report.config.seed,
        },
        "regime_threshold": report.regime_threshold,
        "regime_ok": report.regime_ok,
    }
    if include_matrices:
        doc["Q_B"] = np.asarray(report.Q_B)
        doc["Q_C"] = np.asarray(report.Q_C)
    _write_json(doc, path)


def parse_config_file(path: str) -> dict[str, str]:
    """Flat `key = value` config; blank lines and #-comments ignored."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, ln in enumerate(fh, 1):
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            if "=" not in ln:
                raise FileFormatError(f"{path}:{lineno}: expected 'key = value', got {ln!r}")
            key, _, value = ln.partition("=")
            out[key.strip()] = value.strip()
    return out
