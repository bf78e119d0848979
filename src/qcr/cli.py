"""Command-line front end.

Subcommands: gen, solve, certify, grid, norms. Flags override values from an
optional flat key=value config file (--config); a config key is the long flag
name without its leading dashes and with the other dashes replaced by
underscores (lambda for --lambda, max_iters for --max-iters). Keys of another
subcommand's flags are ignored; a key that no subcommand has is a validation
error. Exit codes: 0 success (for certify: all conditions hold), 1
certificate conditions fail, 2 validation error, 3 I/O error, 4 solver did
not converge (result still written), 5 the certificate series did not
converge.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

from .certificate import CONDITIONS, GATES, GolfingConfig, NeumannDivergenceError, verify_certificate
from .experiments import PHASE_GRID, SIZE_GRID, export_grid, run_phase_grid, run_size_grid
from .fileio import (
    FileFormatError,
    parse_config_file,
    read_matrix_any,
    write_instance,
    write_report,
    write_result,
)
from .instances import InstanceParams, gen_planted
from .linalg import NORM_KINDS, norm
from .solver import (
    QuasiCliqueParams,
    SolverOptions,
    recovery_success,
    relative_error,
    solve_quasi_clique,
    solve_rpca,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CERT_FAILED = 1
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_NONCONVERGED = 4
EXIT_NEUMANN = 5
EXIT_INTERRUPTED = 130


# config-file spellings of a boolean, compared case-insensitively
_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _merged(args, cfg: dict, key: str, cast, default=None):
    """Flag value if given, else config-file value, else default."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key not in cfg:
        return default
    raw = cfg[key]
    if cast is not bool:
        try:
            return cast(raw)
        except ValueError:
            raise ValueError(f"config key {key!r} must be {_CAST_NAMES[cast]}, got {raw!r}") from None
    if raw.lower() not in _BOOLEANS:
        raise ValueError(f"config key {key!r} must be 1/0/true/false/yes/no, got {raw!r}")
    return _BOOLEANS[raw.lower()]


def _given(args, cfg: dict, keys) -> dict:
    """Keyword arguments for the (key, keyword, cast) triples whose value a
    flag or the config file set; unset ones are left to the library default."""
    out = {}
    for key, keyword, cast in keys:
        val = _merged(args, cfg, key, cast)
        if val is not None:
            out[keyword] = val
    return out


def _require(value, name: str):
    if value is None:
        raise ValueError(f"missing required parameter --{name.replace('_', '-')}")
    return value


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip())


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip())


# what a config value must spell for each cast that can reject it
_CAST_NAMES = {
    int: "an integer",
    float: "a float",
    _int_list: "a comma-separated list of integers",
    _float_list: "a comma-separated list of floats",
}


def cmd_gen(args, cfg) -> int:
    params = InstanceParams(
        n=_require(_merged(args, cfg, "n", int), "n"),
        n_c=_require(_merged(args, cfg, "nc", int), "nc"),
        gamma=_require(_merged(args, cfg, "gamma", float), "gamma"),
        rho=_require(_merged(args, cfg, "rho", float), "rho"),
        seed=_merged(args, cfg, "seed", int, 0),
    )
    out = _merged(args, cfg, "out", str, "instance.txt")
    inst = gen_planted(params)
    write_instance(inst, out)
    print(
        f"n={params.n} n_c={params.n_c} gamma={params.gamma} rho={params.rho} "
        f"seed={params.seed} |gamma_support|={len(inst.gamma_support)} "
        f"|noise_support|={len(inst.noise_support)} -> {out}"
    )
    return EXIT_OK


# --mode value -> the label written to stdout and the result JSON
_MODE_LABELS = {"plain": "plain_decomposition", "quasi_clique": "quasi_clique_constrained"}

# (flag/config key, SolverOptions field, cast)
_SOLVER_KEYS = (
    ("lambda", "lam", float),
    ("mu0", "mu0", float),
    ("mu_growth", "mu_growth", float),
    ("tol", "tol_primal", float),
    ("max_iters", "max_iters", int),
)


def cmd_solve(args, cfg) -> int:
    path = _require(_merged(args, cfg, "input", str), "input")
    M, inst = read_matrix_any(path)
    n = M.shape[0]
    mode = _merged(args, cfg, "mode", str, "plain")
    if mode not in _MODE_LABELS:
        raise ValueError(f"--mode must be 'plain' or 'quasi_clique', got {mode!r}")
    label = _MODE_LABELS[mode]
    opts = SolverOptions(**_given(args, cfg, _SOLVER_KEYS))
    if mode == "quasi_clique":
        gamma = _merged(args, cfg, "gamma", float, inst.params.gamma if inst else None)
        eta = _merged(args, cfg, "eta", int, inst.params.n_c if inst else None)
        qc = QuasiCliqueParams(
            gamma=_require(gamma, "gamma"), eta=_require(eta, "eta")
        )
        result = solve_quasi_clique(M, qc, opts)
    else:
        result = solve_rpca(M, opts)

    lam_used = opts.resolve_lam(n)
    extras: dict = {}
    if inst is not None:
        rel = relative_error(result.B_star, inst.block_pattern)
        recovered = result.converged and recovery_success(result.B_star, inst.block_pattern)
        extras = {
            "recovery": bool(recovered),
            "relative_error": rel,
            "instance": {
                "n": inst.params.n,
                "n_c": inst.params.n_c,
                "gamma": inst.params.gamma,
                "rho": inst.params.rho,
                "seed": inst.params.seed,
            },
        }
    out = _merged(args, cfg, "out", str, "result.json")
    write_result(result, out, lam=lam_used, mode=label, extras=extras)
    print(
        f"mode={label} lambda={lam_used:.6g} iterations={result.iterations} "
        f"final_penalty={result.final_penalty:.6g} "
        f"primal_residual={result.primal_residual:.3e} objective={result.objective:.8g} "
        f"converged={result.converged} -> {out}"
    )
    if inst is not None:
        verdict = "recovered" if extras["recovery"] else "not recovered"
        print(f"verdict: {verdict} (relative error {extras['relative_error']:.3e})")
    return EXIT_OK if result.converged else EXIT_NONCONVERGED


# (flag/config key, GolfingConfig.for_instance argument, cast)
_GOLFING_KEYS = (("p", "p", float), ("k0", "k0", int), ("cert_seed", "seed", int))

# (flag/config key, verify_certificate argument, cast)
_CERTIFY_KEYS = (("lambda", "lam", float), ("rank_tol", "rank_tol", float), ("c0", "regime_c0", float))


def cmd_certify(args, cfg) -> int:
    path = _require(_merged(args, cfg, "input", str), "input")
    _, inst = read_matrix_any(path)
    if inst is None:
        raise ValueError("certify requires an instance file with ground truth, not a bare matrix")
    golf_cfg = GolfingConfig.for_instance(inst.params, **_given(args, cfg, _GOLFING_KEYS))
    report = verify_certificate(inst, cfg=golf_cfg, **_given(args, cfg, _CERTIFY_KEYS))
    out = _merged(args, cfg, "out", str, "report.json")
    write_report(report, out, include_matrices=_merged(args, cfg, "include_matrices", bool, False))

    lam = report.lam
    rows = [(c, ok, f"{c.threshold(lam):.6f}") for c, ok in zip(CONDITIONS, report.conditions)]
    rows += [(g, g.holds(getattr(report, g.measured), lam), f"{g.threshold(lam):g}") for g in GATES]
    for check, ok, threshold in rows:
        measured = getattr(report, check.measured)
        print(f"[{'PASS' if ok else 'FAIL'}] {check.label}: {measured:.6f} {check.relation} {threshold}")
    print(f"overall: {report.overall} -> {out}")
    return EXIT_OK if report.overall else EXIT_CERT_FAILED


# --kind -> (headline grid, axis keys, fixed-parameter keys), each key a
# (flag/config key, field, cast) triple
_GRIDS = {
    "size": (
        SIZE_GRID,
        (("n_list", "axis1_values", _int_list), ("fractions", "axis2_values", _float_list)),
        (("gamma", "gamma", float), ("rho", "rho", float)),
    ),
    "phase": (
        PHASE_GRID,
        (("gammas", "axis1_values", _float_list), ("rhos", "axis2_values", _float_list)),
        (("n", "n", int), ("nc", "n_c", int)),
    ),
}


def cmd_grid(args, cfg) -> int:
    kind = _require(_merged(args, cfg, "kind", str), "kind")
    if kind not in _GRIDS:
        raise ValueError(f"--kind must be 'size' or 'phase', got {kind!r}")
    base, axis_keys, fixed_keys = _GRIDS[kind]
    threads = _merged(args, cfg, "threads", int)

    spec = dataclasses.replace(
        base,
        **_given(args, cfg, axis_keys),
        fixed={**base.fixed, **_given(args, cfg, fixed_keys)},
        **_given(args, cfg, (("trials", "trials", int), ("base_seed", "base_seed", int))),
    )

    out_dir = _merged(args, cfg, "out_dir", str, ".")
    prefix = _merged(args, cfg, "prefix", str, f"{kind}_grid")
    os.makedirs(out_dir, exist_ok=True)
    path_prefix = os.path.join(out_dir, prefix)

    runner = run_size_grid if kind == "size" else run_phase_grid
    grid = runner(spec, threads=threads)
    export_grid(grid, path_prefix)
    print(
        f"{kind} grid {grid.success_rate.shape[0]}x{grid.success_rate.shape[1]} "
        f"trials={spec.trials} total_time={grid.wall_times.sum():.1f}s -> "
        f"{path_prefix}.csv, {path_prefix}.pgm, {path_prefix}_manifest.json"
    )
    if not grid.complete:
        print("interrupted: partial results written, manifest marked incomplete", file=sys.stderr)
        return EXIT_INTERRUPTED
    return EXIT_OK


def cmd_norms(args, cfg) -> int:
    path = _require(_merged(args, cfg, "input", str), "input")
    M, _ = read_matrix_any(path)
    for kind in NORM_KINDS:
        print(f"{kind} = {norm(M, kind)!r}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcr",
        description="Planted quasi-clique recovery: generate instances, solve the convex "
        "decomposition, verify dual certificates, and run recovery grids.",
    )
    parser.add_argument("--config", help="flat key=value config file; flags override it")
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a planted instance file")
    p.add_argument("--n", type=int)
    p.add_argument("--nc", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve the decomposition for an instance or matrix file")
    p.add_argument("--input")
    p.add_argument("--lambda", metavar="LAM", type=float)
    p.add_argument("--mode", choices=tuple(_MODE_LABELS))
    p.add_argument("--eta", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--mu0", type=float)
    p.add_argument("--mu-growth", dest="mu_growth", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("certify", help="construct and verify the dual certificate")
    p.add_argument("--input")
    p.add_argument("--lambda", metavar="LAM", type=float)
    p.add_argument("--p", type=float)
    p.add_argument("--k0", type=int)
    p.add_argument("--cert-seed", dest="cert_seed", type=int)
    p.add_argument("--rank-tol", dest="rank_tol", type=float)
    p.add_argument("--c0", type=float)
    p.add_argument("--include-matrices", dest="include_matrices", action="store_true", default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("grid", help="run a recovery grid and export CSV/PGM/manifest")
    p.add_argument("--kind", choices=tuple(_GRIDS))
    p.add_argument("--trials", type=int)
    p.add_argument("--base-seed", dest="base_seed", type=int)
    p.add_argument("--threads", type=int)
    p.add_argument("--n-list", dest="n_list", type=_int_list)
    p.add_argument("--fractions", type=_float_list)
    p.add_argument("--gammas", type=_float_list)
    p.add_argument("--rhos", type=_float_list)
    p.add_argument("--n", type=int)
    p.add_argument("--nc", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--prefix")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("norms", help="print all matrix norms of a matrix or instance file")
    p.add_argument("--input")
    p.set_defaults(func=cmd_norms)

    # a config file may set any option of any subcommand
    config_keys = {a.dest for cmd in sub.choices.values() for a in cmd._actions} - {"help"}
    parser.set_defaults(config_keys=frozenset(config_keys))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING - 10 * min(args.verbose, 2),
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = parse_config_file(args.config) if args.config else {}
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    unknown = sorted(set(cfg) - args.config_keys)
    if unknown:
        print(f"error: unknown config key {unknown[0]!r}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        return args.func(args, cfg)
    except NeumannDivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEUMANN
    except (FileFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
