"""Command-line front end.

Subcommands: gen, solve, certify, grid, norms. Each option is declared once,
in build_parser, with its type, choices and default. An optional flat
key=value config file (--config) supplies defaults: a config key is the long
flag name without its leading dashes and with the other dashes replaced by
underscores (lambda for --lambda, max_iters for --max-iters). The chosen
subcommand's config values are converted and checked by their flags' own
types and choices, then become that subcommand's parser defaults, so flags
given on the command line win. Keys of another subcommand's flags are
ignored; a key that no subcommand has is a validation error. Exit codes: 0
success (for certify: all conditions hold), 1 certificate conditions fail, 2
validation error, 3 I/O error, 4 solver did not converge (result still
written), 5 the certificate series did not converge.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

import numpy as np

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
    RECOVERY_TOL,
    QuasiCliqueParams,
    SolverOptions,
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


def _config_value(action: argparse.Action, raw: str):
    """A config-file value converted and checked as its flag's action would
    convert and check it on the command line."""
    key = action.dest
    if action.nargs == 0:
        if raw.lower() not in _BOOLEANS:
            raise ValueError(f"config key {key!r} must be 1/0/true/false/yes/no, got {raw!r}")
        return _BOOLEANS[raw.lower()]
    try:
        value = raw if action.type is None else action.type(raw)
    except ValueError:
        raise ValueError(f"config key {key!r} must be {_CAST_NAMES[action.type]}, got {raw!r}") from None
    if action.choices is not None and value not in action.choices:
        allowed = " or ".join(map(repr, action.choices))
        raise ValueError(f"{action.option_strings[0]} must be {allowed}, got {raw!r}")
    return value


def _given(args, pairs) -> dict:
    """Keyword arguments for the (key, keyword) pairs whose value a flag or the
    config file set; unset ones are left to the library default."""
    return {kw: getattr(args, key) for key, kw in pairs if getattr(args, key) is not None}


def _require(value, name: str):
    if value is None:
        raise ValueError(f"missing required parameter --{name.replace('_', '-')}")
    return value


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip())


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip())


# what a config value must spell for each flag type that can reject it
_CAST_NAMES = {
    int: "an integer",
    float: "a float",
    _int_list: "a comma-separated list of integers",
    _float_list: "a comma-separated list of floats",
}


def cmd_gen(args) -> int:
    params = InstanceParams(
        n=_require(args.n, "n"),
        n_c=_require(args.nc, "nc"),
        gamma=_require(args.gamma, "gamma"),
        rho=_require(args.rho, "rho"),
        seed=args.seed,
    )
    inst = gen_planted(params)
    write_instance(inst, args.out)
    print(
        f"n={params.n} n_c={params.n_c} gamma={params.gamma} rho={params.rho} "
        f"seed={params.seed} |gamma_support|={np.count_nonzero(inst.B0)} "
        f"|noise_support|={np.count_nonzero(inst.C0)} -> {args.out}"
    )
    return EXIT_OK


# --mode value -> the label written to stdout and the result JSON
_MODE_LABELS = {"plain": "plain_decomposition", "quasi_clique": "quasi_clique_constrained"}

# (flag/config key, SolverOptions field)
_SOLVER_KEYS = (
    ("lambda", "lam"),
    ("mu0", "mu0"),
    ("mu_growth", "mu_growth"),
    ("tol", "tol_primal"),
    ("max_iters", "max_iters"),
)


def cmd_solve(args) -> int:
    M, inst = read_matrix_any(_require(args.input, "input"))
    n = M.shape[0]
    label = _MODE_LABELS[args.mode]
    opts = SolverOptions(**_given(args, _SOLVER_KEYS))
    if args.mode == "quasi_clique":
        gamma = args.gamma if args.gamma is not None else inst.params.gamma if inst else None
        eta = args.eta if args.eta is not None else inst.params.n_c if inst else None
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
        recovered = result.converged and rel <= RECOVERY_TOL
        extras = {
            "recovery": bool(recovered),
            "relative_error": rel,
            "instance": dataclasses.asdict(inst.params),
        }
    write_result(result, args.out, lam=lam_used, mode=label, extras=extras)
    print(
        f"mode={label} lambda={lam_used:.6g} iterations={result.iterations} "
        f"final_penalty={result.final_penalty:.6g} "
        f"primal_residual={result.primal_residual:.3e} objective={result.objective:.8g} "
        f"converged={result.converged} -> {args.out}"
    )
    if inst is not None:
        verdict = "recovered" if extras["recovery"] else "not recovered"
        print(f"verdict: {verdict} (relative error {extras['relative_error']:.3e})")
    return EXIT_OK if result.converged else EXIT_NONCONVERGED


# (flag/config key, GolfingConfig.for_instance argument)
_GOLFING_KEYS = (("p", "p"), ("k0", "k0"), ("cert_seed", "seed"))

# (flag/config key, verify_certificate argument)
_CERTIFY_KEYS = (("lambda", "lam"), ("rank_tol", "rank_tol"), ("c0", "regime_c0"))


def cmd_certify(args) -> int:
    _, inst = read_matrix_any(_require(args.input, "input"))
    if inst is None:
        raise ValueError("certify requires an instance file with ground truth, not a bare matrix")
    golf_cfg = GolfingConfig.for_instance(inst.params, **_given(args, _GOLFING_KEYS))
    report = verify_certificate(inst, cfg=golf_cfg, **_given(args, _CERTIFY_KEYS))
    write_report(report, args.out, include_matrices=args.include_matrices)

    lam = report.lam
    # each condition's line ends in its margin, measured / threshold
    rows = [
        (c, ok, f"{c.threshold(lam):.6f} (margin {m:.6f})")
        for c, ok, m in zip(CONDITIONS, report.conditions, report.margins)
    ]
    rows += [(g, g.holds(getattr(report, g.measured), lam), f"{g.threshold(lam):g}") for g in GATES]
    for check, ok, bound in rows:
        measured = getattr(report, check.measured)
        print(f"[{'PASS' if ok else 'FAIL'}] {check.label}: {measured:.6f} {check.relation} {bound}")
    print(
        f"l_inf,2 norms (measured only): Q_B {report.linf2_QB:.6f}, "
        f"Q_C {report.linf2_QC:.6f}, Q_B + Q_C {report.linf2_Q:.6f}"
    )
    print(f"overall: {report.overall} -> {args.out}")
    return EXIT_OK if report.overall else EXIT_CERT_FAILED


# --kind -> (headline grid, axis keys, fixed-parameter keys), each key a
# (flag/config key, field) pair
_GRIDS = {
    "size": (
        SIZE_GRID,
        (("n_list", "axis1_values"), ("fractions", "axis2_values")),
        (("gamma", "gamma"), ("rho", "rho")),
    ),
    "phase": (
        PHASE_GRID,
        (("gammas", "axis1_values"), ("rhos", "axis2_values")),
        (("n", "n"), ("nc", "n_c")),
    ),
}


def cmd_grid(args) -> int:
    kind = _require(args.kind, "kind")
    base, axis_keys, fixed_keys = _GRIDS[kind]
    spec = dataclasses.replace(
        base,
        **_given(args, axis_keys),
        fixed={**base.fixed, **_given(args, fixed_keys)},
        **_given(args, (("trials", "trials"), ("base_seed", "base_seed"))),
    )

    prefix = args.prefix if args.prefix is not None else f"{kind}_grid"
    path_prefix = os.path.join(args.out_dir, prefix)

    runner = run_size_grid if kind == "size" else run_phase_grid
    grid = runner(spec, threads=args.threads)
    # made only now: the runner rejects bad threads and cells before any trial
    os.makedirs(args.out_dir, exist_ok=True)
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


def cmd_norms(args) -> int:
    M, _ = read_matrix_any(_require(args.input, "input"))
    for kind in NORM_KINDS:
        print(f"{kind} = {norm(M, kind)!r}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """A fresh qcr parser; its default `commands` maps each subcommand name
    to that subcommand's parser."""
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="instance.txt")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve the decomposition for an instance or matrix file")
    p.add_argument("--input")
    p.add_argument("--lambda", metavar="LAM", type=float)
    p.add_argument("--mode", choices=tuple(_MODE_LABELS), default="plain")
    p.add_argument("--eta", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--mu0", type=float)
    p.add_argument("--mu-growth", dest="mu_growth", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--out", default="result.json")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("certify", help="construct and verify the dual certificate")
    p.add_argument("--input")
    p.add_argument("--lambda", metavar="LAM", type=float)
    p.add_argument("--p", type=float)
    p.add_argument("--k0", type=int)
    p.add_argument("--cert-seed", dest="cert_seed", type=int)
    p.add_argument("--rank-tol", dest="rank_tol", type=float)
    p.add_argument("--c0", type=float)
    p.add_argument("--include-matrices", dest="include_matrices", action="store_true")
    p.add_argument("--out", default="report.json")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("grid", help="run a recovery grid and export CSV/PGM/manifest")
    p.add_argument("--kind", choices=tuple(_GRIDS))
    p.add_argument("--trials", type=int)
    p.add_argument("--base-seed", dest="base_seed", type=int)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--n-list", dest="n_list", type=_int_list)
    p.add_argument("--fractions", type=_float_list)
    p.add_argument("--gammas", type=_float_list)
    p.add_argument("--rhos", type=_float_list)
    p.add_argument("--n", type=int)
    p.add_argument("--nc", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--out-dir", dest="out_dir", default=".")
    p.add_argument("--prefix")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("norms", help="print all matrix norms of a matrix or instance file")
    p.add_argument("--input")
    p.set_defaults(func=cmd_norms)

    parser.set_defaults(commands=sub.choices)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
    # a config file may set any option of any subcommand
    known = {a.dest for cmd in args.commands.values() for a in cmd._actions} - {"help"}
    unknown = sorted(set(cfg) - known)
    if unknown:
        print(f"error: unknown config key {unknown[0]!r}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        # the chosen subcommand's config values become its parser defaults,
        # so flags parsed again on top of them win
        command = args.commands[args.command]
        actions = {a.dest: a for a in command._actions}
        command.set_defaults(**{k: _config_value(actions[k], v) for k, v in cfg.items() if k in actions})
        args = parser.parse_args(argv)
        return args.func(args)
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
