"""Command-line tests, run in-process through main(argv)."""

import json
import re

import numpy as np
import pytest

import qcr.cli as cli
from qcr.certificate import verify_certificate
from qcr.cli import _BOOLEANS, _float_list, _int_list, build_parser, main
from qcr.experiments import PHASE_GRID, SIZE_GRID, RecoveryGrid
from qcr.fileio import read_instance, read_result, write_matrix_csv, write_report
from qcr.instances import derive_seed
from qcr.solver import QuasiCliqueParams, solve_quasi_clique, solve_rpca


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


GEN = ("gen", "--n", "30", "--nc", "22", "--gamma", "0.9", "--rho", "0.1", "--seed", "4")


# ---------------------------------------------------------------- gen


def test_gen_writes_instance_and_summary(tmp_chdir, capsys):
    rc, out, _ = run(capsys, *GEN, "--out", "inst.txt")
    assert rc == 0
    inst = read_instance(str(tmp_chdir / "inst.txt"))
    assert "n=30" in out
    assert f"|gamma_support|={np.count_nonzero(inst.B0)} |noise_support|={len(inst.noise_support)}" in out


def test_gen_deterministic(tmp_chdir, capsys):
    run(capsys, *GEN, "--out", "a.txt")
    run(capsys, *GEN, "--out", "b.txt")
    assert (tmp_chdir / "a.txt").read_bytes() == (tmp_chdir / "b.txt").read_bytes()


def test_gen_invalid_block_size(tmp_chdir, capsys):
    rc, _, err = run(capsys, "gen", "--n", "50", "--nc", "60", "--gamma", "0.9", "--rho", "0.1")
    assert rc == 2
    assert "n_c" in err


def test_gen_missing_required(tmp_chdir, capsys):
    rc, _, err = run(capsys, "gen", "--n", "50")
    assert rc == 2
    assert "--nc" in err


# ---------------------------------------------------------------- solve


def test_solve_reports_recovery(tmp_chdir, capsys):
    run(capsys, *GEN, "--out", "inst.txt")
    rc, out, _ = run(capsys, "solve", "--input", "inst.txt", "--out", "res.json")
    assert rc == 0
    assert "verdict: recovered" in out
    doc = read_result("res.json")
    assert doc["converged"] is True
    assert doc["recovery"] is True
    assert doc["instance"]["n"] == 30


def test_solve_defaults_match_library(tmp_chdir, capsys):
    run(capsys, *GEN, "--out", "inst.txt")
    rc, _, _ = run(capsys, "solve", "--input", "inst.txt", "--out", "res.json")
    assert rc == 0
    doc = read_result("res.json")
    res = solve_rpca(read_instance("inst.txt").A)
    assert doc["iterations"] == res.iterations
    assert doc["objective"] == res.objective
    assert np.array_equal(np.array(doc["B_star"]), res.B_star)


def test_solve_nonconvergence_exit4_still_writes(tmp_chdir, capsys):
    run(capsys, *GEN, "--out", "inst.txt")
    rc, out, _ = run(capsys, "solve", "--input", "inst.txt", "--max-iters", "2", "--out", "res.json")
    assert rc == 4
    doc = read_result("res.json")
    assert doc["converged"] is False
    assert doc["iterations"] == 2


def test_solve_reports_final_penalty(tmp_chdir, capsys):
    run(capsys, *GEN, "--out", "inst.txt")
    rc, out, _ = run(capsys, "solve", "--input", "inst.txt", "--mode", "quasi_clique", "--out", "res.json")
    assert rc == 0
    doc = read_result("res.json")
    res = solve_quasi_clique(read_instance("inst.txt").A, QuasiCliqueParams(gamma=0.9, eta=22))
    assert doc["final_penalty"] == res.final_penalty
    assert list(doc)[3:5] == ["iterations", "final_penalty"]
    assert f"final_penalty={res.final_penalty:.6g}" in out


def test_solve_rejects_nonpositive_lambda(tmp_chdir, capsys):
    run(capsys, *GEN, "--out", "inst.txt")
    for lam in ("0", "inf", "nan"):
        rc, _, err = run(capsys, "solve", "--input", "inst.txt", "--lambda", lam)
        assert rc == 2
        assert "lam must be positive" in err


@pytest.mark.parametrize("growth", ["inf", "nan"])
def test_solve_rejects_nonfinite_mu_growth(tmp_chdir, capsys, growth):
    run(capsys, *GEN, "--out", "inst.txt")
    rc, _, err = run(capsys, "solve", "--input", "inst.txt", "--mu-growth", growth)
    assert rc == 2
    assert "mu_growth must be finite" in err


def test_solve_quasi_clique_defaults_from_instance(tmp_chdir, capsys):
    run(capsys, *GEN, "--out", "inst.txt")
    rc, out, _ = run(
        capsys, "solve", "--input", "inst.txt", "--mode", "quasi_clique", "--out", "res.json"
    )
    assert rc == 0
    assert "quasi_clique_constrained" in out
    assert read_result("res.json")["mode"] == "quasi_clique_constrained"


def test_solve_quasi_clique_converges_on_the_slow_tail_instance(tmp_chdir, capsys):
    # the residual falls on a slow linear tail here; the growing penalty
    # takes it below the tolerance in under half the iteration budget
    run(capsys, "gen", "--n", "40", "--nc", "30", "--gamma", "0.7", "--rho", "0.3", "--seed", "1",
        "--out", "inst.txt")
    rc, _, _ = run(capsys, "solve", "--input", "inst.txt", "--mode", "quasi_clique", "--out", "res.json")
    assert rc == 0
    doc = read_result("res.json")
    assert doc["converged"] is True
    assert doc["primal_residual"] <= 1e-8
    assert doc["iterations"] < 1000
    assert doc["objective"] == pytest.approx(100.87971, abs=5e-6)


def test_solve_quasi_clique_rejects_a_matrix_that_is_not_0_1(tmp_chdir, capsys):
    M = np.ones((6, 6))
    M[0, 1] = M[1, 0] = 0.5
    write_matrix_csv(M, "m.csv")
    rc, _, err = run(capsys, "solve", "--input", "m.csv", "--mode", "quasi_clique",
                     "--gamma", "0.5", "--eta", "4")
    assert rc == 2
    assert "0/1 matrix" in err
    assert not (tmp_chdir / "result.json").exists()


def test_solve_quasi_clique_on_csv_needs_eta(tmp_chdir, capsys):
    write_matrix_csv(np.eye(8), "m.csv")
    rc, _, err = run(capsys, "solve", "--input", "m.csv", "--mode", "quasi_clique")
    assert rc == 2
    assert "--gamma" in err or "--eta" in err


def test_solve_csv_matrix_has_no_verdict(tmp_chdir, capsys):
    write_matrix_csv(np.eye(8), "m.csv")
    rc, out, _ = run(capsys, "solve", "--input", "m.csv", "--out", "res.json")
    assert rc == 0
    assert "verdict" not in out
    assert "recovery" not in read_result("res.json")


@pytest.mark.parametrize("command", ["solve", "certify", "norms"])
@pytest.mark.parametrize("name, content, where", [
    ("inst.txt", "3 2 0.9 0.1 0\n0 1 1\n1 0 nan\n", "inst.txt: non-finite value in triplet line '1 0 nan'"),
    ("m.csv", "0,1,0\n1,0,1\n0,inf,0\n", "m.csv:3: non-finite entry"),
], ids=["txt", "csv"])
def test_nonfinite_data_file_exit3(tmp_chdir, capsys, command, name, content, where):
    (tmp_chdir / name).write_text(content)
    rc, _, err = run(capsys, command, "--input", name)
    assert rc == 3
    assert where in err


def test_solve_missing_input_exit3(tmp_chdir, capsys):
    rc, _, err = run(capsys, "solve", "--input", "absent.txt")
    assert rc == 3


# ---------------------------------------------------------------- certify


def test_certify_exit_matches_overall(tmp_chdir, capsys):
    run(capsys, *GEN, "--out", "inst.txt")
    rc, out, _ = run(capsys, "certify", "--input", "inst.txt", "--out", "rep.json")
    doc = json.loads(open("rep.json").read())
    assert rc == (0 if doc["overall"] else 1)
    assert out.count("PASS") + out.count("FAIL") == 7
    assert f"overall: {doc['overall']}" in out


def test_certify_prints_condition_margins(tmp_chdir, capsys):
    run(capsys, *GEN, "--out", "inst.txt")
    _, out, _ = run(capsys, "certify", "--input", "inst.txt", "--out", "rep.json")
    doc = json.loads(open("rep.json").read())
    printed = re.findall(r"\(margin (\S+)\)$", out, re.MULTILINE)
    assert printed == [f"{m:.6f}" for m in doc["margins"]]
    assert len(printed) == 5


def test_certify_prints_the_linf2_norms_of_the_report(tmp_chdir, capsys):
    run(capsys, *GEN, "--out", "inst.txt")
    _, out, _ = run(capsys, "certify", "--input", "inst.txt", "--out", "rep.json")
    doc = json.loads(open("rep.json").read())
    (line,) = [ln for ln in out.splitlines() if ln.startswith("l_inf,2 norms")]
    printed = re.findall(r"(?:Q_B|Q_C|Q_B \+ Q_C) (\S+?)(?:,|$)", line)
    assert printed == [f"{doc[k]:.6f}" for k in ("linf2_QB", "linf2_QC", "linf2_Q")]


def test_certify_defaults_match_library(tmp_chdir, capsys):
    run(capsys, *GEN, "--out", "inst.txt")
    run(capsys, "certify", "--input", "inst.txt", "--out", "cli.json")
    write_report(verify_certificate(read_instance("inst.txt")), "lib.json")
    assert (tmp_chdir / "cli.json").read_bytes() == (tmp_chdir / "lib.json").read_bytes()


def test_certify_requires_ground_truth(tmp_chdir, capsys):
    write_matrix_csv(np.eye(8), "m.csv")
    rc, _, err = run(capsys, "certify", "--input", "m.csv")
    assert rc == 2
    assert "ground truth" in err


def test_certify_divergence_exit5(tmp_chdir, capsys):
    run(capsys, "gen", "--n", "40", "--nc", "30", "--gamma", "0.85", "--rho", "0.15",
        "--seed", "2", "--out", "d.txt")
    # a tiny rank cut keeps the full sampled-block spectrum, making the
    # support/tangent operator norm reach 1
    rc, _, err = run(capsys, "certify", "--input", "d.txt", "--rank-tol", "1e-12")
    assert rc == 5
    assert "does not converge" in err


def test_certify_divergence_exit5_at_the_default_rank_cut(tmp_chdir, capsys):
    # the rho = 0.95 instance of seed derive_seed(1000, 0), where
    # ||P_Gamma P_T|| = 1 and the power iteration reads 0.99998
    run(capsys, "gen", "--n", "100", "--nc", "85", "--gamma", "0.85", "--rho", "0.95",
        "--seed", str(derive_seed(1000, 0)), "--out", "d.txt")
    rc, _, err = run(capsys, "certify", "--input", "d.txt", "--out", "rep.json")
    assert rc == 5
    assert "does not converge" in err
    assert not (tmp_chdir / "rep.json").exists()


def test_certify_flags_forwarded(tmp_chdir, capsys):
    run(capsys, *GEN, "--out", "inst.txt")
    rc, _, _ = run(
        capsys, "certify", "--input", "inst.txt", "--k0", "8", "--p", "0.5",
        "--cert-seed", "3", "--out", "rep.json",
    )
    doc = json.loads(open("rep.json").read())
    assert doc["config"] == {"k0": 8, "q": pytest.approx(1 - 0.5 ** (1 / 8)), "p": 0.5, "seed": 3}


@pytest.mark.parametrize("lam", ["0", "inf", "nan"])
def test_certify_rejects_invalid_lambda(tmp_chdir, capsys, lam):
    run(capsys, *GEN, "--out", "inst.txt")
    rc, _, err = run(capsys, "certify", "--input", "inst.txt", "--lambda", lam)
    assert rc == 2
    assert "lam must be positive" in err


def test_certify_k0_zero_exit2(tmp_chdir, capsys):
    run(capsys, *GEN, "--out", "inst.txt")
    rc, _, err = run(capsys, "certify", "--input", "inst.txt", "--k0", "0")
    assert rc == 2
    assert "k0 must be >= 1, got 0" in err


@pytest.mark.parametrize("c0", ["nan", "inf", "-1", "0"])
def test_certify_rejects_invalid_c0(tmp_chdir, capsys, c0):
    run(capsys, *GEN, "--out", "inst.txt")
    rc, _, err = run(capsys, "certify", "--input", "inst.txt", "--c0", c0, "--out", "rep.json")
    assert rc == 2
    assert "regime_c0 must be positive and finite" in err
    assert not (tmp_chdir / "rep.json").exists()


def test_certify_single_vertex_default_k0(tmp_chdir, capsys):
    # log(1) = 0, so the default schedule must still hold one round of batches
    run(capsys, "gen", "--n", "1", "--nc", "1", "--gamma", "1", "--rho", "0", "--out", "inst.txt")
    rc, out, _ = run(capsys, "certify", "--input", "inst.txt", "--out", "rep.json")
    doc = json.loads(open("rep.json").read())
    assert doc["config"]["k0"] == 20
    assert len(doc["golfing_trace"]) == 20 + 1
    # lambda defaults to 1/sqrt(1) = 1, which the lambda gate rejects
    assert doc["lambda"] == 1.0
    assert "[FAIL] lambda" in out
    assert not doc["overall"]
    assert rc == 1


# ---------------------------------------------------------------- norms


def test_norms_prints_all_kinds(tmp_chdir, capsys):
    write_matrix_csv(np.array([[3.0, 4.0], [0.0, 0.0]]), "m.csv")
    rc, out, _ = run(capsys, "norms", "--input", "m.csv")
    assert rc == 0
    lines = dict(ln.split(" = ") for ln in out.strip().splitlines())
    assert set(lines) == {"nuclear", "spectral", "frobenius", "l1", "linf", "linf2"}
    assert float(lines["l1"]) == 7.0
    assert abs(float(lines["nuclear"]) - 5.0) < 1e-9


# ---------------------------------------------------------------- grid


GRID = (
    "grid", "--kind", "phase", "--trials", "2", "--gammas", "0.9,1.0", "--rhos", "0.1",
    "--n", "30", "--nc", "22",
)


def test_grid_writes_all_artifacts(tmp_chdir, capsys):
    rc, out, _ = run(capsys, *GRID, "--out-dir", "res", "--prefix", "ph")
    assert rc == 0
    manifest = json.loads((tmp_chdir / "res" / "ph_manifest.json").read_text())
    assert manifest["complete"] is True
    assert manifest["spec"]["trials"] == 2
    assert (tmp_chdir / "res" / "ph.csv").exists()
    assert (tmp_chdir / "res" / "ph.pgm").exists()


def test_grid_rerun_byte_identical_data(tmp_chdir, capsys):
    run(capsys, *GRID, "--out-dir", "a")
    run(capsys, *GRID, "--out-dir", "b")
    assert (tmp_chdir / "a/phase_grid.csv").read_bytes() == (tmp_chdir / "b/phase_grid.csv").read_bytes()
    assert (tmp_chdir / "a/phase_grid.pgm").read_bytes() == (tmp_chdir / "b/phase_grid.pgm").read_bytes()


@pytest.mark.parametrize("kind, runner, expected", [
    ("size", "run_size_grid", SIZE_GRID),
    ("phase", "run_phase_grid", PHASE_GRID),
])
def test_grid_defaults_are_library_grids(tmp_chdir, capsys, monkeypatch, kind, runner, expected):
    seen = []

    def fake_runner(spec, threads=None):
        seen.append(spec)
        shape = (len(spec.axis1_values), len(spec.axis2_values))
        zeros, counts = np.zeros(shape), np.zeros(shape, dtype=int)
        return RecoveryGrid(spec, zeros, zeros, zeros, counts, counts, counts)

    monkeypatch.setattr(f"qcr.cli.{runner}", fake_runner)
    rc, _, _ = run(capsys, "grid", "--kind", kind)
    assert rc == 0
    assert seen == [expected]


def test_grid_trials_zero_rejected(tmp_chdir, capsys):
    rc, _, err = run(capsys, *GRID[:3], "--trials", "0")
    assert rc == 2
    assert "trials" in err


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_grid_threads_below_one_exit2(tmp_chdir, capsys, threads):
    rc, _, err = run(capsys, *GRID, "--threads", threads, "--out-dir", "res")
    assert rc == 2
    assert f"threads must be >= 1, got {threads}" in err
    assert not (tmp_chdir / "res").exists()


@pytest.mark.parametrize("flags, message", [
    (("--kind", "phase", "--n", "30", "--nc", "40", "--gammas", "0.9", "--rhos", "0.1"), "n_c must satisfy"),
    (("--kind", "phase", "--n", "30", "--nc", "22", "--gammas", "1.5", "--rhos", "0.1"), "gamma must lie"),
    (("--kind", "size", "--n-list", "20", "--fractions", "1.5"), "n_c must satisfy"),
])
def test_grid_invalid_cell_exit2_writes_nothing(tmp_chdir, capsys, flags, message):
    rc, _, err = run(capsys, "grid", *flags, "--trials", "1", "--out-dir", "res")
    assert rc == 2
    assert message in err
    assert not (tmp_chdir / "res").exists()


def test_grid_unknown_kind_usage_error(tmp_chdir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["grid", "--kind", "banana"])
    assert exc.value.code == 2


# ---------------------------------------------------------------- config file


@pytest.mark.parametrize("command, out", [("solve", "res.json"), ("certify", "rep.json")])
def test_config_file_lambda_key(tmp_chdir, capsys, command, out):
    # the config key of --lambda is its flag name, lambda
    run(capsys, *GEN, "--out", "inst.txt")
    (tmp_chdir / "run.cfg").write_text("lambda = 0.3\n")
    run(capsys, "--config", "run.cfg", command, "--input", "inst.txt", "--out", out)
    assert json.loads(open(out).read())["lambda"] == 0.3


def test_config_file_supplies_defaults_flags_override(tmp_chdir, capsys):
    (tmp_chdir / "run.cfg").write_text(
        "n = 30\nnc = 22\ngamma = 0.9\nrho = 0.1\nseed = 4\nout = from_cfg.txt\n"
    )
    rc, _, _ = run(capsys, "--config", "run.cfg", "gen")
    assert rc == 0
    assert (tmp_chdir / "from_cfg.txt").exists()

    rc, _, _ = run(capsys, "--config", "run.cfg", "gen", "--out", "override.txt", "--seed", "9")
    assert rc == 0
    a = (tmp_chdir / "from_cfg.txt").read_text()
    b = (tmp_chdir / "override.txt").read_text()
    assert a.splitlines()[0].endswith(" 4")
    assert b.splitlines()[0].endswith(" 9")


@pytest.mark.parametrize("cfg_line, flags, has_matrices", [
    ("include_matrices = true\n", (), True),
    ("include_matrices = false\n", (), False),
    ("include_matrices = false\n", ("--include-matrices",), True),
])
def test_config_file_include_matrices(tmp_chdir, capsys, cfg_line, flags, has_matrices):
    run(capsys, *GEN, "--out", "inst.txt")
    (tmp_chdir / "run.cfg").write_text(cfg_line)
    run(capsys, "--config", "run.cfg", "certify", "--input", "inst.txt", *flags, "--out", "rep.json")
    doc = json.loads(open("rep.json").read())
    assert ("Q_B" in doc) is has_matrices
    assert ("Q_C" in doc) is has_matrices


@pytest.mark.parametrize("text, has_matrices", [
    ("TRUE", True), ("Yes", True), ("1", True), ("False", False), ("no", False), ("0", False),
])
def test_config_file_boolean_spellings(tmp_chdir, capsys, text, has_matrices):
    run(capsys, *GEN, "--out", "inst.txt")
    (tmp_chdir / "run.cfg").write_text(f"include_matrices = {text}\n")
    rc, _, _ = run(capsys, "--config", "run.cfg", "certify", "--input", "inst.txt", "--out", "rep.json")
    assert rc in (0, 1)
    assert ("Q_B" in json.loads(open("rep.json").read())) is has_matrices


def test_config_file_bad_boolean_exit2(tmp_chdir, capsys):
    run(capsys, *GEN, "--out", "inst.txt")
    (tmp_chdir / "run.cfg").write_text("include_matrices = ture\n")
    rc, _, err = run(capsys, "--config", "run.cfg", "certify", "--input", "inst.txt", "--out", "rep.json")
    assert rc == 2
    assert "'include_matrices'" in err and "'ture'" in err
    assert not (tmp_chdir / "rep.json").exists()


@pytest.mark.parametrize("line, message", [
    ("max_iters = abc", "config key 'max_iters' must be an integer, got 'abc'"),
    ("tol = abc", "config key 'tol' must be a float, got 'abc'"),
])
def test_config_file_bad_number_names_key_exit2(tmp_chdir, capsys, line, message):
    run(capsys, *GEN, "--out", "inst.txt")
    (tmp_chdir / "run.cfg").write_text(line + "\n")
    rc, _, err = run(capsys, "--config", "run.cfg", "solve", "--input", "inst.txt", "--out", "res.json")
    assert rc == 2
    assert message in err
    assert not (tmp_chdir / "res.json").exists()


def test_config_file_unknown_key_exit2(tmp_chdir, capsys):
    run(capsys, *GEN, "--out", "inst.txt")
    (tmp_chdir / "run.cfg").write_text("lam = 0.3\n")
    rc, _, err = run(capsys, "--config", "run.cfg", "solve", "--input", "inst.txt", "--out", "res.json")
    assert rc == 2
    assert "unknown config key 'lam'" in err
    assert not (tmp_chdir / "res.json").exists()


def test_config_file_other_subcommand_keys_ignored(tmp_chdir, capsys):
    # nc and rho are gen's keys and include_matrices is certify's; solve reads none
    run(capsys, *GEN, "--out", "inst.txt")
    (tmp_chdir / "run.cfg").write_text("nc = 5\nrho = 0.9\ninclude_matrices = yes\n")
    rc, _, _ = run(capsys, "--config", "run.cfg", "solve", "--input", "inst.txt", "--out", "res.json")
    assert rc == 0
    assert "Q_B" not in json.loads(open("res.json").read())


def test_config_file_bad_line_exit2(tmp_chdir, capsys):
    (tmp_chdir / "run.cfg").write_text("nonsense\n")
    rc, _, err = run(capsys, "--config", "run.cfg", "gen")
    assert rc == 2


def test_config_file_missing_exit3(tmp_chdir, capsys):
    rc, _, err = run(capsys, "--config", "absent.cfg", "gen")
    assert rc == 3


# ------------------------------------------------- one declaration per option


COMMANDS = build_parser().get_default("commands")

# texts each flag type reads; a flag with choices reads each choice
_TEXTS = {
    int: ("7", "-3"),
    float: ("0.25", "1e-3"),
    _int_list: ("10,20", "5"),
    _float_list: ("0.5,0.75", "1"),
    None: ("some.txt",),
}


def _option_cases():
    for name, command in COMMANDS.items():
        for action in command._actions:
            if action.dest == "help":
                continue
            if action.nargs == 0:
                texts = tuple(_BOOLEANS) + ("TRUE", "No")
            else:
                texts = action.choices or _TEXTS[action.type]
            for text in texts:
                yield pytest.param(name, action, text, id=f"{name}-{action.dest}-{text}")


@pytest.fixture
def parsed(monkeypatch):
    """Replace every subcommand handler by one that records its arguments."""
    seen = []

    def record(args):
        seen.append(args)
        return 0

    for name in COMMANDS:
        monkeypatch.setattr(cli, f"cmd_{name}", record)
    return seen


@pytest.mark.parametrize("command, action, text", list(_option_cases()))
def test_config_value_reads_as_its_flag(tmp_chdir, parsed, command, action, text):
    flag = action.option_strings[0]
    if action.nargs == 0:
        argv = [command, flag] if _BOOLEANS[text.lower()] else [command]
    else:
        argv = [command, flag, text]
    (tmp_chdir / "run.cfg").write_text(f"{action.dest} = {text}\n")
    assert main(["--config", "run.cfg", command]) == 0
    assert main(argv) == 0
    from_config, from_flag = parsed
    assert getattr(from_config, action.dest) == getattr(from_flag, action.dest)


@pytest.mark.parametrize("command, line", [("solve", "mode = banana"), ("grid", "kind = banana")])
def test_config_file_bad_choice_names_key_exit2(tmp_chdir, capsys, parsed, command, line):
    (tmp_chdir / "run.cfg").write_text(line + "\n")
    rc, _, err = run(capsys, "--config", "run.cfg", command)
    assert rc == 2
    assert line.split()[0] in err and "'banana'" in err
    assert parsed == []


def test_config_defaults_do_not_carry_into_the_next_call(tmp_chdir, parsed):
    (tmp_chdir / "run.cfg").write_text("seed = 9\nout = cfg.txt\n")
    main(["--config", "run.cfg", "gen"])
    main(["gen"])
    assert [(args.seed, args.out) for args in parsed] == [(9, "cfg.txt"), (0, "instance.txt")]
