"""File format tests: instance text round-trips, CSV matrices, JSON result
and report documents, config parsing."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcr.certificate import verify_certificate
from qcr.fileio import (
    MATRIX_INLINE_LIMIT,
    FileFormatError,
    parse_config_file,
    read_instance,
    read_matrix_any,
    read_matrix_csv,
    write_instance,
    write_matrix_csv,
    write_report,
    write_result,
)
from qcr.instances import InstanceParams, gen_planted
from qcr.solver import DecompositionResult, solve_rpca

from conftest import (
    read_instance_reference,
    rng,
    write_json_reference,
    write_matrix_csv_reference,
)


def make_inst(seed=5):
    return gen_planted(InstanceParams(n=20, n_c=14, gamma=0.85, rho=0.2, seed=seed))


# ---------------------------------------------------------------- instances


def test_instance_round_trip_exact(tmp_path):
    inst = make_inst()
    path = str(tmp_path / "inst.txt")
    write_instance(inst, path)
    back = read_instance(path)
    assert back.params == inst.params
    assert np.array_equal(back.A, inst.A)
    assert np.array_equal(back.B0, inst.B0)
    assert np.array_equal(back.C0, inst.C0)
    assert np.array_equal(back._block(), inst._block())
    assert np.array_equal(back.B0 != 0, inst.B0 != 0)
    assert np.array_equal(back.noise_support.mask, inst.noise_support.mask)


def test_instance_rewrites_byte_identical(tmp_path):
    inst = make_inst()
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    write_instance(inst, a)
    write_instance(read_instance(a), b)
    assert open(a, "rb").read() == open(b, "rb").read()


def test_instance_file_shape(tmp_path):
    inst = make_inst()
    path = tmp_path / "inst.txt"
    write_instance(inst, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "20 14 0.85 0.2 5"
    assert len(lines) == 1 + np.count_nonzero(inst.A)
    i, j, v = lines[1].split()
    assert inst.A[int(i), int(j)] == float(v)


def test_regenerate_matches_read(tmp_path):
    inst = make_inst()
    path = str(tmp_path / "inst.txt")
    write_instance(inst, path)
    back = read_instance(path)
    assert np.array_equal(gen_planted(back.params).A, inst.A)


@pytest.mark.parametrize(
    "content",
    [
        "",
        "20 14 0.85\n",
        "20 14 0.85 0.2 x\n",
        "20 14 0.85 0.2 5\n0 1\n",
        "20 14 0.85 0.2 5\n0 1 fish\n",
        "20 14 0.85 0.2 5\n0 25 1\n",
        "20 14 0.85 0.2 5\n0 1 nan\n",
        "20 14 0.85 0.2 5\n0 1 -inf\n",
        "0 0 0.85 0.2 5\n",
    ],
)
def test_instance_malformed_rejected(tmp_path, content):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(FileFormatError):
        read_instance(str(path))


def test_instance_comments_and_blanks_ignored(tmp_path):
    inst = make_inst()
    path = tmp_path / "inst.txt"
    write_instance(inst, str(path))
    decorated = "# planted instance\n\n" + path.read_text()
    path.write_text(decorated)
    assert np.array_equal(read_instance(str(path)).A, inst.A)


HEADER = "20 14 0.85 0.2 5\n"


@pytest.mark.parametrize(
    "content",
    [
        HEADER + "2 3 1\n0 1\n4 5 1\n",
        HEADER + "2 3 1\n0 1 1 1\n4 5 1\n",
        HEADER + "2 3 1\n1.0 1 1\n4 5 1\n",
        HEADER + "2 3 1\n1_0 1 1\n4 5 1\n",
        HEADER + "2 3 1\n+1 1 1\n4 5 1\n",
        HEADER + "2 3 1\n0 1 nan\n4 5 1\n",
        HEADER + "2 3 1\n0 1 inf\n4 5 1\n",
        HEADER + "2 3 1\n0 1 1e400\n4 5 1\n",
        HEADER + "2 3 1\n-1 0 1\n4 5 1\n",
        HEADER + "2 3 1\n0 20 1\n4 5 1\n",
        "# instance\n\n   \n# of qcr\n" + HEADER + "\n2 3 1\n# x\n4 5 1\n",
        HEADER + "2 3 1\n0 1 1 # x\n4 5 1\n",
        HEADER + "0 1 1\n2 3 1\n0 1 0.5\n4 5 0.25\n",
        HEADER + "2 3 1\r\n0 1 1\r4\x0c5 0.5\x85\n",
        HEADER,
    ],
    ids=[
        "2-tokens", "4-tokens", "float-index", "underscore-index", "plus-index",
        "nan", "inf", "overflow", "index-minus-1", "index-n", "comment-lines",
        "trailing-comment", "repeated-coordinate", "line-breaks", "header-only",
    ],
)
def test_instance_parse_matches_line_by_line_reference(tmp_path, content):
    path = tmp_path / "inst.txt"
    path.write_text(content)
    try:
        want = read_instance_reference(str(path))
    except FileFormatError as exc:
        with pytest.raises(FileFormatError) as got:
            read_instance(str(path))
        assert str(got.value) == str(exc)
        return
    back = read_instance(str(path))
    assert back.params == want.params
    assert np.array_equal(back.A, want.A)


def test_instance_missing_file_oserror(tmp_path):
    with pytest.raises(OSError):
        read_instance(str(tmp_path / "absent.txt"))


# ---------------------------------------------------------------- matrices


def test_matrix_csv_round_trip(tmp_path):
    M = rng(3).standard_normal((7, 7))
    path = str(tmp_path / "m.csv")
    write_matrix_csv(M, path)
    assert np.array_equal(read_matrix_csv(path), M)


def test_matrix_csv_ragged_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(FileFormatError):
        read_matrix_csv(str(path))
    path.write_text("1.0,two\n")
    with pytest.raises(FileFormatError):
        read_matrix_csv(str(path))
    path.write_text("1.0,nan\n")
    with pytest.raises(FileFormatError):
        read_matrix_csv(str(path))
    path.write_text("\n")
    with pytest.raises(FileFormatError):
        read_matrix_csv(str(path))


def test_read_matrix_any_dispatch(tmp_path):
    inst = make_inst()
    ipath = str(tmp_path / "inst.txt")
    write_instance(inst, ipath)
    A, got = read_matrix_any(ipath)
    assert got is not None and np.array_equal(A, inst.A)

    M = np.eye(3)
    cpath = str(tmp_path / "m.csv")
    write_matrix_csv(M, cpath)
    M2, none = read_matrix_any(cpath)
    assert none is None and np.array_equal(M2, M)


# ---------------------------------------------------------------- results


def test_result_json_round_trip(tmp_path):
    inst = make_inst()
    res = solve_rpca(inst.A)
    path = str(tmp_path / "res.json")
    write_result(res, path, lam=0.2, mode="plain_decomposition", extras={"recovery": True})
    doc = json.loads(open(path).read())
    assert doc["mode"] == "plain_decomposition"
    assert doc["lambda"] == 0.2
    assert doc["n"] == 20
    assert doc["converged"] is True
    assert doc["recovery"] is True
    assert np.allclose(np.asarray(doc["B_star"]), res.B_star)
    assert np.allclose(np.asarray(doc["C_star"]), res.C_star)


def awkward_matrix(n, seed):
    """Normal entries with -0.0, 1e-300, 1e16 and integral floats mixed in."""
    M = rng(seed).standard_normal((n, n))
    M.flat[: min(6, n * n)] = [-0.0, 1e-300, 1e16, 3.0, -2.0, 0.0][: min(6, n * n)]
    return M


@pytest.mark.parametrize("n", [1, 3, 40])
def test_result_bytes_match_json_dump(tmp_path, n):
    B, C = awkward_matrix(n, 10 + n), awkward_matrix(n, 20 + n)
    res = DecompositionResult(
        B, C, iterations=7, primal_residual=1e-9, objective=12.0, converged=True, final_penalty=0.375
    )
    path = tmp_path / "res.json"
    write_result(res, str(path), lam=0.25, mode="plain_decomposition", extras={"recovery": False, "x": -0.0})
    doc = {
        "mode": "plain_decomposition", "lambda": 0.25, "n": n, "iterations": 7, "final_penalty": 0.375,
        "primal_residual": 1e-9, "objective": 12.0, "converged": True,
        "recovery": False, "x": -0.0, "B_star": B.tolist(), "C_star": C.tolist(),
    }
    assert path.read_text() == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("n", [1, 3, 40])
def test_report_bytes_match_json_dump(tmp_path, n):
    inst = gen_planted(InstanceParams(n=30, n_c=24, gamma=0.85, rho=0.1, seed=2))
    rep = dataclasses.replace(verify_certificate(inst), Q_B=awkward_matrix(n, 30 + n), Q_C=awkward_matrix(n, 40 + n))
    plain, full = tmp_path / "plain.json", tmp_path / "full.json"
    write_report(rep, str(plain))
    write_report(rep, str(full), include_matrices=True)
    doc = json.loads(plain.read_text())
    assert plain.read_text() == json.dumps(doc, indent=2) + "\n"
    doc.update(Q_B=rep.Q_B.tolist(), Q_C=rep.Q_C.tolist())
    assert full.read_text() == json.dumps(doc, indent=2) + "\n"


def symmetric(M):
    """M's upper triangle mirrored into its lower one, bit for bit."""
    S = np.triu(M)
    lower = np.tril_indices(M.shape[0], -1)
    S[lower] = S.T[lower]
    return S


def writer_matrices():
    """Matrices whose rows the writers must spell as one float.__repr__ per
    entry would, by name."""
    g = rng(70)
    signed_zeros = symmetric(g.standard_normal((5, 5)))
    signed_zeros[1, 3], signed_zeros[3, 1] = 0.0, -0.0
    assert np.array_equal(signed_zeros, signed_zeros.T)
    tiny = np.array([5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, -1e-310])
    subnormals = symmetric(np.resize(tiny, (6, 6)) * g.integers(1, 4, (6, 6)))
    switch = np.array([1e16, 9999999999999998.0, 1e-05, 0.0001, -1e16, -1e-05])
    switch = np.concatenate((switch, np.nextafter(switch, 0.0), np.nextafter(switch, np.inf)))
    repeated = symmetric(g.integers(0, 3, (9, 9)).astype(float))
    return {
        "signed zeros": signed_zeros,
        "subnormals": subnormals,
        "repr switch points": np.resize(switch, (6, 6)),
        "1x1": np.array([[-0.0]]),
        "not symmetric": g.standard_normal((4, 4)),
        "symmetric normal": symmetric(g.standard_normal((8, 8))),
        "symmetric few values": repeated,
        "float32": symmetric(g.standard_normal((5, 5))).astype(np.float32),
        "fortran order": np.asfortranarray(g.standard_normal((4, 4))),
    }


@pytest.mark.parametrize("name", list(writer_matrices()))
def test_result_bytes_match_one_repr_per_entry(tmp_path, name):
    B = writer_matrices()[name]
    C = -B[::-1]
    res = DecompositionResult(
        B, C, iterations=3, primal_residual=1e-9, objective=2.0, converged=True, final_penalty=0.5
    )
    got, ref = tmp_path / "got.json", tmp_path / "ref.json"
    write_result(res, str(got), lam=0.25, mode="plain_decomposition", extras={"recovery": True})
    doc = {
        "mode": "plain_decomposition", "lambda": 0.25, "n": B.shape[0], "iterations": 3,
        "final_penalty": 0.5, "primal_residual": 1e-9, "objective": 2.0, "converged": True,
        "recovery": True, "B_star": B, "C_star": C,
    }
    write_json_reference(doc, str(ref))
    assert got.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("name", list(writer_matrices()))
def test_report_matrices_bytes_match_one_repr_per_entry(tmp_path, name):
    inst = gen_planted(InstanceParams(n=30, n_c=24, gamma=0.85, rho=0.1, seed=2))
    M = writer_matrices()[name]
    rep = dataclasses.replace(verify_certificate(inst), Q_B=M, Q_C=M.T)
    got, ref = tmp_path / "got.json", tmp_path / "ref.json"
    write_report(rep, str(got), include_matrices=True)
    doc = json.loads(got.read_text())
    doc.update(Q_B=rep.Q_B, Q_C=rep.Q_C)
    write_json_reference(doc, str(ref))
    assert got.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("name", list(writer_matrices()) + ["non-finite"])
def test_matrix_csv_bytes_match_one_repr_per_entry(tmp_path, name):
    if name == "non-finite":
        M = symmetric(np.resize([np.nan, np.inf, -np.inf, 1.5, -0.0], (5, 5)))
    else:
        M = writer_matrices()[name]
    got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
    write_matrix_csv(M, str(got))
    write_matrix_csv_reference(M, str(ref))
    assert got.read_bytes() == ref.read_bytes()


def test_result_sidecar_bytes_match_one_repr_per_entry(tmp_path, monkeypatch):
    import qcr.fileio as fileio

    monkeypatch.setattr(fileio, "MATRIX_INLINE_LIMIT", 4)
    B = writer_matrices()["signed zeros"]
    C = writer_matrices()["repr switch points"][:5, :5]
    res = DecompositionResult(
        B, C, iterations=3, primal_residual=1e-9, objective=2.0, converged=False, final_penalty=0.5
    )
    path = str(tmp_path / "res.json")
    write_result(res, path, lam=0.25, mode="quasi_clique")
    for tag, M in (("B_star", B), ("C_star", C)):
        write_matrix_csv_reference(M, str(tmp_path / f"{tag}.ref.csv"))
        assert (tmp_path / f"res.json.{tag}.csv").read_bytes() == (tmp_path / f"{tag}.ref.csv").read_bytes()
    doc = {
        "mode": "quasi_clique", "lambda": 0.25, "n": 5, "iterations": 3, "final_penalty": 0.5,
        "primal_residual": 1e-9, "objective": 2.0, "converged": False,
        "B_star_path": f"{path}.B_star.csv", "C_star_path": f"{path}.C_star.csv",
    }
    write_json_reference(doc, str(tmp_path / "ref.json"))
    assert (tmp_path / "res.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


@pytest.mark.parametrize("block", [1, 7, 20])
@pytest.mark.parametrize("name", list(writer_matrices()) + ["wide", "tall"])
def test_matrix_csv_bytes_match_one_repr_per_entry_in_small_blocks(tmp_path, monkeypatch, name, block):
    import qcr.fileio as fileio

    monkeypatch.setattr(fileio, "_FORMAT_BLOCK", block)
    if name in ("wide", "tall"):
        M = rng(71).integers(-2, 3, (3, 8)).astype(float)
        M = M.T if name == "tall" else M
    else:
        M = writer_matrices()[name]
    got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
    write_matrix_csv(M, str(got))
    write_matrix_csv_reference(M, str(ref))
    assert got.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("mirror", [False, True])
def test_matrix_csv_holds_one_block_of_texts(tmp_path, monkeypatch, mirror):
    # 40,000 distinct values: their texts alone take about 3 MiB, a block of
    # 400 entries' texts a few tens of KiB
    import tracemalloc

    import qcr.fileio as fileio

    monkeypatch.setattr(fileio, "_FORMAT_BLOCK", 400)
    M = rng(72).standard_normal((200, 200))
    if mirror:
        M = symmetric(M)
    tracemalloc.start()
    try:
        write_matrix_csv(M, str(tmp_path / "m.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19
    write_matrix_csv_reference(M, str(tmp_path / "ref.csv"))
    assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.property
@given(
    st.integers(1, 6).flatmap(lambda n: st.lists(
        st.floats(allow_nan=False, allow_infinity=False), min_size=n * n, max_size=n * n,
    )),
    st.booleans(),
)
def test_result_matrices_round_trip_bitwise(tmp_path_factory, values, mirror):
    n = int(round(len(values) ** 0.5))
    B = np.array(values).reshape(n, n)
    if mirror:
        B = symmetric(B)
    res = DecompositionResult(
        B, -B, iterations=1, primal_residual=0.0, objective=0.0, converged=True, final_penalty=1.0
    )
    path = str(tmp_path_factory.mktemp("rt") / "res.json")
    write_result(res, path, lam=0.25, mode="plain_decomposition")
    with open(path) as fh:
        doc = json.load(fh)
    for tag, M in (("B_star", B), ("C_star", -B)):
        assert np.array_equal(np.array(doc[tag]).view(np.int64), M.view(np.int64))


def test_result_sidecar_for_large_matrices(tmp_path, monkeypatch):
    import qcr.fileio as fileio

    monkeypatch.setattr(fileio, "MATRIX_INLINE_LIMIT", 10)
    inst = make_inst()
    res = solve_rpca(inst.A)
    path = str(tmp_path / "res.json")
    write_result(res, path, lam=0.2, mode="plain_decomposition")
    doc = json.loads(open(path).read())
    assert "B_star" not in doc and "C_star" not in doc
    assert np.array_equal(read_matrix_csv(doc["B_star_path"]), res.B_star)
    assert np.array_equal(read_matrix_csv(doc["C_star_path"]), res.C_star)
    assert MATRIX_INLINE_LIMIT == 500  # module default untouched


# ---------------------------------------------------------------- reports


def test_report_json_fields(tmp_path):
    inst = gen_planted(InstanceParams(n=40, n_c=32, gamma=0.85, rho=0.1, seed=2))
    rep = verify_certificate(inst)
    path = str(tmp_path / "rep.json")
    write_report(rep, path)
    doc = json.loads(open(path).read())
    assert doc["lambda"] == rep.lam
    assert doc["conditions"] == list(rep.conditions)
    assert doc["margins"] == list(rep.margins)
    assert len(doc["margins"]) == len(doc["conditions"])
    assert [doc[k] for k in ("linf2_QB", "linf2_QC", "linf2_Q")] == [rep.linf2_QB, rep.linf2_QC, rep.linf2_Q]
    assert doc["overall"] == rep.overall
    assert doc["norm_QB"] == rep.norm_QB
    assert doc["opnorm_PGPT"] == rep.opnorm_PGPT
    assert doc["golfing_trace"] == list(rep.golfing_trace)
    assert doc["incoherence"]["r"] == rep.incoherence.r
    assert doc["config"]["k0"] == rep.config.k0
    assert "Q_B" not in doc


def test_report_optionally_includes_matrices(tmp_path):
    inst = gen_planted(InstanceParams(n=30, n_c=24, gamma=0.85, rho=0.1, seed=2))
    rep = verify_certificate(inst)
    path = str(tmp_path / "rep.json")
    write_report(rep, path, include_matrices=True)
    doc = json.loads(open(path).read())
    assert np.allclose(np.asarray(doc["Q_B"]), rep.Q_B)
    assert np.allclose(np.asarray(doc["Q_C"]), rep.Q_C)


# ---------------------------------------------------------------- config


def test_config_parse(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\n\nn = 50\nnc=40\ngamma = 0.9\nout = results/inst.txt\n")
    assert parse_config_file(str(path)) == {
        "n": "50",
        "nc": "40",
        "gamma": "0.9",
        "out": "results/inst.txt",
    }


def test_config_bad_line_reports_number(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("n = 50\nbogus line\n")
    with pytest.raises(FileFormatError, match=":2:"):
        parse_config_file(str(path))
