import argparse
import itertools
import json
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import child_env, random_quotient_weight, write_pair
from wsimplex import build_complex, cli, ngon_homology_closed_form
from wsimplex.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURES / name)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def expected(name: str) -> dict:
    with open(FIXTURES / "expected" / name, encoding="utf-8") as fh:
        return json.load(fh)


# -- happy paths against committed expectations --------------------------------


def test_homology_pentagon(capsys):
    code, payload = run_cli(capsys, "homology", "-k", fx("pentagon.cplx"),
                            "-w", fx("pentagon.wts"), "-n", "0")
    assert code == 0
    assert payload == expected("pentagon_homology.json")
    # zeros among the vertex scalars: the closed form's answer
    code, payload = run_cli(capsys, "homology", "-k", fx("pentagon.cplx"),
                            "-w", fx("pentagon_zeros.wts"), "-n", "0")
    closed = ngon_homology_closed_form([0, 3, 0, 5, 7])
    assert code == 0
    assert payload == {"dimension": 0, "free_rank": 2, "torsion": [105]}
    assert (payload["free_rank"], payload["torsion"]) == (closed.free_rank, closed.torsion)


def test_snf_pentagon(capsys):
    code, payload = run_cli(capsys, "snf", "-k", fx("pentagon.cplx"),
                            "-w", fx("pentagon.wts"), "-n", "1")
    assert code == 0
    assert payload == expected("pentagon_snf.json")


def test_snf_transforms(capsys):
    code, payload = run_cli(capsys, "snf", "-k", fx("pentagon.cplx"),
                            "-w", fx("pentagon.wts"), "-n", "1", "--transforms")
    assert code == 0
    u, v = np.array(payload["U"]), np.array(payload["V"])
    assert u.shape == (5, 5) and v.shape == (5, 5)
    s = u @ np.array([[int(x) for x in row] for row in _boundary_entries(capsys)]) @ v
    assert np.array_equal(np.diag(s), payload["diagonal"])
    assert np.count_nonzero(s - np.diag(np.diag(s))) == 0

    # degree 0: no rows, yet V still spans all three vertices
    code, payload = run_cli(capsys, "snf", "-k", fx("triangle.cplx"),
                            "-w", fx("triangle.wts"), "-n", "0", "--transforms")
    assert code == 0
    assert payload["diagonal"] == [] and payload["U"] == []
    assert payload["V"] == np.eye(3, dtype=int).tolist()


@pytest.mark.parametrize("pair, degrees", [
    ("pentagon", [1]),
    ("triangle", [1, 2]),
    ("cycle40_even", [1]),  # even vertex weights, as the shared polygon case
    ("simplex5_dawson", [1, 2]),  # 2-skeleton of the 5-simplex
])
def test_snf_transforms_print_pinned_bytes(capsys, pair, degrees):
    """Diagonal, rank, U and V of ``snf --transforms``, byte for byte.  The
    diagonal and rank are those the dense Smith normal form loop printed;
    U and V are those of the one sparse elimination, checked by their
    contract in ``test_snf_transforms`` and ``tests/test_snf_sparse.py``."""
    out = []
    for n in degrees:
        assert main(["snf", "-k", fx(f"{pair}.cplx"), "-w", fx(f"{pair}.wts"),
                     "-n", str(n), "--transforms", "--strict"]) == 0
        out.append(capsys.readouterr().out)
    pinned = FIXTURES / "expected" / f"{pair}_snf_transforms.out"
    assert "".join(out) == pinned.read_text(encoding="utf-8")


def test_plain_homology_and_snf_print_pinned_bytes(capsys):
    """Exit code, stdout and stderr of plain ``homology`` and ``snf`` on
    every fixture pair in degrees -1..max_dim+1, as the code that gave
    ``smith_normal_form`` bare rows and a column count printed them;
    each argv is stored with its fixture paths relative to this directory."""
    records = json.loads((FIXTURES / "expected" / "homology_snf_argvs.json").read_text("utf-8"))
    assert len(records) == 94
    for record in records:
        argv = [str(FIXTURES.parent / token) if token.startswith("fixtures/") else token
                for token in record["argv"]]
        assert main(argv) == record["exit"], record["argv"]
        assert capsys.readouterr() == (record["stdout"], record["stderr"]), record["argv"]


def _boundary_entries(capsys):
    code, payload = run_cli(capsys, "boundary", "-k", fx("pentagon.cplx"),
                            "-w", fx("pentagon.wts"), "-n", "1")
    assert code == 0
    return payload["entries"]


def test_ngon_closed_form(capsys):
    code, payload = run_cli(capsys, "ngon", "--alphas", "1,2,2,2,2")
    assert code == 0
    assert payload == expected("ngon_12222.json")


def test_validate_good(capsys):
    code, payload = run_cli(capsys, "validate", "-k", fx("triangle.cplx"),
                            "-w", fx("triangle.wts"))
    assert code == 0
    assert payload == {"valid": True, "violations": []}


def test_validate_bad(capsys):
    code, payload = run_cli(capsys, "validate", "-k", fx("triangle.cplx"),
                            "-w", fx("triangle_bad.wts"))
    assert code == 1
    assert payload == expected("triangle_validate_bad.json")


def test_ffl_by_type(capsys):
    code, payload = run_cli(capsys, "ffl", "--type", "coherent2")
    assert code == 0
    assert payload == expected("ffl_coherent2.json")


def test_ffl_classify_file(capsys):
    code, payload = run_cli(capsys, "ffl", "--classify", fx("ffl_matrix.txt"))
    assert code == 0
    assert payload["classified"] == "coherent2"
    assert payload["eigenvalues"] == [6.0, 12.0]


def test_ffl_types_print_pinned_bytes(capsys):
    out = []
    for label in ("coherent1", "coherent2", "coherent3", "coherent4",
                  "incoherent1", "incoherent2", "incoherent3", "incoherent4"):
        assert main(["ffl", "--type", label]) == 0
        out.append(capsys.readouterr().out)
    pinned = FIXTURES / "expected" / "ffl_types.out"
    assert "".join(out) == pinned.read_text(encoding="utf-8")


NOT_A_MOTIF = "error: eigenvalues are not 0, x, y with x, y > 0; not a motif Laplacian\n"


@pytest.mark.parametrize("text, err", [
    # exact rank 3, smallest eigenvalue about 3e-11
    ("2 -1 -1\n-1 2 -1\n-1 -1 20000000001/10000000000\n", NOT_A_MOTIF),
    ("1 -1 0\n-1 1 0\n0 0 0\n", NOT_A_MOTIF),
    ("0 0 0\n0 0 0\n0 0 0\n", NOT_A_MOTIF),
    ("1 0 0\n0 -1 0\n0 0 0\n", NOT_A_MOTIF),
    ("2 1+1i 0\n1-1i 3 0\n0 0 1\n", NOT_A_MOTIF),
    ("2 1 0\n0 3 0\n0 0 1\n", "error: matrix is not Hermitian; not a motif Laplacian\n"),
], ids=["near-singular", "rank-1", "zero", "indefinite", "complex", "non-hermitian"])
def test_ffl_classify_refuses_non_motif_matrices(capsys, tmp_path, text, err):
    m = tmp_path / "m.txt"
    m.write_text(text)
    assert main(["ffl", "--classify", str(m)]) == 1
    assert capsys.readouterr() == ("", err)


def test_ffl_classify_refuses_a_file_of_comments_only(capsys, tmp_path):
    m = tmp_path / "m.txt"
    m.write_text("# only\n\n# comments\n")
    assert main(["ffl", "--classify", str(m)]) == 2
    assert capsys.readouterr() == ("", "error: no matrix rows found\n")


def test_ffl_classify_refuses_an_ambiguous_signature(capsys):
    assert main(["ffl", "--classify", fx("ffl_matrix.txt"), "--tol", "1000"]) == 1
    assert capsys.readouterr() == ("", "error: signature is ambiguous between coherent1, "
                                       "coherent2, coherent3, coherent4, incoherent1, "
                                       "incoherent2, incoherent3, incoherent4\n")


@pytest.mark.parametrize("c2, tol, found", [
    ("1000000001/1000000000", [], "coherent1"),  # eigenvalues 3, 3.000000002
    ("1000000001/1000000000", ["--tol", "1e-10"], None),
    ("11/10", [], None),  # eigenvalues 3, 3.2
    ("11/10", ["--tol", "0.5"], "coherent1"),
])
def test_ffl_tol_decides_double_roots(capsys, tmp_path, c2, tol, found):
    """Weights (1, 1, c) with c^2 = 1 + d give eigenvalues 3 and 3 + 2d: they
    count as coherent1's double root exactly when both lie within tol."""
    m = tmp_path / "m.txt"
    m.write_text(f"{1 + Fraction(c2)} -1 -{c2}\n-1 2 -1\n-{c2} -1 {1 + Fraction(c2)}\n")
    code, payload = run_cli(capsys, "ffl", "--classify", str(m), *tol)
    if found is None:
        assert (code, payload) == (1, None)
    else:
        assert code == 0
        assert payload == {"eigenvalues": [3.0, 1 + 2 * float(Fraction(c2))],
                           "classified": found}


def test_boundary_edge(capsys):
    code, payload = run_cli(capsys, "boundary", "-k", fx("edge.cplx"),
                            "-w", fx("edge.wts"), "-n", "1")
    assert code == 0
    assert payload == {
        "row_labels": [[0], [1]],
        "col_labels": [[0, 1]],
        "entries": [["-2"], ["3"]],
    }


def test_coboundary_edge(capsys):
    code, payload = run_cli(capsys, "coboundary", "-k", fx("edge.cplx"),
                            "-w", fx("edge.wts"), "-n", "0")
    assert code == 0
    assert payload["entries"] == [["-2", "3"]]


def test_laplacian_edge(capsys):
    code, payload = run_cli(capsys, "laplacian", "-k", fx("edge.cplx"),
                            "-w", fx("edge.wts"), "-n", "0")
    assert code == 0
    assert payload["up"]["entries"] == [["4", "-6"], ["-6", "9"]]
    assert payload["down"]["entries"] == [["0", "0"], ["0", "0"]]
    assert payload["laplacian"]["entries"] == [["4", "-6"], ["-6", "9"]]


def test_laplacian_inner_weights(capsys):
    code, payload = run_cli(capsys, "laplacian", "-k", fx("edge.cplx"),
                            "-w", fx("edge.wts"), "-n", "0",
                            "--inner-weights", fx("inner.wts"))
    assert code == 0
    assert payload["up"]["entries"] == [["4", "-6"], ["-3", "9/2"]]


@pytest.mark.parametrize("marked", ["complex", "weights", "inner"])
def test_byte_order_mark_is_skipped(capsys, tmp_path, marked):
    """A file saved with a UTF-8 byte-order mark before its first data line
    reads as the same file without one."""
    texts = {"complex": "0 1\n", "weights": "0 1 | 1 | 3\n0 1 | 0 | 2\n", "inner": "1 | 2\n"}
    paths = {}
    for name, text in texts.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text, encoding="utf-8-sig" if name == marked else "utf-8")
    assert paths[marked].read_bytes().startswith(b"\xef\xbb\xbf")
    code, payload = run_cli(capsys, "laplacian", "-k", str(paths["complex"]),
                            "-w", str(paths["weights"]), "-n", "0",
                            "--inner-weights", str(paths["inner"]), "--strict")
    assert code == 0
    assert payload["up"]["entries"] == [["4", "-6"], ["-3", "9/2"]]


def test_byte_order_mark_is_skipped_in_matrix_files(capsys, tmp_path):
    m = tmp_path / "m.txt"
    m.write_text("8 -4 -4\n-4 5 -1\n-4 -1 5\n", encoding="utf-8-sig")
    code, payload = run_cli(capsys, "ffl", "--classify", str(m))
    assert code == 0
    assert payload == {"eigenvalues": [6.0, 12.0], "classified": "coherent2"}


def test_spectrum_edge(capsys):
    code, payload = run_cli(capsys, "spectrum", "-k", fx("edge.cplx"),
                            "-w", fx("edge.wts"), "-n", "0")
    assert code == 0
    assert np.allclose(payload["eigenvalues"], [0.0, 13.0], atol=1e-12)
    assert len(payload["eigenvectors"]) == 2


def test_spectrum_inner_weights(capsys):
    code, payload = run_cli(capsys, "spectrum", "-k", fx("edge.cplx"),
                            "-w", fx("edge.wts"), "-n", "0",
                            "--inner-weights", fx("inner.wts"))
    assert code == 0
    assert np.allclose(payload["eigenvalues"], [0.0, 8.5], atol=1e-12)


@pytest.mark.filterwarnings("ignore:.*missing, defaulting")
def test_harmonic_pentagon(capsys):
    code, payload = run_cli(capsys, "harmonic", "-k", fx("pentagon.cplx"),
                            "-w", fx("pentagon_ones.wts"), "-n", "1")
    assert code == 0
    assert payload["count"] == 1
    assert len(payload["labels"]) == 5
    vec = np.array(payload["vectors"][0])
    assert np.allclose(np.linalg.norm(vec), 1.0)
    assert np.allclose(np.abs(vec), 1 / np.sqrt(5), atol=1e-9)


def test_cohomology_dim_doubled(capsys):
    for n, want in [(0, 0), (1, 0)]:
        code, payload = run_cli(capsys, "cohomology-dim", "-k", fx("hollow.cplx"),
                                "-w", fx("doubled.wts"), "-n", str(n))
        assert code == 0
        assert payload == {"dimension": n, "cohomology_dim": want}


@pytest.mark.filterwarnings("ignore:.*missing, defaulting")
def test_multiplicities_pentagon(capsys):
    code, payload = run_cli(capsys, "multiplicities", "-k", fx("pentagon.cplx"),
                            "-w", fx("pentagon_ones.wts"), "-n", "1")
    assert code == 0
    assert payload == {"dimension": 1, "down": 1, "up": 5, "laplacian": 1}
    code, payload = run_cli(capsys, "multiplicities", "-k", fx("pentagon.cplx"),
                            "-w", fx("pentagon_zeros.wts"), "-n", "0")
    assert code == 0
    assert payload == {"dimension": 0, "down": 5, "up": 2, "laplacian": 2}


@pytest.mark.filterwarnings("ignore:.*missing, defaulting")
def test_default_zero(capsys):
    # with the zero default an empty weight file is the zero weighting
    code, payload = run_cli(capsys, "cohomology-dim", "-k", fx("pentagon.cplx"),
                            "-w", fx("pentagon_ones.wts"), "-n", "0",
                            "--default", "zero")
    assert code == 0
    assert payload["cohomology_dim"] == 5


# -- failure modes -------------------------------------------------------------


def test_invalid_weights_exit_1(capsys):
    code, payload = run_cli(capsys, "homology", "-k", fx("triangle.cplx"),
                            "-w", fx("triangle_bad.wts"), "-n", "1")
    assert code == 1
    assert payload is None


def test_purely_imaginary_weights(capsys):
    """The pentagon (i, 2i, -i, 3i, i): the integer commands refuse it with
    exit 1, the commands over Q(i) answer it, and the spectrum has exactly
    cohomology_dim zeros."""
    pair = ["-k", fx("pentagon.cplx"), "-w", fx("pentagon_imaginary.wts"), "--strict"]
    for argv, err in [(["homology", "-n", "1"], "integer homology needs integer weight values"),
                      (["snf", "-n", "1"], "matrix has non-integer entries")]:
        assert main([*argv, *pair]) == 1, argv
        out, stderr = capsys.readouterr()
        assert (out, stderr) == ("", f"error: {err}\n"), argv
    for n in (0, 1):
        for command in ("cohomology-dim", "multiplicities", "spectrum", "harmonic"):
            code, payload = run_cli(capsys, command, *pair, "-n", str(n))
            assert code == 0, (command, n)
            if command == "cohomology-dim":
                dim = payload["cohomology_dim"]
            elif command == "spectrum":
                assert payload["eigenvalues"].count(0.0) == dim == 1, n
                assert min(payload["eigenvalues"][1:]) > 1, n


def test_missing_file_exit_2(capsys):
    code, _ = run_cli(capsys, "homology", "-k", fx("nope.cplx"),
                      "-w", fx("edge.wts"), "-n", "0")
    assert code == 2


def test_bad_grammar_exit_2(capsys):
    code, _ = run_cli(capsys, "homology", "-k", fx("edge.cplx"),
                      "-w", fx("bad_grammar.wts"), "-n", "0")
    assert code == 2


def test_inner_weights_unknown_simplex_exit_2(capsys, tmp_path):
    inner = tmp_path / "unknown.wts"
    inner.write_text("7 8 | 3\n", encoding="utf-8")
    for command in ("laplacian", "spectrum"):
        assert main([command, "-k", fx("triangle.cplx"), "-w", fx("triangle.wts"),
                     "-n", "0", "--inner-weights", str(inner)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: inner weights: [7,8] is not in the complex\n"


def test_spectrum_inner_weights_missing_file_exit_2(capsys, tmp_path):
    missing = tmp_path / "nope.wts"
    assert main(["spectrum", "-k", fx("triangle.cplx"), "-w", fx("triangle.wts"),
                 "-n", "0", "--inner-weights", str(missing)]) == 2
    assert capsys.readouterr() == (
        "", f"error: [Errno 2] No such file or directory: {str(missing)!r}\n")


def test_strict_missing_exit_2(capsys):
    code, _ = run_cli(capsys, "homology", "-k", fx("pentagon.cplx"),
                      "-w", fx("pentagon_ones.wts"), "-n", "0", "--strict")
    assert code == 2


@pytest.mark.parametrize("text, flags, err", [
    ("0 1 | 0 | 2 | 9\n", [], "line 1: expected 'simplex | face | value'"),
    ("0 1 2 | 0 | 5\n", [], "line 1: [0] is not a codimension-one face of [0,1,2]"),
    ("0 3 | 3 | 1\n", [], "line 1: [0,3] is not in the complex"),
    ("# header\n0 1 | 0 | 1/0\n", [], "line 2: zero denominator in '1/0'"),
    ("0 1 | 0 | 1\n", ["--strict"], "8 missing entries, first ([0,1], face 0)"),
    ("1 0 | 0 | 1\n", [], "line 1: vertices (1, 0) not strictly ascending"),
], ids=["four-fields", "not-a-face", "outside", "zero-denominator", "strict-missing",
        "descending"])
def test_weight_file_refusals_print_pinned_errors(capsys, tmp_path, text, flags, err):
    w = tmp_path / "refused.wts"
    w.write_text(text)
    assert main(["validate", "-k", fx("triangle.cplx"), "-w", str(w), *flags]) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")


def test_duplicate_entry_warns_and_validate_exits_1(capsys, tmp_path):
    # a repeated entry with the same value is silent; with another value it
    # warns, and the last one wins and breaks the triangle
    w = tmp_path / "dup.wts"
    w.write_text("0 1 | 0 | 6\n" + Path(fx("triangle.wts")).read_text())
    assert main(["validate", "-k", fx("triangle.cplx"), "-w", str(w)]) == 0
    assert capsys.readouterr().err == ""
    w.write_text(Path(fx("triangle.wts")).read_text() + "0 1 | 0 | 5\n")
    assert main(["validate", "-k", fx("triangle.cplx"), "-w", str(w)]) == 1
    out, err = capsys.readouterr()
    assert err == "warning: line 11: duplicate entry for ([0,1], [0]); keeping the last\n"
    assert json.loads(out)["valid"] is False


def test_field_real_rejects_complex(capsys):
    code, _ = run_cli(capsys, "validate", "-k", fx("edge.cplx"),
                      "-w", fx("edge_complex.wts"), "--field", "real")
    assert code == 2
    code, payload = run_cli(capsys, "validate", "-k", fx("edge.cplx"),
                            "-w", fx("edge_complex.wts"))
    assert code == 0 and payload["valid"] is True


def test_ffl_usage_errors(capsys):
    code, _ = run_cli(capsys, "ffl")
    assert code == 2
    code, _ = run_cli(capsys, "ffl", "--type", "coherent1",
                      "--classify", fx("ffl_matrix.txt"))
    assert code == 2
    code, _ = run_cli(capsys, "ffl", "--type", "coherent9")
    assert code == 2


def test_ffl_tol_must_be_finite_and_non_negative(capsys):
    # NaN matched every reference and a negative tolerance matched none
    for tol in ("nan", "inf", "-1"):
        assert main(["ffl", "--type", "coherent1", "--tol", tol]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert [line for line in err.splitlines() if "error" in line] == [
            f"wsimplex ffl: error: argument --tol: must be finite and >= 0, got '{tol}'"]
    assert main(["ffl", "--type", "coherent1", "--tol", "abc"]) == 2
    assert "argument --tol: invalid tolerance value: 'abc'" in capsys.readouterr().err
    for tol in ("0", "1e-6"):
        code, payload = run_cli(capsys, "ffl", "--type", "coherent1", "--tol", tol)
        assert code == 0 and payload["classified"] == "coherent1"


def test_ngon_usage_errors(capsys):
    code, _ = run_cli(capsys, "ngon", "--alphas", "1,2,x")
    assert code == 2
    code, _ = run_cli(capsys, "ngon", "--alphas", "1,2")
    assert code == 2


def test_ngon_names_an_alpha_past_the_digit_limit(capsys):
    """An alpha past the interpreter's int -> str digit limit is refused
    with its entry and the limit in one short line, exit 2; the argument,
    thousands of characters long, is not echoed.  One at the limit is read."""
    limit = sys.get_int_max_str_digits()
    for argv, entry, digits in ((["--alphas", "7" * 4400 + ",2,3"], 1, 4400),
                                ([f"--alphas=1,-{'1' * (limit + 1)},3"], 2, limit + 1)):
        assert main(["ngon", *argv]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: alphas: entry {entry} has {digits} digits, "
                                  f"past the limit of {limit}\n")
    code, payload = run_cli(capsys, "ngon", "--alphas", "7" * limit + ",2,3")
    assert code == 0 and payload["alphas"][0] == int("7" * limit)


def test_ngon_leading_negative_alpha(capsys):
    # "--alphas -3,6,1" reads as an option to argparse; the "=" form does not
    code, negative = run_cli(capsys, "ngon", "--alphas=-3,6,1")
    assert code == 0 and negative["alphas"] == [-3, 6, 1]
    code, positive = run_cli(capsys, "ngon", "--alphas", "3,6,1")
    assert code == 0
    assert ((negative["free_rank"], negative["torsion"])
            == (positive["free_rank"], positive["torsion"]))


def _no_answer(value) -> bool:
    """True when every number of an answer is 0 and every list of it is
    empty (or holds only empty lists); labels and the degree are not
    part of the answer."""
    if isinstance(value, dict):
        return all(_no_answer(v) for k, v in value.items()
                   if k not in ("dimension", "labels", "row_labels", "col_labels"))
    if isinstance(value, list):
        return all(isinstance(v, list) and _no_answer(v) for v in value)
    return value == 0


@pytest.mark.parametrize("n", [-1, 4])  # the triangle's top dimension is 2
@pytest.mark.parametrize("command", [
    "homology", "cohomology-dim", "snf", "boundary", "coboundary",
    "laplacian", "spectrum", "harmonic", "multiplicities"])
def test_degree_outside_the_complex_is_empty(capsys, command, n):
    code, payload = run_cli(capsys, command, "-k", fx("triangle.cplx"),
                            "-w", fx("triangle.wts"), "-n", str(n))
    assert code == 0
    assert payload.get("dimension", n) == n
    assert _no_answer(payload), payload


def test_closed_stdout_is_quiet():
    """A reader that has gone (``wsimplex ... | head``) costs no traceback:
    the answer's exit code stands, as it would with the reader there."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "wsimplex", "homology",
             "-k", fx("triangle.cplx"), "-w", fx("triangle.wts"), "-n", "1"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=child_env())
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_closed_stdout_mid_stream_is_quiet(capsys, tmp_path):
    """The same when the reader is gone before a payload larger than a
    pipe's 64 KiB buffer: the write that finds the pipe closed comes in the
    middle of the stream, and the exit code and empty stderr stand."""
    complex = build_complex(itertools.combinations(range(9), 3))
    phi = random_quotient_weight(random.Random(8), complex, complex_scalars=True,
                                 allow_zero_scale=False)
    argv = ["laplacian", *write_pair(tmp_path, "delta8", complex, phi), "-n", "2"]
    assert main(argv) == 0
    assert len(capsys.readouterr().out) > 4 * 65536
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "wsimplex", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=child_env())
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_tall_complex_spectrum_is_quiet_on_stderr(tmp_path):
    """The degree-1 factor of the Delta^6 2-skeleton under complex weights
    is tall (42 x 21); its spectrum writes nothing to fd 2, where LAPACK's
    messages would go."""
    complex = build_complex(itertools.combinations(range(7), 3))
    phi = random_quotient_weight(random.Random(6), complex, complex_scalars=True,
                                 allow_zero_scale=False)
    argv = write_pair(tmp_path, "delta6", complex, phi)
    proc = subprocess.run([sys.executable, "-m", "wsimplex", "spectrum", *argv, "-n", "1"],
                          capture_output=True, text=True, env=child_env())
    assert (proc.returncode, proc.stderr) == (0, "")
    payload = json.loads(proc.stdout)
    assert len(payload["eigenvalues"]) == 21
    assert any(isinstance(x, list) for vector in payload["eigenvectors"] for x in vector)


COMMANDS = ["validate", "boundary", "coboundary", "homology", "cohomology-dim", "snf",
            "laplacian", "spectrum", "harmonic", "multiplicities", "ngon", "ffl"]
PENTAGON = ["-k", fx("pentagon.cplx"), "-w", fx("pentagon.wts")]


def test_unknown_command_exit_2(capsys):
    """Every top-level usage error lists all commands, the stray trailing
    argument of a subcommand's argv included."""
    usage = "{" + ",".join(COMMANDS) + "}"
    for argv, message in (([], "required: command"),
                          (["frobnicate"], "argument command: invalid choice"),
                          (["homology", *PENTAGON, "-n", "0", "extra"],
                           "unrecognized arguments: extra")):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and usage in err and message in err, err


def test_parser_builds_every_subcommand_from_the_table():
    parser = cli._parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == COMMANDS == list(cli._COMMANDS)
    for name, (_, _, options) in cli._COMMANDS.items():
        # every subparser's first option is its -h/--help
        built = [a.option_strings for a in sub.choices[name]._actions[1:]]
        assert built == [list(strings) for strings, _ in options], name


# Exit code, stdout and stderr of main for the argvs below, captured with
# COLUMNS=80 under Python 3.11 from the code whose ``_parser(command)``
# built the named command's subparser alone; each argv is stored with its
# fixture paths relative to this directory.
PARSER_OUTCOMES = {
    tuple(record["argv"]): record for record in
    json.loads((FIXTURES / "expected" / "parser_argvs_py311.json").read_text("utf-8"))}


@pytest.mark.parametrize("argv", [
    *([command, "--help"] for command in COMMANDS),
    ["--help"],
    [],
    ["frobnicate"],
    ["homology", "-k", fx("pentagon.cplx")],  # missing required options
    ["homology", *PENTAGON, "-n", "0", "extra"],
    ["homology", *PENTAGON, "-n", "x"],
    ["homology", *PENTAGON, "-n", "0", "--default", "two"],
    ["ffl", "--tol", "nan"],
    ["snf", *PENTAGON, "-n", "1", "--transforms"],  # parses
])
def test_one_subparser_parses_as_all_twelve(capsys, monkeypatch, argv):
    """Help, usage errors and a parsed argv give the exit code, output and
    messages the one-subparser parser gave (``PARSER_OUTCOMES``).  Other
    Python versions word argparse's help and errors otherwise; there the
    exit code alone is pinned."""
    monkeypatch.setenv("COLUMNS", "80")
    key = tuple(os.path.relpath(token, FIXTURES.parent) if token.startswith(str(FIXTURES))
                else token for token in argv)
    record = PARSER_OUTCOMES[key]
    outcome = main(argv), *capsys.readouterr()
    if sys.version_info[:2] == (3, 11):
        assert outcome == (record["exit"], record["stdout"], record["stderr"])
    assert outcome[0] == record["exit"] == (
        0 if argv[:1] == ["snf"] or "--help" in argv else 2)


@pytest.mark.parametrize("text, warning", [
    ("0 1 | 0 | 2\n", "1 weight entries missing, defaulting to 1"),
    ("0 1 | 0 | 2\n0 1 | 0 | 5\n0 1 | 1 | 3\n",
     "line 2: duplicate entry for ([0,1], [0]); keeping the last"),
], ids=["missing", "duplicate"])
def test_warnings_print_one_line_each(capsys, tmp_path, text, warning):
    """A reader's warning is one ``warning:`` line on stderr, not Python's
    file:line report with its source line; stdout and the exit code are
    those of the same call with warnings ignored."""
    w = tmp_path / "edge.wts"
    w.write_text(text)
    argv = ["homology", "-k", fx("edge.cplx"), "-w", str(w), "-n", "0"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        quiet = main(argv), *capsys.readouterr()
    assert quiet[0] == 0 and quiet[2] == ""
    assert (main(argv), *capsys.readouterr()) == (*quiet[:2], f"warning: {warning}\n")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "wsimplex", "spectrum",
         "-k", fx("edge.cplx"), "-w", fx("edge.wts"), "-n", "0"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert np.allclose(payload["eigenvalues"], [0.0, 13.0], atol=1e-12)


def test_out_of_float_range_refused(capsys, tmp_path):
    """A weight of 10^200 squares past float range in the Laplacian, one of
    10^-200 squares below it, and a 10^400 matrix entry is past it already:
    the float commands refuse all three with one error line naming the
    magnitude; exact commands still answer.  So are inner weights of 10^400
    and 10^-400, with no numpy warning before the error, while the exact
    Laplacian with them still answers.  Weights 10^16 and 10^-16 on a
    pentagon stay in range and keep their exact zero counts."""
    k, w = tmp_path / "edge.cplx", tmp_path / "huge.wts"
    k.write_text("0 1\n")
    w.write_text(f"0 1 | 0 | {10 ** 200}\n0 1 | 1 | 1\n")
    pair = ["-k", str(k), "-w", str(w), "-n", "0"]
    for argv in (["spectrum", *pair], ["spectrum", *pair, "--inner-weights", fx("inner.wts")],
                 ["harmonic", *pair]):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "1.0e+200" in err, err
    for argv in (["laplacian", *pair], ["cohomology-dim", *pair]):
        code, payload = run_cli(capsys, *argv)
        assert code == 0 and payload["dimension"] == 0, argv

    tiny = tmp_path / "tiny.wts"
    tiny.write_text(f"0 1 | 0 | 1/{10 ** 200}\n0 1 | 1 | 1/{10 ** 200}\n")
    pair = ["-k", str(k), "-w", str(tiny), "-n", "0"]
    for argv in (["spectrum", *pair], ["spectrum", *pair, "--inner-weights", fx("inner.wts")],
                 ["harmonic", *pair]):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "1.0e-200" in err, err

    ones = tmp_path / "ones.wts"
    ones.write_text("0 1 | 0 | 1\n0 1 | 1 | 1\n")
    pair = ["-k", str(k), "-w", str(ones), "-n", "0"]
    for text, magnitude in ((f"0 | 1/{10 ** 400}\n", "1e-400"),
                            (f"0 1 | {10 ** 400}\n", "1e+400")):
        inner = tmp_path / "inner.wts"
        inner.write_text(text)
        assert main(["spectrum", *pair, "--inner-weights", str(inner)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and magnitude in err, err
        code, payload = run_cli(capsys, "laplacian", *pair, "--inner-weights", str(inner))
        assert code == 0 and payload["dimension"] == 0, text

    # the pentagon [1, 10^16, 1, 10^-16, 1]: only exit codes and zero counts
    # are pinned, the non-zero eigenvalues are not relatively accurate here
    alphas = [1, 10 ** 16, 1, f"1/{10 ** 16}", 1]
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    k, w = tmp_path / "pentagon.cplx", tmp_path / "extreme.wts"
    k.write_text("".join(f"{u} {v}\n" for u, v in edges))
    w.write_text("".join(f"{u} {v} | {u} | {alphas[u]}\n{u} {v} | {v} | {alphas[v]}\n"
                         for u, v in edges))
    pair = ["-k", str(k), "-w", str(w)]
    for n in ("0", "1"):
        code, payload = run_cli(capsys, "cohomology-dim", *pair, "-n", n)
        assert code == 0 and payload["cohomology_dim"] == 1, n
        code, payload = run_cli(capsys, "spectrum", *pair, "-n", n)
        assert code == 0 and payload["eigenvalues"].count(0.0) == 1, (n, payload["eigenvalues"])
    code, payload = run_cli(capsys, "harmonic", *pair, "-n", "1")
    assert code == 0 and payload["count"] == 1

    m = tmp_path / "huge.mat"
    m.write_text(f"{10 ** 400} 0 0\n0 1 0\n0 0 1\n")
    assert main(["ffl", "--classify", str(m)]) == 1
    err = capsys.readouterr().err
    assert err == "error: entry of magnitude about 1e+400 is outside float range\n"


def test_harmonic_has_no_tolerance(capsys):
    # the zero count is exact, so the old --tol override is gone: a usage error
    assert main(["harmonic", "-k", fx("edge.cplx"), "-w", fx("edge.wts"),
                 "-n", "0", "--tol", "1e-9"]) == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


LONG = "7" * 3001  # its square is past the 4,300-digit int -> str limit
LONG_VALUES = {"integer": LONG, "gaussian": f"{LONG}+1i", "denominator": f"1/{LONG}"}
LONG_CASES = [(argv, kind) for argv in (["laplacian", "-n", "0"], ["boundary", "-n", "1"],
                                        ["coboundary", "-n", "0"])
              for kind in LONG_VALUES] + [(["snf", "-n", "1", "--transforms"], "integer")]


@pytest.mark.parametrize("argv, kind", LONG_CASES,
                         ids=[f"{argv[0]}-{kind}" for argv, kind in LONG_CASES])
def test_integers_past_the_digit_limit_are_printed(capsys, tmp_path, argv, kind):
    """A 3,001-digit weight squares to 6,001 digits in the Laplacian; every
    exact command prints it in full, as it prints with the limit lifted."""
    k, w = tmp_path / "edge.cplx", tmp_path / "long.wts"
    k.write_text("0 1\n")
    w.write_text(f"0 1 | 1 | {LONG_VALUES[kind]}\n0 1 | 0 | 1\n")
    argv = [*argv, "-k", str(k), "-w", str(w)]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert main(argv) == 0
        assert capsys.readouterr().out == out
        json.loads(out)
    finally:
        sys.set_int_max_str_digits(limit)
    if argv[0] == "laplacian":
        assert max(map(len, out.split())) > 6000


def test_violations_past_the_digit_limit_are_spelled(capsys, tmp_path):
    """triangle_bad.wts with every value times 10^2999, so 3,000 digits at
    most: the violating products have 5,999 and 6,000 digits.  ``validate``
    prints them in full in one JSON object, ``homology`` names them in its
    error line, both exit 1, and the digit limit is left as it was."""
    entries = [line.rsplit("|", 1) for line in
               (FIXTURES / "triangle_bad.wts").read_text().splitlines() if line[0] != "#"]
    w = tmp_path / "long_bad.wts"
    w.write_text("".join(f"{head}| {int(value) * 10 ** 2999}\n" for head, value in entries))
    pair = ["-k", fx("triangle.cplx"), "-w", str(w)]
    left, right = "6" + "0" * 5998, "15" + "0" * 5998
    limit = sys.get_int_max_str_digits()
    assert main(["validate", *pair]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out) == {"valid": False, "violations": [
        {"simplex": [0, 1, 2], "i": 2, "j": 1, "left": left, "right": right}]}
    assert main(["homology", *pair, "-n", "0"]) == 1
    message = (f"error: weight function fails validation: 1 violations, first at "
               f"(simplex [0,1,2], faces 2,1): {left} != {right}\n")
    assert capsys.readouterr() == ("", message)
    assert sys.get_int_max_str_digits() == limit


def test_an_error_while_writing_is_one_error_line(capsys, monkeypatch):
    def failing(value, write):
        write("{")
        raise ValueError("no spelling")

    monkeypatch.setattr(cli, "dump", failing)
    limit = sys.get_int_max_str_digits()
    assert main(["homology", "-k", fx("edge.cplx"), "-w", fx("edge.wts"), "-n", "0"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("{", "error: cannot write the answer: no spelling\n")
    assert sys.get_int_max_str_digits() == limit


def test_memory_exhaustion_is_one_error_line(capsys, monkeypatch):
    """A Laplacian factor too large to allocate is refused in one line that
    names its degree, shape, dtype and size; any other MemoryError is one
    error line as well.  Both exit 1.  The allocations are made to raise,
    so no large array is asked for."""
    import numpy as np

    def exhausted(*args, **kwargs):
        raise MemoryError

    pair = ["-k", fx("triangle.cplx"), "-w", fx("triangle.wts")]
    with monkeypatch.context() as m:
        m.setattr(np, "zeros", exhausted)
        assert main(["spectrum", *pair, "-n", "1"]) == 1
        assert capsys.readouterr() == ("", "error: degree 1: the Laplacian factor, 4 x 3 "
                                       "float64, needs 0.0 MB, more than can be allocated\n")
    for raised, line in ((MemoryError(), "error: out of memory\n"),
                         (MemoryError("no room for 8 GiB"),
                          "error: out of memory: no room for 8 GiB\n")):
        def failing(*args, exc=raised):
            raise exc

        monkeypatch.setattr(cli, "weighted_homology", failing)
        assert main(["homology", *pair, "-n", "0"]) == 1
        assert capsys.readouterr() == ("", line)


def test_a_writer_bug_keeps_its_traceback(monkeypatch):
    def failing(value, write):
        raise TypeError("no writer for this type")

    monkeypatch.setattr(cli, "dump", failing)
    limit = sys.get_int_max_str_digits()
    with pytest.raises(TypeError, match="no writer"):
        main(["homology", "-k", fx("edge.cplx"), "-w", fx("edge.wts"), "-n", "0"])
    assert sys.get_int_max_str_digits() == limit
