import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def test_strict_missing_exit_2(capsys):
    code, _ = run_cli(capsys, "homology", "-k", fx("pentagon.cplx"),
                      "-w", fx("pentagon_ones.wts"), "-n", "0", "--strict")
    assert code == 2


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


def test_unknown_command_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_module_entry_point():
    # the child process finds the package in src/ as the suite does
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "wsimplex", "spectrum",
         "-k", fx("edge.cplx"), "-w", fx("edge.wts"), "-n", "0"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert np.allclose(payload["eigenvalues"], [0.0, 13.0], atol=1e-12)


def test_out_of_float_range_refused(capsys, tmp_path):
    """A weight of 10^200 squares past float range in the Laplacian, and a
    10^400 matrix entry is past it already: the float commands refuse both
    with one error line naming the magnitude; exact commands still answer."""
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
