"""The command line prints ``json.dumps(payload, indent=2)`` byte for byte.

The writer (``wsimplex.jsonout``) streams the payload and prints matrices
from sparse rows and vectors from numpy arrays, so these tests pin its
bytes two ways: every stdout of every fixture pair, subcommand and degree
is its own ``json.dumps(json.loads(out), indent=2)``, and the matrices and
spectra it prints equal the dense views and the 12-digit rounding the
command line printed before, taken from the library
(``oracles.rounded_lists``).  Complex spectra and harmonic vectors of a
larger 2-skeleton are compared as text, end to end.
"""

import json
import random
from collections import Counter
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from conftest import FILE_PAIRS, random_quotient_weight, write_pair
from oracles import rounded_lists
from wsimplex import build_complex, read_complex_file, read_weight_file
from wsimplex.chains import boundary_matrix, coboundary_matrix
from wsimplex.cli import main
from wsimplex.spectral import (
    harmonic_basis,
    laplacian_matrix,
    laplacian_spectrum,
    read_inner_weights_file,
    up_down_matrices,
)

FIXTURES = Path(__file__).parent / "fixtures"
DEGREE_COMMANDS = ["boundary", "coboundary", "homology", "cohomology-dim", "snf",
                   "laplacian", "spectrum", "harmonic", "multiplicities"]


def fx(name: str) -> str:
    return str(FIXTURES / name)


def argvs():
    """Every subcommand on every fixture pair in degrees -1..max_dim+1, with
    inner weights and transforms, then ngon and ffl."""
    for cplx, wts in FILE_PAIRS:
        top = read_complex_file(FIXTURES / cplx).max_dim
        pair = ["-k", fx(cplx), "-w", fx(wts)]
        yield ["validate", *pair]
        for n in map(str, range(-1, top + 2)):
            for command in DEGREE_COMMANDS:
                yield [command, *pair, "-n", n]
            yield ["snf", *pair, "-n", n, "--transforms"]
            yield ["laplacian", *pair, "-n", n, "--inner-weights", fx("inner.wts")]
            yield ["spectrum", *pair, "-n", n, "--inner-weights", fx("inner.wts")]
    for alphas in ("1,2,2,2,2", "0,3,0,5,7", "-3,6,1", "12,18,30,0"):
        yield ["ngon", f"--alphas={alphas}"]
    for kind in ("coherent", "incoherent"):
        for k in "1234":
            yield ["ffl", "--type", kind + k]
    yield ["ffl", "--classify", fx("ffl_matrix.txt")]


def test_stdout_is_json_dumps_indent_2(capsys):
    printed = Counter()
    pairs_printed = False
    for argv in argvs():
        code = main(argv)
        out = capsys.readouterr().out
        assert (code == 0) == (out != "") or argv[0] == "validate", argv
        if out:
            assert out == json.dumps(json.loads(out), indent=2) + "\n", argv
            printed[argv[0]] += 1
            pairs_printed |= argv[0] == "spectrum" and "[\n      [\n" in out
    assert set(printed) == {"validate", *DEGREE_COMMANDS, "ngon", "ffl"}, printed
    assert pairs_printed  # complex eigenvectors, as [re, im] pairs


def _dense(m) -> dict:
    """A dense matrix as the command line printed it before."""
    return {"row_labels": [list(s) for s in m.row_labels],
            "col_labels": [list(s) for s in m.col_labels],
            "entries": [[str(x) for x in row] for row in m.data]}


def run(capsys, *argv) -> dict:
    assert main(list(argv)) == 0, argv
    return json.loads(capsys.readouterr().out)


@pytest.mark.filterwarnings("ignore:.*weight entries missing")
@pytest.mark.parametrize("cplx, wts", [p for p in FILE_PAIRS if "bad" not in p[1]],
                         ids=lambda name: name.split(".")[0])
def test_matrices_and_vectors_print_as_the_dense_views(capsys, cplx, wts):
    """Entries printed from sparse rows equal the library's dense views, and
    spectra and harmonic vectors equal the library's arrays rounded to 12
    digits, in every degree, with and without inner weights."""
    complex = read_complex_file(FIXTURES / cplx)
    phi = read_weight_file(FIXTURES / wts, complex)
    assert not phi.validate()
    inner = read_inner_weights_file(FIXTURES / "inner.wts")
    for n in range(-1, complex.max_dim + 2):
        pair = ["-k", fx(cplx), "-w", fx(wts), "-n", str(n)]
        assert run(capsys, "boundary", *pair) == _dense(boundary_matrix(complex, phi, n))
        assert run(capsys, "coboundary", *pair) == _dense(coboundary_matrix(complex, phi, n))
        payload = run(capsys, "laplacian", *pair)
        up, down = up_down_matrices(complex, phi, n)
        assert [payload[k] for k in ("up", "down", "laplacian")] == [
            _dense(up), _dense(down), _dense(laplacian_matrix(complex, phi, n))]
        spec = laplacian_spectrum(complex, phi, n)
        assert run(capsys, "spectrum", *pair) == {
            "dimension": n, "eigenvalues": rounded_lists(spec.eigenvalues),
            "eigenvectors": [rounded_lists(spec.eigenvectors[:, k]) for k in range(spec.size)]}
        basis = harmonic_basis(complex, phi, n)
        assert run(capsys, "harmonic", *pair) == {
            "dimension": n, "count": basis.count, "labels": [list(s) for s in basis.labels],
            "vectors": [rounded_lists(basis.vectors[:, k]) for k in range(basis.count)]}
        if all(s in complex for s in inner.simplices()):
            payload = run(capsys, "laplacian", *pair, "--inner-weights", fx("inner.wts"))
            up, down = up_down_matrices(complex, phi, n, inner)
            assert [payload["up"], payload["down"]] == [_dense(up), _dense(down)]
            assert payload["laplacian"]["entries"] == [
                [str(x + y) for x, y in zip(a, b)] for a, b in zip(up.data, down.data)]


def test_float_text_is_the_rounded_repr(capsys):
    """Eigenvalues print as the repr of their 12-digit rounding: an
    integer-valued one as 13.0, never 13 or 12.999999999999998."""
    out = (main(["spectrum", "-k", fx("edge.cplx"), "-w", fx("edge.wts"), "-n", "0"]),
           capsys.readouterr().out)
    assert out[0] == 0
    assert '"eigenvalues": [\n    0.0,\n    13.0\n  ],' in out[1]
    assert np.allclose(json.loads(out[1])["eigenvalues"], [0.0, 13.0])


def test_complex_spectrum_and_harmonic_print_as_the_rounded_lists(capsys, tmp_path):
    """The command line's 2-d complex arrays, end to end: ``spectrum -n 2``
    and ``harmonic -n 2`` on the 2-skeleton of the 5-simplex under complex
    quotient weights print exactly json.dumps(indent=2) of the library's
    arrays as per-float 12-digit roundings."""
    complex = build_complex(combinations(range(6), 3))
    phi = random_quotient_weight(random.Random(7), complex, complex_scalars=True,
                                 allow_zero_scale=False)
    pair = write_pair(tmp_path, "d5", complex, phi)
    spec = laplacian_spectrum(complex, phi, 2)
    basis = harmonic_basis(complex, phi, 2)
    assert spec.eigenvectors.dtype.kind == basis.vectors.dtype.kind == "c"
    assert basis.count == 10
    expected = {
        "spectrum": {"dimension": 2, "eigenvalues": rounded_lists(spec.eigenvalues),
                     "eigenvectors": rounded_lists(spec.eigenvectors.T)},
        "harmonic": {"dimension": 2, "count": basis.count,
                     "labels": [list(s) for s in basis.labels],
                     "vectors": rounded_lists(basis.vectors.T)},
    }
    for command, payload in expected.items():
        assert main([command, *pair, "-n", "2"]) == 0
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"
