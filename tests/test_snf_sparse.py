"""The sparse-row Smith normal form against the dense loop it replaced.

``dense_smith_normal_form`` (``oracles.py``) rescans the whole trailing
submatrix at every pivot; ``smith_normal_form`` keeps sparse rows and
indexes and pivots in its own order.  The diagonal and rank are unique, so
they must agree with the dense loop's, with and without transforms; U and
V are not, so they are checked by their contract (``assert_smith_transforms``:
unimodular, U @ M @ V == diag(d)), and both input forms, dense rows and an
ExactMatrix, must give equal results.  The elimination itself must take
the steps of ``reference_diagonal``, the frozen loop it was made leaner
from, and leave the same U and V: the pinned transforms rest on that.  The
bounded-work checks run the sparse loop at sizes the dense one takes
seconds to reach.
"""

import importlib.util
import json
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import prod
from pathlib import Path

import numpy as np
import pytest

from wsimplex import (
    ExactMatrix,
    GaussianRational,
    SNFResult,
    boundary_matrix,
    build_complex,
    make_ngon,
    ngon_homology_closed_form,
    smith_normal_form,
    weighted_homology,
)
from wsimplex.chains import boundary_columns
from wsimplex.cli import main
from wsimplex.homology import _diagonal

from conftest import (
    DEEP,
    VALID_FILE_PAIRS,
    load_file_pair,
    random_cfw_weight,
    random_dawson_weight,
    spectral_fixtures,
    write_pair,
)
from oracles import (
    assert_matches_dense,
    assert_smith_transforms,
    dense_smith_normal_form,
    integer_det,
    reference_diagonal,
    snf_input,
)


def random_matrix(rng):
    rows, cols = rng.randint(0, 8), rng.randint(0, 8)
    density = rng.choice([0.0, 1.0, rng.random()])
    # one matrix in 19 reaches 10^12: those cost the most, through the bit
    # length their transforms' entries grow to
    big = rng.choices([1, 9, 10**3, 10**12], [8, 6, 4, 1])[0]
    return [[rng.randint(-big, big) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)], cols


def assert_frozen_steps(rows: list[dict], nc: int) -> None:
    """``_diagonal`` on the sparse integer rows takes the frozen loop's
    (pivot, row, column) steps, with U and V and without, and leaves the
    same U and V."""
    runs = []
    for diagonal in (_diagonal, reference_diagonal):
        U = [{i: 1} for i in range(len(rows))]
        V = [{j: 1} for j in range(nc)]
        runs.append((diagonal([dict(row) for row in rows], nc, U, V), U, V))
    assert runs[0] == runs[1]
    assert _diagonal([dict(row) for row in rows], nc) == runs[1][0]


def test_matches_dense_loop_on_random_matrices():
    rng = random.Random(1998)
    shapes = set()
    for _ in range(3000):
        matrix, cols = random_matrix(rng)
        assert_matches_dense(snf_input(matrix, cols))
        assert_frozen_steps([{j: x for j, x in enumerate(row) if x} for row in matrix], cols)
        shapes.add((len(matrix), cols, any(map(any, matrix))))
    # empty shapes on both sides and all-zero matrices were drawn
    assert {(0, 5, False), (5, 0, False), (8, 8, False), (8, 8, True)} <= shapes


def test_matches_dense_loop_on_cycles_and_skeleta():
    rng = random.Random(2001)
    for n in (40, 200):
        alphas = [2 * rng.choice([1, 2, 3, 5, 6]) for _ in range(n)]
        assert_matches_dense(boundary_matrix(*make_ngon(alphas), 1))
    for k in (5, 7):
        complex = build_complex(list(combinations(range(k + 1), 3)))
        for phi in (random_dawson_weight(rng, complex), random_cfw_weight(rng, complex)):
            for n in (1, 2, 3):
                assert_matches_dense(boundary_matrix(complex, phi, n))


def integer_rows(complex, phi, n) -> list[dict]:
    """The sparse integer rows of d_n, filled from its columns."""
    rows = [{} for _ in complex.basis(n - 1)]
    for j, column in enumerate(boundary_columns(complex, phi, n)):
        for i, x in column.items():
            rows[i][j] = int(x)
    return rows


def test_frozen_steps_on_fixture_boundaries_and_cycles():
    """The step list, U and V of the frozen loop on every boundary of every
    integer fixture pair, from files and seeded, and on 40- and 160-cycles
    with all-ones weights and with weights drawn from {2, 4, 6, 10, 12}."""
    rng = random.Random(36)
    pairs = [load_file_pair(cplx, wts) for cplx, wts in VALID_FILE_PAIRS]
    pairs += [(complex, phi) for _, complex, phi in spectral_fixtures(count=16)]
    for n in (40, 160):
        pairs += [make_ngon([1] * n),
                  make_ngon([rng.choice([2, 4, 6, 10, 12]) for _ in range(n)])]
    checked = 0
    for complex, phi in pairs:
        if not phi.is_integral():
            continue
        for n in range(complex.max_dim + 2):
            assert_frozen_steps(integer_rows(complex, phi, n), len(complex.basis(n)))
            checked += 1
    assert checked > 60


def test_sparse_snf_bounded_work(capsys, tmp_path):
    """Degree-0 homology of 600-, 2,000- and 8,000-cycles and of an 80-cycle
    with wide weights (the dense loop takes over 10 s at 600), and the Δ¹⁷
    2-skeleton's degree-2 SNF (153 x 816; dense: about 0.6 s)."""
    rng = random.Random(600)
    alphas = [2 * rng.choice([1, 2, 3, 5, 6]) for _ in range(600)]
    argv = write_pair(tmp_path, "cycle", *make_ngon(alphas))
    start = time.perf_counter()
    assert main(["homology", *argv, "-n", "0"]) == 0
    assert time.perf_counter() - start < 3.0
    payload = json.loads(capsys.readouterr().out)
    group = ngon_homology_closed_form(alphas)
    assert (payload["torsion"], payload["free_rank"]) == (group.torsion, group.free_rank)

    # a 2,000-cycle with shared weights: the indexed pivot search, the
    # column index and the divisibility skip keep it near linear (the
    # rescanning loop took about 4.6 s)
    alphas = [2 * rng.choice([1, 2, 3, 5, 6]) for _ in range(2000)]
    argv = write_pair(tmp_path, "long", *make_ngon(alphas))
    start = time.perf_counter()
    assert main(["homology", *argv, "-n", "0"]) == 0
    assert time.perf_counter() - start < 2.0
    payload = json.loads(capsys.readouterr().out)
    group = ngon_homology_closed_form(alphas)
    assert (payload["torsion"], payload["free_rank"]) == (group.torsion, group.free_rank)

    # an 8,000-cycle with shared weights (the chain loop took about 4.4 s)
    # and an 80-cycle with random odd 60-bit weights (12-16 s): the
    # diagonal-only elimination pivots on a sparse column and reaches a gcd
    # by one 2x2 step where the chain loop folds rows
    for n, alphas in ((8000, [2 * rng.choice([1, 2, 3, 5, 6]) for _ in range(8000)]),
                      (80, [rng.getrandbits(60) | 1 for _ in range(80)])):
        argv = write_pair(tmp_path, f"cycle{n}", *make_ngon(alphas))
        start = time.perf_counter()
        assert main(["homology", *argv, "-n", "0"]) == 0
        assert time.perf_counter() - start < (2.0 if n == 8000 else 1.0)
        payload = json.loads(capsys.readouterr().out)
        group = ngon_homology_closed_form(alphas)
        assert (payload["torsion"], payload["free_rank"]) == (group.torsion, group.free_rank)
        assert main(["ngon", "--alphas", ",".join(map(str, alphas))]) == 0
        closed = json.loads(capsys.readouterr().out)
        assert (closed["torsion"], closed["free_rank"]) == (group.torsion, group.free_rank)

    complex = build_complex(list(combinations(range(18), 3)))
    phi = random_dawson_weight(rng, complex)
    argv = write_pair(tmp_path, "simplex", complex, phi)
    start = time.perf_counter()
    assert main(["snf", *argv, "-n", "2"]) == 0
    assert time.perf_counter() - start < 3.0
    payload = json.loads(capsys.readouterr().out)
    dense = dense_smith_normal_form(boundary_matrix(complex, phi, 2))
    assert payload["diagonal"] == dense.diagonal


def test_snf_transforms_bounded_work(capsys, tmp_path):
    """``snf --transforms -n 1`` on a hollow triangle with seeded 4,000-digit
    edge weights, whose d_1 is [[-a1, -b1, 0], [a0, 0, -c1], [0, b0, c0]]:
    a loop that kept d1 | d2 | ... as it went took 1,134 s on such an
    input, its U and V entries grown to hundreds of times the input's bit
    length.  The answer comes in under 1 s, U and V keep their contract,
    and their entries stay within 16 times the input's bit length."""
    rng = random.Random(4000)
    a0, a1, b0, b1, c0, c1 = (rng.randrange(10**3999, 10**4000) for _ in range(6))
    k, w = tmp_path / "hollow.cplx", tmp_path / "wide.wts"
    k.write_text("0 1\n0 2\n1 2\n")
    w.write_text(f"0 1 | 1 | {a0}\n0 1 | 0 | {a1}\n0 2 | 2 | {b0}\n0 2 | 0 | {b1}\n"
                 f"1 2 | 2 | {c0}\n1 2 | 1 | {c1}\n")
    start = time.perf_counter()
    assert main(["snf", "-k", str(k), "-w", str(w), "-n", "1", "--strict", "--transforms"]) == 0
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr().out
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        payload = json.loads(out)
    finally:
        sys.set_int_max_str_digits(limit)
    d1 = [[-a1, -b1, 0], [a0, 0, -c1], [0, b0, c0]]
    result = SNFResult(payload["diagonal"], payload["rank"], payload["U"], payload["V"])
    # the plain path's diagonal, and its product |det d_1|, which is not 0
    assert result.diagonal == smith_normal_form(d1).diagonal
    assert prod(result.diagonal) == abs(integer_det(d1)) and result.rank == 3
    assert_smith_transforms(d1, 3, result)
    bits = max(abs(x).bit_length() for row in d1 for x in row)
    assert max(abs(x).bit_length() for m in (result.U, result.V) for row in m for x in row) \
        <= 16 * bits


@pytest.mark.skipif(not DEEP, reason="about 3 s; runs under HYPOTHESIS_PROFILE=deep")
def test_flag60_cfw_homology_bounded_work(capsys, tmp_path):
    """``flag60`` with CFW weights, the benchmark generator's random flag
    complex (60 vertices, 800 edges, 3,138 triangles, 4,024 tetrahedra):
    no entry of its d_3 is a unit, so the chain loop's fill reached 1.17 M
    non-zeros of 113 bits and took about 95 s.  The generator is loaded by
    path and only read."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", Path(__file__).resolve().parent.parent / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    rng = random.Random(7)
    maximal = gen.flag_complex(rng, 60, 800, 3)
    basis = gen.closure(maximal)
    gen.dawson_weight(rng, basis)  # drawn first, as the ladder draws it
    (tmp_path / "flag60.cplx").write_text(gen.complex_text(maximal))
    (tmp_path / "flag60.wts").write_text(gen.weight_text(gen.cfw_weight(rng, basis)))
    start = time.perf_counter()
    assert main(["homology", "-k", str(tmp_path / "flag60.cplx"),
                 "-w", str(tmp_path / "flag60.wts"), "-n", "2"]) == 0
    assert time.perf_counter() - start < 10.0
    payload = json.loads(capsys.readouterr().out)
    assert payload["free_rank"] == 18
    assert sorted(Counter(payload["torsion"]).items()) == [(2, 397), (6, 947), (18, 109),
                                                           (36, 68)]


@pytest.mark.skipif(not DEEP, reason="about 4 s; runs under HYPOTHESIS_PROFILE=deep")
def test_closed_form_bounded_work_at_4000_vertices():
    """The polygon closed form on 4,000 odd 60-bit weights: its coprime
    base refines the weights by gcds, with no factoring and no subset
    gcds, so it answers in bounded time, and it equals the matrix
    pipeline's homology of the same polygon."""
    rng = random.Random(4000)
    alphas = [rng.getrandbits(60) | 1 for _ in range(4000)]
    start = time.perf_counter()
    group = ngon_homology_closed_form(alphas)
    assert time.perf_counter() - start < 10.0
    complex, phi = make_ngon(alphas)
    assert group == weighted_homology(complex, phi, 0)
    assert group.free_rank == 1


def test_exact_matrix_cols_must_agree_with_the_rows():
    """An ExactMatrix refuses a ``cols`` its rows contradict; with no rows,
    ``cols`` is the width."""
    with pytest.raises(ValueError, match="cols=3 disagrees with the matrix's 2 columns"):
        ExactMatrix([[1, 2]], cols=3)
    with pytest.raises(ValueError, match="cols=1 disagrees with the matrix's 0 columns"):
        ExactMatrix([[], []], cols=1)
    assert ExactMatrix([[1, 2]], cols=2).shape == (1, 2)
    assert ExactMatrix([], cols=3).shape == (0, 3)


# -- the two input forms -------------------------------------------------------

def input_forms(dense, cols):
    """One integer matrix as dense rows, when it has rows, and as an
    ExactMatrix, which keeps the width of a matrix with no rows."""
    return ([dense] if dense else []) + [ExactMatrix(dense, cols=cols)]


def assert_forms_match_dense(dense, cols):
    """Every input form against one run of the dense loop: the diagonal and
    rank in both modes, U and V by their contract; the forms' results with
    transforms are equal too."""
    reference = dense_smith_normal_form(dense, cols=cols)
    forms = input_forms(dense, cols)
    result = smith_normal_form(forms[0], transforms=True)
    assert (result.diagonal, result.rank) == (reference.diagonal, reference.rank)
    assert_smith_transforms(dense, cols, result)
    for matrix in forms:
        assert smith_normal_form(matrix, transforms=True) == result
        assert smith_normal_form(matrix) == reference  # U and V None
    return result


def path_rows(alphas):
    """Dense boundary of the weighted path 0 - 1 - ... - n-1, weighted as a
    polygon with its closing edge left out: edge (j, j+1) is
    alphas[j+1] * [j+1] - alphas[j] * [j]."""
    n = len(alphas)
    rows = [[0] * (n - 1) for _ in range(n)]
    for j in range(n - 1):
        rows[j][j], rows[j + 1][j] = -alphas[j], alphas[j + 1]
    return rows


def test_input_forms_on_shared_weight_cycles_and_paths():
    rng = random.Random(2018)
    for n in (40, 200):
        alphas = [2 * rng.choice([1, 2, 3, 5, 6]) for _ in range(n)]
        cycle = [[int(x) for x in row] for row in boundary_matrix(*make_ngon(alphas), 1).data]
        result = assert_forms_match_dense(cycle, n)
        group = ngon_homology_closed_form(alphas)
        assert [d for d in result.diagonal if d > 1] == group.torsion
        assert_forms_match_dense(path_rows(alphas), n - 1)


def test_input_forms_on_folds_cancellations_and_empty_shapes():
    # a pivot above the common divisor of what is left below it forces a fold
    folds = {((2, 0), (0, 3)): [1, 6], ((4, 6), (6, 4)): [2, 10],
             ((6, 0, 0), (0, 10, 0), (0, 0, 15)): [1, 30, 30]}
    for block, diagonal in folds.items():
        dense = [list(row) for row in block]
        assert assert_forms_match_dense(dense, len(dense[0])).diagonal == diagonal
    # rows that one row operation empties, and a zero row from the start
    for dense in ([[1, 2, 3], [2, 4, 6], [3, 6, 9]], [[2, 4], [2, 4], [0, 0]],
                  [[0, 0, 0], [3, 3, 6], [6, 6, 12], [1, 1, 2]]):
        assert assert_forms_match_dense(dense, len(dense[0])).rank == 1
    for rows, cols in ((0, 0), (0, 3), (3, 0), (2, 3)):
        result = assert_forms_match_dense([[0] * cols for _ in range(rows)], cols)
        assert (result.diagonal, result.rank) == ([0] * min(rows, cols), 0)
        # V spans every column, of a matrix with no rows too
        assert result.V == [[int(i == j) for j in range(cols)] for i in range(cols)]


def test_matrix_rows_are_checked():
    """Dense rows go through ExactMatrix: integer-valued exact entries pass,
    numpy integers among them, other exact ones are refused by the normal
    form, floats (numpy's and 6.0 included) and strings by ExactMatrix, and
    ragged rows by ExactMatrix."""
    assert smith_normal_form([[Fraction(4), 0], [0, 6]]).diagonal == [2, 12]
    assert smith_normal_form([[3, 0], [0, 0]]).diagonal == [3, 0]
    ints = np.array([[2, 4], [6, 8]], dtype=np.int64)
    assert ExactMatrix(ints) == ExactMatrix([[2, 4], [6, 8]])
    assert smith_normal_form(ints).diagonal == [2, 4]
    assert smith_normal_form(ints, transforms=True).diagonal == [2, 4]
    for rows in ([[Fraction(1, 2), 0]], [[GaussianRational(1, 1), 0]]):
        for matrix in (rows, ExactMatrix(rows)):
            with pytest.raises(ValueError, match="matrix has non-integer entries"):
                smith_normal_form(matrix)
    for rows in ([[0, 6.0]], [[0, 1.5]], [[float("nan")]], [[float("inf")]], [["3", 0]],
                 [[np.float64(6.0)]], [[0, np.float64(1.5)]]):
        with pytest.raises(TypeError, match="as a Gaussian rational"):
            smith_normal_form(rows)
        with pytest.raises(TypeError, match="as a Gaussian rational"):
            ExactMatrix(rows)
    for rows in ([[1, 0], [1]], [[], [1]]):
        with pytest.raises(ValueError, match="ragged rows"):
            smith_normal_form(rows)


def test_dict_rows_are_refused():
    """A dict iterates as its keys, so a ``{column: value}`` row read as a
    dense row would be a row of column ids: ExactMatrix refuses it, and so
    does the normal form, which reads dense rows through it; an ExactMatrix
    of the same entries is read."""
    for rows in ([{0: 3}], [{0: 5, 1: 3}], [{0: 3, 1: 4}, {1: 5}], [[1, 0], {0: 1}], [{}]):
        with pytest.raises(ValueError, match="pass an ExactMatrix"):
            ExactMatrix(rows)
        with pytest.raises(ValueError, match="pass an ExactMatrix"):
            smith_normal_form(rows)
        with pytest.raises(ValueError, match="pass an ExactMatrix"):
            smith_normal_form(rows, transforms=True)
    assert smith_normal_form(ExactMatrix([[3, 4], [0, 5]])).diagonal == [1, 15]
