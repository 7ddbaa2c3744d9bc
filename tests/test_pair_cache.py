"""Each exact operator is built once per (complex, weight) pair.

A weight function caches, per degree, the sparse exact parts every
library function reads: the boundary columns, their ranks, the normal
form behind ``weighted_homology`` and the standard Laplacian parts.  These
tests pin what the cache must not change: every answer equals the one a
freshly loaded pair gives, no caller can reach a held object, each
boundary is written once, an unvalidated pair caches nothing, and two
pairs share nothing.
"""

import gc
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from wsimplex import (
    GaussianRational,
    UnvalidatedWeightError,
    WeightFunction,
    build_complex,
    identity_weight,
    read_complex_file,
    read_weight_file,
)
from wsimplex import chains, cli, homology
from wsimplex.chains import boundary_columns, boundary_matrix, coboundary_matrix
from wsimplex.homology import boundary_int_rows, smith_normal_form, weighted_homology
from wsimplex.matrices import ExactMatrix
from wsimplex.spectral import (
    cohomology_dim,
    harmonic_basis,
    laplacian_matrix,
    laplacian_spectrum,
    up_down_matrices,
    zero_multiplicity_formulas,
)

from conftest import sample_triangle_table, spectral_fixtures

FIXTURES = Path(__file__).parent / "fixtures"
FILE_PAIRS = [
    ("cycle40_even.cplx", "cycle40_even.wts"),
    ("edge.cplx", "edge.wts"),
    ("edge.cplx", "edge_complex.wts"),
    ("hollow.cplx", "doubled.wts"),
    ("pentagon.cplx", "pentagon.wts"),
    ("pentagon.cplx", "pentagon_imaginary.wts"),
    ("pentagon.cplx", "pentagon_zeros.wts"),
    ("simplex5_dawson.cplx", "simplex5_dawson.wts"),
    ("triangle.cplx", "triangle.wts"),
]


def load_file_pair(cplx: str, wts: str):
    complex = read_complex_file(FIXTURES / cplx)
    phi = read_weight_file(FIXTURES / wts, complex, strict=True)
    assert not phi.validate()
    return complex, phi


def fresh_copy(complex, phi):
    """The same pair loaded again: a new complex and weight function."""
    again = build_complex(complex.simplices())
    fresh = WeightFunction(again, {(s, i): x for (s, i), x in phi.entries()})
    assert not fresh.validate()
    return again, fresh


def pairs():
    """(name, complex, phi, loader of a fresh equal pair) for every file
    fixture pair and the seeded in-memory fixtures."""
    out = []
    for cplx, wts in FILE_PAIRS:
        complex, phi = load_file_pair(cplx, wts)
        out.append((wts, complex, phi, lambda c=cplx, w=wts: load_file_pair(c, w)))
    for name, complex, phi in spectral_fixtures(count=16):
        out.append((name, complex, phi, lambda c=complex, p=phi: fresh_copy(c, p)))
    return out


def snf_of_boundary(complex, phi, n):
    return smith_normal_form(boundary_int_rows(complex, phi, n), cols=len(complex.basis(n)))


def calls(phi):
    """Name -> call(complex, phi, n) of every library function that reads
    the cache, and the result of the benchmark's rank and SNF queries."""
    out = {
        "boundary_columns": boundary_columns,
        "boundary_matrix": boundary_matrix,
        "coboundary_matrix": coboundary_matrix,
        "cohomology_dim": cohomology_dim,
        "zero_multiplicity_formulas": zero_multiplicity_formulas,
        "up_down_matrices": up_down_matrices,
        "laplacian_matrix": laplacian_matrix,
        "laplacian_spectrum": laplacian_spectrum,
        "harmonic_basis": harmonic_basis,
        "rank": lambda k, p, n: boundary_matrix(k, p, n).rank(),
    }
    if phi.is_integral():
        out["boundary_int_rows"] = boundary_int_rows
        out["weighted_homology"] = weighted_homology
        out["snf"] = snf_of_boundary
    return out


def same(a, b) -> bool:
    """Equal exact results; float results as the same arrays."""
    if hasattr(a, "eigenvalues"):
        return (np.array_equal(a.eigenvalues, b.eigenvalues)
                and np.array_equal(a.eigenvectors, b.eigenvectors))
    if hasattr(a, "vectors"):
        return (a.dimension == b.dimension and a.labels == b.labels
                and np.array_equal(a.vectors, b.vectors))
    if isinstance(a, ExactMatrix):
        return a == b and a.row_labels == b.row_labels and a.col_labels == b.col_labels
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


def test_repeated_calls_equal_a_fresh_pair():
    for name, complex, phi, load in pairs():
        for n in range(-1, complex.max_dim + 2):
            for op, call in calls(phi).items():
                fresh_complex, fresh = load()
                expected = call(fresh_complex, fresh, n)
                for _ in range(2):
                    assert same(call(complex, phi, n), expected), (name, op, n)
        assert phi._operators, name


def scribble(m: ExactMatrix) -> None:
    """Write 7 over every entry of m a caller can reach: its dense copy
    and its own sparse rows, each row and the list of them."""
    seven = GaussianRational(7)
    for row in m.data:
        row[:] = [seven] * len(row)
    for row in m._entries:
        row.update(dict.fromkeys(range(m.cols), seven))
    m._entries.append({0: seven})


def test_mutating_a_result_changes_no_later_answer():
    for name, complex, phi, load in pairs():
        fresh_complex, fresh = load()
        for n in range(-1, complex.max_dim + 2):
            for op, call in calls(phi).items():
                expected = call(fresh_complex, fresh, n)
                got = call(complex, phi, n)
                if op == "boundary_columns" or op == "boundary_int_rows":
                    for column in got:
                        column[0] = 99
                    got.append({0: 1})
                elif isinstance(got, ExactMatrix):
                    scribble(got)
                elif op == "up_down_matrices":
                    for m in got:
                        scribble(m)
                elif op == "weighted_homology":
                    got.torsion.append(7)
                    got.free_rank += 1
                elif op == "snf":
                    got.diagonal.append(7)
                    got.diagonal[0:1] = [5]
                elif op == "laplacian_spectrum":
                    got.eigenvalues[:] = 7.0
                    got.eigenvectors[:] = 7.0
                elif op == "harmonic_basis":
                    got.vectors[:] = 7.0
                assert same(call(complex, phi, n), expected), (name, op, n)


def test_session_writes_each_boundary_once(monkeypatch):
    written = Counter()
    signed_faces = chains._signed_faces

    def counted(phi, s):
        written[id(phi), s.dim] += 1
        return signed_faces(phi, s)

    monkeypatch.setattr(chains, "_signed_faces", counted)
    held = []  # keeps every id(phi) counted above unique
    for name, _, _, load in pairs():
        complex, phi = load()
        held.append(phi)
        for _ in range(2):
            for n in range(-1, complex.max_dim + 2):
                for call in calls(phi).values():
                    call(complex, phi, n)
        for n in range(complex.max_dim + 1):
            assert written[id(phi), n] == len(complex.basis(n)), (name, n)
        assert sum(count for (key, _), count in written.items() if key == id(phi)) \
            == len(complex), name


def test_unvalidated_weight_raises_and_caches_nothing():
    complex = build_complex([(0, 1, 2)])
    raw = WeightFunction(complex, sample_triangle_table())
    for n in range(0, complex.max_dim + 2):
        for op, call in calls(raw).items():
            with pytest.raises(UnvalidatedWeightError):
                call(complex, raw, n)
            assert raw._operators == {}, (op, n)
    assert not raw.validate()
    weighted_homology(complex, raw, 1)
    assert raw._operators


def test_a_foreign_complex_caches_nothing():
    complex = build_complex([(0, 1, 2)])
    phi = identity_weight(complex)
    other = build_complex([(0, 1, 2), (2, 3)])
    for op, call in calls(phi).items():
        with pytest.raises(ValueError, match="different complex"):
            call(other, phi, 1)
    assert phi._operators == {}


def held_objects(phi) -> list:
    """Every mutable container the cache of phi holds, nested ones
    included (an immutable one, like the shared empty tuple, is not)."""
    out, stack = [], list(phi._operators.values())
    while stack:
        x = stack.pop()
        if isinstance(x, (list, tuple, dict)):
            if not isinstance(x, tuple):
                out.append(x)
            stack.extend(x.values() if isinstance(x, dict) else x)
    return out


def test_pairs_on_equal_complexes_share_nothing():
    a = build_complex([(0, 1, 2), (1, 2, 3), (3, 4)])
    b = build_complex([(3, 4), (1, 2, 3), (0, 1, 2)])
    assert a == b and a is not b
    one = identity_weight(a)
    doubled = WeightFunction(b, {pair: 2 for pair, _ in one.entries()})
    assert not doubled.validate()
    for n in range(-1, a.max_dim + 2):
        for op, call in calls(one).items():
            # each pair also answers for the other's equal complex
            call(b, one, n)
            call(a, doubled, n)
    ids = [{id(x) for x in held_objects(phi)} for phi in (one, doubled)]
    assert ids[0] and ids[1] and not ids[0] & ids[1]
    assert boundary_columns(a, doubled, 2) == [
        {i: 2 * x for i, x in column.items()} for column in boundary_columns(a, one, 2)]
    assert laplacian_matrix(b, doubled, 1) == ExactMatrix(
        [[4 * x for x in row] for row in laplacian_matrix(b, one, 1).data])
    assert weighted_homology(a, one, 1) != weighted_homology(a, doubled, 1)


def test_cache_holds_sparse_parts_only():
    for name, complex, phi, _ in pairs():
        for n in range(-1, complex.max_dim + 2):
            laplacian_matrix(complex, phi, n)
            up, down = up_down_matrices(complex, phi, n)
            parts = phi._operators["parts", n]
            for rows, dense in zip(parts, (up, down)):
                # no stored zero slots: one entry per non-zero of the part
                nnz = sum(1 for row in dense.data for x in row if x)
                assert sum(map(len, rows)) == nnz, (name, n)
        # no dense matrix: no ExactMatrix and no list of rows
        for x in held_objects(phi):
            assert not isinstance(x, ExactMatrix), name
            assert not (isinstance(x, list) and x and isinstance(x[0], list)), name


def test_pairs_are_freed_without_the_collector(monkeypatch, capsys):
    """The cache makes no reference cycle: a library pair dies with its
    last reference, and a CLI call's pair when ``main`` returns."""
    refs = []
    read = cli.read_weight_file

    def recorded(*args, **kwargs):
        phi = read(*args, **kwargs)
        refs.append(weakref.ref(phi))
        return phi

    monkeypatch.setattr(cli, "read_weight_file", recorded)
    pair = ["-k", str(FIXTURES / "triangle.cplx"), "-w", str(FIXTURES / "triangle.wts")]
    gc.disable()
    try:
        for argv in (["homology", *pair, "-n", "1"], ["laplacian", *pair, "-n", "1"],
                     ["spectrum", *pair, "-n", "1"], ["multiplicities", *pair, "-n", "1"]):
            assert cli.main(argv) == 0, argv
            assert refs[-1]() is None, argv
        complex, phi = load_file_pair("simplex5_dawson.cplx", "simplex5_dawson.wts")
        for n in range(-1, complex.max_dim + 2):
            for call in calls(phi).values():
                call(complex, phi, n)
        ref = weakref.ref(phi)
        del phi
        assert ref() is None
    finally:
        gc.enable()
    capsys.readouterr()


def test_homology_reads_one_normal_form_per_degree(monkeypatch):
    snf_calls = []
    snf = homology.smith_normal_form

    def counted(*args, **kwargs):
        snf_calls.append(args)
        return snf(*args, **kwargs)

    monkeypatch.setattr(homology, "smith_normal_form", counted)
    complex, phi = load_file_pair("simplex5_dawson.cplx", "simplex5_dawson.wts")
    degrees = range(-1, complex.max_dim + 2)
    first = [weighted_homology(complex, phi, n) for n in degrees]
    assert len(snf_calls) == len(first)
    assert [weighted_homology(complex, phi, n) for n in degrees] == first
    assert len(snf_calls) == len(first)


def test_spectral_reads_each_rank_once(monkeypatch):
    ranked = []
    column_rank = chains.column_rank

    def counted(columns):
        ranked.append(1)
        return column_rank(columns)

    monkeypatch.setattr(chains, "column_rank", counted)
    complex, phi = load_file_pair("simplex5_dawson.cplx", "simplex5_dawson.wts")
    for _ in range(3):
        for n in range(-1, complex.max_dim + 2):
            cohomology_dim(complex, phi, n)
            zero_multiplicity_formulas(complex, phi, n)
            harmonic_basis(complex, phi, n)
            laplacian_spectrum(complex, phi, n)
            weighted_homology(complex, phi, n)
    # r_n for n = -1 .. max_dim + 2, each ranked once
    assert len(ranked) == complex.max_dim + 4


def test_homology_walks_the_weight_table_once(monkeypatch):
    """``weighted_homology`` asks ``is_integral`` on every call; the table
    is walked on the first ask only, and a non-integer table is refused
    before the pair check, validated or not."""
    walked = Counter()
    is_integer = GaussianRational.is_integer

    def counted(self):
        walked["entries"] += 1
        return is_integer(self)

    monkeypatch.setattr(GaussianRational, "is_integer", counted)
    complex, phi = load_file_pair("simplex5_dawson.cplx", "simplex5_dawson.wts")
    degrees = range(-1, complex.max_dim + 2)
    answers = [weighted_homology(complex, phi, n) for n in degrees]
    # the first round also reads each boundary entry once, as an integer
    first = walked["entries"]
    assert first >= len(list(phi.entries()))
    assert [weighted_homology(complex, phi, n) for n in degrees] == answers
    assert walked["entries"] == first

    halves = build_complex([(0, 1)])
    raw = WeightFunction(halves, {((0, 1), 0): Fraction(1, 2), ((0, 1), 1): 1})
    for _ in range(2):
        with pytest.raises(ValueError, match="integer homology needs integer weight"):
            weighted_homology(halves, raw, 0)
    assert raw._operators == {} and not raw.validated
