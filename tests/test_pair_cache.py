"""Each operator is built once per (complex, weight) pair.

A weight function caches, per degree, the parts a later call reads
back, five kinds in all: the boundary columns, the lows of each reduced
coboundary (the rank vector), the normal form behind
``weighted_homology``, the standard Laplacian sum, and the harmonic
basis, the one dense part, a read-only f_n x dim H^n array.  The
Laplacian parts and the float factor are rebuilt on each call.  These
tests pin what the cache must not change: every answer equals the one a
freshly loaded pair gives, no caller can reach a held object, each
boundary, Laplacian sum and harmonic basis is built once, the pair holds
no kind of part but the five, an unvalidated pair, a factor outside
float range or an inner-weight call caches nothing, two pairs share
nothing, and nothing held is dense but the harmonic bases, each the size
of its answer (no f_n x f_n eigenvector matrix).  A
boundary or coboundary matrix reads its rank from the pair's rank
vector, which is checked against a rank computed afresh, and a boundary
matrix its Smith diagonal from the pair's normal form; r_n reduces the
coboundaries into degrees 1..n once each and nothing else.  A seeded
differential test repeats both held answers on random flag complexes;
it reads ``DEEP`` and runs ten times the draws under the deep profile.
"""

import gc
import random
import warnings
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
)
from wsimplex import chains, cli, eigen, homology
from wsimplex.chains import boundary_columns, boundary_matrix, coboundary_matrix
from wsimplex.homology import smith_normal_form, weighted_homology
from wsimplex.matrices import ExactMatrix, column_rank
from wsimplex.spectral import (
    InnerProductWeights,
    cohomology_dim,
    harmonic_basis,
    laplacian_matrix,
    laplacian_spectrum,
    up_down_matrices,
    zero_multiplicity_formulas,
)

from conftest import (
    DEEP,
    VALID_FILE_PAIRS,
    load_file_pair,
    random_cfw_weight,
    random_dawson_weight,
    random_flag_complex,
    random_semi_trivial_weight,
    sample_triangle_table,
    spectral_fixtures,
)

FIXTURES = Path(__file__).parent / "fixtures"


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
    for cplx, wts in VALID_FILE_PAIRS:
        complex, phi = load_file_pair(cplx, wts)
        out.append((wts, complex, phi, lambda c=cplx, w=wts: load_file_pair(c, w)))
    for name, complex, phi in spectral_fixtures(count=16):
        out.append((name, complex, phi, lambda c=complex, p=phi: fresh_copy(c, p)))
    return out


def snf_of_boundary(complex, phi, n):
    return smith_normal_form(boundary_matrix(complex, phi, n))


def inner_weights(complex) -> InnerProductWeights:
    """Fixed positive inner weights, 1/2 to 3/2 by the vertex sum."""
    return InnerProductWeights({s: Fraction(1 + sum(s) % 3, 2) for s in complex.simplices()})


def calls(phi):
    """Name -> call(complex, phi, n) of every library function that reads
    the cache, and the result of the benchmark's rank and SNF queries."""
    w = inner_weights(phi.complex)
    out = {
        "boundary_columns": boundary_columns,
        "boundary_matrix": boundary_matrix,
        "coboundary_matrix": coboundary_matrix,
        "cohomology_dim": cohomology_dim,
        "zero_multiplicity_formulas": zero_multiplicity_formulas,
        "up_down_matrices": up_down_matrices,
        "up_down_matrices_w": lambda k, p, n: up_down_matrices(k, p, n, w),
        "laplacian_matrix": laplacian_matrix,
        "laplacian_spectrum": laplacian_spectrum,
        "laplacian_spectrum_w": lambda k, p, n: laplacian_spectrum(k, p, n, w),
        "harmonic_basis": harmonic_basis,
        "rank": lambda k, p, n: boundary_matrix(k, p, n).rank(),
        "coboundary_rank": lambda k, p, n: coboundary_matrix(k, p, n).rank(),
    }
    if phi.is_integral():
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
                if op == "boundary_columns":
                    for column in got:
                        column[0] = 99
                    got.append({0: 1})
                elif isinstance(got, ExactMatrix):
                    scribble(got)
                elif op.startswith("up_down_matrices"):
                    for m in got:
                        scribble(m)
                elif op == "weighted_homology":
                    got.torsion.append(7)
                    got.free_rank += 1
                elif op == "snf":
                    got.diagonal.append(7)
                    got.diagonal[0:1] = [5]
                elif op.startswith("laplacian_spectrum"):
                    got.eigenvalues[:] = 7.0
                    got.eigenvectors[:] = 7.0
                elif op == "harmonic_basis":
                    got.vectors[:] = 7.0
                assert same(call(complex, phi, n), expected), (name, op, n)


def test_session_writes_each_boundary_once(monkeypatch):
    written = Counter()  # (pair, degree) -> columns built
    build_columns = chains._build_columns

    def counted(phi, n):
        columns = build_columns(phi, n)
        written[id(phi), n] += len(columns)
        return columns

    monkeypatch.setattr(chains, "_build_columns", counted)
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


class Writes(dict):
    """A pair's cache that counts the writes of each key in ``counter``."""

    def __init__(self, counter: Counter):
        super().__init__()
        self.counter = counter

    def __setitem__(self, key, value):
        self.counter[key] += 1
        super().__setitem__(key, value)


def test_session_builds_each_laplacian_once(monkeypatch):
    """Each part is written once per pair, and a degree's Laplacian sum is
    built once, one matrix sum, however often the pair is asked."""
    built = Counter()
    add = ExactMatrix.__add__

    def counted_add(self, other):
        built["laplacian"] += 1
        return add(self, other)

    monkeypatch.setattr(ExactMatrix, "__add__", counted_add)
    for name, _, _, load in pairs():
        complex, phi = load()
        writes = Counter()
        phi._operators = Writes(writes)
        built.clear()
        degrees = range(-1, complex.max_dim + 2)
        for _ in range(3):
            for n in degrees:
                laplacian_matrix(complex, phi, n)
                laplacian_spectrum(complex, phi, n)
                harmonic_basis(complex, phi, n)
        assert built == {"laplacian": len(degrees)}, name
        for _ in range(2):
            for n in degrees:
                for call in calls(phi).values():
                    call(complex, phi, n)
        assert built == {"laplacian": len(degrees)}, name
        for n in degrees:
            assert writes["laplacian", n] == 1, (name, n)
        assert set(writes.values()) == {1}, name


PART_KINDS = {"columns", "lows", "snf", "laplacian", "harmonic"}


def part_kinds(phi) -> set:
    return {part for part, _ in phi._operators}


def test_the_pair_holds_five_part_kinds():
    """After every library call in every degree, inner weights included,
    the pair holds no part but the five kinds a later call reads back, and
    the calls together hold each of them."""
    seen = set()
    for name, complex, phi, _ in pairs():
        for n in range(-1, complex.max_dim + 2):
            for op, call in calls(phi).items():
                call(complex, phi, n)
                assert part_kinds(phi) <= PART_KINDS, (name, op, n)
        seen |= part_kinds(phi)
    assert seen == PART_KINDS


def test_inner_weight_calls_write_nothing():
    """``laplacian_spectrum(..., w)`` and ``up_down_matrices(..., w)`` hold
    nothing of their own: asked after the standard calls they write no
    key, and asked first they write the same keys as the standard calls,
    the boundary columns and lows that ranks and factors read."""
    for name, complex, phi, load in pairs():
        w = inner_weights(complex)
        degrees = range(-1, complex.max_dim + 2)
        for n in degrees:
            laplacian_spectrum(complex, phi, n)
            up_down_matrices(complex, phi, n)
        held = dict(phi._operators)
        assert part_kinds(phi) <= {"columns", "lows"}, name
        for n in degrees:
            laplacian_spectrum(complex, phi, n, w)
            up_down_matrices(complex, phi, n, w)
        assert phi._operators.keys() == held.keys(), name
        assert all(phi._operators[key] is value for key, value in held.items()), name

        fresh_complex, fresh = load()
        for n in degrees:
            laplacian_spectrum(fresh_complex, fresh, n, w)
            up_down_matrices(fresh_complex, fresh, n, w)
        assert fresh._operators.keys() == held.keys(), name


def test_a_factor_outside_float_range_caches_nothing():
    """A boundary value beyond float range, one whose squares leave float
    range, and an inner weight beyond float range or below it are each
    refused with the same error on every ask, with no warning; the pair
    holds the columns and lows behind the factor and nothing more."""
    edge = build_complex([(0, 1)])
    huge = WeightFunction(edge, {((0, 1), 0): 10**400, ((0, 1), 1): 1})
    big = WeightFunction(edge, {((0, 1), 0): 10**200, ((0, 1), 1): 1})
    ones = identity_weight(edge)
    assert not huge.validate() and not big.validate()
    tiny_w = InnerProductWeights({(0,): Fraction(1, 10**400)}, 1)
    huge_w = InnerProductWeights({(0, 1): 10**400}, 1)
    cases = [
        (huge, None, "entry of magnitude about 1e+400 is outside float range"),
        (big, None, "largest entry has magnitude 1.0e+200"),
        (ones, tiny_w, "inner weight of [0] has magnitude about 1e-400, outside"),
        (ones, huge_w, "inner weight of [0,1] has magnitude about 1e+400, outside"),
    ]
    for phi, w, message in cases:
        asks = [lambda: laplacian_spectrum(edge, phi, 0, w)] * 2
        if w is None:
            asks.insert(1, lambda: harmonic_basis(edge, phi, 0))
        errors = []
        for ask in asks:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="float range") as info:
                    ask()
            errors.append(str(info.value))
        assert errors == [errors[0]] * len(asks) and message in errors[0], (message, errors)
        assert part_kinds(phi) <= {"columns", "lows"}, message
    # the exact parts do not convert the weights: they still answer
    for w in (tiny_w, huge_w):
        up, down = up_down_matrices(edge, ones, 0, w)
        assert up.shape == down.shape == (2, 2)


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
    """Every mutable container the cache of phi holds, nested ones and
    arrays included (an immutable one, like the shared empty tuple, is
    not)."""
    return [x for value in phi._operators.values() for x in held_in(value)]


def held_in(value) -> list:
    """The mutable containers and arrays in one held value, nested ones
    included."""
    out, stack = [], [value]
    while stack:
        x = stack.pop()
        if isinstance(x, np.ndarray):
            out.append(x)
        elif isinstance(x, (list, tuple, dict)):
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
    """Every held part is sparse but the harmonic bases, which are the
    size of their answers."""
    for name, complex, phi, _ in pairs():
        for n in range(-1, complex.max_dim + 2):
            lap = laplacian_matrix(complex, phi, n)
            up, down = up_down_matrices(complex, phi, n)
            laplacian_spectrum(complex, phi, n)
            harmonic_basis(complex, phi, n)
            # no stored zero slots: one entry per non-zero of the sum, and
            # none of the parts, which do not store one either
            nnz = sum(1 for row in lap.data for x in row if x)
            assert sum(map(len, phi._operators["laplacian", n])) == nnz, (name, n)
            for part in (up, down):
                assert all(x for row in part._entries for x in row.values()), (name, n)
        # no dense matrix: no ExactMatrix and no list of rows; every array
        # is read-only, and the only 2-D ones are the harmonic bases, each
        # f_n x dim H^n and owning its data: the f_n x f_n eigenvectors are
        # not held, and an f_n x f_n array is only where every cochain is
        # harmonic, as the basis itself
        for key, value in phi._operators.items():
            for x in held_in(value):
                assert not isinstance(x, ExactMatrix), name
                assert not (isinstance(x, list) and x and isinstance(x[0], list)), name
                if not isinstance(x, np.ndarray):
                    continue
                assert not x.flags.writeable, (name, key)
                if key[0] != "harmonic":
                    assert x.ndim == 1, (name, key)
                    continue
                _, n = key
                f_n, dim = len(complex.basis(n)), cohomology_dim(complex, phi, n)
                assert x.shape == (f_n, dim) and dim > 0, (name, key)
                assert x.flags.owndata, (name, key)


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
    """One elimination per degree, on the first ask; a repeat runs none."""
    snf_calls = []
    diagonal = homology._diagonal

    def counted(*args, **kwargs):
        snf_calls.append(args)
        return diagonal(*args, **kwargs)

    monkeypatch.setattr(homology, "_diagonal", counted)
    complex, phi = load_file_pair("simplex5_dawson.cplx", "simplex5_dawson.wts")
    degrees = range(-1, complex.max_dim + 2)
    first = [weighted_homology(complex, phi, n) for n in degrees]
    assert len(snf_calls) == len(first)
    assert [weighted_homology(complex, phi, n) for n in degrees] == first
    assert len(snf_calls) == len(first)


def test_spectral_reads_each_rank_once(monkeypatch):
    eliminated = []
    pivot_lows = chains.pivot_lows

    def counted(columns):
        eliminated.append(1)
        return pivot_lows(columns)

    monkeypatch.setattr(chains, "pivot_lows", counted)
    complex, phi = load_file_pair("simplex5_dawson.cplx", "simplex5_dawson.wts")
    for _ in range(3):
        for n in range(-1, complex.max_dim + 2):
            cohomology_dim(complex, phi, n)
            zero_multiplicity_formulas(complex, phi, n)
            harmonic_basis(complex, phi, n)
            laplacian_spectrum(complex, phi, n)
            weighted_homology(complex, phi, n)
    # one coboundary reduction per degree 1..max_dim; r_n is zero elsewhere
    assert len(eliminated) == complex.max_dim


def test_a_rank_reduces_only_the_degrees_below_it():
    """r_n builds the boundaries of degrees 1..n and reduces their
    coboundaries, and caches their lows as frozensets of indices into the
    basis, with the empty lows_0 below them; a degree outside 1..max_dim
    holds no lows and builds nothing."""
    complex, _ = load_file_pair("simplex5_dawson.cplx", "simplex5_dawson.wts")
    for n in (-1, 0, complex.max_dim + 1, complex.max_dim + 5):
        _, fresh = load_file_pair("simplex5_dawson.cplx", "simplex5_dawson.wts")
        assert chains._rank(fresh, n) == 0
        assert fresh._operators == {("lows", n): frozenset()}, n
    for n in range(1, complex.max_dim + 1):
        fresh_complex, fresh = load_file_pair("simplex5_dawson.cplx", "simplex5_dawson.wts")
        rank = chains._rank(fresh, n)
        degrees = list(range(1, n + 1))
        assert sorted(fresh._operators) == ([("columns", k) for k in degrees]
                                            + [("lows", k) for k in [0, *degrees]])
        assert fresh._operators["lows", 0] == frozenset()
        assert rank == len(fresh._operators["lows", n])
        assert rank == column_rank(boundary_columns(fresh_complex, fresh, n))
        for k in degrees:
            lows = fresh._operators["lows", k]
            assert type(lows) is frozenset
            assert lows <= set(range(len(complex.basis(k))))


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


def test_harmonic_basis_runs_one_svd_per_degree(monkeypatch):
    """Asked three times in each degree, ``harmonic_basis`` runs the SVD
    once where dim H^n > 0 and never elsewhere; an inner-weighted spectrum
    asked afterwards holds nothing new."""
    svds = []
    jacobi_svd = eigen.jacobi_svd

    def counted(m):
        svds.append(m.shape)
        return jacobi_svd(m)

    monkeypatch.setattr(eigen, "jacobi_svd", counted)
    for name, complex, phi, _ in pairs():
        degrees = range(-1, complex.max_dim + 2)
        for n in degrees:
            svds.clear()
            for _ in range(3):
                harmonic_basis(complex, phi, n)
            assert len(svds) == (cohomology_dim(complex, phi, n) > 0), (name, n)
        for n in degrees:
            laplacian_spectrum(complex, phi, n)
        held = dict(phi._operators)
        w = inner_weights(complex)
        for n in degrees:
            laplacian_spectrum(complex, phi, n, w)
        assert phi._operators.keys() == held.keys(), name


def test_a_harmonic_basis_is_the_size_of_its_answer():
    """The returned basis owns its data, f_n x dim H^n, rather than viewing
    the f_n x f_n eigenvector matrix, on the first ask and on every later
    one: two hollow triangles sharing a vertex give 6 x 2 in degree 1."""
    bowtie = build_complex([(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    ones = identity_weight(bowtie)
    assert cohomology_dim(bowtie, ones, 1) == 2
    cases = [("bowtie", bowtie, ones)]
    cases += [(name, complex, phi) for name, complex, phi, _ in pairs()]
    for name, complex, phi in cases:
        for n in range(-1, complex.max_dim + 2):
            shape = (len(complex.basis(n)), cohomology_dim(complex, phi, n))
            for _ in range(2):
                vectors = harmonic_basis(complex, phi, n).vectors
                assert vectors.shape == shape and vectors.flags.owndata, (name, n)
                assert vectors.flags.writeable, (name, n)


def test_boundary_matrix_carries_the_held_normal_form(monkeypatch):
    """After ``weighted_homology`` in degree n - 1, the normal form of d_n
    without transforms runs no elimination and equals a fresh pair's;
    with transforms, or for the transpose, it eliminates and gives the
    same diagonal."""
    eliminations = []
    diagonal = homology._diagonal

    def counted(*args):
        eliminations.append(1)
        return diagonal(*args)

    monkeypatch.setattr(homology, "_diagonal", counted)
    for name, complex, phi, load in pairs():
        if not phi.is_integral():
            continue
        for n in range(-1, complex.max_dim + 2):
            fresh_complex, fresh = load()
            expected = snf_of_boundary(fresh_complex, fresh, n)
            weighted_homology(complex, phi, n - 1)
            eliminations.clear()
            m = boundary_matrix(complex, phi, n)
            assert m._snf == phi._operators["snf", n], (name, n)
            assert snf_of_boundary(complex, phi, n) == expected, (name, n)
            assert smith_normal_form(m) == expected, (name, n)
            assert not eliminations, (name, n)
            for got in (smith_normal_form(m, transforms=True),
                        smith_normal_form(m.transpose())):
                assert (got.diagonal, got.rank) == (expected.diagonal, expected.rank), (name, n)
            assert len(eliminations) == 2, (name, n)


DRAWS = 2000 if DEEP else 200
WEIGHTS = (random_dawson_weight, random_cfw_weight, random_semi_trivial_weight)


def test_held_answers_on_random_flag_complexes_equal_a_fresh_pair():
    """Seeded random flag complexes with Dawson, CFW and semi-trivial
    weights: in every degree, in a random order, the harmonic basis and
    the normal form of d_n, asked twice with ``weighted_homology`` one
    degree down in between, equal those of a freshly loaded pair."""
    rng = random.Random(3301)
    for i in range(DRAWS):
        complex = random_flag_complex(rng)
        phi = WEIGHTS[i % len(WEIGHTS)](rng, complex)
        assert not phi.validate()
        degrees = list(range(-1, complex.max_dim + 2))
        rng.shuffle(degrees)
        for n in degrees:
            fresh_complex, fresh = fresh_copy(complex, phi)
            basis = harmonic_basis(fresh_complex, fresh, n)
            snf = snf_of_boundary(fresh_complex, fresh, n)
            for _ in range(2):
                assert same(harmonic_basis(complex, phi, n), basis), (i, n)
                assert snf_of_boundary(complex, phi, n) == snf, (i, n)
                weighted_homology(complex, phi, n - 1)
            assert ("snf", n) in phi._operators, (i, n)
