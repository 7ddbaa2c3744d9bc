import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    full_tetrahedron,
    full_triangle,
    hollow_triangle,
    random_complex,
    random_valid_weight,
    sample_triangle,
    sample_triangle_table,
)
from wsimplex import (
    GaussianRational,
    Simplex,
    UnvalidatedWeightError,
    WeightCompletenessError,
    WeightFunction,
    boundary_matrix,
    build_complex,
    cfw_weight,
    dawson_weight,
    identity_weight,
    parse_weight_text,
    semi_trivial_weight,
    validate_weight,
    zero_weight,
)
from wsimplex.weights import required_pairs


def test_completeness_checked_at_construction():
    k = full_triangle()
    table = sample_triangle_table()
    del table[(Simplex((0, 2)), 1)]
    with pytest.raises(WeightCompletenessError) as err:
        WeightFunction(k, table)
    assert "[0,2]" in str(err.value)


def test_foreign_keys_refused_at_construction():
    """A key that is not a (simplex, face) pair of the complex once leaked
    into is_integral, is_real, entries and ==."""
    k = full_triangle()
    table = {pair: 1 for pair in required_pairs(k)}
    table[((0, 5), 0)] = Fraction(1, 2)
    table[((0, 1), 7)] = 3
    with pytest.raises(ValueError, match=r"\(\[0,5\], face 0\) is not a \(simplex, face\) pair"):
        WeightFunction(k, table)
    del table[((0, 5), 0)]
    with pytest.raises(ValueError, match=r"\(\[0,1\], face 7\)"):
        WeightFunction(k, table)


def test_face_indices_are_read_as_integers():
    """A face index is read with ``__index__``: numpy's integers count as
    ints, and a float or a string is refused by its key, where it was
    once truncated or parsed into another face."""
    k = full_triangle()
    table = {pair: 1 for pair in required_pairs(k)}
    assert WeightFunction(k, {(s, np.int64(i)): x for (s, i), x in table.items()}) \
        == WeightFunction(k, table)
    for i, bad in ((0, 0.9), (1, "1")):
        wrong = dict(table)
        del wrong[Simplex((0, 1)), i]
        wrong[(0, 1), bad] = 1
        with pytest.raises(ValueError) as err:
            WeightFunction(k, wrong)
        assert str(err.value) == f"face index of key ((0, 1), {bad!r}): {bad!r} is not an integer"


def test_lookups_outside_the_faces_are_refused():
    """``value(s, i)`` answers only for 0 <= i <= dim s on a simplex of the
    complex of positive dimension: an index of -1 or dim s + 1, any index
    on a vertex and a simplex outside the complex are refused by the same
    KeyError, and an index never wraps round to another face.  A call
    ``phi(s, i)`` reads i as ``value`` does: anything with ``__index__``,
    numpy's integers included (one was once taken for a face and refused
    with a TypeError), and a bool as before."""
    k, phi = sample_triangle()
    for s, i in (((0, 1, 2), -1), ((0, 1, 2), 3), ((0, 1), -1), ((0, 1), 2),
                 ((0,), 0), ((1,), -1), ((0, 5), 0), ((0, 1, 2), np.int64(-1)),
                 ((0, 1), np.int64(2)), ((0,), True)):
        for lookup in (phi.value, phi):
            with pytest.raises(KeyError) as err:
                lookup(s, i)
            assert err.value.args == (f"no weight for ({Simplex(s)}, face {i})",)
    for (s, i), x in phi.entries():
        assert phi(s, np.int64(i)) == phi(s, np.uint8(i)) == phi.value(s, np.int64(i)) == x
    assert phi((0, 1, 2), True) == phi.value((0, 1, 2), 1)
    assert phi((0, 1, 2), False) == phi.value((0, 1, 2), 0)


def test_value_on_face_reads_the_face_table():
    """``phi(s, t)`` by the face t gives phi(s, d_i s) for the i that
    deletes t's missing vertex; anything else is a KeyError, a simplex of
    another dimension whose position equals a face's included."""
    k, phi = sample_triangle()
    for (s, i), x in phi.entries():
        assert phi.value_on_face(s, s.face(i)) == phi(s, s.face(i)) == x
        assert phi(tuple(s), tuple(s.face(i))) == x
    for s, t, message in (((0, 1, 2), (0,), "[0] is not a codimension-one face of [0,1,2]"),
                          ((0, 1, 2), (0, 1, 2), "[0,1,2] is not a codimension-one face of [0,1,2]"),
                          ((1, 2), (0,), "[0] is not a codimension-one face of [1,2]"),
                          ((0,), (0,), "[0] is not a codimension-one face of [0]"),
                          ((0, 5), (0,), "[0,5] is not in the complex")):
        with pytest.raises(KeyError) as err:
            phi.value_on_face(s, t)
        assert err.value.args == (message,)


def test_a_face_index_outside_the_faces_is_a_foreign_key():
    k = full_triangle()
    for s, i in (((0, 1, 2), -1), ((0, 1, 2), 3), ((0, 1), -1), ((2,), 0)):
        table = {pair: 1 for pair in required_pairs(k)}
        table[s, i] = 1
        with pytest.raises(ValueError) as err:
            WeightFunction(k, table)
        assert str(err.value) == \
            f"({Simplex(s)}, face {i}) is not a (simplex, face) pair of the complex"


def test_keys_that_name_one_pair_keep_the_last_value():
    """Keys that convert to the same (simplex, face index) pair are one
    entry, whose value is the last one the table yields: equal keys of two
    spellings (one dict key), and distinct keys that read as one simplex."""
    k = full_triangle()
    base = {pair: 1 for pair in required_pairs(k) if pair != ((0, 1), 0)}
    spellings = (((0, 1), np.int64(0)), (Simplex((0, 1)), 0), (range(2), 0))
    for first in spellings:
        for last in spellings:
            phi = WeightFunction(k, {**base, first: 5, last: 7})
            assert phi.value((0, 1), 0) == 7 and phi.value((0, 1), 1) == 1


def test_construction_errors_keep_their_precedence():
    """A table with several faults names the first of: a key or value that
    does not convert (in table order), the first missing pair in
    ``required_pairs`` order, the first foreign key in table order."""
    k = full_triangle()
    table = {pair: 1 for pair in required_pairs(k)}
    del table[Simplex((1, 2)), 0]
    del table[Simplex((0, 1)), 1]
    table[(0, 1, 2), -1] = 1
    table[(0, 5), 0] = 1
    table[(0, 2), "x"] = 1
    with pytest.raises(ValueError) as err:
        WeightFunction(k, table)
    assert str(err.value) == "face index of key ((0, 2), 'x'): 'x' is not an integer"
    del table[(0, 2), "x"]
    with pytest.raises(WeightCompletenessError) as err:
        WeightFunction(k, table)
    assert str(err.value) == "no weight for ([0,1], face 1)"
    table[(1, 2), 0] = table[(0, 1), 1] = 1
    with pytest.raises(ValueError) as err:
        WeightFunction(k, table)
    assert str(err.value) == "([0,1,2], face -1) is not a (simplex, face) pair of the complex"
    del table[(0, 1, 2), -1]
    table[(0, 1, 2), -1] = 1
    with pytest.raises(ValueError) as err:
        WeightFunction(k, table)
    assert str(err.value) == "([0,5], face 0) is not a (simplex, face) pair of the complex"


def test_entries_follow_required_pairs_whatever_the_file_order():
    """``entries()`` yields every pair in ``required_pairs`` order: two
    files holding one table in shuffled line orders give the same entries
    in the same order, and a table built from them is the same weight."""
    k = full_tetrahedron()
    phi = random_valid_weight(random.Random(37), k)
    lines = [f"{' '.join(map(str, s))} | {' '.join(map(str, s.face(i)))} | {x}"
             for (s, i), x in phi.entries()]
    orders = []
    for seed in (1, 2):
        random.Random(seed).shuffle(lines)
        parsed = parse_weight_text("\n".join(lines), k, strict=True)
        assert parsed == phi
        orders.append(list(parsed.entries()))
    assert orders[0] == orders[1] == list(phi.entries())
    assert [pair for pair, _ in orders[0]] == list(required_pairs(k))
    assert WeightFunction(k, dict(phi.entries())) == phi
    backwards = WeightFunction(k, dict(reversed(list(phi.entries()))))
    assert list(backwards.entries()) == list(phi.entries())


def test_sample_table_validates():
    k, phi = sample_triangle()
    assert phi.validated
    assert phi((0, 1, 2), 1) == 3
    assert phi((0, 1, 2), (0, 2)) == 3
    assert phi((0, 1), (0,)) == 6


def test_corrupted_entry_reported():
    k = full_triangle()
    table = sample_triangle_table()
    table[(Simplex((0, 2)), 1)] = 5
    phi = WeightFunction(k, table)
    bad = phi.validate()
    assert len(bad) == 1
    v = bad[0]
    assert (v.simplex, v.i, v.j) == (Simplex((0, 1, 2)), 2, 1)
    assert (v.left, v.right) == (6, 15)
    assert not phi.validated


def test_validation_gates_operations():
    k, phi = sample_triangle()
    raw = WeightFunction(k, sample_triangle_table())
    with pytest.raises(UnvalidatedWeightError):
        boundary_matrix(k, raw, 1)
    raw.validate()
    assert boundary_matrix(k, raw, 1) == boundary_matrix(k, phi, 1)


def test_validation_vacuous_in_dimension_one():
    k = hollow_triangle()
    rng = random.Random(11)
    table = {pair: rng.randint(-5, 5) for pair in required_pairs(k)}
    phi = WeightFunction(k, table)
    assert phi.validate() == []


def test_identity_and_zero():
    k = full_tetrahedron()
    one = identity_weight(k)
    nil = zero_weight(k)
    assert one.validated and nil.validated
    assert all(v == 1 for _, v in one.entries())
    assert all(v == 0 for _, v in nil.entries())
    assert one.is_integral() and nil.is_integral()


def test_semi_trivial_covering_families():
    k = hollow_triangle()
    edges = list(k.basis(1))
    vertices = list(k.basis(0))
    phi = semi_trivial_weight(k, edges, vertices, a=7)
    assert phi == zero_weight(k)

    k2 = full_triangle()
    phi2 = semi_trivial_weight(k2, list(k2.basis(2)) + list(k2.basis(0)),
                               k2.basis(1), a=7)
    top = Simplex((0, 1, 2))
    for i in range(3):
        assert phi2.value(top, i) == 0
    for e in k2.basis(1):
        for i in range(2):
            assert phi2.value(e, i) == 7


def test_semi_trivial_requires_cover():
    k = full_triangle()
    with pytest.raises(ValueError) as err:
        semi_trivial_weight(k, k.basis(2), k.basis(1), a=1)
    assert "covered" in str(err.value)


def test_dawson_quotients():
    k = full_triangle()
    w = {s: (1, 2, 4)[s.dim] for s in k.simplices()}
    phi = dawson_weight(k, w)
    top = Simplex((0, 1, 2))
    assert all(phi.value(top, i) == 2 for i in range(3))
    assert all(phi.value(e, i) == 2 for e in k.basis(1) for i in range(2))


def test_dawson_rejects_zero_and_nondivisible():
    k = full_triangle()
    with pytest.raises(ValueError):
        dawson_weight(k, {s: 0 if s.dim == 0 else 2 for s in k.simplices()})
    with pytest.raises(ValueError) as err:
        dawson_weight(k, {s: (2, 3, 6)[s.dim] for s in k.simplices()})
    assert "divide" in str(err.value)
    with pytest.raises(ValueError):
        dawson_weight(k, {s: 1 for s in k.simplices() if s.dim < 2})


def test_dawson_constant_is_identity():
    k = full_tetrahedron()
    assert dawson_weight(k, {s: 5 for s in k.simplices()}) == identity_weight(k)


def test_cfw_worked_example():
    # w = dimension, f(x) = x + 1 on the hollow triangle: C = lcm(1, 2) = 2
    # and every edge entry is 2 * 2 / 1 = 4
    k = hollow_triangle()
    phi = cfw_weight(k, lambda s: s.dim, lambda x: x + 1)
    assert all(v == 4 for _, v in phi.entries())


def test_cfw_special_cases():
    k = full_triangle()
    w = {s: (1, 2, 4)[s.dim] for s in k.simplices()}
    assert cfw_weight(k, w, lambda x: x, C=1) == dawson_weight(k, w)
    assert cfw_weight(k, w, lambda x: x, C=0) == zero_weight(k)
    phi = cfw_weight(k, w, lambda x: x, C="auto")
    assert phi.is_integral()


def test_numpy_integers_weight_as_ints():
    """``dawson_weight`` and ``cfw_weight`` read simplex weights and
    f-values with ``__index__``: numpy's integers give the weight function
    ints give, and a bool or a float, numpy's included, is still refused."""
    k = full_triangle()
    w = {s: (1, 2, 4)[s.dim] for s in k.simplices()}
    w64 = {s: np.int64(x) for s, x in w.items()}
    assert dawson_weight(k, w64) == dawson_weight(k, w)
    assert cfw_weight(k, w64, lambda x: np.int64(x + 1)) == cfw_weight(k, w, lambda x: x + 1)
    for bad in (True, 2.0, np.float64(2.0)):
        with pytest.raises(ValueError, match=r"w\(\[0\]\) = .* is not an integer"):
            dawson_weight(k, {**w, Simplex((0,)): bad})
        with pytest.raises(ValueError, match=r"f\(1\) = .* is not an integer"):
            cfw_weight(k, w, lambda x: bad)


def test_cfw_reads_a_numpy_integer_scale():
    """The scale C is read with ``__index__`` too: ``np.int64(3)`` gives
    the table 3 gives, entry for entry and in order, and a bool or a float,
    numpy's included, is refused with the scale's own message."""
    k = full_triangle()
    w = {s: (1, 2, 4)[s.dim] for s in k.simplices()}
    got = cfw_weight(k, w, lambda x: x + 1, C=np.int64(3))
    want = cfw_weight(k, w, lambda x: x + 1, C=3)
    assert got == want and list(got.entries()) == list(want.entries())
    for bad in (True, 3.0, np.float64(3.0)):
        with pytest.raises(ValueError) as err:
            cfw_weight(k, w, lambda x: x + 1, C=bad)
        assert str(err.value) == f"C must be an integer or 'auto', got {bad!r}"


def test_cfw_rejects_zero_f():
    k = hollow_triangle()
    with pytest.raises(ValueError) as err:
        cfw_weight(k, lambda s: s.dim, lambda x: x)
    assert "f(0)" in str(err.value)


def test_cfw_auto_scale_is_integral():
    rng = random.Random(23)
    for _ in range(20):
        k = random_complex(rng)
        w = {s: rng.randint(-4, 4) for s in k.simplices()}
        f = {x: rng.choice([-3, -2, -1, 1, 2, 3]) for x in set(w.values())}
        assert cfw_weight(k, w, f).is_integral()


def test_random_constructor_outputs_validate():
    rng = random.Random(5)
    for _ in range(40):
        k = random_complex(rng)
        phi = random_valid_weight(rng, k)
        assert phi.validated
        assert validate_weight(phi) == []


# -- text format --------------------------------------------------------------

EDGE_TEXT = """
# one edge, two entries
0 1 | 0 | 2
0 1 | 1 | 3
"""


def test_parse_weight_text():
    k = build_complex([(0, 1)])
    phi = parse_weight_text(EDGE_TEXT, k)
    # middle field is the face simplex: [0] is face index 1, [1] index 0
    assert phi.value((0, 1), 1) == 2
    assert phi.value((0, 1), 0) == 3


def test_parse_weight_values():
    k = build_complex([(0, 1)])
    phi = parse_weight_text("0 1 | 0 | 3/2\n0 1 | 1 | 1-2i\n", k)
    assert phi.value((0, 1), 1) == GaussianRational(Fraction(3, 2))
    assert phi.value((0, 1), 0) == GaussianRational(1, -2)
    assert not phi.is_integral()
    assert not phi.is_real()


def test_parse_weight_defaults_warn():
    k = hollow_triangle()
    with pytest.warns(UserWarning, match="missing"):
        phi = parse_weight_text("0 1 | 0 | 2\n", k)
    assert phi.value((0, 1), 1) == 2
    assert phi.value((0, 2), 0) == 1
    with pytest.warns(UserWarning):
        phi0 = parse_weight_text("0 1 | 0 | 2\n", k, default=Fraction(0))
    assert phi0.value((0, 2), 0) == 0


def test_parse_weight_strict():
    k = hollow_triangle()
    with pytest.raises(WeightCompletenessError):
        parse_weight_text("0 1 | 0 | 2\n", k, strict=True)
    text = "\n".join(f"{u} {v} | {w} | 1" for (u, v) in [(0, 1), (0, 2), (1, 2)]
                     for w in (u, v))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi = parse_weight_text(text, k, strict=True)
    assert phi == identity_weight(k)


@pytest.mark.parametrize("bad,msg", [
    ("0 1 | 0 | 2 | 9", "expected"),
    ("0 1 | 0", "expected"),
    ("0 3 | 0 | 1", "not in the complex"),
    ("0 1 | 2 | 1", "face"),
    ("0 1 2 | 0 1 | x", "malformed"),
    ("0 1 | 0 | 1.5", "malformed"),
    ("0 1 | 0 |  2i", "malformed scalar '2i'"),
    ("0 1 2 | 0 1 3 | 5", "not a codimension-one face"),
    ("0 1 2 | 0 | 5", "not a codimension-one face"),
    ("0 1 2 | 0 1 2 | 5", "not a codimension-one face"),
])
def test_parse_weight_errors(bad, msg):
    k = build_complex([(0, 1, 2)])
    with pytest.raises(ValueError, match=msg):
        parse_weight_text(bad, k, strict=True)


# -- refusals and entry sources pinned word for word ----------------------------


def test_simplex_weighting_refuses_a_non_integer():
    k = full_triangle()
    w = {s: 1.5 if s == Simplex((0,)) else 3 for s in k.simplices()}
    with pytest.raises(ValueError) as err:
        dawson_weight(k, w)
    assert str(err.value) == "simplex weight w([0]) = 1.5 is not an integer"


def test_cfw_refuses_a_non_integer_f_and_a_non_integer_scale():
    k = full_triangle()
    w = {s: 1 for s in k.simplices()}
    with pytest.raises(ValueError) as err:
        cfw_weight(k, w, lambda x: 0.5)
    assert str(err.value) == "f(1) = 0.5 is not an integer"
    with pytest.raises(ValueError) as err:
        cfw_weight(k, w, lambda x: 1, C="big")
    assert str(err.value) == "C must be an integer or 'auto', got 'big'"


def _edge_cover():
    """A = the vertices and the triangle, B = the edges of one triangle: the
    six (edge, vertex) entries are the only ones taken from ``a``."""
    k = full_triangle()
    return k, list(k.basis(0)) + list(k.basis(2)), list(k.basis(1))


def test_semi_trivial_takes_its_entries_from_a_mapping():
    k, zero_simplices, zero_faces = _edge_cover()
    a = {(e, e.face(i)): 10 * e[0] + e[1] + i for e in k.basis(1) for i in range(2)}
    phi = semi_trivial_weight(k, zero_simplices, zero_faces, a=a)
    assert phi.validated
    for e in k.basis(1):
        for i in range(2):
            assert phi.value(e, i) == 10 * e[0] + e[1] + i
    assert all(phi.value((0, 1, 2), i) == 0 for i in range(3))


def test_semi_trivial_takes_its_entries_from_a_callable():
    k, zero_simplices, zero_faces = _edge_cover()
    seen = []

    def a(s, t):
        seen.append((s, t))
        return Fraction(s[1], t[0] + 2)

    phi = semi_trivial_weight(k, zero_simplices, zero_faces, a=a)
    assert phi.validated
    assert sorted(seen) == sorted((e, e.face(i)) for e in k.basis(1) for i in range(2))
    for e in k.basis(1):
        for i in range(2):
            assert phi.value(e, i) == Fraction(e[1], e.face(i)[0] + 2)
    assert all(phi.value((0, 1, 2), i) == 0 for i in range(3))
