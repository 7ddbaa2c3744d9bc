"""The one-pass loader against the readers it replaced (tests/oracles.py).

Seeded random complexes and weight files go through both: the closure,
the weight table and its order, every warning text in order, every error
message, and every violation with its two products must agree.  The files
are spelled the way people and other tools write them: shuffled lines,
comments, blank lines, CRLF ends, tabs and extra spaces, unreduced
fractions, repeated entries and missing ones.

The inner product weight and ``ffl --classify`` matrix readers go through
the same trial against their references: the same table (keys, values,
order, default) or matrix, warnings and refusals, on texts with and
without a ``#``, since the shared line loop branches on it.  ``DEEP``
runs ten times as many files.
"""

from __future__ import annotations

import random
import time
import warnings
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import DEEP, random_complex, random_valid_weight
from oracles import (
    reference_parse_inner_weights_text,
    reference_parse_matrix_text,
    reference_parse_weight_text,
    reference_violations,
    stack_closure,
)
from wsimplex import (
    GaussianRational,
    Simplex,
    SimplicialComplex,
    WeightFunction,
    parse_complex_text,
    parse_inner_weights_text,
    parse_weight_text,
    validate_weight,
)
from wsimplex.cli import _parse_matrix_text
from wsimplex.weights import required_pairs


def _vertices(rng: random.Random, s) -> str:
    gaps = [rng.choice([" ", " ", "  ", "\t"]) for _ in s]
    field = "".join(str(v) + g for v, g in zip(s, gaps)).rstrip()
    return rng.choice(["", " ", "  "]) + field + rng.choice(["", " ", "   "])


def _scalar(rng: random.Random, x: GaussianRational) -> str:
    """x in the scalar grammar, often unreduced and with inner spaces."""
    k = rng.choice([1, 1, 2, 3])
    re, im = x.re, x.im
    text = f"{re.numerator * k}/{re.denominator * k}" if k > 1 or re.denominator > 1 \
        else str(re.numerator)
    if im or rng.random() < 0.1:
        m = rng.choice([1, 2])
        sign = "-" if im < 0 else "+"
        text += f"{sign}{abs(im.numerator) * m}/{im.denominator * m}i"
    if rng.random() < 0.2:
        text = text.replace("/", " / ")
    return rng.choice(["", " "]) + text + rng.choice(["", " "])


def _value(rng: random.Random) -> GaussianRational:
    kind = rng.choice(["int", "int", "rational", "gaussian", "zero"])
    if kind == "zero":
        return GaussianRational(0)
    re = Fraction(rng.randint(-6, 6), 1 if kind == "int" else rng.randint(1, 4))
    im = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if kind == "gaussian" else 0
    return GaussianRational(re, im)


def _entry(rng: random.Random, s, i: int, x: GaussianRational) -> str:
    return f"{_vertices(rng, s)}|{_vertices(rng, s.face(i))}|{_scalar(rng, x)}"


BAD_LINES = [
    "0 1 | 0 | 2 | 9", "0 1 | 0", "0 1 | 0 | 1/0", "0 1 | 0 | 1/2+1/0i",
    "0 1 | 0 | x", "0 1 | 0 | 1.5", "0 1 | 0 | ", "1 0 | 0 | 1", "0 1 | 1 0 | 1",
    "0 99 | 0 | 1", "0 | 0 | 1", " | 0 | 1", "0 1 | | 1", "0 -1 | 0 | 1",
    "0 1 2 | 0 1 2 | 1", "0 1 2 | 0 | 1", "0 1 2 | 0 1 3 | 1", "a b | 0 | 1",
]


def _weight_text(rng: random.Random, complex: SimplicialComplex, phi: WeightFunction,
                 bad: bool) -> str:
    lines = [_entry(rng, s, i, x) for (s, i), x in phi.entries()]
    rng.shuffle(lines)
    pairs = list(required_pairs(complex))
    for _ in range(rng.choice([0, 0, 1, 3])):  # drop entries
        if lines:
            lines.pop(rng.randrange(len(lines)))
    for _ in range(rng.choice([0, 1, 2])):  # repeat entries, same or other value
        if pairs:
            s, i = rng.choice(pairs)
            x = phi.value(s, i) if rng.random() < 0.5 else _value(rng)
            lines.insert(rng.randint(0, len(lines)), _entry(rng, s, i, x))
    for _ in range(rng.randint(0, 3)):  # comments and blank lines
        lines.insert(rng.randint(0, len(lines)), rng.choice(["# note", "", "   ", "#|||"]))
    if lines and rng.random() < 0.3:
        k = rng.randrange(len(lines))
        lines[k] += "  # trailing | comment"
    if bad:
        lines.insert(rng.randint(0, len(lines)), rng.choice(BAD_LINES))
    ends = rng.choice(["\n", "\r\n", "mixed"])
    return "".join(line + (rng.choice(["\n", "\r\n"]) if ends == "mixed" else ends)
                   for line in lines)


def _outcome(parse, text, complex, default, strict):
    """(table entries in order or the error, warning texts in order)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = ("ok", list(parse(text, complex, default=default, strict=strict).entries()))
        except ValueError as exc:
            result = ("error", type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def _random_phi(rng: random.Random, complex: SimplicialComplex) -> WeightFunction:
    """A valid weight, or a random table that most likely violates."""
    if rng.random() < 0.6:
        phi = random_valid_weight(rng, complex)
        table = dict(phi.entries())
        for pair in rng.sample(list(table), min(len(table), rng.choice([0, 0, 1, 2]))):
            table[pair] = _value(rng)
        return WeightFunction(complex, table)
    return WeightFunction(complex, {pair: _value(rng) for pair in required_pairs(complex)})


def test_weight_files_parse_as_the_reference():
    rng = random.Random(1411)
    seen = {"ok": 0, "error": 0, "warned": 0}
    for trial in range(400):
        complex = random_complex(rng, max_vertices=7)
        phi = _random_phi(rng, complex)
        text = _weight_text(rng, complex, phi, bad=trial % 5 == 4)
        default = rng.choice([Fraction(1), Fraction(0)])
        strict = rng.random() < 0.3
        got = _outcome(parse_weight_text, text, complex, default, strict)
        assert got == _outcome(reference_parse_weight_text, text, complex, default, strict), text
        if got[0][0] == "ok":
            # each key's simplex is the complex's own object, not an equal copy
            own = {id(s) for s in complex.simplices()}
            assert all(id(s) in own for (s, _), _ in got[0][1]), text
        seen[got[0][0]] += 1
        seen["warned"] += bool(got[1])
    assert min(seen.values()) > 40, seen


def test_every_bad_line_refuses_as_the_reference():
    complex = SimplicialComplex([(0, 1, 2), (2, 3)])
    good = "0 1 | 0 | 2\n0 1 | 1 | 3\n"
    for bad in BAD_LINES:
        for text in (bad + "\n", good + bad + "\r\n" + good):
            got = _outcome(parse_weight_text, text, complex, Fraction(1), False)
            assert got == _outcome(reference_parse_weight_text, text, complex, Fraction(1), False)
            assert got[0][0] == "error", bad


def test_violations_match_the_reference():
    rng = random.Random(1412)
    found = 0
    for _ in range(300):
        complex = random_complex(rng, max_vertices=7, max_dim=4)
        phi = _random_phi(rng, complex)
        expected = reference_violations(phi)
        got = validate_weight(phi)
        assert got == expected
        assert [(type(v.left), type(v.right)) for v in got] == \
            [(GaussianRational, GaussianRational)] * len(got)
        assert phi.validated == (not expected)
        found += len(expected)
    assert found > 100


def test_closure_matches_the_reference():
    rng = random.Random(1413)
    for _ in range(300):
        nv = rng.randint(1, 8)
        simplices = [tuple(sorted(rng.sample(range(nv), rng.randint(1, min(nv, 5)))))
                     for _ in range(rng.randint(1, 8))]
        # non-maximal and repeated simplices, listed in any order
        simplices += [s[: rng.randint(1, len(s))] for s in rng.sample(simplices, 2)
                      if rng.random() < 0.7] if len(simplices) >= 2 else []
        simplices += rng.sample(simplices, min(2, len(simplices)))
        rng.shuffle(simplices)
        K = SimplicialComplex(simplices)
        ref = stack_closure(simplices)
        assert {d: K.basis(d) for d in range(K.max_dim + 1)} == ref
        # a bare tuple would compare equal but print as (0, 1), not [0,1]
        assert all(type(s) is Simplex for s in K.simplices())
        assert K.max_dim == max(ref)
        text = "".join(rng.choice(["# c\n", ""]) + " ".join(map(str, s)) +
                       rng.choice(["\n", "\r\n", "  # tail\n"]) for s in simplices)
        assert parse_complex_text(text) == K


def test_every_bad_complex_line_refuses_as_simplex_does():
    """A complex line is read without Simplex's per-vertex checks when it
    passes them; any other line is refused with Simplex's own words."""
    good = "0 1 2\n"
    for bad in ("-1", "0 -1", "-1 2", "-3 -2", "2 1", "1 1", "0 2 2", "0 x", "1.0 2",
                "0 1 2 1", "3 2 1"):
        try:
            Simplex(map(int, bad.split()))
        except ValueError as exc:
            want = str(exc)
        else:
            raise AssertionError(f"{bad!r} is a valid simplex")
        for text, lineno in ((bad + "\n", 1), (good + bad + "\r\n" + good, 2)):
            with pytest.raises(ValueError) as caught:
                parse_complex_text(text)
            assert str(caught.value) == f"line {lineno}: {want}", bad
    for fine in ("0", "-0 1", "+1 2", "0 1 2 3 4", "7  9\t12"):
        assert parse_complex_text(fine).basis(len(fine.split()) - 1) == (
            Simplex(map(int, fine.split())),)


def test_loading_the_delta21_two_skeleton_is_bounded():
    """1,793 simplices and 5,082 weight lines load and validate well inside
    a generous wall-clock bound, and close to the reference closure."""
    triangles = list(combinations(range(22), 3))
    complex_text = "".join(" ".join(map(str, t)) + "\n" for t in triangles)
    # phi(s, t) = 1 + (first vertex of s mod 3): depends on s alone, so it fails
    weight_text = "".join(
        f"{' '.join(map(str, s))} | {' '.join(map(str, s.face(i)))} | {1 + s[0] % 3}\n"
        for s, i in required_pairs(SimplicialComplex(triangles)))
    assert weight_text.count("\n") == 5082
    start = time.perf_counter()
    K = parse_complex_text(complex_text)
    phi = parse_weight_text(weight_text, K, strict=True)
    violations = validate_weight(phi)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"loading took {elapsed:.2f} s"
    assert len(K) == 1793
    assert {d: K.basis(d) for d in range(3)} == stack_closure(triangles)
    assert violations == reference_violations(phi) != []


# -- inner product weight and matrix files -------------------------------------

COUNT = 3000 if DEEP else 300
ENDS = ["\n", "\n", "\r\n", "\r", "\x0b"]  # every end splitlines() splits on
INNER_BAD_LINES = [
    "0 1", "0 1 | 2 | 3", "0 1 | x", "0 1 | 1/0", "0 1 | 1 / 2", "0 1 | ", " | 2",
    "1 0 | 2", "0 0 | 2", "0 -1 | 1", "-1 | 1", "a | 1", "1.0 | 2", "0 1 | 1+2i",
]
MATRIX_BAD_LINES = ["x", "1/0", "1.5", "1 / 2", "1+i", "1 2i 3/0", "2 3 4"]


def _lines_text(rng: random.Random, lines: list[str], comments: bool) -> str:
    """lines with blank ones, and comments when asked, between them, each
    ended by one line end, or by a mix of them."""
    lines = list(lines)
    for _ in range(rng.randint(0, 3)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(["", "   ", "\t"]))
    if comments:
        for _ in range(rng.randint(1, 3)):
            lines.insert(rng.randint(0, len(lines)), rng.choice(["# note", "#|||", "  # 1 | 2"]))
        if lines and rng.random() < 0.5:
            lines[rng.randrange(len(lines))] += rng.choice(["  # tail | 3", "#"])
    ends = rng.choice(["\n", "\r\n", "mixed"])
    return "".join(line + (rng.choice(ENDS) if ends == "mixed" else ends) for line in lines)


def _inner_value(rng: random.Random, positive: bool) -> str:
    """A Fraction() spelling: ints, unreduced fractions, decimals and
    exponents, with spaces around it but not inside."""
    if positive:
        text = rng.choice([str(rng.randint(1, 5)), f"{rng.randint(1, 6)}/{rng.randint(1, 4)}",
                           "2/4", "1.5", "0.25", "1e3", "+3", "7/1"])
    else:
        text = rng.choice(["0", "-1", "-2/3", "0/5", "-0.5"])
    return rng.choice(["", " ", "\t"]) + text + rng.choice(["", "  "])


def _inner_text(rng: random.Random, bad: bool) -> str:
    simplices = list(random_complex(rng, max_vertices=6).simplices())
    lines = [f"{_vertices(rng, s)}|{_inner_value(rng, True)}"
             for s in rng.sample(simplices, rng.randint(1, len(simplices)))]
    for _ in range(rng.choice([0, 1, 2])):  # repeats, often with another value
        k = rng.randrange(len(lines))
        lines.insert(rng.randint(k + 1, len(lines)),
                     lines[k] if rng.random() < 0.4 else
                     lines[k].split("|")[0] + "|" + _inner_value(rng, True))
    if rng.random() < 0.4:  # a non-positive value, overwritten by a later line or not
        s = rng.choice(simplices)
        k = rng.randint(0, len(lines))
        lines.insert(k, f"{_vertices(rng, s)}|{_inner_value(rng, False)}")
        if rng.random() < 0.5:
            lines.insert(rng.randint(k + 1, len(lines)), f"{_vertices(rng, s)}| 2")
    if bad:
        lines.insert(rng.randint(0, len(lines)), rng.choice(INNER_BAD_LINES))
    return _lines_text(rng, lines, comments=rng.random() < 0.5)


def _inner_outcome(parse, text):
    """(table entries in order and the default, or the error; warning
    texts in order)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            w = parse(text)
            entries = [(s, w.value(s), type(w.value(s))) for s in w.simplices()]
            result = ("ok", entries, [type(s) for s in w.simplices()], w.value((10**6,)))
        except ValueError as exc:
            result = ("error", type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def _scalar_text(rng: random.Random) -> str:
    return rng.choice(["0", "1", "-2", "3/4", "-1/2", "1+2i", "2-1/3i", "0+1i", "10/4"])


def _matrix_text(rng: random.Random, bad: bool) -> str:
    size = rng.randint(1, 4)
    width = size if rng.random() < 0.9 else size + 1
    lines = [rng.choice([" ", "", "\t"]) +
             rng.choice([" ", "  ", "\t"]).join(_scalar_text(rng) for _ in range(width))
             for _ in range(size)]
    if rng.random() < 0.1:  # a ragged row
        lines[rng.randrange(size)] += " 1"
    if bad:
        lines.insert(rng.randint(0, len(lines)), rng.choice(MATRIX_BAD_LINES))
    if rng.random() < 0.05:  # no rows at all
        lines = []
    return _lines_text(rng, lines, comments=rng.random() < 0.5)


def _matrix_outcome(parse, text):
    try:
        m = parse(text)
    except ValueError as exc:
        return "error", type(exc), str(exc)
    return "ok", m.shape, m.data, [type(x) for row in m.data for x in row]


def test_inner_weight_files_parse_as_the_reference():
    rng = random.Random(1414)
    seen = {"ok": 0, "error": 0, "warned": 0, "no #": 0, "not positive": 0}
    for trial in range(COUNT):
        text = _inner_text(rng, bad=trial % 5 == 4)
        got = _inner_outcome(parse_inner_weights_text, text)
        assert got == _inner_outcome(reference_parse_inner_weights_text, text), repr(text)
        seen[got[0][0]] += 1
        seen["warned"] += bool(got[1])
        seen["no #"] += "#" not in text
        seen["not positive"] += got[0][0] == "error" and "must be positive" in got[0][2]
    assert min(seen.values()) > COUNT // 30, seen


def test_every_bad_inner_line_refuses_as_the_reference():
    good = "0 1 | 2\n1 | 1/2\n"
    for bad in INNER_BAD_LINES:
        for text in (bad + "\n", good + bad + "\r\n" + good, good + bad + "  # c\n"):
            got = _inner_outcome(parse_inner_weights_text, text)
            assert got == _inner_outcome(reference_parse_inner_weights_text, text)
            assert got[0][0] == "error", bad


def test_non_positive_inner_values_refuse_unless_overwritten():
    for text in ("0 1 | -1\n0 1 | 2\n", "0 1 | 0\n1 | 3\n0 1 | 1/2\n"):
        assert _inner_outcome(parse_inner_weights_text, text)[0][0] == "ok"
    for text, value in (("0 1 | -1\n1 | 2\n", "-1"), ("1 | 2\n1 | 0\n", "0")):
        got = _inner_outcome(parse_inner_weights_text, text)
        assert got == _inner_outcome(reference_parse_inner_weights_text, text)
        assert got[0][2].endswith(f"must be positive, got {value}")


def test_matrix_files_parse_as_the_reference():
    rng = random.Random(1415)
    seen = {"ok": 0, "error": 0, "no #": 0}
    for trial in range(COUNT):
        text = _matrix_text(rng, bad=trial % 5 == 4)
        got = _matrix_outcome(_parse_matrix_text, text)
        assert got == _matrix_outcome(reference_parse_matrix_text, text), repr(text)
        seen[got[0]] += 1
        seen["no #"] += "#" not in text
    assert min(seen.values()) > COUNT // 10, seen


def test_every_bad_matrix_line_refuses_as_the_reference():
    """Each bad line, the last one a ragged row, and texts with no row."""
    good = "1 2\n2 1\n"
    texts = [good + bad + "\r\n" + good for bad in MATRIX_BAD_LINES]
    texts += [bad + "\n" for bad in MATRIX_BAD_LINES[:-1]]
    for text in texts + ["", "\n \r\n", "# only a comment\n"]:
        got = _matrix_outcome(_parse_matrix_text, text)
        assert got == _matrix_outcome(reference_parse_matrix_text, text)
        assert got[0] == "error", text
