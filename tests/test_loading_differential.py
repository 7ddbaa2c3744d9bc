"""The one-pass loader against the readers it replaced (tests/oracles.py).

Seeded random complexes and weight files go through both: the closure,
the weight table and its order, every warning text in order, every error
message, and every violation with its two products must agree.  The files
are spelled the way people and other tools write them: shuffled lines,
comments, blank lines, CRLF ends, tabs and extra spaces, unreduced
fractions, repeated entries and missing ones.
"""

from __future__ import annotations

import random
import time
import warnings
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import random_complex, random_valid_weight
from oracles import reference_parse_weight_text, reference_violations, stack_closure
from wsimplex import (
    GaussianRational,
    Simplex,
    SimplicialComplex,
    WeightFunction,
    parse_complex_text,
    parse_weight_text,
    validate_weight,
)
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
