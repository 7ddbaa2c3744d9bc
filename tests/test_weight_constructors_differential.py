"""Differential test of the seven weight constructors against the table
loops they replaced (``oracles.reference_*``).

Every constructor now passes one formula for phi(s, d_i s) to the shared
builder ``weights._tabulated``.  On hypothesis-drawn inputs each must give
the reference's complex, an equal table (``dict(phi.entries())``, every
value a ``GaussianRational``) and its ``validated`` flag, or refuse with the
same exception type and message.  The inputs are random flag complexes and
skeleta of simplices; Dawson weightings that are divisibility-compatible
and ones that are not; CFW with random f and C; semi-trivial covers with a
constant, a mapping and a callable ``a``; polygons whose alphas include
zeros and Gaussian rationals; and all eight motif types under random
encodings.  Bad values (floats, strings, bools, missing keys, zeros) are
mixed in so that the refusals are compared too.  Only the order of the
tables may differ.

Under hypothesis's default profile each test runs a fixed 60 derandomized
examples (about 0.6 s in all on a 2-vCPU host); ``HYPOTHESIS_PROFILE=deep``
searches further (see conftest.py).
"""

import os
import random
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from wsimplex import (  # noqa: E402
    GaussianRational,
    all_specs,
    build_complex,
    cfw_weight,
    dawson_weight,
    identity_weight,
    make_ffl,
    make_ngon,
    semi_trivial_weight,
    zero_weight,
)
from wsimplex.weights import WeightFunction, _tabulated, required_pairs  # noqa: E402

from oracles import (  # noqa: E402
    _reference_validated,
    reference_cfw_weight,
    reference_dawson_weight,
    reference_ffl_weights,
    reference_identity_weight,
    reference_make_ngon,
    reference_semi_trivial_weight,
    reference_zero_weight,
)

# a profile named by HYPOTHESIS_PROFILE sets the depth; else 60 fixed examples
SETTINGS = (settings() if os.environ.get("HYPOTHESIS_PROFILE")
            else settings(derandomize=True, max_examples=60, deadline=None))

# scalars a constructor coerces: zeros, rationals, Gaussian rationals, and
# values it must refuse (a float, a string)
SCALARS = [0, 1, -1, 2, 3, -4, Fraction(1, 2), Fraction(-5, 3), GaussianRational(1, 1),
           GaussianRational(Fraction(1, 2), -2), GaussianRational(0, 3)]
BAD_SCALARS = [1.5, "2"]

# a seeded generator for the bulk of a case's values: hypothesis's own random
# draws lean towards the first choice and a random() of 0
SEEDED = st.integers(0, 2**32 - 1).map(random.Random)


def outcome(build):
    """What a constructor gives: its complex, table, value types and
    validated flag, or the type and message of its refusal."""
    try:
        out = build()
    except Exception as exc:  # the refusal itself is what is compared
        return type(exc), str(exc)
    complex, phi = out if isinstance(out, tuple) else (None, out)
    assert isinstance(phi, WeightFunction)
    table = dict(phi.entries())
    return (complex, phi.complex, table, {type(v) for v in table.values()},
            phi.validated)


def assert_same(build, reference):
    got, want = outcome(build), outcome(reference)
    assert got == want


@st.composite
def complexes(draw):
    """The k-skeleton of a simplex on up to 6 vertices, or the flag complex
    (every clique of up to 4 vertices) of a random graph on them."""
    nv = draw(st.integers(1, 6))
    if draw(st.booleans()):
        k = draw(st.integers(0, min(3, nv - 1)))
        return build_complex(combinations(range(nv), k + 1))
    pairs = list(combinations(range(nv), 2))
    mask = draw(st.integers(0, 2 ** len(pairs) - 1))
    edges = {e for b, e in enumerate(pairs) if mask >> b & 1}
    cliques = [c for size in (2, 3, 4) for c in combinations(range(nv), size)
               if all(e in edges for e in combinations(c, 2))]
    return build_complex([(v,) for v in range(nv)] + cliques)


def as_getter(draw, table):
    """The table itself, or a callable reading it (which raises KeyError for
    a key it misses, as the mapping does)."""
    return table if draw(st.booleans()) else (lambda key: table[key])


@SETTINGS
@given(complexes())
def test_identity_and_zero_match_the_table_loops(complex):
    assert_same(lambda: identity_weight(complex), lambda: reference_identity_weight(complex))
    assert_same(lambda: zero_weight(complex), lambda: reference_zero_weight(complex))


@st.composite
def dawson_cases(draw):
    """A divisibility-compatible weighting (a product over the vertices times
    a factor per dimension that divides the next), or random non-zero
    integers, or a weighting that misses a simplex or holds a zero or a
    non-integer."""
    complex = draw(complexes())
    sims = list(complex.simplices())
    rng = draw(SEEDED)
    kind = draw(st.sampled_from(["compatible", "compatible", "random", "missing", "bad"]))
    if kind == "compatible":
        p = {v: rng.choice([-3, -2, -1, 1, 2, 5]) for v in range(max(s[-1] for s in sims) + 1)}
        scale = [1]
        for _ in range(complex.max_dim):
            scale.append(scale[-1] * rng.choice([1, 2, 3]))
        w = {s: prod(p[v] for v in s) * scale[s.dim] for s in sims}
    else:
        w = {s: rng.choice([-6, -4, -3, -2, -1, 1, 2, 3, 4, 6]) for s in sims}
        if kind == "missing":
            del w[rng.choice(sims)]
        elif kind == "bad":
            w[rng.choice(sims)] = rng.choice([0, 1.5, Fraction(4, 2), True, "2"])
    return complex, as_getter(draw, w)


@SETTINGS
@given(dawson_cases())
def test_dawson_matches_the_table_loop(case):
    complex, w = case
    assert_same(lambda: dawson_weight(complex, w), lambda: reference_dawson_weight(complex, w))


@st.composite
def cfw_cases(draw):
    """Random integer w, random f (now and then zero or non-integer on an
    attained value) as a mapping or a callable, and C 'auto', an integer or
    one of the values it refuses."""
    complex = draw(complexes())
    rng = draw(SEEDED)
    w = {s: rng.randint(-3, 3) for s in complex.simplices()}
    f = {x: rng.choice([-3, -2, -1, 1, 2, 3, 6]) for x in range(-3, 4)}
    if rng.random() < 0.2:
        f[rng.choice(list(w.values()))] = rng.choice([0, 0.5, Fraction(1, 2), False])
    C = draw(st.sampled_from(["auto", "auto", 0, 1, -2, 7, "big", 1.0, True]))
    return complex, w, as_getter(draw, f), C


@SETTINGS
@given(cfw_cases())
def test_cfw_matches_the_table_loop(case):
    complex, w, f, C = case
    assert_same(lambda: cfw_weight(complex, w, f, C),
                lambda: reference_cfw_weight(complex, w, f, C))


@st.composite
def semi_trivial_cases(draw):
    """Two zero families that cover the complex (now and then not), and the
    entry source ``a``: absent, a constant, a mapping keyed by (s, t), or a
    callable; a mapping may miss a key and a value may be one to refuse."""
    complex = draw(complexes())
    rng = draw(SEEDED)
    sims = list(complex.simplices())
    zero_simplices = {s for s in sims if rng.random() < 0.5}
    zero_faces = {s for s in sims if s not in zero_simplices or rng.random() < 0.2}
    if rng.random() < 0.1:
        zero_faces.discard(rng.choice(sims))
        zero_simplices.discard(rng.choice(sims))
    pool = SCALARS + BAD_SCALARS if rng.random() < 0.2 else SCALARS
    entries = {(s, s.face(i)): rng.choice(pool) for s, i in required_pairs(complex)}
    kind = draw(st.sampled_from(["none", "constant", "mapping", "callable"]))
    if kind == "none":
        a = None
    elif kind == "constant":
        a = rng.choice(pool)
    else:
        if entries and rng.random() < 0.3:
            del entries[rng.choice(list(entries))]
        a = entries if kind == "mapping" else (lambda s, t: entries[(s, t)])
    return complex, zero_simplices, zero_faces, a


@SETTINGS
@given(semi_trivial_cases())
def test_semi_trivial_matches_the_table_loop(case):
    complex, zero_simplices, zero_faces, a = case
    assert_same(lambda: semi_trivial_weight(complex, zero_simplices, zero_faces, a),
                lambda: reference_semi_trivial_weight(complex, zero_simplices, zero_faces, a))


@SETTINGS
@given(st.lists(st.sampled_from(SCALARS + SCALARS + BAD_SCALARS), max_size=9))
def test_make_ngon_matches_the_table_loop(alphas):
    assert_same(lambda: make_ngon(alphas), lambda: reference_make_ngon(alphas))


@SETTINGS
@given(st.sampled_from(all_specs()), st.sampled_from(SCALARS + BAD_SCALARS),
       st.sampled_from(SCALARS + BAD_SCALARS))
def test_ffl_weights_match_the_table_loop(spec, activation, repression):
    encoding = {"activation": activation, "repression": repression}
    assert_same(lambda: make_ffl(spec, encoding),
                lambda: reference_ffl_weights(*(encoding[kind] for kind in spec.signs)))


@SETTINGS
@given(complexes(), SEEDED)
def test_builder_refuses_what_validation_refuses(complex, rng):
    """Random small entries on a complex with triangles mostly break the
    condition: the builder refuses them with the message the constructors
    gave, and adopts the tables that pass."""
    values = {pair: rng.choice([0, 1, 1, 2, -1, GaussianRational(0, 1)])
              for pair in required_pairs(complex)}
    assert_same(lambda: _tabulated(complex, lambda s, i: values[(s, i)]),
                lambda: _reference_validated(WeightFunction(complex, values)))
