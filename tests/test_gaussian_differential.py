"""Differential test of the integer-triple scalar against the two-Fraction
reference class (``reference_gaussian.py``), on seeded hypothesis operands.

Every operation must agree in value, type, ``str``, ``repr`` and ``hash``,
and raise the same exception with the same message.  Operands mix zero,
real, purely imaginary and complex values, entries up to 10^30, parts
10^15 apart in magnitude, and plain ints and Fractions on either side.
``DEEP`` draws ten times as many.
"""

import operator
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from wsimplex import GaussianRational  # noqa: E402

from conftest import DEEP  # noqa: E402
from reference_gaussian import GaussianRational as Reference  # noqa: E402

SETTINGS = settings(derandomize=True, max_examples=3000 if DEEP else 300, deadline=None)

BIG = 10**30
APART = 10**15

_INTS = st.one_of(
    st.integers(-6, 6),
    st.integers(-BIG, BIG),
    st.sampled_from([0, 1, -1, APART, -APART, BIG, -BIG]),
)
_DENOMS = st.one_of(st.integers(1, 12), st.sampled_from([APART, BIG, 2**64]))
_RATS = st.one_of(_INTS, st.builds(Fraction, _INTS, _DENOMS))
_SCALES = st.sampled_from([1, APART, Fraction(1, APART), -APART])


@st.composite
def parts(draw):
    """(re, im) as Fractions: zero, real, purely imaginary or complex, the
    complex ones with the imaginary part scaled up to 10^15 apart."""
    kind = draw(st.sampled_from(["zero", "real", "imag", "complex"]))
    re_ = Fraction(draw(_RATS)) if kind in ("real", "complex") else Fraction(0)
    im = Fraction(draw(_RATS)) if kind in ("imag", "complex") else Fraction(0)
    if kind == "complex":
        im *= draw(_SCALES)
    return re_, im


@st.composite
def operands(draw):
    """(operand for the new class, the same operand for the reference): both
    scalars, or one plain int / Fraction when the value is real."""
    re_, im = draw(parts())
    if im == 0 and draw(st.booleans()):
        plain = re_
        if re_.denominator == 1 and draw(st.booleans()):
            plain = re_.numerator
        return plain, plain
    return GaussianRational(re_, im), Reference(re_, im)


def _outcome(fn, *args):
    """('ok', result) or ('raise', type name, message)."""
    try:
        return ("ok", fn(*args))
    except (ArithmeticError, ValueError, TypeError) as exc:
        return ("raise", type(exc).__name__, str(exc))


def _assert_same(new, ref):
    """The new result renders and compares as the reference one."""
    if new[0] == "raise" or ref[0] == "raise":
        assert new == ref
        return
    n, r = new[1], ref[1]
    if isinstance(r, Reference):
        assert type(n) is GaussianRational
        assert (n.re, n.im) == (r.re, r.im)
        assert type(n.re) is Fraction and type(n.im) is Fraction
        assert str(n) == str(r)
        assert repr(n) == repr(r)
        assert hash(n) == hash(r)
    else:
        assert type(n) is type(r)
        assert n == r


BINARY = [operator.add, operator.sub, operator.mul, operator.truediv,
          operator.eq, operator.ne]


@SETTINGS
@given(operands(), operands(), st.sampled_from(BINARY))
@example((GaussianRational(BIG, 1), Reference(BIG, 1)),
         (GaussianRational(Fraction(1, APART), APART), Reference(Fraction(1, APART), APART)),
         operator.mul)
@example((GaussianRational(0, 3), Reference(0, 3)), (0, 0), operator.truediv)
@example((Fraction(1, 3), Fraction(1, 3)),
         (GaussianRational(0), Reference(0)), operator.truediv)
@example((7, 7), (GaussianRational(0, -2), Reference(0, -2)), operator.sub)
def test_binary_operations_match_reference(x, y, op):
    (xn, xr), (yn, yr) = x, y
    if not isinstance(xn, GaussianRational) and not isinstance(yn, GaussianRational):
        return  # plain on both sides never reaches either class
    _assert_same(_outcome(op, xn, yn), _outcome(op, xr, yr))


UNARY = [
    operator.neg, operator.pos, lambda v: v.abs2(),
    lambda v: v.conjugate(), lambda v: v.is_real(), lambda v: v.is_integer(),
    bool, int, float, complex, str, repr, hash,
]


@SETTINGS
@given(parts(), st.sampled_from(UNARY))
@example((Fraction(0), Fraction(0)), int)
@example((Fraction(0), Fraction(-BIG)), float)
@example((Fraction(BIG, 7), Fraction(0)), int)
@example((Fraction(BIG), Fraction(0)), hash)
def test_unary_operations_match_reference(pair, op):
    _assert_same(_outcome(op, GaussianRational(*pair)), _outcome(op, Reference(*pair)))


@SETTINGS
@given(parts())
@example((Fraction(0), Fraction(0)))
@example((Fraction(-BIG, 3), Fraction(0)))
@example((Fraction(0), Fraction(APART)))
def test_hash_and_dict_keys_interchange(pair):
    re_, im = pair
    v = GaussianRational(re_, im)
    assert hash(v) == hash(Reference(re_, im))
    if im:
        return
    # a real scalar, its Fraction and (when integral) its int are one key
    plains = [re_] + ([re_.numerator] if re_.denominator == 1 else [])
    for plain in plains:
        assert v == plain and plain == v
        assert hash(v) == hash(plain)
        assert {v: "scalar"}[plain] == "scalar"
        assert {plain: "plain"}[v] == "plain"


@SETTINGS
@given(parts())
@example((Fraction(BIG, 7), Fraction(-APART, 11)))
def test_str_round_trip(pair):
    v = GaussianRational(*pair)
    text = str(v)
    assert text == str(Reference(*pair))
    assert GaussianRational.from_string(text) == v
    assert str(GaussianRational.from_string(text)) == text


_DIGITS = st.one_of(st.integers(0, 40), st.sampled_from([BIG, APART]))


@st.composite
def scalar_texts(draw):
    """Texts in and around the scalar grammar: unreduced fractions, zero
    denominators, signs, inner spaces, and random junk."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(alphabet="0123456789+-/i .", max_size=12))
    sign = draw(st.sampled_from(["", "+", "-"]))
    text = f"{sign}{draw(_DIGITS)}"
    if draw(st.booleans()):
        text += f"/{draw(_DIGITS)}"
    if draw(st.booleans()):
        text += f"{draw(st.sampled_from(['+', '-']))}{draw(_DIGITS)}"
        if draw(st.booleans()):
            text += f"/{draw(_DIGITS)}"
        text += "i"
    if draw(st.booleans()):
        text = f" {text.replace('/', ' / ')} "
    return text


@SETTINGS
@given(scalar_texts())
@example("6/4+10/8i")
@example("-0/5-0/3i")
@example("3/0")
@example("1+2/0i")
@example(f"{BIG}/{APART}-{APART}i")
def test_from_string_matches_reference(text):
    new = _outcome(GaussianRational.from_string, text)
    ref = _outcome(Reference.from_string, text)
    _assert_same(new, ref)
    if new[0] == "ok":
        assert GaussianRational.from_string(str(new[1])) == new[1]


def test_zero_division_raises_like_reference():
    for n, r in [(GaussianRational(1, 1), Reference(1, 1)),
                 (GaussianRational(0), Reference(0))]:
        for zero_n, zero_r in [(0, 0), (Fraction(0), Fraction(0)),
                               (GaussianRational(0), Reference(0))]:
            assert _outcome(operator.truediv, n, zero_n) == \
                _outcome(operator.truediv, r, zero_r)
        assert _outcome(operator.truediv, 5, GaussianRational(0)) == \
            _outcome(operator.truediv, 5, Reference(0))
