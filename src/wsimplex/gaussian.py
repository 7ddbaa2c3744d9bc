"""Exact complex-rational scalars.

Weight values live in Q(i): numbers a + b*i with rational a, b.  A value is
stored as one normalised integer triple (a, b, d) meaning (a + b*i)/d, with
d > 0 and gcd(a, b, d) = 1, so equal values have equal triples.  Arithmetic
runs on Python ints (no overflow, no rounding); a result with d = 1, which
is every result on integer operands, skips the gcd normalisation.  The
real and imaginary parts are available as ``fractions.Fraction`` through
``.re`` and ``.im``, and the text form round-trips through ``str`` /
``GaussianRational.from_string``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

# groups: real numerator, denominator, then those of an optional imaginary part
_SCALAR_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?(?:([+-]\d+)(?:/(\d+))?i)?\Z")


def _rat_str(n: int, d: int) -> str:
    """n/d in lowest terms, as ``str(Fraction(n, d))`` writes it (d > 0)."""
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return str(n) if d == 1 else f"{n}/{d}"


class GaussianRational:
    """a + b*i with a, b exact rationals, held as the triple (a, b, d)."""

    __slots__ = ("_t",)

    def __init__(self, real=0, imag=0):
        if isinstance(real, GaussianRational):
            if imag:
                raise ValueError("imag part given twice")
            t = real._t
        else:
            for x in (real, imag):
                if _parts(x) is None:
                    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")
            p, _, q = _parts(real)
            r, _, s = _parts(imag)
            if q == 1 and s == 1:
                t = (p, r, 1)
            else:
                # both ratios are in lowest terms, so over the lcm no prime
                # divides all three integers
                d = lcm(q, s)
                t = (p * (d // q), r * (d // s), d)
        object.__setattr__(self, "_t", t)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        # pickle and copy rebuild from the triple, not through __setattr__
        return _reduced, self._t

    @classmethod
    def coerce(cls, x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        t = _parts(x)
        if t is None:
            raise TypeError(f"cannot interpret {x!r} as a Gaussian rational")
        return _make(t)

    @classmethod
    def from_string(cls, text: str) -> "GaussianRational":
        """Parse 'a', 'a/b', 'a+bi' or 'a-bi' (rationals, no decimals)."""
        m = _SCALAR_RE.match(text.strip().replace(" ", ""))
        if m is None:
            raise ValueError(f"malformed scalar {text.strip()!r}")
        p, q, r, s = m.groups()
        p, q, r, s = int(p), int(q or 1), int(r or 0), int(s or 1)
        if q == 0 or s == 0:
            raise ValueError(f"zero denominator in {text.strip()!r}")
        return _reduced(p * s, r * q, q * s)

    # -- views --------------------------------------------------------------

    @property
    def re(self) -> Fraction:
        a, _, d = self._t
        return Fraction(a, d)

    @property
    def im(self) -> Fraction:
        _, b, d = self._t
        return Fraction(b, d)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = other._t if isinstance(other, GaussianRational) else _parts(other)
        if o is None:
            return NotImplemented
        return _sum(self._t, *o)

    __radd__ = __add__

    def __sub__(self, other):
        o = other._t if isinstance(other, GaussianRational) else _parts(other)
        if o is None:
            return NotImplemented
        c, e, f = o
        return _sum(self._t, -c, -e, f)

    def __rsub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        a, b, d = self._t
        return _sum(o, -a, -b, d)

    def __mul__(self, other):
        o = other._t if isinstance(other, GaussianRational) else _parts(other)
        if o is None:
            return NotImplemented
        a, b, d = self._t
        c, e, f = o
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other._t if isinstance(other, GaussianRational) else _parts(other)
        if o is None:
            return NotImplemented
        return _quotient(self._t, o)

    def __rtruediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _quotient(o, self._t)

    def __neg__(self):
        a, b, d = self._t
        return _make((-a, -b, d))

    def __pos__(self):
        return self

    # -- predicates and views ---------------------------------------------

    def conjugate(self) -> "GaussianRational":
        a, b, d = self._t
        return _make((a, -b, d))

    def abs2(self) -> Fraction:
        """Squared modulus, exact."""
        a, b, d = self._t
        return Fraction(a * a + b * b, d * d)

    def is_real(self) -> bool:
        return self._t[1] == 0

    def is_integer(self) -> bool:
        # with b = 0 the triple is a/d in lowest terms
        _, b, d = self._t
        return b == 0 and d == 1

    def __bool__(self) -> bool:
        return self._t != (0, 0, 1)

    def __eq__(self, other):
        o = other._t if isinstance(other, GaussianRational) else _parts(other)
        if o is None:
            return NotImplemented
        return self._t == o

    def __hash__(self):
        a, b, d = self._t
        if b == 0:
            return hash(a) if d == 1 else hash(Fraction(a, d))
        return hash((self.re, self.im))

    def __int__(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{self} is not an integer")
        return self._t[0]

    def __complex__(self) -> complex:
        a, b, d = self._t
        return complex(a / d, b / d)

    def __float__(self) -> float:
        a, b, d = self._t
        if b != 0:
            raise ValueError(f"{self} has a nonzero imaginary part")
        return a / d

    def __str__(self) -> str:
        a, b, d = self._t
        if b == 0:
            return str(a) if d == 1 else f"{a}/{d}"
        sign = "+" if b > 0 else "-"
        return f"{_rat_str(a, d)}{sign}{_rat_str(abs(b), d)}i"

    def __repr__(self) -> str:
        return f"GaussianRational('{self}')"


_new = object.__new__
_set_t = GaussianRational._t.__set__


def _make(t: tuple[int, int, int]) -> GaussianRational:
    """The value of an already normalised triple."""
    g = _new(GaussianRational)
    _set_t(g, t)
    return g


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """The value (a + b*i)/d for d > 0, normalised."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _make((a, b, d))


def _parts(x) -> tuple[int, int, int] | None:
    """The triple of an int or Fraction, None for any other type."""
    if isinstance(x, int):
        return int(x), 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    return None


def _sum(x: tuple, c: int, e: int, f: int) -> GaussianRational:
    """x + (c + e*i)/f on a triple x."""
    a, b, d = x
    if d == f:
        return _reduced(a + c, b + e, d)
    return _reduced(a * f + c * d, b * f + e * d, d * f)


def _quotient(x: tuple, y: tuple) -> GaussianRational:
    """x / y on triples: (a+bi)/d over (c+ei)/f is (a+bi)(c-ei)f / (d(c²+e²))."""
    a, b, d = x
    c, e, f = y
    n = c * c + e * e
    if n == 0:
        raise ZeroDivisionError("division by zero scalar")
    return _reduced((a * c + b * e) * f, (b * c - a * e) * f, d * n)


def products_equal(x: GaussianRational, y: GaussianRational,
                   z: GaussianRational, w: GaussianRational) -> bool:
    """Whether x*y == z*w, decided on the triples without building either
    product: (a+bi)(c+ei)/(df) equals (A+Bi)(C+Ei)/(DF) exactly when
    (ac-be)*DF == (AC-BE)*df and (ae+bc)*DF == (AE+BC)*df."""
    a, b, d = x._t
    c, e, f = y._t
    A, B, D = z._t
    C, E, F = w._t
    df, DF = d * f, D * F
    return ((a * c - b * e) * DF == (A * C - B * E) * df
            and (a * e + b * c) * DF == (A * E + B * C) * df)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
