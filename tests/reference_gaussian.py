"""Reference scalar for the differential tests: Q(i) on two Fractions.

This is the package's earlier ``GaussianRational``, kept verbatim below the
module docstring: real and imaginary parts as ``fractions.Fraction``, each
operation a handful of Fraction operations with a gcd each.  It is slow but
obviously right, so ``tests/test_gaussian_differential.py`` checks the
integer-triple class against it operation by operation.
"""

from __future__ import annotations

import re
from fractions import Fraction

_RAT = r"[+-]?\d+(?:/\d+)?"
_REAL_RE = re.compile(rf"({_RAT})\Z")
_COMPLEX_RE = re.compile(rf"({_RAT})([+-]\d+(?:/\d+)?)i\Z")


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class GaussianRational:
    """a + b*i with a, b exact rationals."""

    __slots__ = ("re", "im")

    def __init__(self, real=0, imag=0):
        if isinstance(real, GaussianRational):
            if imag:
                raise ValueError("imag part given twice")
            object.__setattr__(self, "re", real.re)
            object.__setattr__(self, "im", real.im)
            return
        object.__setattr__(self, "re", _as_fraction(real))
        object.__setattr__(self, "im", _as_fraction(imag))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @classmethod
    def coerce(cls, x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x)
        raise TypeError(f"cannot interpret {x!r} as a Gaussian rational")

    @classmethod
    def from_string(cls, text: str) -> "GaussianRational":
        """Parse 'a', 'a/b', 'a+bi' or 'a-bi' (rationals, no decimals)."""
        s = text.strip().replace(" ", "")
        try:
            m = _REAL_RE.match(s)
            if m:
                return cls(Fraction(m.group(1)))
            m = _COMPLEX_RE.match(s)
            if m:
                return cls(Fraction(m.group(1)), Fraction(m.group(2)))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text.strip()!r}") from None
        raise ValueError(f"malformed scalar {text.strip()!r}")

    # -- arithmetic -------------------------------------------------------

    def _coerced(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero scalar")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    # -- predicates and views ---------------------------------------------

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus, exact."""
        return self.re * self.re + self.im * self.im

    def is_real(self) -> bool:
        return self.im == 0

    def is_integer(self) -> bool:
        return self.im == 0 and self.re.denominator == 1

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __eq__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __int__(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{self} is not an integer")
        return int(self.re)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __float__(self) -> float:
        if self.im != 0:
            raise ValueError(f"{self} has a nonzero imaginary part")
        return float(self.re)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self) -> str:
        return f"GaussianRational('{self}')"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
