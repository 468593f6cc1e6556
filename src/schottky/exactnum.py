"""Exact rational and Gaussian-rational arithmetic helpers.

Everything in here is plain ``fractions.Fraction`` arithmetic: no floats,
no rounding.  These are the scalars that all exact computations downstream
(absolute values, Moebius maps, disc geometry) are built from.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt
from typing import Optional, Union

Rat = Union[int, Fraction]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer by trial division.

    Inputs here are small (user-supplied scale factors), so trial
    division is plenty.
    """
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def padic_valuation(x: Fraction, p: int) -> int:
    """v_p(x) for a nonzero rational x."""
    if x == 0:
        raise ValueError("valuation of zero is undefined")
    v = 0
    n = x.numerator
    while n % p == 0:
        v += 1
        n //= p
    d = x.denominator
    while d % p == 0:
        v -= 1
        d //= p
    return v


def rational_sqrt(x: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Fraction(rn, rd)


_F0 = Fraction(0)


class GaussianRational:
    """An element a + b*i with a, b exact rationals.

    Immutable; supports field arithmetic, conjugation and exact square
    roots (when they exist in the Gaussian rationals).  When both
    operands are real, ``+ - * /`` cost a single ``Fraction`` operation.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Rat = _F0, im: Rat = _F0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("GaussianRational is immutable")

    # -- basic structure -------------------------------------------------

    def __repr__(self) -> str:
        if self.im == 0:
            return f"GQ({self.re})"
        return f"GQ({self.re}, {self.im}i)"

    def __eq__(self, other) -> bool:
        other = as_gaussian(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_rational(self) -> bool:
        return not self.im

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = as_gaussian(other)
        if other is None:
            return NotImplemented
        if not self.im and not other.im:
            return _gq(self.re + other.re, _F0)
        return _gq(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return _gq(-self.re, -self.im)

    def __sub__(self, other):
        other = as_gaussian(other)
        if other is None:
            return NotImplemented
        if not self.im and not other.im:
            return _gq(self.re - other.re, _F0)
        return _gq(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = as_gaussian(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = as_gaussian(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b and not d:
            return _gq(a * c, _F0)
        return _gq(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_gaussian(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b and not d and c:
            return _gq(a / c, _F0)
        n2 = c * c + d * d
        if n2 == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _gq((a * c + b * d) / n2, (b * c - a * d) / n2)

    def __rtruediv__(self, other):
        other = as_gaussian(other)
        if other is None:
            return NotImplemented
        return other / self

    def conj(self) -> "GaussianRational":
        return _gq(self.re, -self.im)

    def norm2(self) -> Fraction:
        """re^2 + im^2 (the squared complex modulus, an exact rational)."""
        return self.re * self.re + self.im * self.im

    def sqrt(self) -> Optional["GaussianRational"]:
        """Exact square root within the Gaussian rationals, or None."""
        if self.im == 0:
            s = rational_sqrt(self.re)
            if s is not None:
                return GaussianRational(s, 0)
            s = rational_sqrt(-self.re)
            if s is not None:
                return GaussianRational(0, s)
            return None
        n = rational_sqrt(self.norm2())
        if n is None:
            return None
        x = rational_sqrt((self.re + n) / 2)
        if x is None or x == 0:
            return None
        y = self.im / (2 * x)
        cand = GaussianRational(x, y)
        return cand if cand * cand == self else None

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    @staticmethod
    def from_complex(z: complex) -> "GaussianRational":
        """Exact rational representation of a machine complex number."""
        return GaussianRational(Fraction(z.real), Fraction(z.imag))


def _gq(re: Fraction, im: Fraction) -> GaussianRational:
    """A GaussianRational from two Fractions, without converting them again."""
    z = object.__new__(GaussianRational)
    object.__setattr__(z, "re", re)
    object.__setattr__(z, "im", im)
    return z


def as_gaussian(x) -> Optional[GaussianRational]:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x, _F0)
    return None


GQ = GaussianRational

ZERO = GaussianRational(0)
ONE = GaussianRational(1)


MAX_DIGITS = 1000
_RATIONAL = re.compile(f"[+-]?[0-9]{{1,{MAX_DIGITS}}}(/[0-9]{{1,{MAX_DIGITS}}})?")


def parse_fraction(s: str) -> Fraction:
    """Parse '[+-]digits[/digits]' with at most MAX_DIGITS digits a side;
    any other form (an exponent costs unbounded time) is a ValueError."""
    if not _RATIONAL.fullmatch(s):
        raise ValueError(f"not [+-]digits[/digits] within {MAX_DIGITS} digits")
    return Fraction(s)


def format_fraction(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
