"""Places of the rationals and exact absolute values.

A Place is an absolute value on Q (possibly raised to a power eps):
archimedean |.|^eps with 0 < eps <= 1, p-adic |.|_p^eps with eps > 0,
or the trivial absolute value on Q.

`abs_value` returns the normalized value, |x| or |x|_p, at every eps: the
places |.|^eps rescale one norm, so whether discs meet cannot depend on
eps.  eps is a unit of measure, applied where a value is printed.

Absolute values of nonzero elements at a p-adic place are represented
*exactly* as p^e with a rational exponent e, so comparisons, products and
powers act on e and no precision is ever lost.  Archimedean values are
machine floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math
from typing import Optional, Sequence

from .exactnum import (
    Rat,
    as_gaussian,
    padic_valuation,
)


class PlaceError(ValueError):
    """Malformed place or value outside the place's domain."""


class ImaginaryAtNonArch(PlaceError):
    """A non-real Gaussian rational was fed to a non-archimedean place."""


class ZeroPolynomial(ValueError):
    """Seminorm of the zero polynomial requested."""


@dataclass(frozen=True)
class Place:
    """A point of the analytic spectrum of Z, as a tagged union.

    kind is one of "archimedean", "padic", "trivial_q".
    """

    kind: str
    p: Optional[int] = None
    eps: Optional[Fraction] = None

    @staticmethod
    def archimedean(eps: Rat = 1) -> "Place":
        eps = Fraction(eps)
        if not 0 < eps <= 1:
            raise PlaceError("archimedean exponent must lie in (0, 1]")
        return Place("archimedean", None, eps)

    @staticmethod
    def padic(p: int, eps: Rat = 1) -> "Place":
        eps = Fraction(eps)
        if eps <= 0:
            raise PlaceError("p-adic exponent must be positive")
        if p >= _MR_LIMIT:
            raise PlaceError(f"prime must be below {_MR_LIMIT}")
        if p < 2 or not _is_prime(p):
            raise PlaceError(f"{p} is not prime")
        return Place("padic", p, eps)

    @staticmethod
    def trivial_q() -> "Place":
        return Place("trivial_q")

    @property
    def is_archimedean(self) -> bool:
        return self.kind == "archimedean"

    @property
    def is_nonarchimedean(self) -> bool:
        return not self.is_archimedean


# Miller-Rabin over the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 2 <= n < _MR_LIMIT."""
    if n in _MR_BASES:
        return True
    if any(n % b == 0 for b in _MR_BASES):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Absolute values
# ---------------------------------------------------------------------------


class AbsValue:
    """Base class for absolute-value results; totally ordered."""

    def cmp(self, other: "AbsValue") -> int:
        raise NotImplementedError

    def __lt__(self, other):
        return self.cmp(other) < 0

    def __le__(self, other):
        return self.cmp(other) <= 0

    def __gt__(self, other):
        return self.cmp(other) > 0

    def __ge__(self, other):
        return self.cmp(other) >= 0

    def __eq__(self, other):
        if not isinstance(other, AbsValue):
            return NotImplemented
        return self.cmp(other) == 0

    def __hash__(self):
        return hash(self.to_float())

    def is_zero(self) -> bool:
        return isinstance(self, ExactZero)

    def to_float(self) -> float:
        raise NotImplementedError


class ExactZero(AbsValue):
    """|0| at any place."""

    def cmp(self, other: AbsValue) -> int:
        return 0 if isinstance(other, ExactZero) else -1

    def __mul__(self, other):
        return self

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ExactZero):
            raise ZeroDivisionError("0/0 absolute value")
        return self

    def to_float(self) -> float:
        return 0.0

    def __repr__(self):
        return "|0|"


ZERO_ABS = ExactZero()


class ExactValue(AbsValue):
    """The positive real p^e: a prime p and a ``Fraction`` exponent e.

    Every nonzero absolute value at a p-adic place has this form,
    |x|_p = p^(-v_p(x)), and so do its products, quotients and
    rational powers, which act on e alone.  A value with e = 0 is 1 and
    counts as a power of every prime.  ``==`` is total: by unique
    factorization p^e = q^f for distinct primes only when e = f = 0.
    Ordering or multiplying powers of two distinct primes raises
    ValueError.
    """

    __slots__ = ("p", "e")

    def __init__(self, p: int, e: Rat):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "e", e if type(e) is Fraction else Fraction(e))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("ExactValue is immutable")

    @staticmethod
    def p_power(p: int, exponent: Rat) -> "ExactValue":
        """The value p^exponent."""
        return ExactValue(p, exponent)

    @staticmethod
    def of_rational(p: int, x: Rat) -> "ExactValue":
        """x as p^v_p(x); ValueError unless x is a power of p."""
        x = Fraction(x)
        if x <= 0 or x != Fraction(p) ** (k := padic_valuation(x, p)):
            raise ValueError(f"{x} is not a power of {p}")
        return ExactValue(p, k)

    def _prime(self, other: "ExactValue") -> int:
        """The prime both values are powers of."""
        if self.p != other.p and self.e and other.e:
            raise ValueError(f"{self!r} and {other!r} are powers of distinct primes")
        return self.p if self.e else other.p

    def cmp(self, other: AbsValue) -> int:
        if isinstance(other, ExactValue):  # p > 1: p^e vs p^f orders like e vs f
            self._prime(other)
            return (self.e > other.e) - (self.e < other.e)
        if isinstance(other, ExactZero):
            return 1
        if isinstance(other, ApproxReal):
            return self._cmp_float(other.value)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, ExactValue):
            return self.e == other.e and (self.p == other.p or not self.e)
        return AbsValue.__eq__(self, other)

    def __mul__(self, other):
        if isinstance(other, ExactValue):
            return ExactValue(self._prime(other), self.e + other.e)
        if isinstance(other, ExactZero):
            return ZERO_ABS
        if isinstance(other, ApproxReal):
            return ApproxReal(self.to_float() * other.value)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ExactValue):
            return ExactValue(self._prime(other), self.e - other.e)
        if isinstance(other, ApproxReal):
            return ApproxReal(self.to_float() / other.value)
        return NotImplemented

    def __pow__(self, k: Rat) -> "ExactValue":
        return ExactValue(self.p, self.e * k)

    def sqrt(self) -> "ExactValue":
        return ExactValue(self.p, self.e / 2)

    def __hash__(self):
        try:  # == reaches across ApproxReal, which hashes as its float
            return hash(self.to_float())
        except OverflowError:  # past the floats: no ApproxReal is equal
            return hash((self.p, self.e))

    def _log(self) -> float:
        return float(self.e) * math.log(self.p)

    def to_float(self) -> float:
        """Correctly rounded when the exponent is an integer and the value
        has at most 2000 bits; else exp of the logarithm."""
        if self.e.denominator == 1 and abs(self.e) * self.p.bit_length() <= 2000:
            return float(Fraction(self.p) ** self.e)
        return math.exp(self._log())

    def _cmp_float(self, x: float) -> int:
        """Order against x >= 0: as floats where to_float() is finite and
        nonzero (so == agrees with hash), else by logarithms."""
        try:
            a = self.to_float()
        except OverflowError:
            a = math.inf
        if 0 < a < math.inf:
            return (a > x) - (a < x)
        log, log_x = self._log(), math.log(x) if x > 0 else -math.inf
        return (log > log_x) - (log < log_x)

    def log_exponent(self, p: int) -> Fraction:
        """The q with value p^(-q); ValueError if it is no power of p."""
        if self.p != p and self.e:
            raise ValueError(f"{self!r} is not a power of {p}")
        return -self.e

    def __repr__(self):
        return f"|{self.p}^({self.e})|" if self.e else "|1|"


ONE_ABS = ExactValue(1, 0)


class ApproxReal(AbsValue):
    """A floating-point absolute value (archimedean places only)."""

    __slots__ = ("value",)

    def __init__(self, value: float):
        if value < 0:
            raise ValueError("absolute value cannot be negative")
        object.__setattr__(self, "value", float(value))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("ApproxReal is immutable")

    def cmp(self, other: AbsValue) -> int:
        if isinstance(other, ExactZero):
            return 1 if self.value > 0 else 0
        if isinstance(other, ExactValue):
            return -other._cmp_float(self.value)
        return (self.value > other.value) - (self.value < other.value)

    def __mul__(self, other):
        if isinstance(other, ExactZero):
            return ZERO_ABS
        if isinstance(other, AbsValue):
            return ApproxReal(self.value * other.to_float())
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, AbsValue):
            return ApproxReal(self.value / other.to_float())
        return NotImplemented

    def __pow__(self, k: Rat) -> "ApproxReal":
        return ApproxReal(self.value ** float(k))

    def sqrt(self) -> "ApproxReal":
        return ApproxReal(math.sqrt(self.value))

    def to_float(self) -> float:
        return self.value

    def __repr__(self):
        return f"|~{self.value!r}|"


def abs_value(place: Place, x) -> AbsValue:
    """The normalized absolute value of a (Gaussian) rational at the place:
    the float |x| at the archimedean place, p^(-v_p(x)) at a p-adic one."""
    z = as_gaussian(x)
    if z is None:
        raise TypeError(f"cannot take absolute value of {x!r}")
    if place.kind == "archimedean":
        if z.is_zero():
            return ZERO_ABS
        return ApproxReal(math.sqrt(float(z.norm2())))
    if not z.is_rational():
        raise ImaginaryAtNonArch(
            "non-archimedean places are defined on rational values only"
        )
    q = z.re
    if place.kind == "padic":
        if q == 0:
            return ZERO_ABS
        v = padic_valuation(q, place.p)
        return ExactValue(place.p, -v)
    if place.kind == "trivial_q":
        return ZERO_ABS if q == 0 else ONE_ABS
    raise PlaceError(f"unknown place kind {place.kind}")


# ---------------------------------------------------------------------------
# The trivial Gauss seminorm and hybrid sections
# ---------------------------------------------------------------------------


def trivial_seminorm(coeffs: Sequence[Rat], r: Rat) -> Fraction:
    """The Gauss seminorm max r^i over the nonzero a_i at the trivial
    absolute value, where every nonzero a_i has absolute value 1."""
    if r <= 0:
        raise ValueError("radius must be positive")
    if all(c == 0 for c in coeffs):
        raise ZeroPolynomial("seminorm of the zero polynomial")
    return max(Fraction(r) ** i for i, c in enumerate(coeffs) if c)


def hybrid_section_eval(coeffs: Sequence[Rat], r: Rat, eps: Rat) -> float:
    """|P(r^(1/eps))|_infinity^eps, evaluated in high precision.

    As eps -> 0 this converges to the trivially-valued seminorm
    max(|a_i|_0 r^i); intermediate values r^(1/eps) can be astronomically
    small or large, so the evaluation runs through mpmath.
    """
    import mpmath  # only this function needs it; keeps imports fast

    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise PlaceError("archimedean exponent must lie in (0, 1]")
    r = Fraction(r)
    if r <= 0:
        raise ValueError("radius must be positive")
    def mpq(q: Fraction):
        return mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator)

    with mpmath.workprec(256):
        x = mpmath.power(mpq(r), 1 / mpq(eps))
        acc = mpmath.mpf(0)
        pw = mpmath.mpf(1)
        for c in coeffs:
            if c:
                acc += mpq(Fraction(c)) * pw
            pw *= x
        v = abs(acc)
        if v == 0:
            return 0.0
        return float(mpmath.power(v, mpq(eps)))
