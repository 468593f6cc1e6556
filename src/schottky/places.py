"""Places of the rationals and exact absolute values.

A Place is an absolute value on Q (possibly raised to a power eps):
archimedean |.|^eps with 0 < eps <= 1, p-adic |.|_p^eps with eps > 0,
the trivial absolute value on Q, or the trivial absolute value on the
residue field F_p.

Absolute values of nonzero elements at non-archimedean places are
represented *exactly* as products of prime powers with rational
exponents; comparisons reduce to integer comparisons, so no precision
is ever lost.  Archimedean values are machine floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math
from typing import Optional, Sequence

from .exactnum import (
    Rat,
    as_gaussian,
    factorize,
    padic_valuation,
)


class PlaceError(ValueError):
    """Malformed place or value outside the place's domain."""


class ImaginaryAtNonArch(PlaceError):
    """A non-real Gaussian rational was fed to a non-archimedean place."""


class BadResidue(PlaceError):
    """Element has no reduction mod p (denominator divisible by p)."""


class ZeroPolynomial(ValueError):
    """Seminorm of the zero polynomial requested."""


@dataclass(frozen=True)
class Place:
    """A point of the analytic spectrum of Z, as a tagged union.

    kind is one of "archimedean", "padic", "trivial_q", "trivial_fp".
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
        _check_prime(p)
        return Place("padic", p, eps)

    @staticmethod
    def trivial_q() -> "Place":
        return Place("trivial_q")

    @staticmethod
    def trivial_fp(p: int) -> "Place":
        _check_prime(p)
        return Place("trivial_fp", p)

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


def _check_prime(p: int) -> None:
    if p >= _MR_LIMIT:
        raise PlaceError(f"prime must be below {_MR_LIMIT}")
    if p < 2 or not _is_prime(p):
        raise PlaceError(f"{p} is not prime")


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
    """A positive real of the shape prod_p p^(e_p), exponents rational.

    This covers every nonzero absolute value a non-archimedean place can
    produce (|x|_p^eps = p^(-v_p(x) eps)), as well as exact rational
    scale factors and their rational powers.  Products, quotients and
    rational powers stay in the class; comparisons clear denominators
    and compare integers, hence are exact even across different primes.
    When both operands are powers of one prime p, compare, multiply and
    divide work on the exponents of p alone.

    Invariant: ``factors`` maps primes to nonzero ``Fraction`` exponents.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: dict[int, Fraction]):
        clean = {b: Fraction(e) for b, e in factors.items() if e != 0}
        object.__setattr__(self, "factors", clean)

    @staticmethod
    def _make(factors: dict[int, Fraction]) -> "ExactValue":
        """Wrap factors that already keep the invariant."""
        v = object.__new__(ExactValue)
        object.__setattr__(v, "factors", factors)
        return v

    def _one_prime(self, other: "ExactValue"):
        """(p, e, f) with self = p^e and other = p^f when the two values
        involve exactly one prime p between them, else None."""
        primes = self.factors.keys() | other.factors.keys()
        if len(primes) != 1:
            return None
        (p,) = primes
        return p, self.factors.get(p, _F0), other.factors.get(p, _F0)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("ExactValue is immutable")

    @staticmethod
    def one() -> "ExactValue":
        return ExactValue({})

    @staticmethod
    def from_rational(q: Fraction) -> "ExactValue":
        """Exact value of a positive rational number."""
        q = Fraction(q)
        if q <= 0:
            raise ValueError("ExactValue represents positive reals only")
        fac: dict[int, Fraction] = {}
        for b, e in factorize(q.numerator).items():
            fac[b] = fac.get(b, Fraction(0)) + e
        for b, e in factorize(q.denominator).items():
            fac[b] = fac.get(b, Fraction(0)) - e
        return ExactValue(fac)

    @staticmethod
    def p_power(p: int, exponent: Fraction) -> "ExactValue":
        """The value p^exponent."""
        e = exponent if type(exponent) is Fraction else Fraction(exponent)
        return ExactValue._make({p: e} if e else {})

    def cmp(self, other: AbsValue) -> int:
        if isinstance(other, ExactZero):
            return 1
        if isinstance(other, ApproxReal):
            a, b = self.to_float(), other.value
            return (a > b) - (a < b)
        if not isinstance(other, ExactValue):
            return NotImplemented
        one = self._one_prime(other)
        if one is not None:  # p > 1, so p^e vs p^f orders like e vs f
            _, e, f = one
            return (e > f) - (e < f)
        diff: dict[int, Fraction] = dict(self.factors)
        for b, e in other.factors.items():
            diff[b] = diff.get(b, Fraction(0)) - e
        diff = {b: e for b, e in diff.items() if e != 0}
        if not diff:
            return 0
        n = math.lcm(*(e.denominator for e in diff.values()))
        num = den = 1
        for b, e in diff.items():
            k = int(e * n)
            if k > 0:
                num *= b**k
            else:
                den *= b**-k
        return (num > den) - (num < den)

    def __mul__(self, other):
        if isinstance(other, ExactZero):
            return ZERO_ABS
        if isinstance(other, ApproxReal):
            return ApproxReal(self.to_float() * other.value)
        if isinstance(other, ExactValue):
            one = self._one_prime(other)
            if one is not None:
                p, e, f = one
                return ExactValue.p_power(p, e + f)
            fac = dict(self.factors)
            for b, e in other.factors.items():
                fac[b] = fac.get(b, Fraction(0)) + e
            return ExactValue(fac)
        if isinstance(other, (int, Fraction)):
            return self * ExactValue.from_rational(Fraction(other))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ExactValue):
            one = self._one_prime(other)
            if one is not None:
                p, e, f = one
                return ExactValue.p_power(p, e - f)
            return self * other ** -1
        if isinstance(other, ApproxReal):
            return ApproxReal(self.to_float() / other.value)
        if isinstance(other, (int, Fraction)):
            return self / ExactValue.from_rational(Fraction(other))
        return NotImplemented

    def __pow__(self, k: Rat) -> "ExactValue":
        k = Fraction(k)
        if not k:
            return ONE_ABS
        return ExactValue._make({b: e * k for b, e in self.factors.items()})

    def sqrt(self) -> "ExactValue":
        return self ** _HALF

    def __hash__(self):
        try:  # == reaches across ApproxReal, which hashes as its float
            return hash(self.to_float())
        except OverflowError:  # past the floats: no ApproxReal is equal
            return hash(frozenset(self.factors.items()))

    def to_float(self) -> float:
        # fsum rounds once, so equal values (any factor order) hash equal.
        return math.exp(math.fsum(float(e) * math.log(b)
                                  for b, e in self.factors.items()))

    def log_exponent(self, p: int, eps: Fraction) -> Fraction:
        """Write the value as p^(-q*eps) and return q.

        Raises ValueError if other primes contribute, i.e. the value is
        not a pure power of p.
        """
        extra = [b for b in self.factors if b != p]
        if extra:
            raise ValueError(f"value involves primes {extra}, not a power of {p}")
        return -self.factors.get(p, Fraction(0)) / Fraction(eps)

    def __repr__(self):
        if not self.factors:
            return "|1|"
        parts = "*".join(f"{b}^({e})" for b, e in sorted(self.factors.items()))
        return f"|{parts}|"


_F0 = Fraction(0)
_HALF = Fraction(1, 2)
ONE_ABS = ExactValue.one()


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
        b = other.to_float()
        return (self.value > b) - (self.value < b)

    def __mul__(self, other):
        if isinstance(other, ExactZero):
            return ZERO_ABS
        if isinstance(other, AbsValue):
            return ApproxReal(self.value * other.to_float())
        if isinstance(other, (int, Fraction)):
            return ApproxReal(self.value * float(other))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, AbsValue):
            return ApproxReal(self.value / other.to_float())
        if isinstance(other, (int, Fraction)):
            return ApproxReal(self.value / float(other))
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
    """The absolute value of a (Gaussian) rational at the given place."""
    z = as_gaussian(x)
    if z is None:
        raise TypeError(f"cannot take absolute value of {x!r}")
    if place.kind == "archimedean":
        if z.is_zero():
            return ZERO_ABS
        return ApproxReal(math.sqrt(float(z.norm2())) ** float(place.eps))
    if not z.is_rational():
        raise ImaginaryAtNonArch(
            "non-archimedean places are defined on rational values only"
        )
    q = z.re
    if place.kind == "padic":
        if q == 0:
            return ZERO_ABS
        v = padic_valuation(q, place.p)
        return ExactValue.p_power(place.p, -v * place.eps)
    if place.kind == "trivial_q":
        return ZERO_ABS if q == 0 else ONE_ABS
    if place.kind == "trivial_fp":
        p = place.p
        if q != 0 and q.denominator % p == 0:
            raise BadResidue(f"{q} has no reduction mod {p}")
        if q == 0 or q.numerator % p == 0:
            return ZERO_ABS
        return ONE_ABS
    raise PlaceError(f"unknown place kind {place.kind}")


# ---------------------------------------------------------------------------
# Gauss seminorms and hybrid sections
# ---------------------------------------------------------------------------


def gauss_seminorm(place: Place, coeffs: Sequence[Rat], r: Rat) -> AbsValue:
    """Sup-seminorm of an integer polynomial on the disc of radius r.

    ``coeffs`` lists a_0, a_1, ... of P(T) = sum a_i T^i; the result is
    max_i |a_i| r^i, computed exactly.  Only non-archimedean places are
    supported (the formula is the Gauss-point seminorm).
    """
    if place.is_archimedean:
        raise PlaceError("gauss_seminorm is defined at non-archimedean places")
    r = Fraction(r)
    if r <= 0:
        raise ValueError("radius must be positive")
    if all(c == 0 for c in coeffs):
        raise ZeroPolynomial("seminorm of the zero polynomial")
    rv = ExactValue.from_rational(r)
    best: AbsValue = ZERO_ABS
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        term = abs_value(place, c) * rv**i
        if term > best:
            best = term
    return best


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
