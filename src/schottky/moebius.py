"""Moebius transformations, fixed-point coordinates and disc geometry.

Matrices act on the projective line over the Gaussian rationals, stored as
Gaussian-integer numerators over one common denominator.  At a
non-archimedean place everything here is exact; at an archimedean place
disc geometry runs in machine floats with a declared tolerance band
(comparisons inside the band answer None, "can't certify").  Every disc
comparison goes through the kernels ``ball_inside`` and ``balls_apart``, over
closed balls B[a, r] = {|z - a| <= r} and open ones B(a, r) = {|z - a| < r}.

Absolute values are the place's normalized ones (`places.abs_value`), so
no kernel here reads the place exponent eps.  At a p-adic place the disc
kernel measures x by its log_p magnitude L(x) = -v_p(x) (-inf for 0),
|x| = p^L(x), as the integer U L(x) for a unit U that clears every
denominator in sight.  L is strictly increasing in |x|, so every
ultrametric comparison keeps its form on L, and products of absolute
values become sums.  A radius must be a power of p; the disc kernel
refuses the trivial place.

The kernel holds a disc as integers (n, m, k, inv): centre n/m in lowest
terms (m > 0), radius magnitude k in the unit U = lcm(2, denominators of
the radius exponents), and the chart.  A matrix is (a, b, c, d, det), its
numerators and their determinant's magnitude, so images never leave the
unit: a walk over images (`figures.limit_sample`) fixes U once and builds
`Disc`s on output.  At a p-adic place `image_of_disc`, `disc_shape` and the
ball tests are wrappers over it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional

from .exactnum import GaussianRational, as_gaussian, padic_valuation
from .places import (
    AbsValue,
    ApproxReal,
    ExactValue,
    ImaginaryAtNonArch,
    Place,
    PlaceError,
    abs_value,
)

ARCH_TOL = 1e-12


class NotLoxodromic(ValueError):
    """Transformation has no attracting/repelling fixed-point pair."""


class PoleInsideDisc(ValueError):
    """Image of the disc is not a disc in either affine chart."""


class DegenerateConfiguration(ValueError):
    """Cross-ratio of a degenerate 4-tuple of points."""


class MultiplierUnderflow(ValueError):
    """A float-lifted multiplier rounds to zero: no triple can hold it."""


# ---------------------------------------------------------------------------
# Projective points
# ---------------------------------------------------------------------------


class ProjPoint:
    """A point of P^1, stored in a canonical homogeneous form.

    Finite points are (value, 1); the point at infinity is (1, 0).
    """

    __slots__ = ("u", "v")

    def __init__(self, u, v):
        u, v = as_gaussian(u), as_gaussian(v)
        if u is None or v is None:
            raise TypeError("projective coordinates must be Gaussian rationals")
        if u.is_zero() and v.is_zero():
            raise ValueError("(0 : 0) is not a projective point")
        if v.is_zero():
            u, v = GaussianRational(1), GaussianRational(0)
        else:
            u, v = u / v, GaussianRational(1)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("ProjPoint is immutable")

    @staticmethod
    def finite(x) -> "ProjPoint":
        return ProjPoint(as_gaussian(x), 1)

    @staticmethod
    def infinity() -> "ProjPoint":
        return ProjPoint(1, 0)

    @property
    def is_infinity(self) -> bool:
        return self.v.is_zero()

    def value(self) -> GaussianRational:
        if self.is_infinity:
            raise ZeroDivisionError("point at infinity has no affine value")
        return self.u

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.u == other.u and self.v == other.v

    def __hash__(self):
        return hash((self.u, self.v))

    def __repr__(self):
        return "oo" if self.is_infinity else f"[{self.u.re}+{self.u.im}i]"


INF = ProjPoint.infinity()


def wedge(x: ProjPoint, y: ProjPoint) -> GaussianRational:
    """u_x v_y - u_y v_x; vanishes exactly when x == y."""
    return x.u * y.v - y.u * x.v


# ---------------------------------------------------------------------------
# Moebius transformations
# ---------------------------------------------------------------------------


class Moebius:
    """z -> (a z + b) / (c z + d) with Gaussian-rational entries.

    Stored as the Gaussian-integer numerators (re, im) of a, b, c, d over
    one common denominator s > 0, plus dn = (ad - bc) s^2.  This is not a
    projective rescaling: s is never reduced (a product's is the product
    of its factors'), and ``a`` .. ``d``, ``det()``, equality and hashing
    are those of the exact entries, built on access.
    """

    __slots__ = ("_n", "_s", "_dn")

    def __init__(self, a, b, c, d):
        entries = [as_gaussian(x) for x in (a, b, c, d)]
        if any(z is None for z in entries):
            raise TypeError("matrix entries must be Gaussian rationals")
        parts = [q for z in entries for q in (z.re, z.im)]
        self._s = s = math.lcm(*(q.denominator for q in parts))
        self._n = ar, ai, br, bi, cr, ci, dr, di = tuple(
            q.numerator * (s // q.denominator) for q in parts)
        self._dn = (ar * dr - ai * di - br * cr + bi * ci,
                    ar * di + ai * dr - br * ci - bi * cr)
        if self._dn == (0, 0):
            raise ValueError("matrix is singular")

    @staticmethod
    def _of(n: tuple, s: int, dn: tuple) -> "Moebius":
        m = object.__new__(Moebius)
        m._n, m._s, m._dn = n, s, dn
        return m

    a, b, c, d = (property(lambda self, k=k: _over(*self._n[k:k + 2], self._s))
                  for k in (0, 2, 4, 6))

    def det(self) -> GaussianRational:
        return _over(*self._dn, self._s * self._s)

    def tr(self) -> GaussianRational:
        return _over(*self._t(), self._s)

    def _t(self) -> tuple[int, int]:  # the trace's numerator over s
        return self._n[0] + self._n[6], self._n[1] + self._n[7]

    def canonical(self) -> "Moebius":
        """Scale so the first nonzero entry (row order) is 1."""
        for e in (self.a, self.b, self.c, self.d):
            if not e.is_zero():
                return Moebius(self.a / e, self.b / e, self.c / e, self.d / e)
        raise ValueError("zero matrix")  # pragma: no cover

    def __mul__(self, other: "Moebius") -> "Moebius":
        if not isinstance(other, Moebius):
            return NotImplemented
        ar, ai, br, bi, cr, ci, dr, di = self._n
        er, ei, fr, fi, gr, gi, hr, hi = other._n
        (pr, pi), (qr, qi) = self._dn, other._dn
        n = (ar * er - ai * ei + br * gr - bi * gi, ar * ei + ai * er + br * gi + bi * gr,
             ar * fr - ai * fi + br * hr - bi * hi, ar * fi + ai * fr + br * hi + bi * hr,
             cr * er - ci * ei + dr * gr - di * gi, cr * ei + ci * er + dr * gi + di * gr,
             cr * fr - ci * fi + dr * hr - di * hi, cr * fi + ci * fr + dr * hi + di * hr)
        return Moebius._of(n, self._s * other._s, (pr * qr - pi * qi, pr * qi + pi * qr))

    def inverse(self) -> "Moebius":
        ar, ai, br, bi, cr, ci, dr, di = self._n
        return Moebius._of((dr, di, -br, -bi, -cr, -ci, ar, ai), self._s, self._dn)

    def apply(self, pt: ProjPoint) -> ProjPoint:
        # The common denominator s cancels in the projective image.
        ar, ai, br, bi, cr, ci, dr, di = self._n
        u, v = pt.u, pt.v
        if not (ai or bi or ci or di or u.im):
            x, y = (1, 0) if pt.is_infinity else (u.re.numerator, u.re.denominator)
            return ProjPoint(ar * x + br * y, cr * x + dr * y)
        return ProjPoint(GaussianRational(ar, ai) * u + GaussianRational(br, bi) * v,
                         GaussianRational(cr, ci) * u + GaussianRational(dr, di) * v)

    def __call__(self, pt: ProjPoint) -> ProjPoint:
        return self.apply(pt)

    def same_as(self, other: "Moebius") -> bool:
        """Equality in PGL_2: the entry vectors are proportional, i.e. the
        six 2x2 cross-products of the two entry vectors vanish."""
        s = (self.a, self.b, self.c, self.d)
        o = (other.a, other.b, other.c, other.d)
        return all(s[i] * o[j] == s[j] * o[i]
                   for i in range(4) for j in range(i + 1, 4))

    def is_identity(self) -> bool:
        # The six cross-products against (1, 0, 0, 1) are b, c and a - d.
        n = self._n
        return not (n[2] or n[3] or n[4] or n[5]) and n[0:2] == n[6:8]

    def multiplier_invariant(self) -> GaussianRational:
        """tr^2/det: a conjugacy invariant, equals beta + 2 + 1/beta."""
        t = self.tr()
        return t * t / self.det()

    def to_complex(self) -> tuple[complex, complex, complex, complex]:
        # int / int is correctly rounded, as float(Fraction) is.
        n, s = self._n, self._s
        return tuple(complex(n[k] / s, n[k + 1] / s) for k in (0, 2, 4, 6))

    def __eq__(self, other):
        if other.__class__ is not Moebius:
            return NotImplemented
        return all(x * other._s == y * self._s for x, y in zip(self._n, other._n))

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        return f"Moebius(a={self.a!r}, b={self.b!r}, c={self.c!r}, d={self.d!r})"


def _over(re: int, im: int, s: int) -> GaussianRational:
    return GaussianRational(Fraction(re, s), Fraction(im, s) if im else 0)


IDENTITY = Moebius(GaussianRational(1), GaussianRational(0),
                   GaussianRational(0), GaussianRational(1))
INVERSION = Moebius(GaussianRational(0), GaussianRational(1),
                    GaussianRational(1), GaussianRational(0))


def moebius(a, b, c, d) -> Moebius:
    return Moebius(as_gaussian(a), as_gaussian(b), as_gaussian(c), as_gaussian(d))


def moebius_to_zero_inf_one(p: ProjPoint, q: ProjPoint, r: ProjPoint) -> Moebius:
    """The unique map sending p -> 0, q -> infinity, r -> 1.

    Solved homogeneously: the inverse has columns lam*p and mu*q with
    lam*p + mu*q = r, so the three points may include infinity.
    """
    if p == q or p == r or q == r:
        raise DegenerateConfiguration("three points must be distinct")
    # Solve [p q] (lam, mu)^T = r  by Cramer's rule.  The inverse map
    # sends infinity -> q and 0 -> p, so its columns are mu*q and lam*p.
    det = wedge(p, q)
    lam = wedge(r, q) / det
    mu = wedge(p, r) / det
    inv = Moebius(mu * q.u, lam * p.u, mu * q.v, lam * p.v)
    return inv.inverse()


# ---------------------------------------------------------------------------
# Loxodromy, fixed points, multipliers
# ---------------------------------------------------------------------------


def is_loxodromic(place: Place, m: Moebius) -> bool:
    """Whether m has an attracting/repelling pair at the place.

    Non-archimedean: the exact test |det| < |tr|^2 (`multiplier_valuation`).
    Archimedean: m is elliptic or parabolic iff tr^2/det lies in [0, 4].
    On the integer numerators t = s tr and dn = s^2 det that holds iff
    x = t^2 conj(dn) is real with 0 <= x <= 4 |dn|^2; exact.
    """
    if place.is_nonarchimedean:
        return multiplier_valuation(place, m) > 0
    (t, ti), (dn, di) = m._t(), m._dn
    xr, xi = t * t - ti * ti, 2 * t * ti
    x, y = xr * dn + xi * di, xi * dn - xr * di
    return bool(y) or not 0 <= x <= 4 * (dn * dn + di * di)


def multiplier_valuation(place: Place, m: Moebius) -> int:
    """v_p(dn) - 2 v_p(t) for the integer numerators t = s tr, dn = s^2 det:
    m is loxodromic iff it is positive, and then it is v_p of the multiplier
    |det| / |tr|^2.  0 at the trivial place, where nothing is loxodromic."""
    (t, ti), (dn, di) = m._t(), m._dn
    if ti or di:
        raise ImaginaryAtNonArch(_NOT_REAL)
    if place.kind != "padic" or not t:
        return 0
    return padic_valuation(dn, place.p) - 2 * padic_valuation(t, place.p)


@dataclass(frozen=True)
class KoebeTriple:
    """Attracting fixed point, repelling fixed point, multiplier.

    The multiplier has absolute value in (0, 1) at the relevant place.
    ``approximate`` is set when the fixed points / multiplier were
    obtained by an iterative lift rather than exact arithmetic.
    """

    alpha: ProjPoint
    alpha_prime: ProjPoint
    beta: GaussianRational
    approximate: bool = False

    def __post_init__(self):
        if self.alpha == self.alpha_prime:
            raise ValueError("fixed points must be distinct")
        if as_gaussian(self.beta) is None or as_gaussian(self.beta).is_zero():
            raise ValueError("multiplier must be nonzero")
        object.__setattr__(self, "beta", as_gaussian(self.beta))


def koebe_to_matrix(t: KoebeTriple) -> Moebius:
    """The Moebius map with the given fixed points and multiplier."""
    u, v = t.alpha.u, t.alpha.v
    up, vp = t.alpha_prime.u, t.alpha_prime.v
    beta = t.beta
    one = GaussianRational(1)
    return Moebius(
        u * vp - beta * up * v,
        (beta - one) * u * up,
        (one - beta) * v * vp,
        beta * u * vp - up * v,
    )


def _eigen_point(m: Moebius, e: GaussianRational, k: int) -> ProjPoint:
    """The fixed point of eigenvalue lam = e / (k s): the kernel of m - lam,
    computed on the numerators scaled by k s."""
    ar, ai, br, bi, cr, ci, dr, di = m._n
    ka = GaussianRational(k * ar, k * ai)
    if br or bi or e != ka:
        return ProjPoint(GaussianRational(k * br, k * bi), e - ka)
    return ProjPoint(e - GaussianRational(k * dr, k * di), GaussianRational(k * cr, k * ci))


def split_root(place: Place, m: Moebius) -> Optional[tuple[int, int]]:
    """A root (re, im) of D = (n_a + n_d)^2 - 4 dn = s^2 (tr^2 - 4 det) in the
    place's exact field (Q non-archimedean, Q(i) archimedean), or None.  The
    fixed points of m are exact iff it exists.  Z[i] is integrally closed,
    so the root is a Gaussian integer, found with ``math.isqrt``."""
    (tr, ti), (pr, pi) = m._t(), m._dn
    x, y = tr * tr - ti * ti - 4 * pr, 2 * tr * ti - 4 * pi
    if not y:
        r = math.isqrt(abs(x))
        if r * r != abs(x) or (x < 0 and place.is_nonarchimedean):
            return None
        return (r, 0) if x >= 0 else (0, r)
    norm = math.isqrt(x * x + y * y)
    if place.is_nonarchimedean or norm * norm != x * x + y * y or (x + norm) % 2:
        return None
    u = math.isqrt((x + norm) // 2)
    if u * u * 2 != x + norm or y % (2 * u):
        return None
    return (u, y // (2 * u))


def matrix_to_koebe(place: Place, m: Moebius, prec: int = 64) -> KoebeTriple:
    """Fixed points and multiplier of a loxodromic transformation.

    When the characteristic polynomial splits over the place's exact field
    (`split_root`) the answer is exact: the eigenvalues are (t +- r) / (2 s),
    t = n_a + n_d.  Otherwise a root is lifted iteratively: mod p^prec at a
    p-adic place (Hensel/Newton), in machine floats at an archimedean one;
    the result carries ``approximate=True``.
    """
    if not is_loxodromic(place, m):
        raise NotLoxodromic("transformation is not loxodromic at this place")
    root = split_root(place, m)
    if root is None:
        return _arch_koebe(m) if place.is_archimedean else _padic_koebe(place, m, prec)
    t, r = GaussianRational(*m._t()), GaussianRational(*root)
    small, big = t + r, t - r  # 2 s times the eigenvalues
    if not abs_value(place, small) < abs_value(place, big):
        small, big = big, small
    # The local derivative at a fixed point is (other eigenvalue)/(own
    # eigenvalue), so the attracting point belongs to the big eigenvalue.
    return KoebeTriple(_eigen_point(m, big, 2), _eigen_point(m, small, 2), small / big)


def _padic_koebe(place: Place, m: Moebius, prec: int) -> KoebeTriple:
    (tr, ti), (dn, di) = m._t(), m._dn
    if ti or di:
        raise ValueError("p-adic lift needs rational trace and determinant")
    # Reduced equation Y^2 - Y + c = 0 with c = det/tr^2 = dn/t^2, |c|_p < 1;
    # lift the root near 0 mod p^prec.
    p = place.p
    mod = p**prec
    c = Fraction(dn, tr * tr)
    c_int = c.numerator * pow(c.denominator, -1, mod) % mod
    y = 0
    for _ in range(prec.bit_length() + 3):
        f = (y * y - y + c_int) % mod
        if f == 0:
            break
        y = (y - f * pow(2 * y - 1, -1, mod)) % mod
    small, big = GaussianRational(tr * y), GaussianRational(tr * (1 - y))  # s lam
    return KoebeTriple(
        _eigen_point(m, big, 1), _eigen_point(m, small, 1), small / big, True
    )


def _arch_koebe(m: Moebius) -> KoebeTriple:
    ca, cb, cc, cd = m.to_complex()
    tr, det = ca + cd, ca * cd - cb * cc
    s = cmath.sqrt(tr * tr - 4 * det)
    lam1, lam2 = (tr + s) / 2, (tr - s) / 2
    if abs(lam1) > abs(lam2):
        lam1, lam2 = lam2, lam1
    if lam1 == 0:
        raise MultiplierUnderflow("the multiplier underflows machine floats")
    small = GaussianRational.from_complex(lam1)
    big = GaussianRational.from_complex(lam2)
    return KoebeTriple(
        _eigen_point(m, big * m._s, 1), _eigen_point(m, small * m._s, 1), small / big, True
    )


# ---------------------------------------------------------------------------
# Cross-ratio
# ---------------------------------------------------------------------------


def cross_ratio(a: ProjPoint, b: ProjPoint, c: ProjPoint, d: ProjPoint
                ) -> GaussianRational:
    """[a, b; c, d] = (a-c)(b-d) / ((a-d)(b-c)), so [a, 1; 0, oo] = a.

    Computed homogeneously, so any argument may be infinity.  Raises
    DegenerateConfiguration when the value is 0/0 or infinite.
    """
    num = wedge(a, c) * wedge(b, d)
    den = wedge(a, d) * wedge(b, c)
    if den.is_zero():
        raise DegenerateConfiguration("cross-ratio is infinite or undefined")
    return num / den


# ---------------------------------------------------------------------------
# Discs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Disc:
    """A closed disc on the projective line, in one of two charts.

    chart "std":  {z : |z - center| <= radius}
    chart "inv":  {z : |1/z - center| <= radius}   (may contain infinity)

    Centers are always Gaussian rationals; at archimedean places the
    center of a computed image is the exact rational form of the float
    result, and the radius is an ApproxReal.
    """

    center: GaussianRational
    radius: AbsValue
    chart: str = "std"

    def __post_init__(self):
        if self.chart not in ("std", "inv"):
            raise ValueError("chart must be 'std' or 'inv'")
        c = as_gaussian(self.center)
        if c is None:
            raise TypeError("disc center must be a Gaussian rational")
        object.__setattr__(self, "center", c)
        if self.radius.is_zero() or (isinstance(self.radius, ApproxReal)
                                     and self.radius.value <= 0):
            raise ValueError("disc radius must be positive")


def image_of_disc(place: Place, f: Moebius, disc: Disc) -> Disc:
    """The image f(disc), as a disc in whichever chart can hold it.

    Raises PoleInsideDisc when the image contains both 0 and infinity
    (then it is a disc in neither chart).
    """
    if place.is_nonarchimedean:
        balls = _Balls(place, disc.radius)
        return balls.disc(balls.image(balls.matrix(f), balls.ball(disc)))
    return _image_arch(f if disc.chart == "std" else f * INVERSION, disc)


# -- the p-adic disc kernel ------------------------------------------------------


_NOT_REAL = "non-archimedean places are defined on rational values only"


class _Balls:
    """The p-adic disc kernel in the unit U of the given radii.

    of(x) is the magnitude U L(x) of an integer x (-inf for 0), k(r) that
    of one of the given radii r = p^e, and value(k) the radius of magnitude
    k, one object per k.  U = 2 (geometric means of p-adic absolute values lie in
    (1/2)Z) grows to the lcm with the denominator of each radius exponent
    that it does not clear.  Centres are pairs (n, m), n/m in lowest terms.
    """

    __slots__ = ("p", "u", "values")

    def __init__(self, place: Place, *radii: AbsValue):
        if place.kind != "padic":
            raise PlaceError("the disc kernel needs a p-adic place")
        p, u = place.p, 2
        for r in radii:
            if r.__class__ is not ExactValue or r.p != p and r.e:
                raise ValueError(f"disc radius {r!r} is not a power of {p}")
            if u % r.e.denominator:
                u = math.lcm(u, r.e.denominator)
        self.p, self.u, self.values = p, u, {}

    def value(self, k: int) -> ExactValue:
        if k not in self.values:
            self.values[k] = ExactValue(self.p, Fraction(k, self.u))
        return self.values[k]

    def of(self, x: int):
        return -padic_valuation(x, self.p) * self.u if x else -math.inf

    def k(self, r: ExactValue) -> int:
        return r.e.numerator * (self.u // r.e.denominator)

    def ball(self, disc: Disc) -> tuple:
        return (*_ratio(disc.center), self.k(disc.radius), disc.chart == "inv")

    def disc(self, ball: tuple) -> Disc:
        n, m, k, inv = ball
        return Disc(GaussianRational(Fraction(n, m)), self.value(k), "inv" if inv else "std")

    def matrix(self, f: Moebius) -> tuple:
        a, ai, b, bi, c, ci, d, di = f._n
        if ai or bi or ci or di:
            raise ImaginaryAtNonArch(_NOT_REAL)
        return a, b, c, d, self.of(f._dn[0])

    def image(self, g: tuple, ball: tuple) -> tuple:
        """`image_of_disc`: g(ball), or PoleInsideDisc."""
        (a, b, c, d, det), (n, m, k, inv), of = g, ball, self.of
        if inv:  # the chart z -> 1/z: g * INVERSION swaps g's columns
            a, b, c, d = b, a, d, c
        # With z0 = n/m the entries of g(z + z0), times m, are A = a m,
        # B = a n + b m, C = c m, D = c n + d m, of determinant (ad - bc) m^2; the
        # factor m cancels in the centre B/D and in the radius |det| r / |D|^2.
        B, D, am = a * n + b * m, c * n + d * m, of(m)
        if (ad := of(D)) > k + of(c) + am:
            x, y, k, inv = B, D, det + 2 * am + k - 2 * ad, False
        elif (ab := of(B)) > k + of(a) + am:
            x, y, k, inv = D, B, det + 2 * am + k - 2 * ab, True
        else:
            raise PoleInsideDisc("image is not a disc in either chart")
        h = math.gcd(x, y) if y > 0 else -math.gcd(x, y)  # as Fraction(x, y) has it
        return x // h, y // h, k, inv

    def shape(self, ball: tuple) -> tuple:
        """`disc_shape` on the integer form."""
        n, m, k, inv = ball
        if not inv:
            return "std", (n, m), k
        if (ac := self.of(n) - self.of(m)) > k:
            return "std", (m, n), k - 2 * ac
        return "codisc", (0, 1), -k

    def inside(self, a: tuple, ra, b: tuple, rb, a_open=False, b_open=False) -> bool:
        dist = _ball_dist(self.of, a, b)
        if not b_open:
            return dist <= rb and ra <= rb
        return dist < rb and (ra <= rb if a_open else ra < rb)

    def apart(self, a: tuple, ra, b: tuple, rb, b_open=False) -> bool:
        dist = _ball_dist(self.of, a, b)
        return dist > ra and (dist >= rb if b_open else dist > rb)

    def subset(self, ball1: tuple, ball2: tuple) -> bool:
        return _nested(self.shape(ball1), self.shape(ball2), self.inside, self.apart)


def _ratio(x: GaussianRational) -> tuple[int, int]:
    """(n, m) with x = n/m in lowest terms, m > 0; x must be real."""
    if x.im:
        raise ImaginaryAtNonArch(_NOT_REAL)
    return x.re.as_integer_ratio()


def _ball_dist(of, a: tuple, b: tuple):
    """|a - b| as a magnitude: |n m' - n' m| / |m m'| for a = n/m, b = n'/m'."""
    (n, m), (n2, m2) = a, b
    return of(n * m2 - n2 * m) - of(m * m2)


def _image_arch(g: Moebius, disc: Disc) -> Disc:
    za, zb, zc, zd = g.to_complex()
    z0 = disc.center.to_complex()
    zb, zd = za * z0 + zb, zc * z0 + zd
    r = disc.radius.to_float()
    absdet = abs(za * zd - zb * zc)
    denom = abs(zd) ** 2 - abs(zc) ** 2 * r * r
    scale = abs(zd) ** 2 + abs(zc) ** 2 * r * r + 1e-300
    if denom > ARCH_TOL * scale:
        center = (zb * zd.conjugate() - za * zc.conjugate() * r * r) / denom
        return Disc(GaussianRational.from_complex(center),
                    ApproxReal(absdet * r / denom), "std")
    denom = abs(zb) ** 2 - abs(za) ** 2 * r * r
    scale = abs(zb) ** 2 + abs(za) ** 2 * r * r + 1e-300
    if denom > ARCH_TOL * scale:
        center = (zd * zb.conjugate() - zc * za.conjugate() * r * r) / denom
        return Disc(GaussianRational.from_complex(center),
                    ApproxReal(absdet * r / denom), "inv")
    raise PoleInsideDisc("image is not a disc in either chart")


# -- canonical shapes -------------------------------------------------------


def disc_shape(place: Place, disc: Disc):
    """Canonical description of the disc as a subset of P^1.

    Returns ("std", center, radius) for an ordinary disc, or ("codisc", m, s)
    for P^1 - B(m, s), a closed set containing infinity.
    """
    if disc.chart == "std":
        return ("std", disc.center, disc.radius)
    c, r = disc.center, disc.radius
    if place.is_nonarchimedean:
        balls = _Balls(place, r)
        kind, (n, m), k = balls.shape(balls.ball(disc))
        return kind, GaussianRational(Fraction(n, m)), balls.value(k)
    zc = c.to_complex()
    rf = r.to_float()
    ac = abs(zc)
    if ac > rf * (1 + ARCH_TOL):
        denom = ac * ac - rf * rf
        return ("std", GaussianRational.from_complex(zc.conjugate() / denom),
                ApproxReal(rf / denom))
    if ac < rf * (1 - ARCH_TOL):
        denom = rf * rf - ac * ac
        return ("codisc", GaussianRational.from_complex(-zc.conjugate() / denom),
                ApproxReal(rf / denom))
    raise PoleInsideDisc("disc boundary passes through the chart origin")


def ball_inside(place: Place, a: GaussianRational, ra: AbsValue, b: GaussianRational,
                rb: AbsValue, a_open=False, b_open=False) -> Optional[bool]:
    """Whether the ball around a of radius ra lies in the one around b.

    Ultrametric: in a closed B[b, rb] iff dist <= rb and ra <= rb; a
    closed ball in an open B(b, rb) iff dist < rb and ra < rb, an open
    one iff dist < rb and ra <= rb.  Archimedean: sign of rb - dist - ra.
    """
    if place.is_nonarchimedean:
        balls = _Balls(place, ra, rb)
        return balls.inside(_ratio(a), balls.k(ra), _ratio(b), balls.k(rb), a_open, b_open)
    dist = abs_value(place, a - b)
    return _arch_sign(rb.to_float() - dist.to_float() - ra.to_float(),
                      rb.to_float() + dist.to_float() + ra.to_float())


def balls_apart(place: Place, a: GaussianRational, ra: AbsValue, b: GaussianRational,
                rb: AbsValue, b_open=False) -> Optional[bool]:
    """Whether the closed ball B[a, ra] misses the ball around b.

    Ultrametric: it misses a closed B[b, rb] iff dist > ra and dist > rb,
    an open B(b, rb) iff dist > ra and dist >= rb.  Archimedean: sign of
    dist - ra - rb.
    """
    if place.is_nonarchimedean:
        balls = _Balls(place, ra, rb)
        return balls.apart(_ratio(a), balls.k(ra), _ratio(b), balls.k(rb), b_open)
    dist = abs_value(place, a - b)
    return _arch_sign(dist.to_float() - ra.to_float() - rb.to_float(),
                      dist.to_float() + ra.to_float() + rb.to_float())


def _arch_sign(gap: float, scale: float) -> Optional[bool]:
    if gap > ARCH_TOL * scale:
        return True
    if gap < -ARCH_TOL * scale:
        return False
    return None


def discs_disjoint(place: Place, d1: Disc, d2: Disc) -> Optional[bool]:
    """True / False / None (None: archimedean borderline, can't certify)."""
    (k1, a, ra), (k2, b, rb) = disc_shape(place, d1), disc_shape(place, d2)
    if k1 == "std" and k2 == "std":
        return balls_apart(place, a, ra, b, rb)
    if k1 == "std":  # a std disc misses P^1 - B(b, rb) iff it lies in B(b, rb)
        return ball_inside(place, a, ra, b, rb, b_open=True)
    if k2 == "std":
        return ball_inside(place, b, rb, a, ra, b_open=True)
    return False  # both contain infinity


def disc_subset(place: Place, d1: Disc, d2: Disc) -> Optional[bool]:
    """Whether d1 is contained in d2 (True / False / None)."""
    return _nested(disc_shape(place, d1), disc_shape(place, d2),
                   partial(ball_inside, place), partial(balls_apart, place))


def _nested(s1: tuple, s2: tuple, inside, apart):
    """Whether the shape s1 lies in s2, by the place's ball tests."""
    (k1, a, ra), (k2, b, rb) = s1, s2
    if k2 == "std":  # a codisc holds infinity, so it lies in no std disc
        return k1 == "std" and inside(a, ra, b, rb)
    if k1 == "std":  # std inside the complement of the open B(b, rb)
        return apart(a, ra, b, rb, b_open=True)
    # codisc inside codisc: the removed open balls nest the other way.
    return inside(b, rb, a, ra, a_open=True, b_open=True)


def discs_equal(place: Place, d1: Disc, d2: Disc) -> Optional[bool]:
    """Same shape kind and boundary point: equal radii and each centre in
    the other's closed ball (archimedean: within 1e-9 of the radii sum)."""
    (k1, a, ra), (k2, b, rb) = disc_shape(place, d1), disc_shape(place, d2)
    if k1 != k2:
        return False
    if place.is_nonarchimedean:
        return ra == rb and ball_inside(place, a, ra, b, rb)
    tol = 1e-9 * (ra.to_float() + rb.to_float())  # relative to the radii
    return (abs(ra.to_float() - rb.to_float()) <= tol
            and abs_value(place, a - b).to_float() <= tol)
