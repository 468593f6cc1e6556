"""Moebius transformations, fixed-point coordinates and disc geometry.

Matrices act on the projective line over the Gaussian rationals.  At a
non-archimedean place everything here is exact; at an archimedean place
disc geometry runs in machine floats with a declared tolerance band
(comparisons inside the band answer None, "can't certify").
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exactnum import GaussianRational, as_gaussian
from .places import (
    AbsValue,
    ApproxReal,
    ExactValue,
    Place,
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


@dataclass(frozen=True)
class Moebius:
    """z -> (a z + b) / (c z + d) with Gaussian-rational entries.

    The determinant is computed once, at construction; products and
    inverses carry it over instead of recomputing it.
    """

    a: GaussianRational
    b: GaussianRational
    c: GaussianRational
    d: GaussianRational

    def __post_init__(self):
        for name in "abcd":
            v = as_gaussian(getattr(self, name))
            if v is None:
                raise TypeError("matrix entries must be Gaussian rationals")
            object.__setattr__(self, name, v)
        det = self.a * self.d - self.b * self.c
        if det.is_zero():
            raise ValueError("matrix is singular")
        object.__setattr__(self, "_det", det)

    @staticmethod
    def _carrying(a, b, c, d, det: GaussianRational) -> "Moebius":
        """A matrix whose determinant ad - bc is already known (nonzero)."""
        m = object.__new__(Moebius)
        m.__dict__.update(a=a, b=b, c=c, d=d, _det=det)
        return m

    def det(self) -> GaussianRational:
        return self._det

    def tr(self) -> GaussianRational:
        return self.a + self.d

    def canonical(self) -> "Moebius":
        """Scale so the first nonzero entry (row order) is 1."""
        for e in (self.a, self.b, self.c, self.d):
            if not e.is_zero():
                return Moebius(self.a / e, self.b / e, self.c / e, self.d / e)
        raise ValueError("zero matrix")  # pragma: no cover

    def __mul__(self, other: "Moebius") -> "Moebius":
        if not isinstance(other, Moebius):
            return NotImplemented
        return Moebius._carrying(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            self._det * other._det,
        )

    def inverse(self) -> "Moebius":
        return Moebius._carrying(self.d, -self.b, -self.c, self.a, self._det)

    def apply(self, pt: ProjPoint) -> ProjPoint:
        return ProjPoint(self.a * pt.u + self.b * pt.v,
                         self.c * pt.u + self.d * pt.v)

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
        return self.b.is_zero() and self.c.is_zero() and self.a == self.d

    def multiplier_invariant(self) -> GaussianRational:
        """tr^2/det: a conjugacy invariant, equals beta + 2 + 1/beta."""
        t = self.tr()
        return t * t / self.det()

    def to_complex(self) -> tuple[complex, complex, complex, complex]:
        return (self.a.to_complex(), self.b.to_complex(),
                self.c.to_complex(), self.d.to_complex())


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

    Non-archimedean: the exact test |det| < |tr|^2.  Archimedean: the
    eigenvalue moduli must differ by more than a 1e-12 relative margin.
    """
    if place.is_nonarchimedean:
        t = abs_value(place, m.tr())
        return abs_value(place, m.det()) < t * t
    ca, cb, cc, cd = m.to_complex()
    tr, det = ca + cd, ca * cd - cb * cc
    s = cmath.sqrt(tr * tr - 4 * det)
    r1, r2 = abs((tr + s) / 2), abs((tr - s) / 2)
    return abs(r1 - r2) > ARCH_TOL * max(r1, r2, 1e-300)


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


def _eigen_point(m: Moebius, lam: GaussianRational) -> ProjPoint:
    if not (m.b.is_zero() and lam == m.a):
        return ProjPoint(m.b, lam - m.a)
    return ProjPoint(lam - m.d, m.c)


def matrix_to_koebe(place: Place, m: Moebius, prec: int = 64) -> KoebeTriple:
    """Fixed points and multiplier of a loxodromic transformation.

    When the characteristic polynomial splits over the Gaussian
    rationals the answer is exact.  Otherwise a root is lifted
    iteratively: mod p^prec at a p-adic place (Hensel/Newton), in
    machine floats at an archimedean one; the result carries
    ``approximate=True``.
    """
    if not is_loxodromic(place, m):
        raise NotLoxodromic("transformation is not loxodromic at this place")
    tr, det = m.tr(), m.det()
    disc = tr * tr - 4 * det
    s = disc.sqrt()
    if s is not None and place.is_nonarchimedean and not s.is_rational():
        s = None  # eigenvalues live in Q(i), not in Q: lift p-adically
    if s is not None:
        lam1, lam2 = (tr + s) / 2, (tr - s) / 2
        a1, a2 = abs_value(place, lam1), abs_value(place, lam2)
        if a1 < a2:
            small, big = lam1, lam2
        else:
            small, big = lam2, lam1
        # The local derivative at a fixed point is (other eigenvalue)/(own
        # eigenvalue), so the attracting point belongs to the big eigenvalue.
        return KoebeTriple(
            _eigen_point(m, big), _eigen_point(m, small), small / big, False
        )
    if place.kind == "padic":
        return _padic_koebe(place, m, tr, det, prec)
    if place.is_archimedean:
        return _arch_koebe(m)
    raise NotLoxodromic(
        "multiplier is degenerate at trivially-valued places")


def _padic_koebe(place: Place, m: Moebius, tr, det, prec: int) -> KoebeTriple:
    if not (tr.is_rational() and det.is_rational()):
        raise ValueError("p-adic lift needs rational trace and determinant")
    # Reduced equation Y^2 - Y + c = 0 with c = det/tr^2, |c|_p < 1;
    # lift the root near 0 mod p^prec.
    c = det.re / (tr.re * tr.re)
    p = place.p
    mod = p**prec
    c_int = c.numerator * pow(c.denominator, -1, mod) % mod
    y = 0
    for _ in range(prec.bit_length() + 3):
        f = (y * y - y + c_int) % mod
        if f == 0:
            break
        y = (y - f * pow(2 * y - 1, -1, mod)) % mod
    y_rat = GaussianRational(Fraction(y))
    small = tr * y_rat
    big = tr * (GaussianRational(1) - y_rat)
    return KoebeTriple(
        _eigen_point(m, big), _eigen_point(m, small), small / big, True
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
        _eigen_point(m, big), _eigen_point(m, small), small / big, True
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


def _translated(g: Moebius, z0: GaussianRational):
    """Entries of g pre-composed with z -> z + z0."""
    return g.a, g.a * z0 + g.b, g.c, g.c * z0 + g.d


def image_of_disc(place: Place, f: Moebius, disc: Disc) -> Disc:
    """The image f(disc), as a disc in whichever chart can hold it.

    Raises PoleInsideDisc when the image contains both 0 and infinity
    (then it is a disc in neither chart).
    """
    g = f if disc.chart == "std" else f * INVERSION
    if place.is_nonarchimedean:
        return _image_nonarch(place, g, disc)
    return _image_arch(g, disc)


def _image_nonarch(place: Place, g: Moebius, disc: Disc) -> Disc:
    a, b2, c, d2 = _translated(g, disc.center)
    r = disc.radius
    absdet = abs_value(place, g.det())
    ad, ac = abs_value(place, d2), abs_value(place, c)
    if ad > r * ac:
        return Disc(b2 / d2, absdet * r / (ad * ad), "std")
    ab, aa = abs_value(place, b2), abs_value(place, a)
    if ab > r * aa:
        return Disc(d2 / b2, absdet * r / (ab * ab), "inv")
    raise PoleInsideDisc("image is not a disc in either chart")


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

    Returns ("std", center, radius) for an ordinary disc, or
    ("codisc", m, s) for the complement of the open disc D^-(m, s)
    (a closed set containing infinity).
    """
    if disc.chart == "std":
        return ("std", disc.center, disc.radius)
    c, r = disc.center, disc.radius
    if place.is_nonarchimedean:
        ac = abs_value(place, c)
        if ac > r:
            return ("std", GaussianRational(1) / c, r / (ac * ac))
        return ("codisc", GaussianRational(0), r ** -1
                if isinstance(r, ExactValue) else ApproxReal(1 / r.to_float()))
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


def _dist(place: Place, x: GaussianRational, y: GaussianRational) -> AbsValue:
    return abs_value(place, x - y)


def discs_disjoint(place: Place, d1: Disc, d2: Disc) -> Optional[bool]:
    """True / False / None (None: archimedean borderline, can't certify)."""
    s1, s2 = disc_shape(place, d1), disc_shape(place, d2)
    if s1[0] == "codisc" and s2[0] == "codisc":
        return False  # both contain infinity
    if s1[0] == "codisc":
        s1, s2 = s2, s1
    if s2[0] == "std":
        _, a, ra = s1
        _, b, rb = s2
        dist = _dist(place, a, b)
        if place.is_nonarchimedean:
            return dist > ra and dist > rb
        return _arch_sign(dist.to_float() - ra.to_float() - rb.to_float(),
                          dist.to_float() + ra.to_float() + rb.to_float())
    # std disc vs complement of open D^-(m, s): disjoint iff inside D^-.
    _, a, ra = s1
    _, mctr, s = s2
    dist = _dist(place, a, mctr)
    if place.is_nonarchimedean:
        return dist < s and ra < s
    return _arch_sign(s.to_float() - dist.to_float() - ra.to_float(),
                      s.to_float() + dist.to_float() + ra.to_float())


def _arch_sign(gap: float, scale: float) -> Optional[bool]:
    if gap > ARCH_TOL * scale:
        return True
    if gap < -ARCH_TOL * scale:
        return False
    return None


def disc_subset(place: Place, d1: Disc, d2: Disc) -> Optional[bool]:
    """Whether d1 is contained in d2 (True / False / None)."""
    s1, s2 = disc_shape(place, d1), disc_shape(place, d2)
    k1, k2 = s1[0], s2[0]
    if k1 == "codisc" and k2 == "std":
        return False
    if k1 == "std" and k2 == "std":
        _, a, ra = s1
        _, b, rb = s2
        dist = _dist(place, a, b)
        if place.is_nonarchimedean:
            return ra <= rb and dist <= rb
        return _arch_sign(rb.to_float() - dist.to_float() - ra.to_float(),
                          rb.to_float() + dist.to_float() + ra.to_float())
    if k1 == "std":  # std inside complement of open D^-(m, s)
        _, a, ra = s1
        _, mctr, s = s2
        dist = _dist(place, a, mctr)
        if place.is_nonarchimedean:
            return dist >= s and dist > ra
        return _arch_sign(dist.to_float() - ra.to_float() - s.to_float(),
                          dist.to_float() + ra.to_float() + s.to_float())
    # codisc inside codisc: the removed open discs nest the other way.
    _, m1, sa = s1
    _, m2, sb = s2
    dist = _dist(place, m1, m2)
    if place.is_nonarchimedean:
        return dist < sa and sb <= sa
    return _arch_sign(sa.to_float() - dist.to_float() - sb.to_float(),
                      sa.to_float() + dist.to_float() + sb.to_float())


def discs_equal(place: Place, d1: Disc, d2: Disc) -> Optional[bool]:
    """Whether the two discs are the same subset of P^1."""
    s1, s2 = disc_shape(place, d1), disc_shape(place, d2)
    if s1[0] != s2[0]:
        return False
    _, a, ra = s1
    _, b, rb = s2
    dist = _dist(place, a, b)
    if place.is_nonarchimedean:
        return ra == rb and dist <= ra
    scale = ra.to_float() + rb.to_float() + dist.to_float()
    close = (abs(ra.to_float() - rb.to_float()) <= ARCH_TOL * scale
             and dist.to_float() <= ARCH_TOL * scale)
    return True if close else False
