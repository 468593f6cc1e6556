"""The integer-numerator Moebius matrices and the log_p disc kernel against
the Fraction-entry matrices and AbsValue kernel they replaced.

`_FracMoebius`, `_image_nonarch`, `_disc_shape`, `_ball_inside`,
`_balls_apart`, `_disc_subset` and `_limit_sample` are the earlier code
(Fraction entries with a carried determinant, `abs_value` everywhere),
cut down to what these tests call.  Every value must come out the same:
matrix entries, determinants, floats bit for bit, disc centres, radii,
charts and refusals.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import pytest

from conftest import random_sb_point, random_unit, seeded

from schottky.exactnum import GaussianRational
from schottky.figures import (
    FigureInvariantError,
    ReducedWord,
    is_in_SB,
    limit_sample,
    schottky_point,
    spherical_radius,
)
from schottky.moebius import (
    Disc,
    Moebius,
    PoleInsideDisc,
    ProjPoint,
    _arch_sign,
    _image_arch,
    ARCH_TOL,
    ball_inside,
    balls_apart,
    disc_shape,
    disc_subset,
    image_of_disc,
)
from schottky.places import (
    AbsValue,
    ApproxReal,
    ExactValue,
    ImaginaryAtNonArch,
    ONE_ABS,
    Place,
    PlaceError,
    abs_value,
)

PLACES = [Place.padic(2), Place.padic(3), Place.padic(5),
          Place.padic(3, Fraction(2, 3)), Place.archimedean()]
IDS = ["p2", "p3", "p5", "p3_eps2/3", "arch"]


# -- the earlier code ---------------------------------------------------------


@dataclass(frozen=True)
class _FracMoebius:
    a: GaussianRational
    b: GaussianRational
    c: GaussianRational
    d: GaussianRational

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if det.is_zero():
            raise ValueError("matrix is singular")
        object.__setattr__(self, "_det", det)

    @staticmethod
    def _carrying(a, b, c, d, det: GaussianRational) -> "_FracMoebius":
        m = object.__new__(_FracMoebius)
        m.__dict__.update(a=a, b=b, c=c, d=d, _det=det)
        return m

    def det(self) -> GaussianRational:
        return self._det

    def tr(self) -> GaussianRational:
        return self.a + self.d

    def __mul__(self, other):
        return _FracMoebius._carrying(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            self._det * other._det,
        )

    def inverse(self):
        return _FracMoebius._carrying(self.d, -self.b, -self.c, self.a, self._det)

    def apply(self, pt: ProjPoint) -> ProjPoint:
        return ProjPoint(self.a * pt.u + self.b * pt.v,
                         self.c * pt.u + self.d * pt.v)

    def is_identity(self) -> bool:
        return self.b.is_zero() and self.c.is_zero() and self.a == self.d

    def to_complex(self):
        return (self.a.to_complex(), self.b.to_complex(),
                self.c.to_complex(), self.d.to_complex())


_IDENTITY = _FracMoebius(GaussianRational(1), GaussianRational(0),
                         GaussianRational(0), GaussianRational(1))
_INVERSION = _FracMoebius(GaussianRational(0), GaussianRational(1),
                          GaussianRational(1), GaussianRational(0))


def _frac(m: Moebius) -> _FracMoebius:
    return _FracMoebius(m.a, m.b, m.c, m.d)


def _translated(g, z0: GaussianRational):
    return g.a, g.a * z0 + g.b, g.c, g.c * z0 + g.d


def _image_of_disc(place: Place, f, disc: Disc) -> Disc:
    g = f if disc.chart == "std" else f * _INVERSION
    if place.is_nonarchimedean:
        return _image_nonarch(place, g, disc)
    return _image_arch(g, disc)


def _image_nonarch(place: Place, g, disc: Disc) -> Disc:
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


def _disc_shape(place: Place, disc: Disc):
    if disc.chart == "std":
        return ("std", disc.center, disc.radius)
    c, r = disc.center, disc.radius
    if place.is_nonarchimedean:
        ac = abs_value(place, c)
        if ac > r:
            return ("std", GaussianRational(1) / c, r / (ac * ac))
        return ("codisc", GaussianRational(0), r ** -1)
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


def _ball_inside(place: Place, a: GaussianRational, ra: AbsValue, b: GaussianRational,
                 rb: AbsValue, a_open=False, b_open=False) -> Optional[bool]:
    dist = abs_value(place, a - b)
    if place.is_nonarchimedean:
        if not b_open:
            return dist <= rb and ra <= rb
        return dist < rb and (ra <= rb if a_open else ra < rb)
    return _arch_sign(rb.to_float() - dist.to_float() - ra.to_float(),
                      rb.to_float() + dist.to_float() + ra.to_float())


def _balls_apart(place: Place, a: GaussianRational, ra: AbsValue, b: GaussianRational,
                 rb: AbsValue, b_open=False) -> Optional[bool]:
    dist = abs_value(place, a - b)
    if place.is_nonarchimedean:
        return dist > ra and (dist >= rb if b_open else dist > rb)
    return _arch_sign(dist.to_float() - ra.to_float() - rb.to_float(),
                      dist.to_float() + ra.to_float() + rb.to_float())


def _disc_subset(place: Place, d1: Disc, d2: Disc) -> Optional[bool]:
    (k1, a, ra), (k2, b, rb) = _disc_shape(place, d1), _disc_shape(place, d2)
    if k2 == "std":
        return k1 == "std" and _ball_inside(place, a, ra, b, rb)
    if k1 == "std":
        return _balls_apart(place, a, ra, b, rb, b_open=True)
    return _ball_inside(place, b, rb, a, ra, a_open=True, b_open=True)


def _limit_sample(fig, depth: int):
    """The levels and decay pair of `limit_sample`, on Fraction matrices."""
    g = fig.g
    gens = [_frac(m) for m in fig.generators]

    def gen(letter):
        m = gens[abs(letter) - 1]
        return m if letter > 0 else m.inverse()

    alphabet = [i for i in range(1, g + 1)] + [-i for i in range(1, g + 1)]
    levels = {n: [] for n in range(1, depth + 1)}

    def rec(prefix, word: tuple, parent: Optional[Disc]):
        level = len(word) + 1
        for letter in alphabet:
            if word and word[-1] == -letter:
                continue
            d = _image_of_disc(fig.place, prefix, fig.disc_for_letter(letter))
            if parent is not None and _disc_subset(fig.place, d, parent) is not True:
                raise FigureInvariantError(
                    f"word disc not nested inside its prefix at {word + (letter,)}")
            levels[level].append((ReducedWord(word + (letter,)), d))
            if level < depth:
                rec(prefix * gen(letter), word + (letter,), d)

    rec(_IDENTITY, (), None)
    by_word = {w.letters: spherical_radius(fig.place, d) for w, d in levels[1]}
    radius_R = max(by_word.values())
    if depth >= 2 and levels.get(2):
        decay_c = max(spherical_radius(fig.place, d) / by_word[w.letters[:1]]
                      for w, d in levels[2])
    else:
        decay_c = abs_value(fig.place, fig.point.triples[0].beta) \
            if fig.point is not None else ApproxReal(0.5)
    return levels, radius_R, decay_c


# -- random data ----------------------------------------------------------------


def _rational(rng, bits=20):
    den = rng.choice([1, 2, 3, 4, 9, 25, 7 * 8, rng.randint(1, 2 ** bits)])
    return Fraction(rng.randint(-2 ** bits, 2 ** bits), den)


def _gaussian(rng, real):
    im = 0 if real or rng.random() < 0.3 else _rational(rng, 8)
    return GaussianRational(_rational(rng), im)


def _matrix(rng, real=True):
    while True:
        try:
            return Moebius(*(_gaussian(rng, real) if rng.random() < 0.9
                             else GaussianRational(0) for _ in range(4)))
        except ValueError:
            continue


def _radius(rng, place: Place) -> AbsValue:
    if place.is_archimedean:
        return ApproxReal(rng.choice([0.25, 1.0, 3.0]) * 2.0 ** rng.randint(-30, 30))
    # denominators 3 and 5 lie off the (1/2)Z lattice of the unit q = 2
    e = Fraction(rng.randint(-12, 12), rng.choice([1, 1, 2, 3, 5]))
    return ExactValue.p_power(place.p, e)


def _disc(rng, place: Place) -> Disc:
    centre = _gaussian(rng, place.is_nonarchimedean)
    return Disc(centre, _radius(rng, place), rng.choice(["std", "inv"]))


def _floats(zs):
    return [x.hex() for z in zs for x in (z.real, z.imag)]


def _disc_data(d: Disc):
    r = d.radius
    return (d.center, d.chart, r.value.hex() if isinstance(r, ApproxReal) else repr(r))


def _outcome(f, *args, **kwargs):
    try:
        out = f(*args, **kwargs)
    except PoleInsideDisc:
        return PoleInsideDisc
    if isinstance(out, Disc):
        return _disc_data(out)
    if isinstance(out, tuple):  # a disc shape
        r = out[2]
        return (out[0], out[1], r.value.hex() if isinstance(r, ApproxReal) else repr(r))
    return out


# -- tests ------------------------------------------------------------------------


@pytest.mark.parametrize("real", [True, False], ids=["real", "gaussian"])
def test_matrices_match_the_fraction_matrices(real):
    rng = seeded(8100 + real)
    for _ in range(150):
        m = _matrix(rng, real)
        old = _frac(m)
        for _ in range(rng.randint(1, 5)):
            n = _matrix(rng, real if rng.random() < 0.8 else False)
            op = rng.choice(["mul", "rmul", "inv"])
            if op == "mul":
                m, old = m * n, old * _frac(n)
            elif op == "rmul":
                m, old = n * m, _frac(n) * old
            else:
                m, old = m.inverse(), old.inverse()
            assert (m.a, m.b, m.c, m.d) == (old.a, old.b, old.c, old.d)
            assert m.det() == old.det() == m.a * m.d - m.b * m.c
            assert m.tr() == old.tr()
            assert _floats(m.to_complex()) == _floats(old.to_complex())
            assert hash(m) == hash(old)  # the frozen dataclass hash of the entries
            assert m == Moebius(m.a, m.b, m.c, m.d)
            assert (m == n) == ((m.a, m.b, m.c, m.d) == (n.a, n.b, n.c, n.d))
            assert m.is_identity() == old.is_identity()
            for pt in (ProjPoint.infinity(), ProjPoint.finite(_gaussian(rng, real)),
                       ProjPoint.finite(0)):
                try:
                    want = old.apply(pt)
                except ValueError:
                    continue
                assert m.apply(pt) == want
        assert (m * m.inverse()).is_identity()


@pytest.mark.parametrize("place", PLACES, ids=IDS)
def test_disc_images_match_the_abs_value_kernel(place):
    rng = seeded(8200 + (place.p or 0))
    seen = set()
    for _ in range(600):
        g = _matrix(rng, real=place.is_nonarchimedean)
        disc = _disc(rng, place)
        got = _outcome(image_of_disc, place, g, disc)
        assert got == _outcome(_image_of_disc, place, _frac(g), disc)
        seen.add(got[1] if isinstance(got, tuple) else got)
    assert {"std", "inv"} <= seen


@pytest.mark.parametrize("place", PLACES, ids=IDS)
def test_ball_kernels_match_the_abs_value_kernel(place):
    rng = seeded(8300 + (place.p or 0))
    answers = set()
    for _ in range(600):
        d1, d2 = _disc(rng, place), _disc(rng, place)
        if rng.random() < 0.3:  # share a centre or a radius
            d2 = Disc(d1.center if rng.random() < 0.5 else d2.center,
                      d1.radius, d2.chart)
        assert _outcome(disc_shape, place, d1) == _outcome(_disc_shape, place, d1)
        a, ra, b, rb = d1.center, d1.radius, d2.center, d2.radius
        for a_open in (False, True):
            for b_open in (False, True):
                got = ball_inside(place, a, ra, b, rb, a_open, b_open)
                assert got is _ball_inside(place, a, ra, b, rb, a_open, b_open)
                answers.add(got)
        for b_open in (False, True):
            got = balls_apart(place, a, ra, b, rb, b_open)
            assert got is _balls_apart(place, a, ra, b, rb, b_open)
            answers.add(got)
        assert (_outcome(disc_subset, place, d1, d2)
                == _outcome(_disc_subset, place, d1, d2))
    assert {True, False} <= answers


def _six_digit_point(rng, p, g):
    """A certified point with 6-digit fixed points: the multipliers get the
    least common valuation that passes the good-basis test."""
    while True:
        fixed = [Fraction(rng.randint(-999999, 999999), rng.randint(1, 999999))
                 for _ in range(2 * g - 3)]
        units = [random_unit(rng, p) for _ in range(g)]
        for v in range(1, 64):
            try:
                pt = schottky_point(Place.padic(p), [Fraction(p) ** v * u for u in units],
                                    fixed)
            except ValueError:
                break  # repeated fixed points: draw again
            if is_in_SB(pt).status == "yes":
                return pt


def _sample_data(levels):
    return {n: [(w.letters, _disc_data(d)) for w, d in discs]
            for n, discs in levels.items()}


@pytest.mark.parametrize("height", ["small", "6-digit"])
def test_limit_sample_matches_the_fraction_kernel(height):
    rng = seeded(8400 + (height == "small"))
    for k in range(30):
        p, g = (2, 3, 5)[k % 3], 2 + (k % 4 == 3)
        if height == "small":
            pt = random_sb_point(rng, Place.padic(p), g)
        else:
            pt = _six_digit_point(rng, p, g)
        fig = is_in_SB(pt).figure
        depth = 4 if g == 2 else 3
        got = limit_sample(fig, depth)
        levels, radius_R, decay_c = _limit_sample(fig, depth)
        assert _sample_data(got.levels) == _sample_data(levels)
        assert repr(got.decay_R) == repr(radius_R)
        assert repr(got.decay_c) == repr(decay_c)


def test_imaginary_values_at_a_nonarchimedean_place_are_refused():
    place = Place.padic(3)
    real = Moebius(2, 1, 1, 1)
    gauss = Moebius(2, GaussianRational(1, 1), 1, 1)
    disc = Disc(GaussianRational(Fraction(1, 3)), ExactValue.p_power(3, -2))
    imaginary = Disc(GaussianRational(1, 1), ExactValue.p_power(3, -2), "inv")
    r = disc.radius
    for call in (lambda: image_of_disc(place, gauss, disc),
                 lambda: image_of_disc(place, real, imaginary),
                 lambda: disc_shape(place, imaginary),
                 lambda: ball_inside(place, imaginary.center, r, disc.center, r),
                 lambda: balls_apart(place, disc.center, r, imaginary.center, r)):
        with pytest.raises(ImaginaryAtNonArch):
            call()
    assert math.isfinite(image_of_disc(place, real, disc).radius.to_float())


def test_the_disc_kernel_refuses_other_primes_and_the_trivial_place():
    g, centre = Moebius(2, 1, 1, 1), GaussianRational(Fraction(1, 3))
    foreign = Disc(centre, ExactValue.p_power(5, -1))
    with pytest.raises(ValueError, match="not a power of 3"):
        image_of_disc(Place.padic(3), g, foreign)
    with pytest.raises(ValueError, match="not a power of 3"):
        balls_apart(Place.padic(3), centre, ExactValue.p_power(3, -1),
                    centre, foreign.radius)
    trivial, one = Place.trivial_q(), Disc(centre, ONE_ABS)
    for call in (lambda: image_of_disc(trivial, g, one),
                 lambda: disc_shape(trivial, Disc(centre, ONE_ABS, "inv")),
                 lambda: ball_inside(trivial, centre, ONE_ABS, centre, ONE_ABS)):
        with pytest.raises(PlaceError):
            call()
