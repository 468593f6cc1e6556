"""Shared fixtures and random generators for the test suite."""

import random
from fractions import Fraction

import pytest

from schottky import (
    Place,
    ReducedWord,
    is_in_SB,
    schottky_point,
)
from schottky.exactnum import GaussianRational
from schottky.moebius import KoebeTriple, Moebius


@pytest.fixture
def dumbbell():
    """The standard two-generator example at p = 2."""
    return schottky_point(Place.padic(2), [Fraction(4), Fraction(4)],
                          [Fraction(-1)])


def dumbbell_point():
    return schottky_point(Place.padic(2), [Fraction(4), Fraction(4)],
                          [Fraction(-1)])


def rank1_point(p=2, e=2):
    return schottky_point(Place.padic(p), [Fraction(p) ** e])


# ---------------------------------------------------------------------------
# Random generation
# ---------------------------------------------------------------------------

_FIXED_POOL = [Fraction(n, d) for n in range(-9, 10) for d in (1, 2, 3)
               if Fraction(n, d) not in (0, 1)]


def random_unit(rng, p):
    """A rational with p-adic valuation zero."""
    while True:
        u = Fraction(rng.choice([1, -1, 3, -3, 5, 7, -5]),
                     rng.choice([1, 1, 3, 7]))
        if u.numerator % p and u.denominator % p:
            return u


def random_point(rng, place, g, val_range=(1, 6)):
    """A random normalized point; may or may not be in the good locus.

    Returns None when the draw is degenerate (repeated fixed points).
    """
    p = place.p
    fixed = rng.sample(_FIXED_POOL, 2 * g - 3) if g >= 2 else []
    betas = [Fraction(p) ** rng.randint(*val_range) * random_unit(rng, p)
             for _ in range(g)]
    try:
        return schottky_point(place, betas, fixed)
    except ValueError:
        return None


def random_sb_point(rng, place, g, max_tries=200):
    """A random point certified to lie in the good-basis locus."""
    for _ in range(max_tries):
        pt = random_point(rng, place, g, val_range=(5, 9))
        if pt is not None and is_in_SB(pt).status == "yes":
            return pt
    raise RuntimeError("could not draw a certified point")


def random_reduced_word(rng, g, length):
    letters = []
    alphabet = [i for i in range(1, g + 1)] + [-i for i in range(1, g + 1)]
    while len(letters) < length:
        x = rng.choice(alphabet)
        if letters and letters[-1] == -x:
            continue
        letters.append(x)
    return ReducedWord(letters)


def moved_off_infinity(pt, m=Fraction(7)):
    """Triples of the point conjugated by z -> 1/(z - m).

    Picks m away from every fixed point, so no generator fixes infinity
    afterwards (as twisted Ford discs require).
    """
    values = [x.value().re for _, _, x in pt.fixed_points()
              if not x.is_infinity]
    while m in values:
        m += 1
    h = Moebius(GaussianRational(0), GaussianRational(1),
                GaussianRational(1), GaussianRational(-m))
    return [KoebeTriple(h.apply(t.alpha), h.apply(t.alpha_prime), t.beta,
                        t.approximate) for t in pt.triples]


def seeded(n):
    return random.Random(n)
