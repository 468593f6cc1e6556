import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from schottky.places import (
    ApproxReal,
    BadResidue,
    ExactValue,
    ExactZero,
    ImaginaryAtNonArch,
    ONE_ABS,
    Place,
    PlaceError,
    ZeroPolynomial,
    abs_value,
    gauss_seminorm,
    hybrid_section_eval,
)
from schottky.exactnum import GaussianRational

nonzero_rationals = st.fractions(
    min_value=-200, max_value=200, max_denominator=60).filter(lambda q: q != 0)


def test_place_constructors():
    assert Place.padic(7).p == 7
    assert Place.archimedean(Fraction(1, 2)).eps == Fraction(1, 2)
    with pytest.raises(PlaceError):
        Place.padic(6)
    with pytest.raises(PlaceError):
        Place.archimedean(2)
    with pytest.raises(PlaceError):
        Place.padic(3, 0)
    assert Place.trivial_q().is_nonarchimedean
    assert Place.trivial_fp(5).p == 5


def test_abs_value_examples():
    p2 = Place.padic(2)
    assert abs_value(p2, Fraction(4)) == ExactValue.p_power(2, -2)
    assert abs_value(p2, Fraction(3, 8)) == ExactValue.p_power(2, 3)
    assert abs_value(p2, 0).is_zero()
    # eps scales the exponent
    assert abs_value(Place.padic(2, Fraction(1, 2)), Fraction(4)) == \
        ExactValue.p_power(2, -1)
    assert abs_value(Place.trivial_q(), Fraction(100, 7)) == ONE_ABS
    assert abs_value(Place.trivial_fp(3), Fraction(6)).is_zero()
    assert abs_value(Place.trivial_fp(3), Fraction(5)) == ONE_ABS
    with pytest.raises(BadResidue):
        abs_value(Place.trivial_fp(3), Fraction(1, 3))
    with pytest.raises(ImaginaryAtNonArch):
        abs_value(p2, GaussianRational(1, 1))
    assert abs(abs_value(Place.archimedean(), Fraction(-3)).to_float() - 3) < 1e-15


@given(nonzero_rationals, nonzero_rationals, st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=80, deadline=None)
def test_multiplicative_and_ultrametric(a, b, p):
    place = Place.padic(p)
    va, vb = abs_value(place, a), abs_value(place, b)
    assert abs_value(place, a * b) == va * vb
    if a + b != 0:
        assert abs_value(place, a + b) <= max(va, vb)


def test_exact_value_cross_prime_comparison():
    # 2^10 = 1024 vs 3^6 = 729: decided by integer arithmetic, no floats.
    assert ExactValue.p_power(2, 10) > ExactValue.p_power(3, 6)
    assert ExactValue.p_power(2, Fraction(1, 2)) < ExactValue.p_power(3, Fraction(1, 2))
    # A genuinely tight case that would need ~60 bits of float care:
    a = ExactValue.from_rational(Fraction(2 ** 60 + 1, 2 ** 60))
    assert a > ONE_ABS
    assert a * ExactValue.from_rational(Fraction(2 ** 60, 2 ** 60 + 1)) == ONE_ABS


def test_exact_value_algebra():
    v = ExactValue.from_rational(Fraction(12, 5))
    assert v == ExactValue({2: Fraction(2), 3: Fraction(1), 5: Fraction(-1)})
    assert (v ** Fraction(1, 2)).sqrt() == v ** Fraction(1, 4)
    assert v / v == ONE_ABS
    assert (v * ExactZero()).is_zero()
    with pytest.raises(ValueError):
        ExactValue.from_rational(Fraction(-1))


def test_exact_value_hash_agrees_with_eq_and_never_overflows():
    quarter = ExactValue.from_rational(Fraction(1, 4))
    assert quarter == ApproxReal(0.25)
    assert hash(quarter) == hash(ApproxReal(0.25)) == hash(ExactValue.p_power(2, -2))
    # Equal factors listed in another order: the float must not change.
    fac = {2: Fraction(25), 17: Fraction(26, 3), 19: Fraction(-7)}
    reordered = ExactValue(dict(reversed(fac.items())))
    assert ExactValue(fac) == reordered
    assert hash(ExactValue(fac)) == hash(reordered)
    huge = ExactValue.from_rational(Fraction(2) ** 5000)
    assert huge == ExactValue.p_power(2, 5000)
    assert hash(huge) == hash(ExactValue.p_power(2, 5000))
    mixed = ExactValue.from_rational(Fraction(6) ** 5000)
    assert hash(mixed) == hash(ExactValue({3: 5000, 2: 5000}))
    assert len({huge, mixed, ExactValue.p_power(2, 5000)}) == 2


def test_log_exponent():
    v = ExactValue.p_power(2, Fraction(-3))
    assert v.log_exponent(2, Fraction(1)) == 3
    assert v.log_exponent(2, Fraction(1, 2)) == 6
    with pytest.raises(ValueError):
        (v * ExactValue.p_power(3, 1)).log_exponent(2, Fraction(1))


def test_approx_real():
    assert ApproxReal(2.0) * ApproxReal(3.0) == ApproxReal(6.0)
    assert ApproxReal(0.25).sqrt().value == 0.5
    assert ApproxReal(1.5) > ONE_ABS
    with pytest.raises(ValueError):
        ApproxReal(-1.0)


def test_gauss_seminorm():
    p2 = Place.padic(2)
    # |2 + 4T|-style data: max(|a_i| r^i) exactly.
    v = gauss_seminorm(p2, [Fraction(2), Fraction(4)], Fraction(1, 8))
    assert v == ExactValue.p_power(2, -1)  # |2| = 1/2 beats |4|/8 = 1/32
    assert gauss_seminorm(Place.trivial_q(), [1, 0, 3], Fraction(1, 2)) == ONE_ABS
    with pytest.raises(ZeroPolynomial):
        gauss_seminorm(p2, [0, 0], Fraction(1, 2))
    with pytest.raises(PlaceError):
        gauss_seminorm(Place.archimedean(), [1], Fraction(1, 2))


def test_hybrid_section_eval_converges():
    # As eps shrinks, |P(r^(1/eps))|^eps approaches the trivial seminorm.
    want = gauss_seminorm(Place.trivial_q(), [1, 1], Fraction(1, 2)).to_float()
    errs = [abs(hybrid_section_eval([1, 1], Fraction(1, 2), eps) - want)
            for eps in (Fraction(1, 2), Fraction(1, 10), Fraction(1, 1000))]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


# -- single-prime fast paths against the multi-prime path ---------------------

exponents = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-6, max_value=6, max_denominator=7))
primes = st.sampled_from([2, 3, 5])


def _with_witness(v):
    """v * 7, built without arithmetic: 7 is a prime no operand uses, so
    operations on such values take the general multi-prime path, and
    the common factor changes no answer."""
    return ExactValue({**v.factors, 7: 1})


def _without_witness(v):
    return {b: e for b, e in v.factors.items() if b != 7}


def _invariant(v):
    return all(e != 0 and type(e) is Fraction for e in v.factors.values())


@given(primes, exponents, primes, exponents, exponents)
@settings(max_examples=300, deadline=None)
def test_single_prime_ops_match_general_path(p, e, q, f, k):
    # e or f equal to 0 gives an empty factor dict; q may differ from p;
    # y = x**-1 makes the exponents of x*y cancel to 0.
    x = ExactValue.p_power(p, e)
    for y in (ExactValue.p_power(q, f), x ** -1, x):
        xw, yw = _with_witness(x), _with_witness(y)
        assert x.cmp(y) == xw.cmp(yw)
        assert (x * y).factors == _without_witness(xw * y)
        assert (x / y).factors == _without_witness(xw / y)
        assert _invariant(x * y) and _invariant(x / y)
    general = ExactValue({b: e * k for b, e in x.factors.items()})
    assert (x ** k).factors == general.factors
    assert _invariant(x ** k) and _invariant(x.sqrt())


def test_prime_check_is_fast_and_bounded():
    start = time.perf_counter()
    assert Place.padic(10000000000000061).p == 10000000000000061  # 17 digits
    with pytest.raises(PlaceError):
        Place.padic(10000000000000063)  # 193 * 373 * 17333 * 8014199
    assert time.perf_counter() - start < 1.0
    # 3825123056546413051 is a strong pseudoprime to every prime base 2..31.
    with pytest.raises(PlaceError):
        Place.padic(3825123056546413051)
    with pytest.raises(PlaceError):
        Place.padic(2 ** 89 - 1)  # prime, but beyond the exact range
    assert Place.padic(2 ** 61 - 1).p == 2 ** 61 - 1
