import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from schottky.places import (
    ApproxReal,
    ExactValue,
    ExactZero,
    ImaginaryAtNonArch,
    ONE_ABS,
    Place,
    PlaceError,
    ZeroPolynomial,
    abs_value,
    hybrid_section_eval,
    trivial_seminorm,
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


def test_abs_value_examples():
    p2 = Place.padic(2)
    assert abs_value(p2, Fraction(4)) == ExactValue.p_power(2, -2)
    assert abs_value(p2, Fraction(3, 8)) == ExactValue.p_power(2, 3)
    assert abs_value(p2, 0).is_zero()
    # The value is normalized at every eps: eps is only the unit it prints in.
    assert abs_value(Place.padic(2, Fraction(1, 2)), Fraction(4)) == \
        ExactValue.p_power(2, -2)
    assert abs_value(Place.archimedean(Fraction(1, 10)), Fraction(-3)).to_float() == 3
    assert abs_value(Place.trivial_q(), Fraction(100, 7)) == ONE_ABS
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


def test_ordering_powers_of_distinct_primes_raises():
    two, three = ExactValue.p_power(2, 10), ExactValue.p_power(3, 6)
    for op in (lambda: two < three, lambda: two >= three, lambda: two.cmp(three),
               lambda: two * three, lambda: two / three, lambda: max(two, three)):
        with pytest.raises(ValueError, match="distinct primes"):
            op()
    # 1 = p^0 is a power of every prime.
    assert two > ONE_ABS and ONE_ABS < three and two * ONE_ABS == two
    assert ONE_ABS / three == three ** -1 and ExactValue.p_power(5, 0) == ONE_ABS


def test_of_rational_accepts_exactly_the_powers_of_p():
    assert ExactValue.of_rational(2, Fraction(1, 8)) == ExactValue.p_power(2, -3)
    assert ExactValue.of_rational(3, 81) == ExactValue.p_power(3, 4)
    assert ExactValue.of_rational(5, 1) == ONE_ABS
    for p, x in ((2, Fraction(1, 3)), (2, 6), (3, Fraction(9, 2)), (5, 7)):
        with pytest.raises(ValueError, match="not a power of"):
            ExactValue.of_rational(p, x)
    for x in (0, -4):
        with pytest.raises(ValueError, match="not a power of 2"):
            ExactValue.of_rational(2, x)


def test_exact_value_algebra():
    v = ExactValue.p_power(3, Fraction(-2, 5))
    assert (v ** Fraction(1, 2)).sqrt() == v ** Fraction(1, 4)
    assert v / v == ONE_ABS
    assert (v * ExactZero()).is_zero()
    assert repr(v) == "|3^(-2/5)|" and repr(v / v) == repr(ONE_ABS) == "|1|"


def test_exact_value_hash_agrees_with_eq_and_never_overflows():
    quarter = ExactValue.of_rational(2, Fraction(1, 4))
    assert quarter == ApproxReal(0.25)
    assert hash(quarter) == hash(ApproxReal(0.25)) == hash(ExactValue.p_power(2, -2))
    huge = ExactValue.of_rational(2, Fraction(2) ** 5000)
    assert huge == ExactValue.p_power(2, 5000)
    assert hash(huge) == hash(ExactValue.p_power(2, 5000))
    assert len({huge, ExactValue.p_power(3, 5000), ExactValue.p_power(2, 5000)}) == 2


def test_exact_and_approx_values_compare_past_the_float_range():
    huge, tiny = ExactValue.p_power(2, 5000), ExactValue.p_power(2, -5000)
    # These used to raise OverflowError, and tiny == 0.0 used to hold.
    assert not huge == ApproxReal(1.0) and not ApproxReal(1.0) == huge
    assert ApproxReal(1.0) < huge and huge > ApproxReal(1e308)
    assert huge < ApproxReal(math.inf)
    assert not tiny == ApproxReal(0.0) and not ApproxReal(0.0) == tiny
    assert ApproxReal(0.0) < tiny < ApproxReal(5e-324)
    assert ApproxReal(1e-300) > tiny
    # Inside the float range the comparison is still the float one.
    assert ExactValue.p_power(2, -2) == ApproxReal(0.25)
    assert ExactValue.p_power(2, 1000) > ApproxReal(1e300)


def test_integer_powers_convert_to_the_nearest_float():
    # exp(3 log 2) is 7.999999999999998, so these equalities used to fail.
    assert ExactValue.p_power(2, 3).to_float() == 8.0
    assert ExactValue.p_power(2, 3) == ApproxReal(8.0)
    assert ExactValue.of_rational(2, 8) == ApproxReal(8.0) == ExactValue.p_power(2, 3)
    assert hash(ExactValue.p_power(2, 3)) == hash(ApproxReal(8.0))
    assert ExactValue.of_rational(3, Fraction(1, 9)).to_float() == 1 / 9
    assert ExactValue.p_power(5, -7).to_float() == 5 ** -7
    # Other exponents, and values past 2000 bits, go by the logarithm.
    assert math.isclose(ExactValue.p_power(2, Fraction(1, 2)).to_float(), math.sqrt(2))
    assert ExactValue.p_power(3, 1500) > ApproxReal(1e308)


def test_log_exponent():
    v = ExactValue.p_power(2, Fraction(-3))
    assert v.log_exponent(2) == 3
    assert ONE_ABS.log_exponent(5) == 0
    with pytest.raises(ValueError):
        ExactValue.p_power(3, 1).log_exponent(2)


def test_approx_real():
    assert ApproxReal(2.0) * ApproxReal(3.0) == ApproxReal(6.0)
    assert ApproxReal(0.25).sqrt().value == 0.5
    assert ApproxReal(1.5) > ONE_ABS
    with pytest.raises(ValueError):
        ApproxReal(-1.0)


def test_trivial_seminorm():
    assert trivial_seminorm([1, 0, 3], Fraction(1, 2)) == 1
    assert trivial_seminorm([0, 1, 3], Fraction(3, 2)) == Fraction(9, 4)
    with pytest.raises(ZeroPolynomial):
        trivial_seminorm([0], Fraction(1, 2))
    with pytest.raises(ValueError, match="radius must be positive"):
        trivial_seminorm([1], 0)


def test_hybrid_section_eval_converges():
    # As eps shrinks, |P(r^(1/eps))|^eps approaches the trivial seminorm.
    want = float(trivial_seminorm([1, 1], Fraction(1, 2)))
    errs = [abs(hybrid_section_eval([1, 1], Fraction(1, 2), eps) - want)
            for eps in (Fraction(1, 2), Fraction(1, 10), Fraction(1, 1000))]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


# -- powers of one prime against Fraction arithmetic on the exponent -----------

exponents = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-6, max_value=6, max_denominator=7))
primes = st.sampled_from([2, 3, 5])


@given(primes, exponents, exponents, exponents, primes)
@settings(max_examples=300, deadline=None)
def test_ops_on_one_prime_act_on_the_exponent(p, e, f, k, q):
    x, y = ExactValue.p_power(p, e), ExactValue.p_power(p, f)
    assert x.cmp(y) == (e > f) - (e < f)
    assert (x == y) == (e == f) and (x < y) == (e < f)
    for got, want in ((x * y, e + f), (x / y, e - f), (x ** k, e * k),
                      (x.sqrt(), e / 2)):
        assert got.e == want and type(got.e) is Fraction
        assert got.p == p and got == ExactValue.p_power(p, want)
    # p^e = q^f for distinct primes only when e = f = 0.
    if q != p:
        assert (x == ExactValue.p_power(q, f)) == (e == f == 0)


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
