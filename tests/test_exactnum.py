import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from schottky.exactnum import (
    GaussianRational,
    as_gaussian,
    factorize,
    format_fraction,
    padic_valuation,
    parse_fraction,
    rational_sqrt,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=30)


def test_factorize_basic():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(97) == {97: 1}
    assert factorize(2 * 3 * 5 * 7 * 11) == {2: 1, 3: 1, 5: 1, 7: 1, 11: 1}


def test_padic_valuation():
    assert padic_valuation(Fraction(8), 2) == 3
    assert padic_valuation(Fraction(3, 8), 2) == -3
    assert padic_valuation(Fraction(-18), 3) == 2
    assert padic_valuation(Fraction(5, 7), 3) == 0


def test_rational_sqrt():
    assert rational_sqrt(Fraction(49, 4)) == Fraction(7, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(0)) == 0


def test_gaussian_arithmetic():
    z = GaussianRational(Fraction(1, 2), Fraction(3))
    w = GaussianRational(Fraction(2), Fraction(-1))
    assert (z * w).re == Fraction(4)
    assert (z * w).im == Fraction(11, 2)
    assert (z / z) == GaussianRational(1)
    assert (z - z).is_zero()
    assert z.conj().im == -Fraction(3)
    assert z.norm2() == Fraction(1, 4) + 9


def test_gaussian_sqrt():
    # A rational square, a Gaussian square, and a non-square.
    assert GaussianRational(Fraction(9, 4)).sqrt() == GaussianRational(Fraction(3, 2))
    z = GaussianRational(Fraction(3), Fraction(4))  # (2 + i)^2
    s = z.sqrt()
    assert s is not None and s * s == z
    assert GaussianRational(Fraction(2)).sqrt() is None


def test_gaussian_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


@given(rationals, rationals)
@settings(max_examples=60, deadline=None)
def test_norm_multiplicative(a, b):
    za, zb = GaussianRational(a, b), GaussianRational(b, a)
    assert (za * zb).norm2() == za.norm2() * zb.norm2()


def test_parse_format_fraction_roundtrip():
    for q in (Fraction(0), Fraction(-3), Fraction(22, 7), Fraction(5, 1)):
        assert parse_fraction(format_fraction(q)) == q
    assert parse_fraction("6/4") == Fraction(3, 2)
    with pytest.raises(ValueError):
        parse_fraction("1.5e3x")


def test_as_gaussian_coercions():
    assert as_gaussian(3) == GaussianRational(3)
    assert as_gaussian(Fraction(1, 2)).re == Fraction(1, 2)
    assert as_gaussian("nope") is None


# -- real-operand fast paths against the full complex formulas ----------------

maybe_zero = st.one_of(st.just(Fraction(0)), rationals)


def _full_formula(op, z, w):
    """(re, im) of z op w by the general complex formula."""
    a, b, c, d = z.re, z.im, w.re, w.im
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - c, b - d
    if op == "*":
        return a * c - b * d, a * d + b * c
    n2 = c * c + d * d
    if n2 == 0:
        raise ZeroDivisionError
    return (a * c + b * d) / n2, (b * c - a * d) / n2


OPS = {"+": operator.add, "-": operator.sub,
       "*": operator.mul, "/": operator.truediv}


@given(maybe_zero, maybe_zero, maybe_zero, maybe_zero,
       st.sampled_from("+-*/"))
@settings(max_examples=250, deadline=None)
def test_real_operand_ops_match_full_formula(a, b, c, d, op):
    # Every real/complex combination of the two operands, so the real-real
    # fast path, the mixed cases and zero operands all occur.
    for z, w in ((GaussianRational(a), GaussianRational(c)),
                 (GaussianRational(a, b), GaussianRational(c)),
                 (GaussianRational(a), GaussianRational(c, d)),
                 (GaussianRational(a, b), GaussianRational(c, d))):
        try:
            want = _full_formula(op, z, w)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                OPS[op](z, w)
            continue
        got = OPS[op](z, w)
        assert (got.re, got.im) == want
        assert type(got.re) is Fraction and type(got.im) is Fraction
        if w.im == 0 and c.denominator == 1:  # plain int operands
            assert OPS[op](z, int(c)) == got
            if op != "/" or not z.is_zero():
                rev = OPS[op](int(c), z)
                assert (rev.re, rev.im) == _full_formula(op, w, z)
