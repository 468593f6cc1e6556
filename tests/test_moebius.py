from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from schottky.exactnum import GaussianRational, padic_valuation
from schottky.places import ApproxReal, ExactValue, Place, abs_value
from schottky.moebius import (
    Disc,
    DegenerateConfiguration,
    IDENTITY,
    INVERSION,
    KoebeTriple,
    Moebius,
    NotLoxodromic,
    PoleInsideDisc,
    ProjPoint,
    cross_ratio,
    disc_shape,
    disc_subset,
    discs_disjoint,
    discs_equal,
    image_of_disc,
    is_loxodromic,
    koebe_to_matrix,
    matrix_to_koebe,
    moebius,
    moebius_to_zero_inf_one,
    wedge,
)

P2 = Place.padic(2)
P3 = Place.padic(3)


def pp(x):
    return ProjPoint.finite(GaussianRational(Fraction(x)))


INF = ProjPoint.infinity()


def test_projpoint_canonical():
    assert ProjPoint(2, 4) == pp(Fraction(1, 2))
    assert ProjPoint(3, 0) == INF
    assert INF.is_infinity
    with pytest.raises(ValueError):
        ProjPoint(0, 0)
    with pytest.raises(ZeroDivisionError):
        INF.value()
    assert wedge(pp(2), pp(2)).is_zero()


def test_moebius_group_ops():
    m = moebius(1, 2, 3, 4)
    assert (m * m.inverse()).is_identity()
    assert m.same_as(moebius(2, 4, 6, 8))
    assert m.apply(INF) == pp(Fraction(1, 3))
    assert m(pp(0)) == pp(Fraction(1, 2))
    with pytest.raises(ValueError):
        moebius(1, 2, 2, 4)  # singular


def test_moebius_to_zero_inf_one_orientation():
    # Regression: the map must send p -> 0, q -> oo, r -> 1 (in that
    # order), including when some of them are infinity.
    cases = [(pp(3), pp(-1), pp(7)), (INF, pp(0), pp(1)),
             (pp(0), INF, pp(5)), (pp(2), pp(5), INF)]
    for p, q, r in cases:
        m = moebius_to_zero_inf_one(p, q, r)
        assert m.apply(p) == pp(0)
        assert m.apply(q) == INF
        assert m.apply(r) == pp(1)
    with pytest.raises(DegenerateConfiguration):
        moebius_to_zero_inf_one(pp(1), pp(1), pp(2))


def test_cross_ratio_normalization():
    # [a, 1; 0, oo] = a, the coordinate on the moduli of 4-tuples.
    assert cross_ratio(pp(7), pp(1), pp(0), INF) == GaussianRational(7)
    with pytest.raises(DegenerateConfiguration):
        cross_ratio(pp(1), pp(0), pp(2), pp(1))


small = st.integers(min_value=-8, max_value=8)


@given(small, small, small, small)
@settings(max_examples=60, deadline=None)
def test_cross_ratio_moebius_invariant(a, b, c, d):
    pts = [pp(a), pp(b), pp(c), pp(d)]
    if len({(p.u, p.v) for p in pts}) != 4:
        return
    m = moebius(2, 1, 1, 1)
    lhs = cross_ratio(*pts)
    rhs = cross_ratio(*(m.apply(p) for p in pts))
    assert lhs == rhs


def test_koebe_matrix_roundtrip_exact():
    t = KoebeTriple(pp(1), pp(-1), GaussianRational(3))
    m = koebe_to_matrix(t)
    assert m.apply(pp(1)) == pp(1) and m.apply(pp(-1)) == pp(-1)
    back = matrix_to_koebe(P3, m)
    assert (back.alpha, back.alpha_prime, back.beta) == (t.alpha, t.alpha_prime, t.beta)
    assert not back.approximate


def test_attracting_point_is_large_eigenvalue():
    # diag(4, 1) at p=2: |4| < |1|, so the attracting point is the
    # eigenvector of the *unit* eigenvalue, here infinity... no: fixed
    # points are 0 (eigenvalue 4) and oo (eigenvalue 1); the derivative
    # at 0 is 4/1 with |4|_2 < 1, so 0 attracts.
    m = moebius(4, 0, 0, 1)
    t = matrix_to_koebe(P2, m)
    assert t.alpha == pp(0)
    assert t.alpha_prime == INF
    assert t.beta == GaussianRational(4)


def test_koebe_inverse_swaps_fixed_points():
    t = KoebeTriple(pp(2), pp(5), GaussianRational(Fraction(9)))
    m = koebe_to_matrix(t)
    ti = matrix_to_koebe(P3, m.inverse())
    assert (ti.alpha, ti.alpha_prime) == (t.alpha_prime, t.alpha)
    assert ti.beta == t.beta
    # M(alpha, alpha', beta)^-1 is projectively M(alpha', alpha, beta).
    assert m.inverse().same_as(koebe_to_matrix(
        KoebeTriple(t.alpha_prime, t.alpha, t.beta)))


def test_padic_lift_branch():
    # trace 1, det 2/3: eigenvalues irrational, Hensel lift at p=2.
    m = moebius(1, Fraction(-2, 3), 1, 0)
    t = matrix_to_koebe(P2, m, prec=64)
    assert t.approximate
    # The lifted multiplier satisfies the conjugacy-invariant equation
    # beta + 2 + 1/beta = tr^2/det to high 2-adic precision.
    inv = t.beta + 2 + GaussianRational(1) / t.beta
    diff = inv - m.multiplier_invariant()
    assert diff.im == 0
    assert padic_valuation(diff.re, 2) >= 32


def test_not_loxodromic():
    assert not is_loxodromic(P2, moebius(1, 1, 0, 1))
    with pytest.raises(NotLoxodromic):
        matrix_to_koebe(P2, moebius(0, -1, 1, 0))
    with pytest.raises(NotLoxodromic):
        matrix_to_koebe(Place.trivial_q(), moebius(1, Fraction(-2, 3), 1, 0))


# -- discs -------------------------------------------------------------------


def D(c, q, chart="std"):
    """Disc of radius 2^-q around c, at the place P2."""
    return Disc(GaussianRational(Fraction(c)), ExactValue.p_power(2, -q), chart)


def test_disc_shape_inversion():
    # |1/z - 1/5| <= 1/4 with |1/5| = 1 > 1/4: an honest disc around 5.
    s = disc_shape(P2, D(Fraction(1, 5), 2, chart="inv"))
    assert s[0] == "std" and s[1] == GaussianRational(5)
    # |1/z| <= 2: the codisc of the open disc of radius 1/2 around 0.
    k, m, r = disc_shape(P2, D(0, -1, chart="inv"))
    assert k == "codisc" and m == GaussianRational(0)
    assert r == ExactValue.p_power(2, -1)


def test_disc_relations_ultrametric():
    assert disc_subset(P2, D(5, 3), D(1, 2)) is True  # |5-1| = 1/4
    assert disc_subset(P2, D(1, 2), D(5, 3)) is False
    assert discs_disjoint(P2, D(0, 1), D(1, 1)) is True
    assert discs_disjoint(P2, D(0, 1), D(2, 1)) is False
    assert discs_equal(P2, D(0, 1), D(2, 1)) is True  # same ultrametric disc
    # std disc inside a codisc iff it avoids the removed open disc
    assert disc_subset(P2, D(1, 1), D(0, -1, chart="inv")) is True
    assert disc_subset(P2, D(0, 0), D(0, -1, chart="inv")) is False


def test_image_of_disc_exact():
    # z -> 1/z maps |z| <= 1/4 onto |1/z| <= 1/4 (chart "inv").
    img = image_of_disc(P2, INVERSION, D(0, 2))
    assert img.chart == "inv"
    assert disc_shape(P2, img) == ("codisc", GaussianRational(0),
                                   ExactValue.p_power(2, 2))
    # An affine map scales the radius by |a|.
    img = image_of_disc(P2, moebius(2, 1, 0, 1), D(0, 0))
    assert img.center == GaussianRational(1)
    assert img.radius == ExactValue.p_power(2, -1)
    # z -> z/(z-1) on the unit disc: 0 -> 0 and 1 -> oo, not a disc.
    with pytest.raises(PoleInsideDisc):
        image_of_disc(P2, moebius(1, 0, 1, -1), D(0, 0))


def test_image_of_disc_membership_sampled():
    f = moebius(3, 1, 1, 2)
    disc = D(4, 2)
    img = image_of_disc(P2, f, disc)
    for x in (Fraction(4), Fraction(8), Fraction(12)):
        assert abs_value(P2, x - disc.center) <= disc.radius
        y = f.apply(pp(x))
        shape = disc_shape(P2, img)
        assert shape[0] == "std"
        assert abs_value(P2, y.value() - shape[1]) <= shape[2]


def test_arch_disc_geometry():
    arch = Place.archimedean()
    d = Disc(GaussianRational(0), ApproxReal(1.0))
    img = image_of_disc(arch, moebius(1, 3, 0, 1), d)
    assert abs(img.center.to_complex() - 3) < 1e-12
    assert abs(img.radius.to_float() - 1) < 1e-12
    assert discs_disjoint(arch, img, d) is True
    borderline = Disc(GaussianRational(2), ApproxReal(1.0))
    assert discs_disjoint(arch, borderline, d) is None  # tangent: no verdict


# -- carried determinants and projective equality -----------------------------

entry = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 2, 3]))
gaussian = st.builds(GaussianRational, entry, st.one_of(st.just(0), entry))
matrices = st.tuples(gaussian, gaussian, gaussian, gaussian).filter(
    lambda e: not (e[0] * e[3] - e[1] * e[2]).is_zero()).map(
    lambda e: Moebius(*e))


@given(matrices, st.lists(st.tuples(st.sampled_from(["mul", "inv", "rmul"]),
                                    matrices), max_size=5))
@settings(max_examples=80, deadline=None)
def test_carried_det_matches_entries(m, steps):
    for op, n in steps:
        m = {"mul": lambda: m * n, "rmul": lambda: n * m,
             "inv": lambda: m.inverse()}[op]()
        assert m.det() == m.a * m.d - m.b * m.c
        assert not m.det().is_zero()


def _canonical_entries(m):
    c = m.canonical()
    return (c.a, c.b, c.c, c.d)


@given(matrices, matrices, gaussian, st.sampled_from(["other", "multiple", "tweak"]))
@settings(max_examples=150, deadline=None)
def test_same_as_matches_canonical_forms(m, n, s, how):
    if how == "multiple" and not s.is_zero():
        n = Moebius(s * m.a, s * m.b, s * m.c, s * m.d)
    elif how == "tweak" and not (m.d + s).is_zero() and not (
            m.a * (m.d + s) - m.b * m.c).is_zero():
        n = Moebius(m.a, m.b, m.c, m.d + s)
    want = _canonical_entries(m) == _canonical_entries(n)
    assert m.same_as(n) == want and n.same_as(m) == want
    assert m.is_identity() == (_canonical_entries(m) == (1, 0, 0, 1))
    if not m.a.is_zero() and not m.d.is_zero():
        assert moebius(m.a, 0, 0, m.d).is_identity() == (m.a == m.d)
    if how == "multiple" and not s.is_zero():
        assert want and moebius(s, 0, 0, s).is_identity()


# -- the Koebe matrix in closed form ------------------------------------------


@given(gaussian, gaussian, gaussian)
@settings(max_examples=80, deadline=None)
def test_koebe_matrix_closed_form_for_finite_fixed_points(a, ap, beta):
    # The Ford search reads the disc centres and radii of a generator with
    # finite fixed points off these closed forms instead of the matrix.
    assume(a != ap and not beta.is_zero() and beta != 1)
    m = koebe_to_matrix(KoebeTriple(ProjPoint.finite(a), ProjPoint.finite(ap), beta))
    c = 1 - beta
    assert m.c == c
    assert -m.d / m.c == (ap - beta * a) / c
    assert m.a / m.c == (a - beta * ap) / c
    assert m.det() == m.a * m.d - m.b * m.c == beta * (a - ap) * (a - ap)
