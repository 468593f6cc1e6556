from dataclasses import replace
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    _FIXED_POOL as FIXED_POOL,
    dumbbell_point,
    moved_off_infinity,
    random_point,
    seeded,
)
from schottky import (
    Place,
    ReducedWord,
    is_in_SB,
    is_schottky,
    limit_sample,
    normalized_figure,
    schottky_point,
    word_disc,
)
from schottky import figures
from schottky.exactnum import GaussianRational
from schottky.figures import (
    BudgetExceeded,
    DiscsNotDisjoint,
    FigureInvariantError,
    GeneratorFixesInfinity,
    NotInSB,
    RadiiOutOfWindow,
    SchottkyFigure,
    SchottkyPoint,
    conjugacy_classes_upto,
    ford_figure_from_triples,
    fundamental_domain_report,
    reduced_words_upto,
    spherical_radius,
)
from schottky.moebius import (
    Disc,
    INVERSION,
    KoebeTriple,
    Moebius,
    ProjPoint,
    cross_ratio,
    disc_shape,
    image_of_disc,
    koebe_to_matrix,
)
from schottky.outer import nielsen_apply, nielsen_letters
from schottky.places import ExactValue, ONE_ABS, abs_value

P2 = Place.padic(2)
P3 = Place.padic(3)


# -- reduced words -----------------------------------------------------------

letters = st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0)


@given(st.lists(letters, max_size=12))
@settings(max_examples=80, deadline=None)
def test_reduce_idempotent_and_inverse(ls):
    w = ReducedWord.reduce(ls)
    assert ReducedWord.reduce(w.letters) == w
    assert (w * w.inverse()).letters == ()
    assert w.inverse().inverse() == w


@given(st.lists(letters, max_size=10), st.integers(0, 9))
@settings(max_examples=80, deadline=None)
def test_conjugacy_representative_rotation_invariant(ls, k):
    w = ReducedWord.reduce(ls).cyclic_reduce()
    if not w:
        return
    n = len(w.letters)
    rotated = ReducedWord.reduce(w.letters[k % n:] + w.letters[:k % n])
    assert rotated.conjugacy_representative() == w.conjugacy_representative()


def test_word_validation():
    with pytest.raises(ValueError):
        ReducedWord((1, -1))
    with pytest.raises(ValueError):
        ReducedWord((0,))
    assert ReducedWord.reduce((1, 2, -2, -1)).letters == ()


def test_word_counts():
    assert sum(1 for _ in reduced_words_upto(2, 3)) == 4 + 12 + 36
    # Conjugacy classes of length <= 2 in F_2: 4 primitive classes of
    # length 1 and 4 of length 2 (12 words, minus cyclic rotations and
    # the cyclically-unreduced ones).
    reps = conjugacy_classes_upto(2, 2)
    assert len(set(reps)) == len(reps)
    assert all(r == r.conjugacy_representative() for r in reps)


# -- points -----------------------------------------------------------------


def test_schottky_point_validation():
    with pytest.raises(ValueError, match="multipliers"):
        schottky_point(P2, [Fraction(1, 4), Fraction(4)], [Fraction(-1)])
    with pytest.raises(ValueError, match="free fixed points"):
        schottky_point(P2, [Fraction(4), Fraction(4)], [])
    with pytest.raises(ValueError, match="distinct"):
        schottky_point(P2, [Fraction(4), Fraction(4)], [Fraction(1)])
    pt = dumbbell_point()
    assert pt.g == 2 and not pt.approximate
    assert pt.triples[0].alpha_prime.is_infinity


def test_generators_act_correctly(dumbbell):
    g1, g2 = dumbbell.generators()
    assert g1.apply(ProjPoint.finite(GaussianRational(0))) == \
        ProjPoint.finite(GaussianRational(0))
    assert g2.apply(dumbbell.triples[1].alpha) == dumbbell.triples[1].alpha


# -- figures ----------------------------------------------------------------


def test_ford_figure_golden_p3():
    t = KoebeTriple(ProjPoint.finite(GaussianRational(1)),
                    ProjPoint.finite(GaussianRational(-1)),
                    GaussianRational(3))
    fig = ford_figure_from_triples(P3, [t], [1])
    plus, minus = fig.disc(1, +1), fig.disc(1, -1)
    assert plus.center == GaussianRational(-2)
    assert minus.center == GaussianRational(2)
    assert plus.radius == minus.radius == ExactValue.p_power(3, Fraction(-1, 2))


def test_ford_figure_golden_arch():
    arch = Place.archimedean()
    t = KoebeTriple(ProjPoint.finite(GaussianRational(1)),
                    ProjPoint.finite(GaussianRational(-1)),
                    GaussianRational(Fraction(1, 4)))
    fig = ford_figure_from_triples(arch, [t], [1])
    assert abs(fig.disc(1, +1).center.to_complex() - 5 / 3) < 1e-12
    assert abs(fig.disc(1, -1).center.to_complex() + 5 / 3) < 1e-12
    assert abs(fig.disc(1, +1).radius.to_float() - 4 / 3) < 1e-12
    with pytest.raises(DiscsNotDisjoint):
        ford_figure_from_triples(arch, [t], [10 ** 6])


def test_ford_needs_finite_fixed_points(dumbbell):
    with pytest.raises(GeneratorFixesInfinity):
        ford_figure_from_triples(P2, dumbbell.triples, [1, 1])
    # After a chart move the construction runs, but for this particular
    # point no rational chart yields disjoint Ford discs (its fundamental
    # domain contains no rational point at all).
    with pytest.raises(DiscsNotDisjoint):
        ford_figure_from_triples(P2, moved_off_infinity(dumbbell), [1, 1])
    # A roomier point does admit a twisted Ford figure.
    pt = schottky_point(P3, [Fraction(27), Fraction(27)], [Fraction(-1)])
    fig = ford_figure_from_triples(P3, moved_off_infinity(pt), [1, 1])
    assert fig.g == 2 and fig.witness == "ford(1,1)"


def test_normalized_figure_dumbbell(dumbbell):
    fig = normalized_figure(dumbbell)
    assert disc_shape(P2, fig.disc(1, +1)) == \
        ("std", GaussianRational(0), ExactValue.p_power(2, -1))
    assert disc_shape(P2, fig.disc(1, -1)) == \
        ("codisc", GaussianRational(0), ExactValue.p_power(2, 1))
    assert disc_shape(P2, fig.disc(2, +1)) == \
        ("std", GaussianRational(1), ExactValue.p_power(2, -2))
    assert disc_shape(P2, fig.disc(2, -1)) == \
        ("std", GaussianRational(-1), ExactValue.p_power(2, -2))


def test_radii_window_enforced(dumbbell):
    with pytest.raises(RadiiOutOfWindow):
        normalized_figure(dumbbell, radii=[ExactValue.p_power(2, -5),
                                           ExactValue.p_power(2, -2)])


def test_is_in_SB_no_with_witness():
    pt = schottky_point(P2, [Fraction(2), Fraction(2)], [Fraction(2)])
    res = is_in_SB(pt)
    assert res.status == "no"
    assert res.violated[0] == 1  # first generator's inequality fails
    with pytest.raises(NotInSB):
        normalized_figure(pt)


def _sb_oracle(pt):
    """The paper's definition, literally: the first violated inequality
    |beta_i| |[x_j, x_k; alpha_i, alpha_i']| < 1 over every generator i
    and every ordered pair (j, k) of other fixed points, or None."""
    pts = pt.fixed_points()
    for i, t in enumerate(pt.triples, start=1):
        absb = abs_value(pt.place, t.beta)
        others = [(j, s, x) for j, s, x in pts if j != i]
        for j, sj, xj in others:
            for k, sk, xk in others:
                cr = cross_ratio(xj, xk, t.alpha, t.alpha_prime)
                val = absb * abs_value(pt.place, cr)
                if not val < ONE_ABS:
                    return (i, (j, sj), (k, sk), val)
    return None


def test_is_in_SB_checks_inequalities_once(monkeypatch, dumbbell):
    calls = []
    real = figures.sb_window
    monkeypatch.setattr(figures, "sb_window",
                        lambda i, *a: calls.append(i) or real(i, *a))
    rejected = schottky_point(P2, [Fraction(2), Fraction(2)], [Fraction(2)])
    assert is_in_SB(rejected).violated == _sb_oracle(rejected)
    assert calls == [1]  # generator 1's window is empty: stop there
    assert is_in_SB(dumbbell).status == "yes"
    assert calls == [1, 1, 2]  # one window per generator, no second pass


@pytest.mark.parametrize("g", [2, 3, 4])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_is_in_SB_matches_the_cross_ratio_oracle(g, p):
    rng = seeded(1000 * g + p)
    place = Place.padic(p)
    statuses = []  # seeded: the draws, and so the run time, are fixed
    while len(statuses) < 12 or len(set(statuses)) < 2:
        pt = random_point(rng, place, g, val_range=(1, 4))
        if pt is None:
            continue
        res, witness = is_in_SB(pt), _sb_oracle(pt)
        assert res.status == ("yes" if witness is None else "no")
        assert res.violated == witness  # value included
        statuses.append(res.status)


# -- archimedean Ford search ---------------------------------------------------


# The reference search: conjugate each triple, build its Koebe matrix, and
# rescore every disc pair for every exponent.  `_arch_ford_search` must
# return exactly the figure this returns, or None when it does.
def _ford_search_oracle(pt: SchottkyPoint) -> Optional[SchottkyFigure]:
    """Coordinate-descent search for disjoint Ford discs, up to conjugation."""
    fixed = [p for _, _, p in pt.fixed_points()]
    for m in (2, 3, -1, 5, -2, 7, -5, 11):
        h = Moebius(GaussianRational(0), GaussianRational(1),
                    GaussianRational(1), GaussianRational(-m))
        mc = complex(m)
        if any((not p.is_infinity) and abs(p.value().to_complex() - mc) < 1e-6
               for p in fixed):
            continue
        triples = [KoebeTriple(h.apply(t.alpha), h.apply(t.alpha_prime),
                               t.beta, t.approximate) for t in pt.triples]
        centers_plus, centers_minus, base_rho = [], [], []
        degenerate = False
        for t in triples:
            mat = koebe_to_matrix(t)
            if mat.c.is_zero() or abs(mat.c.to_complex()) < 1e-12:
                degenerate = True
                break
            zc = mat.c.to_complex()
            centers_plus.append((-mat.d / mat.c).to_complex())
            centers_minus.append((mat.a / mat.c).to_complex())
            base_rho.append(abs((mat.a * mat.d - mat.b * mat.c).to_complex())
                            ** 0.5 / abs(zc))
        if degenerate:
            continue

        def margin(ts: list[int]) -> float:
            items = []
            for i, t_exp in enumerate(ts):
                s = 2.0 ** t_exp  # sqrt(lambda) for lambda = 4^t
                items.append((centers_plus[i], base_rho[i] * s))
                items.append((centers_minus[i], base_rho[i] / s))
            best = float("inf")
            for n, (c1, r1) in enumerate(items):
                for c2, r2 in items[n + 1:]:
                    best = min(best, abs(c1 - c2) - r1 - r2)
            return best

        ts = [0] * pt.g
        for _ in range(3):  # coordinate-descent sweeps
            for i in range(pt.g):
                scores = [(margin(ts[:i] + [t] + ts[i + 1:]), t)
                          for t in range(-8, 9)]
                ts[i] = max(scores)[1]
        if margin(ts) <= 0:
            continue
        lambdas = [Fraction(4) ** t for t in ts]
        try:
            fig = ford_figure_from_triples(pt.place, triples, lambdas)
        except (DiscsNotDisjoint, FigureInvariantError, GeneratorFixesInfinity):
            continue
        return replace(fig, point=pt)
    return None


def _arch_point(rng, g, gaussian, kmin, kmax):
    """Multipliers 1/k, kmin <= k <= kmax; real or Gaussian fixed points."""
    fixed = []
    while len(fixed) < 2 * g - 3:
        if gaussian:
            x = GaussianRational(Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3))),
                                 Fraction(rng.choice((-1, 1)) * rng.randint(1, 8),
                                          rng.choice((1, 2, 3))))
        else:
            x = GaussianRational(rng.choice(FIXED_POOL))
        if x not in fixed:
            fixed.append(x)
    betas = [Fraction(1, rng.randint(kmin, kmax)) for _ in range(g)]
    return schottky_point(Place.archimedean(), betas, fixed)


def _figure_data(fig):
    if fig is None:
        return None
    return fig.witness, [(i, e, d.center, d.chart, d.radius.to_float())
                         for i, e, d in fig.all_discs()]


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("kmin, kmax", [(100, 400), (4, 5)], ids=["sparse", "crowded"])
def test_ford_search_matches_the_oracle(g, gaussian, kmin, kmax):
    rng = seeded(10 * g + 5 * gaussian + kmin)
    found = 0
    for _ in range(3):
        pt = _arch_point(rng, g, gaussian, kmin, kmax)
        points = [pt]
        for s in nielsen_letters(g):
            try:
                moved = nielsen_apply(s, pt)
            except ValueError:
                continue
            if not moved.approximate:
                points.append(moved)
        for q in points:
            got = _figure_data(figures._arch_ford_search(q))
            assert got == _figure_data(_ford_search_oracle(q))
            found += got is not None
    if kmin == 100:
        assert found  # sparse points do get certified


@pytest.mark.parametrize("betas, fixed, witness", [
    (["1/378", "1/254"], ["5/2"], "ford(1,64)"),
    (["1/171", "1/180"], ["3/4"], "ford(64,1)"),
    (["1/377", "1/262", "1/372"], ["3/4", "4/3", "2"], "ford(256,1,256)"),
])
def test_ford_search_scores_the_pairs_apart_from_the_moving_discs(
        betas, fixed, witness):
    # Here the least gap is between two discs that the moving exponent
    # does not touch, so every score depends on the pairs apart from it.
    pt = schottky_point(Place.archimedean(), [Fraction(b) for b in betas],
                        [Fraction(x) for x in fixed])
    got = figures._arch_ford_search(pt)
    assert got.witness == witness
    assert _figure_data(got) == _figure_data(_ford_search_oracle(pt))


def test_is_schottky_dumbbell(dumbbell):
    res = is_schottky(dumbbell)
    assert res.status == "yes"
    assert len(res.tau) == 0  # already in the good locus


# -- word discs and limit sets ----------------------------------------------


def test_word_disc_golden(dumbbell):
    fig = normalized_figure(dumbbell)
    d = word_disc(fig, ReducedWord((1, 2)))
    assert disc_shape(P2, d) == ("std", GaussianRational(4),
                                 ExactValue.p_power(2, -4))


def test_limit_sample_counts_and_decay(dumbbell):
    fig = normalized_figure(dumbbell)
    samp = limit_sample(fig, 3)
    assert {n: len(samp.levels[n]) for n in samp.levels} == {1: 4, 2: 12, 3: 36}
    assert samp.decay_R == ExactValue.p_power(2, -1)
    assert samp.decay_c == ExactValue.p_power(2, -2)
    with pytest.raises(BudgetExceeded):
        limit_sample(fig, 10, budget=1000)


def test_spherical_radius_chart_free():
    # The spherical size of a disc well inside the unit disc equals its
    # radius, and is preserved by z -> 1/z (an isometry of the sphere).
    d = Disc(GaussianRational(4), ExactValue.p_power(2, -4))
    assert spherical_radius(P2, d) == d.radius
    img = image_of_disc(P2, INVERSION, d)
    assert spherical_radius(P2, img) == spherical_radius(P2, d)
    # A disc with a large center is spherically small.
    far = Disc(GaussianRational(Fraction(1, 8)), ExactValue.p_power(2, -1))
    assert spherical_radius(P2, far) == ExactValue.p_power(2, -7)


def test_fundamental_domain_report(dumbbell):
    rep = fundamental_domain_report(normalized_figure(dumbbell))
    assert rep["genus"] == 2
    assert len(rep["boundary_discs"]) == 4
    assert len(rep["identifications"]) == 2


def test_rank_one_point():
    pt = schottky_point(P2, [Fraction(4)])
    assert is_in_SB(pt).status == "yes"
    fig = normalized_figure(pt)
    samp = limit_sample(fig, 4)
    assert [len(samp.levels[n]) for n in range(1, 5)] == [2, 2, 2, 2]
