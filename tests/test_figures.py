import time
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
from schottky.exactnum import ZERO, GaussianRational
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


def _reduced_words_upto(g: int, length: int):
    """All reduced words of length 1..length, in the alphabet order
    1..g, -1..-g."""
    alphabet = [i for i in range(1, g + 1)] + [-i for i in range(1, g + 1)]

    def rec(acc: list[int], n: int):
        if n == 0:
            yield ReducedWord(acc)
            return
        for x in alphabet:
            if not acc or acc[-1] != -x:
                acc.append(x)
                yield from rec(acc, n - 1)
                acc.pop()

    for n in range(1, length + 1):
        yield from rec([], n)


def _classes_reference(g: int, length: int) -> list[ReducedWord]:
    """One cyclically-reduced representative per conjugacy class, |w| <= length."""
    seen: set[tuple[int, ...]] = set()
    out: list[ReducedWord] = []
    for w in _reduced_words_upto(g, length):
        rep = w.conjugacy_representative()
        if rep.letters and rep.letters not in seen:
            seen.add(rep.letters)
            out.append(rep)
    return out


@pytest.mark.parametrize("g, depth", [(1, 8), (2, 8), (3, 6), (4, 5)])
def test_necklace_walk_matches_the_rotation_scan(g, depth):
    # The old enumeration, kept above as an independent oracle: every
    # reduced word, one per rotation class, in order of first appearance.
    for n in range(depth + 1):
        assert conjugacy_classes_upto(g, n) == _classes_reference(g, n)


@given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=14))
def test_least_rotation_is_the_minimal_rotation(letters):
    w = tuple(letters)
    assert figures._least_rotation(w) == min(
        (w[k:] + w[:k] for k in range(len(w))), default=())


def test_long_classes_are_enumerated_quickly():
    # Rank 1 has two classes per length.  A recursive walk hit Python's
    # recursion limit near length 990, and a quadratic rotation scan took
    # most of 18 s at length 950.
    start = time.perf_counter()
    classes = conjugacy_classes_upto(1, 1200)
    assert time.perf_counter() - start < 1
    assert len(classes) == 2400
    assert classes[-2:] == [ReducedWord((1,) * 1200), ReducedWord((-1,) * 1200)]


def test_word_counts():
    assert sum(1 for _ in _reduced_words_upto(2, 3)) == 4 + 12 + 36
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
    _check_ford_witness(betas, fixed, witness)


def _check_ford_witness(betas, fixed, witness):
    pt = schottky_point(Place.archimedean(), [Fraction(b) for b in betas],
                        [Fraction(x) for x in fixed])
    got = figures._arch_ford_search(pt)
    assert got.witness == witness
    assert _figure_data(got) == _figure_data(_ford_search_oracle(pt))


# Sweeping coordinate i moves discs P = 2i and Q = 2i + 1; each t scores the
# pairs touching them in four classes.  On each point below one class holds
# the binding pair for some t, so the witness changes if that class is left
# out; on the last, only the tie rule (the larger t wins) fixes the witness.
@pytest.mark.parametrize("betas, fixed, witness", [
    (["1/16", "1/8"], ["3/4"], "ford(4,1)"),  # (P, Q)
    (["1/6", "1/7"], ["3/4"], "ford(4,1/4)"),  # (j, P) and (j, Q), j < P
    (["1/16", "1/20", "1/15"], ["7/3", "-4/3", "-3"], "ford(1,4,1)"),  # (P, k)
    (["1/9", "1/15"], ["9/4"], "ford(4,4)"),  # (Q, k), k > Q
    (["1/360", "1/106", "1/192"], ["8/3", "-1/2", "1/3"], "ford(64,16,1)"),
], ids=["pair-PQ", "below-P", "P-above", "Q-above", "tie"])
def test_ford_search_scores_each_class_of_touching_pairs(betas, fixed, witness):
    _check_ford_witness(betas, fixed, witness)


# The proposals as the search computed them before it used integer
# numerators: Gaussian-rational arithmetic, rounded part by part.
def _ford_proposals_reference(pt: SchottkyPoint, m: int):
    one = GaussianRational(1)
    centres, rho = [], []
    for t in pt.triples:
        c = one - t.beta
        ic, ac = one / c, abs(c.to_complex())
        a, ap = [ZERO if p.is_infinity else one / (p.value() - m)
                 for p in (t.alpha, t.alpha_prime)]
        b = t.beta
        centres += [((ap - b * a) * ic).to_complex(),
                    ((a - b * ap) * ic).to_complex()]
        rho.append(abs((b * (a - ap) * (a - ap)).to_complex()) ** 0.5 / ac)
    return centres, rho


def _parts(values):
    """Real and imaginary parts, bit for bit (a float's imaginary part is 0)."""
    return [x.hex() for z in values for x in (z.real, z.imag)]


def _fine(lo, hi):
    """Rationals in [lo, hi]: small denominators, or dyadic ones near 2^-60
    (the scale of `GaussianRational.from_complex`)."""
    return st.one_of(
        st.fractions(min_value=lo, max_value=hi, max_denominator=12),
        st.builds(lambda n, k: Fraction(n, 2 ** k),
                  st.integers(lo * 2 ** 58, hi * 2 ** 58), st.integers(58, 64)))


def _gaussian(lo, hi):
    return st.builds(GaussianRational, _fine(lo, hi),
                     st.one_of(st.just(Fraction(0)), _fine(lo, hi)))


@given(st.integers(2, 3).flatmap(lambda g: st.tuples(
    st.lists(_gaussian(-1, 1).filter(lambda b: 0 < b.norm2() < 1),
             min_size=g, max_size=g),
    st.lists(_gaussian(-9, 9), min_size=2 * g - 3, max_size=2 * g - 3))))
@settings(max_examples=150, deadline=None)
def test_ford_proposals_are_the_rounded_exact_values(data):
    betas, fixed = data
    try:
        pt = schottky_point(Place.archimedean(), betas, fixed)
    except ValueError:  # repeated fixed points
        return
    finite = [p.value().to_complex() for _, _, p in pt.fixed_points()
              if not p.is_infinity]
    for m in (2, 3, -1, 5, -2, 7, -5, 11):
        if any(abs(z - m) < 1e-6 for z in finite):
            continue  # the search skips this conjugation
        got, want = figures._ford_proposals(pt, m), _ford_proposals_reference(pt, m)
        assert _parts(got[0]) == _parts(want[0])  # centres
        assert _parts(got[1]) == _parts(want[1])  # base radii


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


def _certified(rng, place: Place, g: int) -> SchottkyFigure:
    """A seeded figure: windows at a p-adic place, Ford discs (multipliers
    1/k, k in [100, 400]) at the archimedean one."""
    while True:
        if place.is_archimedean:
            betas = [Fraction(1, rng.randint(100, 400)) for _ in range(g)]
            try:
                pt = schottky_point(place, betas, rng.sample(FIXED_POOL, max(2 * g - 3, 0)))
            except ValueError:
                continue
        else:
            pt = random_point(rng, place, g, val_range=(5, 9))
        sb = is_in_SB(pt) if pt is not None else None
        if sb is not None and sb.status == "yes":
            return sb.figure


@pytest.mark.parametrize("place", [P2, P3, Place.padic(5), Place.archimedean()],
                         ids=["p2", "p3", "p5", "arch"])
def test_limit_sample_discs_are_word_discs(place):
    # One generator per step applies the same maps to the same discs as
    # word_disc, so even float discs agree exactly.
    rng = seeded(8600 + (place.p or 0))
    for g in (1, 2, 2, 3):
        fig = _certified(rng, place, g)
        samp = limit_sample(fig, 4 if g < 3 else 3)
        for level in samp.levels.values():
            for w, d in level:
                assert d == word_disc(fig, w)


def test_padic_limit_sample_forms_no_moebius_product(dumbbell, monkeypatch):
    fig, calls, mul = normalized_figure(dumbbell), [], Moebius.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(Moebius, "__mul__", counted)
    samp = limit_sample(fig, 4)
    assert calls == []
    assert {d.chart for _, d in samp.discs} == {"std", "inv"}
    fig.gen(1) * fig.gen(2)
    assert len(calls) == 1


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


def test_arch_spherical_radius_shrinks_under_inclusion():
    # Certified by the Ford search; the size r / max(1, |c|)^2 put the
    # depth-2 contraction of this figure at 1.077.
    pt = schottky_point(Place.archimedean(),
                        [Fraction(1, 354), Fraction(1, 123), Fraction(1, 106)],
                        [Fraction(-11, 4), Fraction(-9, 4), Fraction(10, 3)])
    fig = is_in_SB(pt).figure
    assert fig.witness == "ford(64,1/16,64)"
    samp = limit_sample(fig, 2)
    assert samp.decay_c < ONE_ABS
    first = {w.letters: d for w, d in samp.levels[1]}
    for w, d in samp.levels[2]:
        assert samp.size(d) < samp.size(first[w.letters[:1]])


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
