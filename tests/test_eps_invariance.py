"""eps is a unit of measure: no answer of the geometry depends on it.

The places |.|^eps on one ray of the spectrum of Z rescale one norm, so
whether discs meet, and whether a group is Schottky, is the same at every
eps.  `abs_value` returns the normalized value, and eps is applied only
where a value is printed.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conftest import moved_off_infinity, random_point, seeded
from schottky import Place, is_in_SB, schottky_point
from schottky.exactnum import GaussianRational
from schottky.figures import (
    DiscsNotDisjoint,
    FigureInvariantError,
    ford_figure_from_triples,
    normalized_figure,
)
from schottky.moebius import KoebeTriple, Moebius
from schottky.serialize import absvalue_to_json
from schottky.places import ApproxReal, ExactValue

ARCH_EPS = [Fraction(1), Fraction(1, 2), Fraction(1, 10), Fraction(1, 1000)]
PADIC_EPS = [Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(3)]


def _discs(fig):
    return [(i, s, d.center, d.chart, d.radius) for i, s, d in fig.all_discs()]


def _answer(pt):
    """is_in_SB's status, its witness inequality, the figure's discs (centre,
    chart and radius) and, for a Ford figure, its lambdas."""
    res = is_in_SB(pt)
    fig = res.figure
    if fig is None:
        return res.status, res.violated
    lambdas = fig.witness if fig.witness.startswith("ford") else None
    return res.status, res.violated, _discs(fig), lambdas


def _ford_outcome(place, triples, lambdas):
    try:
        return _discs(ford_figure_from_triples(place, triples, lambdas))
    except DiscsNotDisjoint as e:
        return "not disjoint", e.pair
    except FigureInvariantError:
        return "mapping fails"


def _arch_coordinates(rng, g):
    betas = [Fraction(1, rng.randint(3, 100)) for _ in range(g)]
    fixed = []
    while len(fixed) < max(2 * g - 3, 0):
        x = GaussianRational(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))),
                             rng.choice((0, 0, Fraction(rng.randint(1, 4), 2))))
        if x not in fixed and x not in (0, 1):
            fixed.append(x)
    return betas, fixed


@given(st.integers(0, 2 ** 32), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_archimedean_answers_are_the_same_at_every_eps(seed, g):
    betas, fixed = _arch_coordinates(seeded(seed), g)
    answers = [_answer(schottky_point(Place.archimedean(eps), betas, fixed))
               for eps in ARCH_EPS]
    assert all(a == answers[0] for a in answers[1:])


@given(st.integers(0, 2 ** 32), st.integers(2, 3), st.sampled_from([2, 3, 5]))
@settings(max_examples=40, deadline=None)
def test_padic_answers_are_the_same_at_every_eps(seed, g, p):
    points = [random_point(seeded(seed), Place.padic(p, eps), g)
              for eps in PADIC_EPS]
    if points[0] is None:
        return
    assert all(_answer(pt) == _answer(points[0]) for pt in points[1:])
    rng = seeded(seed + 1)
    lambdas = [Fraction(p) ** rng.randint(-3, 3) for _ in range(g)]
    outcomes = [_ford_outcome(pt.place, moved_off_infinity(pt), lambdas)
                for pt in points]
    assert all(o == outcomes[0] for o in outcomes[1:])


# -- the cases that depended on eps before the unit moved to the printer ------


def test_archimedean_certificate_does_not_depend_on_eps():
    for eps in (1, Fraction(1, 2), Fraction(1, 10)):
        pt = schottky_point(Place.archimedean(eps),
                            [Fraction(1, 2 ** 10), Fraction(1, 3 ** 10)],
                            [Fraction(-2)])
        res = is_in_SB(pt)
        assert (res.status, res.figure.witness) == ("yes", "ford(1,1/4096)")


def test_archimedean_rank1_figure_below_eps_1():
    res = is_in_SB(schottky_point(Place.archimedean(Fraction(1, 2)),
                                  [Fraction(1, 4)]))
    assert res.status == "yes"
    # The radius is sqrt|beta| = 1/2, printed in the place's unit.
    assert res.figure.witness == f"normalized({ApproxReal(0.5 ** 0.5)!r})"


def test_padic_ford_figure_does_not_depend_on_eps():
    # Ford lambda, |det| and |c| share one unit.
    h = Moebius(0, 1, 1, -5)  # z -> 1/(z - 5)
    figures = []
    for eps in (1, Fraction(1, 2)):
        pt = schottky_point(Place.padic(3, eps), [Fraction(81), Fraction(9)],
                            [Fraction(-3)])
        triples = [KoebeTriple(h.apply(t.alpha), h.apply(t.alpha_prime), t.beta)
                   for t in pt.triples]
        figures.append(_discs(ford_figure_from_triples(
            pt.place, triples, [3, Fraction(1, 3)])))
    assert figures[0] == figures[1]


def test_eps_is_applied_where_a_value_is_printed():
    half = Fraction(1, 2)
    assert absvalue_to_json(ApproxReal(0.25), Place.archimedean(half)) == {
        "kind": "approx", "value": "0.5"}
    assert absvalue_to_json(ExactValue(2, -3), Place.padic(2, half)) == {
        "kind": "exact_log", "q": "3", "p": 2, "eps": "1/2"}
    # The normalized witness prints r^eps: the radii 2^(-1) at eps = 1/2.
    pt = schottky_point(Place.padic(2, half), [Fraction(4), Fraction(4)],
                        [Fraction(-1)])
    assert normalized_figure(pt).witness == "normalized(|2^(-1/2)|,|2^(-1/2)|)"
