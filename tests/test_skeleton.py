from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import dumbbell_point, rank1_point, seeded, random_sb_point
from schottky import (
    MetricGraph,
    MetricLength,
    Place,
    ReducedWord,
    build_tree,
    cv_datum,
    glue_skeleton,
    is_schottky,
    normalized_figure,
    schottky_point,
    translation_length,
)
from schottky.exactnum import GaussianRational
from schottky.figures import conjugacy_classes_upto
from schottky.moebius import Disc, NotLoxodromic
from schottky.places import ExactValue
from schottky.skeleton import (
    ArchimedeanUnsupported,
    ChartMismatch,
    shilov_join,
    zero_length,
)

P2 = Place.padic(2)


def test_metric_length_arithmetic():
    a = MetricLength(Fraction(2), 2, Fraction(1))
    b = MetricLength(Fraction(1, 2), 2, Fraction(1))
    assert (a + b).q == Fraction(5, 2)
    assert b < a <= a
    assert abs(a.to_float() - 2 * 0.6931471805599453) < 1e-12
    with pytest.raises(ValueError):
        a + MetricLength(Fraction(1), 3, Fraction(1))  # different units
    with pytest.raises(ValueError):
        MetricLength(Fraction(-1), 2, Fraction(1))


def test_shilov_join():
    d1 = Disc(GaussianRational(1), ExactValue.p_power(2, -2))
    d2 = Disc(GaussianRational(-1), ExactValue.p_power(2, -2))
    j = shilov_join(P2, d1, d2)
    assert j.radius == ExactValue.p_power(2, -1)  # |1 - (-1)| = 1/2
    # Nested discs join at the bigger one.
    big = Disc(GaussianRational(1), ExactValue.p_power(2, 0))
    assert shilov_join(P2, d1, big).radius == big.radius
    with pytest.raises(ChartMismatch):
        shilov_join(P2, d1, Disc(GaussianRational(1),
                                 ExactValue.p_power(2, -2), chart="inv"))


def test_dumbbell_tree():
    tree = build_tree(normalized_figure(dumbbell_point()))
    assert len(tree.nodes) == 6
    edges = tree.edges()
    assert len(edges) == 5
    assert all(l.q == 1 for _, _, l in edges)
    # Leaf-to-leaf distances are the translation lengths.
    assert tree.distance((1, 1), (1, -1)).q == 2
    assert tree.distance((2, 1), (2, -1)).q == 2
    assert tree.distance((1, 1), (2, 1)).q == 3
    # A conjugate of w(1,2) that is not cyclically reduced.
    words = [ReducedWord((1, 2)), ReducedWord((-2, 1, 2, 2))]
    assert [l.q for l in tree.translation_lengths(words)] == [6, 6]


def test_dumbbell_glued_graph():
    graph = glue_skeleton(build_tree(normalized_figure(dumbbell_point())))
    assert graph.betti == 2
    assert len(graph.vertices) == 2
    assert len(graph.edges) == 3
    assert sorted(graph.degree(v) for v in graph.vertices) == [3, 3]
    assert graph.cycle_length(1).q == 2
    assert graph.cycle_length(2).q == 2
    with pytest.raises(KeyError):
        graph.cycle_length(3)


def test_rank_one_graph_is_a_loop():
    graph = glue_skeleton(build_tree(normalized_figure(rank1_point(2, 2))))
    assert graph.betti == 1
    assert len(graph.vertices) == 1
    (u, v, l), = graph.edges.values()
    assert u == v and l.q == 2


def test_canonical_form_relabelling_invariance():
    g1 = glue_skeleton(build_tree(normalized_figure(dumbbell_point())))
    pt = schottky_point(Place.padic(2), [Fraction(4), Fraction(4)],
                        [Fraction(3)])  # same shape, other fixed point
    g2 = glue_skeleton(build_tree(normalized_figure(pt)))
    assert g1.canonical_form() == g2.canonical_form()


def test_translation_length_basics(dumbbell):
    assert translation_length(dumbbell, ReducedWord((1,))).q == 2
    assert translation_length(dumbbell, ReducedWord((-1,))).q == 2
    assert translation_length(dumbbell, ReducedWord((1, 2))).q == 6
    with pytest.raises(ValueError):
        translation_length(dumbbell, ReducedWord(()))
    # Commutators can fail to be loxodromic only off the good locus;
    # here everything nontrivial is loxodromic.
    assert translation_length(dumbbell, ReducedWord((1, 2, -1, -2))).q > 0


def test_eps_scales_lengths():
    pt = schottky_point(Place.padic(2, Fraction(1, 3)), [Fraction(4)])
    l = translation_length(pt, ReducedWord((1,)))
    assert (l.q, l.eps) == (Fraction(2), Fraction(1, 3))
    assert abs(l.to_float() - 2 / 3 * 0.6931471805599453) < 1e-12


def test_archimedean_unsupported():
    apt = schottky_point(Place.archimedean(), [Fraction(1, 4)])
    with pytest.raises(ArchimedeanUnsupported):
        translation_length(apt, ReducedWord((1,)))
    fig = normalized_figure(apt)
    with pytest.raises(ArchimedeanUnsupported):
        build_tree(fig)


def test_trivial_place_unsupported():
    from schottky.skeleton import _require_padic
    with pytest.raises(ArchimedeanUnsupported):
        _require_padic(Place.trivial_q())
    with pytest.raises(ArchimedeanUnsupported):
        _require_padic(Place.archimedean())
    assert zero_length(P2).q == 0


def test_cv_datum(dumbbell):
    graph, lengths = cv_datum(dumbbell, 2)
    assert isinstance(graph, MetricGraph)
    assert graph.betti == 2
    by_word = {w.letters: l.q for w, l in lengths}
    assert by_word[(1,)] == 2 and by_word[(2,)] == 2
    assert by_word[(1, 2)] == 6
    assert all(q > 0 for q in by_word.values())


def test_cv_datum_measures_in_the_certified_basis():
    # Outside the good-basis locus; the search certifies it after s4'.
    pt = schottky_point(Place.padic(3), [Fraction(-3, 7), Fraction(-27)],
                        [Fraction(-6)])
    res = is_schottky(pt)
    assert res.status == "yes" and str(res.tau) == "s4'"
    graph, lengths = cv_datum(pt, 3)
    assert graph.betti == 2
    assert [l for _, l in lengths] == [
        translation_length(res.figure.point, w) for w, _ in lengths]


def test_random_tree_distances_match_lengths():
    rng = seeded(42)
    for p in (2, 3, 5):
        pt = random_sb_point(rng, Place.padic(p), 2)
        tree = build_tree(normalized_figure(pt))
        for i in (1, 2):
            assert tree.distance((i, 1), (i, -1)).q == \
                translation_length(pt, ReducedWord((i,))).q


@given(st.integers(0, 2 ** 32), st.integers(1, 4), st.sampled_from([2, 3, 5]),
       st.sampled_from([Fraction(1), Fraction(2, 3)]))
@settings(max_examples=16, deadline=None)
def test_tree_lengths_equal_matrix_lengths(seed, g, p, eps):
    # Lengths read off the tree against lengths of the word matrices.
    pt = random_sb_point(seeded(seed), Place.padic(p, eps), g)
    words = conjugacy_classes_upto(g, 5)
    tree = build_tree(normalized_figure(pt))
    assert tree.translation_lengths(words) == [
        translation_length(pt, w) for w in words]
