from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import itertools

from conftest import (
    dumbbell_point,
    random_point,
    random_reduced_word,
    random_sb_point,
    rank1_point,
    seeded,
)
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
from schottky.figures import conjugacy_classes_upto, evaluate_word
from schottky.moebius import Disc, NotLoxodromic, ball_inside, disc_shape
from schottky.places import ExactValue, abs_value
from schottky.skeleton import (
    ArchimedeanUnsupported,
    ChartMismatch,
    TreeNode,
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


# -- the integer build against the build on absolute values ------------------


def _build_tree_reference(fig):
    """The convex-hull tree built by comparing `ExactValue` radii, as
    (nodes, root, leaf_of): the build before integer depths, kept as the
    oracle of `build_tree`."""
    place = fig.place
    points = []

    def insert(c, r, label=None):
        for pc, pr, labels in points:
            if pr == r and ball_inside(place, c, r, pc, pr):
                if label is not None:
                    labels.append(label)
                return
        points.append((c, r, [] if label is None else [label]))

    def exponent(r):
        try:
            return r.log_exponent(place.p)
        except ValueError as e:
            raise ValueError(f"disc radius {r!r} is outside the value group") from e

    leaf_data = []
    for i, sign, d in fig.all_discs():
        _kind, c, r = disc_shape(place, d)
        leaf_data.append((c, r))
        insert(c, r, (i, sign))
    for (c1, r1), (c2, r2) in itertools.combinations(leaf_data, 2):
        insert(c1, max(r1, r2, abs_value(place, c1 - c2)))

    nodes = {}
    order = sorted(range(len(points)), key=lambda k: exponent(points[k][1]))
    for nid, k in enumerate(order):
        c, r, labels = points[k]
        nodes[nid] = TreeNode(nid, c, r, exponent(r), labels=list(labels))
    for n in nodes.values():
        best = None
        for m in nodes.values():
            if m.radius > n.radius and ball_inside(
                    place, n.center, n.radius, m.center, m.radius):
                if best is None or m.radius < best.radius:
                    best = m
        if best is not None:
            n.parent = best.id
            n.edge_length = MetricLength(n.q - best.q, place.p, place.eps)
            best.children.append(n.id)
    roots = [n.id for n in nodes.values() if n.parent is None]
    leaf_of = {lab: n.id for n in nodes.values() for lab in n.labels}
    return nodes, roots[0], leaf_of


def _same_tree(fig):
    tree = build_tree(fig)
    nodes, root, leaf_of = _build_tree_reference(fig)
    # TreeNode is a dataclass: == compares every field, and repr pins the
    # exact form of each radius and length.
    assert list(tree.nodes.values()) == list(nodes.values())
    assert repr(tree.nodes) == repr(nodes)
    assert (tree.root, tree.leaf_of) == (root, leaf_of)
    assert all(n.q * tree.unit == int(n.q * tree.unit) for n in nodes.values())
    return tree


@given(st.integers(0, 2 ** 32), st.integers(1, 4), st.sampled_from([2, 3, 5]),
       st.sampled_from([Fraction(1), Fraction(2, 3)]))
@settings(max_examples=40, deadline=None)
def test_tree_equals_the_build_on_absolute_values(seed, g, p, eps):
    _same_tree(normalized_figure(
        random_sb_point(seeded(seed), Place.padic(p, eps), g)))


@pytest.mark.parametrize("eps", [Fraction(1), Fraction(2, 3)])
def test_radii_off_the_lattice(eps):
    # Radii 2^(-1/3) and 2^(-2/5): neither lies on the (1/2)Z lattice of
    # the default log-midpoint exponents.  Radii are normalized values, so
    # they are the same at every eps.
    pt = schottky_point(Place.padic(2, eps), [Fraction(4), Fraction(4)],
                        [Fraction(-1)])
    radii = [ExactValue.p_power(2, Fraction(-1, 3)), ExactValue.p_power(2, Fraction(-2, 5))]
    tree = _same_tree(normalized_figure(pt, radii=radii))
    assert tree.unit == 15
    assert tree.nodes[tree.leaf_of[1, 1]].q == Fraction(1, 3)
    assert tree.nodes[tree.leaf_of[2, 1]].q == Fraction(7, 5)
    assert tree.distance((1, 1), (1, -1)).q == 2  # the length of w(1)
    assert tree.translation_lengths([ReducedWord((1, 2))]) == [
        translation_length(pt, ReducedWord((1, 2)))]


def test_radius_of_another_prime_is_refused():
    # Where the radius is built: 1/3 is no power of 2.
    with pytest.raises(ValueError, match="not a power of 2"):
        normalized_figure(dumbbell_point(),
                          radii=[Fraction(1, 3), ExactValue.p_power(2, -1)])


def _translation_length_reference(pt, w):
    """-log |det| / |tr|^2 on `ExactValue`s."""
    place = pt.place
    m = evaluate_word(pt, w)
    absdet, abstr = abs_value(place, m.det()), abs_value(place, m.tr())
    if not abstr * abstr > absdet:
        raise NotLoxodromic(f"{w!r}")
    return MetricLength((absdet / (abstr * abstr)).log_exponent(place.p),
                        place.p, place.eps)


def _length_or_refusal(pt, w, length):
    try:
        return length(pt, w)
    except NotLoxodromic:
        return "not loxodromic"


@given(st.integers(0, 2 ** 32), st.integers(1, 3), st.sampled_from([2, 3, 5]),
       st.sampled_from([Fraction(1), Fraction(2, 3)]))
@settings(max_examples=40, deadline=None)
def test_translation_length_equals_the_value_computation(seed, g, p, eps):
    # Points off the good locus too, where words can fail to be loxodromic.
    rng = seeded(seed)
    pt = random_point(rng, Place.padic(p, eps), g, val_range=(0, 3))
    if pt is None:
        return
    for n in range(1, 7):
        w = random_reduced_word(rng, g, n)
        assert _length_or_refusal(pt, w, translation_length) == \
            _length_or_refusal(pt, w, _translation_length_reference)


def test_translation_length_refuses_an_elliptic_word():
    pt = schottky_point(Place.padic(2), [Fraction(2), Fraction(2)], [Fraction(2)])
    with pytest.raises(NotLoxodromic):
        _translation_length_reference(pt, ReducedWord((1, 2)))
    with pytest.raises(NotLoxodromic):
        translation_length(pt, ReducedWord((1, 2)))
    assert translation_length(pt, ReducedWord((1,))).q == 1
