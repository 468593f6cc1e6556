from fractions import Fraction

import pytest

from conftest import seeded, random_point
from schottky import (
    NielsenWord,
    Place,
    ReducedWord,
    apply_word,
    nielsen_apply,
    schottky_point,
    stabilizer_search,
)
from schottky.exactnum import GaussianRational
from schottky.figures import evaluate_word
from schottky.moebius import ProjPoint
from schottky.outer import (
    BadNielsenLetter,
    DegenerateFixedPoints,
    act_on_word,
    free_action,
    iota_word,
    letter_images,
    nielsen_letters,
    normalize_basis,
)

P2 = Place.padic(2)


def test_nielsen_word_basics():
    w = NielsenWord.parse("s3, s2, s4'")
    assert len(w) == 3 and str(w) == "s3,s2,s4'"
    assert w.inverse().letters == ("s4", "s2", "s3")
    assert (w + w.inverse()).letters[3] == "s4"
    assert NielsenWord.parse("").letters == ()
    with pytest.raises(BadNielsenLetter):
        NielsenWord(("s9",))


def test_nielsen_letters_by_rank():
    assert nielsen_letters(1) == ["s3"]
    assert nielsen_letters(2) == ["s2", "s3", "s4", "s4'"]
    assert "s1" in nielsen_letters(3)
    with pytest.raises(ValueError):
        nielsen_letters(0)


def test_letter_images():
    imgs = letter_images("s4", 2)
    assert imgs[1].letters == (1,)
    assert imgs[2].letters == (-1, 2)
    assert letter_images("s4'", 2)[2].letters == (1, 2)
    assert letter_images("s3", 2)[1].letters == (-1,)
    assert letter_images("s1", 3)[3].letters == (1,)  # cyclic shift


def test_free_action_composition():
    # s4 then s4' is the identity substitution.
    both = free_action(NielsenWord(("s4", "s4'")), 2)
    assert both[1].letters == (1,) and both[2].letters == (2,)
    # iota inverts both generators (up to conjugacy it is central).
    iota = free_action(iota_word(), 2)
    assert iota[1].letters == (-1,)
    assert iota[2].letters == (-2,)
    assert act_on_word(NielsenWord(("s2",)), ReducedWord((1, 2)), 2).letters \
        == (2, 1)


def test_involutions_on_points():
    rng = seeded(9)
    for p in (2, 3, 5):
        pt = random_point(rng, Place.padic(p), 2, val_range=(2, 5))
        if pt is None:
            continue
        for s in ("s2", "s3"):
            once = nielsen_apply(s, pt)
            assert not once.approximate
            assert nielsen_apply(s, once).same_point(pt)


def test_s3_moves_free_fixed_point():
    # Inverting generator 1 swaps 0 and infinity, and the renormalizing
    # chart is z -> 1/z; the free fixed point becomes its reciprocal.
    pt = schottky_point(P2, [Fraction(4), Fraction(4)], [Fraction(-3)])
    out = nielsen_apply("s3", pt)
    assert out.triples[1].alpha_prime == \
        ProjPoint.finite(GaussianRational(Fraction(-1, 3)))
    assert out.triples[0].beta == pt.triples[0].beta


def test_iota_fixes_rank_two_points(dumbbell):
    assert apply_word(iota_word(), dumbbell).same_point(dumbbell)
    other = schottky_point(P2, [Fraction(8), Fraction(16)], [Fraction(5)])
    assert apply_word(iota_word(), other).same_point(other)


def test_apply_word_composes(dumbbell):
    u = NielsenWord(("s3",))
    v = NielsenWord(("s2", "s3"))
    lhs = apply_word(u + v, dumbbell)
    rhs = apply_word(v, apply_word(u, dumbbell))
    assert lhs.same_point(rhs)


def test_s4_exact_on_splitting_point():
    # At this point the product matrix splits over Q, so the image is
    # exact and the roundtrip s4 then s4' is the identity on the nose.
    pt = schottky_point(P2, [Fraction(4), Fraction(4)], [Fraction(-6)])
    moved = nielsen_apply("s4", pt)
    assert not moved.approximate
    assert nielsen_apply("s4'", moved).same_point(pt)
    # Multiplier equivariance, exactly: the new e_2 is e_1^{-1} e_2.
    lhs = evaluate_word(moved, ReducedWord((2,))).multiplier_invariant()
    rhs = evaluate_word(pt, ReducedWord((-1, 2))).multiplier_invariant()
    assert lhs == rhs


def test_s4_hensel_flags_approximate(dumbbell):
    moved = nielsen_apply("s4", dumbbell)
    assert moved.approximate
    # Approximate points refuse exact comparisons.
    assert not moved.same_point(moved)


def test_normalize_basis_roundtrip(dumbbell):
    basis = dumbbell.generators()
    again = normalize_basis(P2, list(basis))
    assert again.same_point(dumbbell)
    # Conjugated input normalizes to the same point.
    from schottky.moebius import moebius
    h = moebius(1, 2, 1, 3)
    conj = [h * m * h.inverse() for m in basis]
    assert normalize_basis(P2, conj).same_point(dumbbell)


def test_rank_one_normalization():
    pt = schottky_point(P2, [Fraction(4)])
    assert nielsen_apply("s3", pt).same_point(pt)
    # A fixed point at 1 leaves the normal form (0, infinity, beta).
    from schottky.moebius import KoebeTriple, koebe_to_matrix
    t = KoebeTriple(ProjPoint.finite(1), ProjPoint.finite(3), Fraction(4))
    assert normalize_basis(P2, [koebe_to_matrix(t)]).same_point(pt)


def test_degenerate_normalization():
    pt = schottky_point(P2, [Fraction(4)])
    with pytest.raises(DegenerateFixedPoints):
        from schottky.outer import _normalize_triples
        t = pt.triples[0]
        _normalize_triples(P2, (t, t))


def test_stabilizer_search_dumbbell(dumbbell):
    found = stabilizer_search(dumbbell, 4)
    assert len(found) == 31
    words = {w.letters for w in found}
    assert () in words
    assert iota_word().letters in words
    assert ("s2",) in words  # the point is symmetric in its generators
    # An asymmetric point has a smaller stabilizer.
    asym = schottky_point(P2, [Fraction(4), Fraction(8)], [Fraction(-1)])
    fewer = stabilizer_search(asym, 4)
    assert ("s2",) not in {w.letters for w in fewer}
    assert len(fewer) < len(found)
