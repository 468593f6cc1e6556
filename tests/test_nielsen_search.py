"""The Nielsen search builds only exact points and skips known answers.

`is_schottky` must give the answer of the plain breadth-first search
that builds every point and tests every exact one; that search is kept
here verbatim as `_is_schottky_reference`, an independent oracle.
"""

from fractions import Fraction

import pytest

from conftest import random_point, seeded
from schottky import Place, is_in_SB, is_schottky, schottky_point
from schottky import outer
from schottky.figures import SchottkyPoint, SchottkyResult
from schottky.outer import (
    exact_step,
    letter_images,
    nielsen_apply,
    nielsen_letters,
    stabilizer_search,
)


def _is_schottky_reference(pt: SchottkyPoint, nielsen_depth: int = 2) -> SchottkyResult:
    """Search for a basis change putting the point into the good locus."""
    queue: list[tuple[outer.NielsenWord, SchottkyPoint]] = [
        (outer.NielsenWord(()), pt)]
    seen = {pt.canonical_key()} if not pt.approximate else set()
    letters = outer.nielsen_letters(pt.g)
    idx = 0
    while idx < len(queue):
        word, cur = queue[idx]
        idx += 1
        if not cur.approximate:
            res = is_in_SB(cur)
            if res.status == "yes":
                return SchottkyResult("yes", tau=word, figure=res.figure)
        if len(word.letters) >= nielsen_depth:
            continue
        for s in letters:
            try:
                nxt = outer.nielsen_apply(s, cur)
            except ValueError:
                continue
            if not nxt.approximate:
                key = nxt.canonical_key()
                if key in seen:
                    continue
                seen.add(key)
            queue.append((outer.NielsenWord(word.letters + (s,)), nxt))
    return SchottkyResult("unknown")


def _answer(res: SchottkyResult):
    fig = res.figure
    return (res.status, None if res.tau is None else str(res.tau),
            None if fig is None else fig.witness,
            None if fig is None else [(i, e, d.center, d.chart, d.radius)
                                      for i, e, d in fig.all_discs()])


def _signed_permutations(g):
    return [s for s in nielsen_letters(g)
            if all(len(w) == 1 for w in letter_images(s, g).values())]


# Points that only a basis change puts into SB: (p, betas, fixed, tau).
NAMED = [
    (5, [25, Fraction(-5, 7)], [Fraction(-5, 3)], "s2,s4'"),
    (3, [Fraction(-3, 7), -27], [-6], "s4'"),
    (5, [25, Fraction(15, 11), -125], [Fraction(1, 2), Fraction(4, 3), -3],
     "s1,s4'"),
]


@pytest.mark.parametrize("p, betas, fixed, tau", NAMED)
def test_search_finds_the_reference_basis_change(p, betas, fixed, tau):
    pt = schottky_point(Place.padic(p), betas, fixed)
    for depth in (1, 2, 3):
        got = is_schottky(pt, depth)
        assert _answer(got) == _answer(_is_schottky_reference(pt, depth))
        assert str(got.tau) == (tau if depth >= len(tau.split(",")) else "None")


def test_search_matches_the_reference_padic():
    rng = seeded(900)
    statuses = set()
    for p in (2, 3, 5):
        for g, depths, count in ((2, (1, 2, 3), 6), (3, (1, 2), 4)):
            drawn = 0
            while drawn < count:
                pt = random_point(rng, Place.padic(p), g, val_range=(1, 4))
                if pt is None:
                    continue
                drawn += 1
                for depth in depths:
                    got = is_schottky(pt, depth)
                    assert _answer(got) == _answer(_is_schottky_reference(pt, depth))
                    statuses.add(got.status)
    assert statuses == {"yes", "unknown"}


def test_search_matches_the_reference_arch():
    rng = seeded(907)
    arch = Place.archimedean()
    pool = [Fraction(n, d) for n in range(-6, 7) for d in (1, 2) if n not in (0, d)]
    for g in (2, 3):
        for _ in range(3):
            fixed = rng.sample(pool, 2 * g - 3)
            betas = [Fraction(1, rng.randint(4, 5)) for _ in range(g)]
            pt = schottky_point(arch, betas, fixed)
            assert _answer(is_schottky(pt, 2)) == \
                _answer(_is_schottky_reference(pt, 2))


@pytest.mark.parametrize("g", [2, 3, 4])
def test_signed_permutations_keep_the_padic_sb_status(g):
    rng = seeded(910 + g)
    seen = set()
    for p in (2, 3, 5):
        place = Place.padic(p)
        drawn = 0
        while drawn < 4:
            pt = random_point(rng, place, g, val_range=(1, 7))
            if pt is None:
                continue
            drawn += 1
            status = is_in_SB(pt).status
            seen.add(status)
            for s in _signed_permutations(g):
                assert is_in_SB(nielsen_apply(s, pt)).status == status
    assert seen == {"yes", "no"}


def _recording(monkeypatch):
    built = []

    def record(s, pt, prec=64, **kwargs):
        out = nielsen_apply(s, pt, prec, **kwargs)
        built.append(out)
        return out
    monkeypatch.setattr(outer, "nielsen_apply", record)
    return built


def test_search_builds_no_approximate_point(monkeypatch):
    # Not in SB, and both s4 images need a 2-adic lift.
    pt = schottky_point(Place.padic(2), [2, 4], [4])
    assert all(nielsen_apply(s, pt).approximate for s in ("s4", "s4'"))
    built = _recording(monkeypatch)
    assert _is_schottky_reference(pt, 3).status == "unknown"
    full = list(built)
    built.clear()
    assert is_schottky(pt, 3).status == "unknown"
    assert built and not any(q.approximate for q in built)
    assert any(q.approximate for q in full)
    # The last level builds no image under s2 or s3 either.
    assert len(built) < sum(not q.approximate for q in full)


def test_stabilizer_search_builds_no_approximate_point(monkeypatch, dumbbell):
    built = _recording(monkeypatch)
    assert len(stabilizer_search(dumbbell, 3)) > 1
    assert built and not any(q.approximate for q in built)


def test_exact_step_refuses_approximate_images(dumbbell):
    assert nielsen_apply("s4", dumbbell).approximate
    assert exact_step("s4", dumbbell) is None
    moved = exact_step("s2", dumbbell)
    assert moved is not None and moved.same_point(nielsen_apply("s2", dumbbell))
    assert exact_step("s2", nielsen_apply("s4", dumbbell)) is None


def test_nielsen_apply_keeps_the_approximate_flag():
    # The word e_1^{-1} e_2 of s4 reads the approximate second triple, so
    # its triple is approximate even though its matrix splits over Q.
    pt = schottky_point(Place.padic(3), [3, 3], [-20])
    t1, t2 = pt.triples
    fuzzy = SchottkyPoint(pt.place, (t1, outer.replace(t2, approximate=True)))
    moved = nielsen_apply("s4", fuzzy)
    assert [t.approximate for t in moved.triples] == [False, True]
    assert moved.triples[1].beta == Fraction(81, 49)
    assert not nielsen_apply("s4", pt).approximate


def test_exact_step_evaluates_each_product_once(monkeypatch):
    # The point splits over Q, so the step builds the image; the product
    # matrix tested by `split_root` is the one its fixed points come from.
    pt = schottky_point(Place.padic(2), [4, 4], [-6])
    calls = []

    def counting(fig_or_pt, w, real=outer.evaluate_word):
        calls.append(w)
        return real(fig_or_pt, w)

    monkeypatch.setattr(outer, "evaluate_word", counting)
    moved = exact_step("s4", pt)
    assert moved is not None and len(calls) == 1
    monkeypatch.undo()
    assert moved.same_point(nielsen_apply("s4", pt))
