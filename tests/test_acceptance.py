"""End-to-end acceptance suite.

Each criterion is one test; the helper prints a single PASS/FAIL line
per criterion (visible with -s, and in the captured output otherwise),
and `pytest -v` gives the same information per test name.
"""

import contextlib
import json
import time
from fractions import Fraction

import pytest

from conftest import (
    dumbbell_point,
    moved_off_infinity,
    random_point,
    random_reduced_word,
    random_sb_point,
    random_unit,
    seeded,
)
from schottky import (
    Place,
    ReducedWord,
    abs_value,
    cross_ratio,
    hybrid_section_eval,
    is_in_SB,
    is_schottky,
    koebe_to_matrix,
    matrix_to_koebe,
    schottky_point,
    translation_length,
    trivial_seminorm,
)
from schottky.exactnum import GaussianRational, padic_valuation
from schottky.figures import (
    DiscsNotDisjoint,
    NotInSB,
    ford_figure_from_triples,
    limit_sample,
    normalized_figure,
)
from schottky.moebius import (
    IDENTITY,
    Disc,
    Moebius,
    ProjPoint,
    disc_shape,
)
from schottky.places import ExactValue, ONE_ABS
from schottky.skeleton import build_tree, glue_skeleton, shilov_join
from schottky.outer import (
    NielsenWord,
    apply_word,
    free_action,
    iota_word,
    nielsen_letters,
)
from schottky.cli import main as cli_main


@contextlib.contextmanager
def criterion(n, name, seconds=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {n:2d}] {name}: FAIL", flush=True)
        raise
    elapsed = time.monotonic() - start
    if seconds is not None and elapsed >= seconds:
        print(f"[criterion {n:2d}] {name}: FAIL (took {elapsed:.1f}s)",
              flush=True)
        pytest.fail(f"criterion {n} exceeded {seconds}s ({elapsed:.1f}s)")
    print(f"[criterion {n:2d}] {name}: PASS ({elapsed:.1f}s)", flush=True)


def _random_split_matrix(rng, place):
    """A loxodromic matrix whose eigenvalues are rational by construction."""
    p = place.p
    lam_small = Fraction(p) ** rng.randint(1, 5) * random_unit(rng, p)
    lam_big = random_unit(rng, p)
    if rng.random() < 0.5:
        lam_small, lam_big = lam_big * Fraction(p) ** -rng.randint(1, 5), \
            lam_big
    while True:
        a, b, c, d = (rng.randint(-5, 5) for _ in range(4))
        if a * d - b * c:
            break
    s = Moebius(*(GaussianRational(Fraction(x)) for x in (a, b, c, d)))
    diag = Moebius(GaussianRational(lam_small), GaussianRational(0),
                   GaussianRational(0), GaussianRational(lam_big))
    return s * diag * s.inverse()


def test_criterion_01_koebe_roundtrip():
    with criterion(1, "Koebe coordinate roundtrip", seconds=5):
        rng = seeded(101)
        places = [Place.padic(p) for p in (2, 3, 5)]
        done = 0
        while done < 200:
            place = rng.choice(places)
            m = _random_split_matrix(rng, place)
            t = matrix_to_koebe(place, m)
            assert not t.approximate
            assert koebe_to_matrix(t).same_as(m)
            done += 1
        arch = Place.archimedean()
        done = 0
        while done < 200:
            while True:
                a, b, c, d = (rng.randint(-6, 6) for _ in range(4))
                try:
                    m = Moebius(*(GaussianRational(Fraction(x))
                                  for x in (a, b, c, d)))
                except ValueError:
                    continue
                from schottky.moebius import is_loxodromic
                if is_loxodromic(arch, m):
                    break
            t = matrix_to_koebe(arch, m)
            back = koebe_to_matrix(t).canonical().to_complex()
            want = m.canonical().to_complex()
            for x, y in zip(back, want):
                assert abs(x - y) <= 1e-9 * max(1.0, abs(y))
            done += 1


def test_criterion_02_criterion_equivalence():
    with criterion(2, "inequalities iff normalized figure", seconds=30):
        rng = seeded(202)
        done = 0
        while done < 100:
            place = Place.padic(rng.choice([2, 3, 5]))
            g = rng.choice([2, 3])
            pt = random_point(rng, place, g)
            if pt is None:
                continue
            status = is_in_SB(pt).status
            if status == "yes":
                fig = normalized_figure(pt)  # must validate
                assert fig.g == g
                # Twisted Ford discs (after moving every fixed point off
                # infinity) may fail to be disjoint at lambda = 1, but the
                # mapping property must never be contradicted.
                try:
                    ford_figure_from_triples(place, moved_off_infinity(pt),
                                             [1] * g)
                except DiscsNotDisjoint:
                    pass
            else:
                assert status == "no"
                with pytest.raises(NotInSB):
                    normalized_figure(pt)
            done += 1


def _shape_subset(place, s1, s2):
    k1, k2 = s1[0], s2[0]
    if k1 == "codisc" and k2 == "std":
        return False
    if k1 == "std" and k2 == "std":
        _, a, ra = s1
        _, b, rb = s2
        return ra <= rb and abs_value(place, a - b) <= rb
    if k1 == "std":
        _, a, ra = s1
        _, m, s = s2
        dist = abs_value(place, a - m)
        return dist >= s and dist > ra
    _, m1, sa = s1
    _, m2, sb = s2
    return abs_value(place, m1 - m2) < sa and sb <= sa


def _ping_pong_check(pt):
    fig = normalized_figure(pt)
    samp = limit_sample(fig, 4)  # also verifies prefix nesting
    words = [(w, d) for n in range(1, 5) for w, d in samp.levels[n]]
    shapes = {w.letters: disc_shape(fig.place, d) for w, d in words}
    keys = list(shapes)
    for u in keys:
        su = shapes[u]
        for v in keys:
            assert _shape_subset(fig.place, su, shapes[v]) == \
                (u[:len(v)] == v)
    # No nontrivial word of length <= 6 acts as the identity.
    gens = fig.generators
    alphabet = [i for i in range(1, fig.g + 1)] + \
        [-i for i in range(1, fig.g + 1)]

    def rec(m, last, depth):
        if depth == 0:
            return
        for letter in alphabet:
            if last == -letter:
                continue
            gi = gens[abs(letter) - 1]
            m2 = m * (gi if letter > 0 else gi.inverse())
            assert not m2.is_identity()
            rec(m2, letter, depth - 1)

    rec(IDENTITY, 0, 6)


def test_criterion_03_ping_pong():
    with criterion(3, "ping-pong word discs", seconds=60):
        rng = seeded(303)
        pts = [dumbbell_point()]
        for k in range(10):
            pts.append(random_sb_point(rng, Place.padic([2, 3, 5][k % 3]), 2))
        for pt in pts:
            _ping_pong_check(pt)


def test_criterion_04_radius_decay():
    with criterion(4, "limit disc radius decay", seconds=60):
        rng = seeded(404)
        figs = [normalized_figure(dumbbell_point())]
        for p in (3, 5):
            figs.append(normalized_figure(random_sb_point(
                rng, Place.padic(p), 2)))
        for fig in figs:
            samp = limit_sample(fig, 5)
            assert samp.decay_c < ONE_ABS
            for n in range(1, 6):
                bound = samp.decay_R * samp.decay_c ** (n - 1)
                for _, d in samp.levels[n]:
                    assert samp.size(d) <= bound
        # Archimedean spot check (rank 1, concentric figure), with slack.
        apt = schottky_point(Place.archimedean(), [Fraction(1, 16)])
        fig = normalized_figure(apt)
        samp = limit_sample(fig, 5)
        assert samp.decay_c.to_float() < 1
        for n in range(1, 6):
            bound = samp.decay_R.to_float() * samp.decay_c.to_float() ** (n - 1)
            for _, d in samp.levels[n]:
                assert samp.size(d).to_float() <= bound * (1 + 1e-9)


def _windows(pt):
    pts = pt.fixed_points()
    out = []
    for i, t in enumerate(pt.triples, 1):
        phi = Moebius(t.alpha.v, -t.alpha.u, t.alpha_prime.v, -t.alpha_prime.u)
        absb = abs_value(pt.place, t.beta)
        images = [abs_value(pt.place, phi.apply(x).value())
                  for j, _, x in pts if j != i]
        out.append((absb * max(images), min(images)))
    return out


def test_criterion_05_skeleton_golden():
    with criterion(5, "dumbbell skeleton and tree distances", seconds=60):
        pt = dumbbell_point()
        graph = glue_skeleton(build_tree(normalized_figure(pt)))
        assert graph.betti == 2
        assert len(graph.edges) == 3
        loops = [(u, l.q) for u, v, l in graph.edges.values() if u == v]
        bridges = [(u, v, l.q) for u, v, l in graph.edges.values() if u != v]
        assert sorted(q for _, q in loops) == [2, 2]
        assert len(bridges) == 1 and bridges[0][2] == 1
        assert {bridges[0][0], bridges[0][1]} == {u for u, _ in loops}
        assert graph.cycle_length(1).q == 2
        assert graph.cycle_length(2).q == 2

        rng = seeded(505)
        for k in range(20):
            p = [2, 3, 5][k % 3]
            spt = random_sb_point(rng, Place.padic(p), 2)
            fig = normalized_figure(spt)
            tree = build_tree(fig)
            for i in range(1, spt.g + 1):
                assert tree.distance((i, 1), (i, -1)).q == \
                    translation_length(spt, ReducedWord((i,))).q
            # Graph is invariant under re-choice of admissible radii.
            base = glue_skeleton(build_tree(fig)).canonical_form()
            for wa, wb in ((Fraction(3, 4), Fraction(1, 4)),
                           (Fraction(1, 4), Fraction(3, 4))):
                radii = [(lo ** wa) * (hi ** wb) for lo, hi in _windows(spt)]
                alt = normalized_figure(spt, radii=radii)
                assert glue_skeleton(build_tree(alt)).canonical_form() == base


def test_criterion_06_translation_lengths():
    with criterion(6, "translation length consistency", seconds=60):
        rng = seeded(606)
        pts = [dumbbell_point()] + \
            [random_sb_point(rng, Place.padic(p), 2) for p in (2, 3, 5)]
        for pt in pts:
            p = pt.place.p
            for i, t in enumerate(pt.triples, 1):
                q = translation_length(pt, ReducedWord((i,))).q
                assert q == padic_valuation(t.beta.re, p)
        # The dumbbell product cycle: loop + bridge + loop + bridge.
        assert translation_length(dumbbell_point(),
                                  ReducedWord((1, 2))).q == 6
        done = 0
        while done < 50:
            pt = rng.choice(pts)
            u = random_reduced_word(rng, pt.g, rng.randint(1, 3))
            w = random_reduced_word(rng, pt.g, rng.randint(1, 3))
            lw = translation_length(pt, w)
            assert lw.q > 0
            conj = u * w * u.inverse()
            if not len(conj):
                continue
            assert translation_length(pt, conj).q == lw.q
            done += 1


def _invariant_close(place, x, y, min_val=30):
    """Exact equality, or p-adic closeness for Hensel-lifted orbits."""
    diff = x - y
    if diff.is_zero():
        return True
    if not diff.is_rational():
        return False
    return padic_valuation(diff.re, place.p) >= min_val


def test_criterion_07_outer_action():
    with criterion(7, "basis-change action", seconds=120):
        rng = seeded(707)
        # Relations sigma_2^2 = sigma_3^2 = sigma_1^g = id.
        for k in range(20):
            place = Place.padic([2, 3, 5][k % 3])
            g = 3 if k % 4 == 0 else 2
            pt = random_point(rng, place, g, val_range=(2, 6))
            if pt is None:
                continue
            for rel in (("s2", "s2"), ("s3", "s3")):
                assert apply_word(NielsenWord(rel), pt).same_point(pt)
            if g == 3:
                assert apply_word(NielsenWord(("s1",) * 3), pt).same_point(pt)
        apt = schottky_point(Place.archimedean(),
                             [Fraction(1, 4), Fraction(1, 5)], [Fraction(-2)])
        for rel in (("s2", "s2"), ("s3", "s3")):
            assert apply_word(NielsenWord(rel), apt).same_point(apt)

        # The hyperelliptic involution fixes every rank-2 point.
        fixed = 0
        while fixed < 20:
            pt = random_point(rng, Place.padic(rng.choice([2, 3, 5])), 2)
            if pt is None:
                continue
            assert apply_word(iota_word(), pt).same_point(pt)
            fixed += 1

        # Multiplier equivariance along random words.
        base = [dumbbell_point(),
                schottky_point(Place.padic(2), [Fraction(4), Fraction(4)],
                               [Fraction(-6)]),
                schottky_point(Place.padic(3), [Fraction(9), Fraction(27)],
                               [Fraction(-1)])]
        done = 0
        while done < 30:
            pt = rng.choice(base)
            letters = tuple(rng.choice(nielsen_letters(pt.g))
                            for _ in range(rng.randint(1, 3)))
            word = NielsenWord(letters)
            try:
                moved = apply_word(word, pt)
            except ValueError:
                continue
            action = free_action(word, pt.g)
            from schottky.figures import evaluate_word
            for i in range(1, pt.g + 1):
                lhs = evaluate_word(moved,
                                    ReducedWord((i,))).multiplier_invariant()
                rhs = evaluate_word(pt, action[i]).multiplier_invariant()
                if moved.approximate:
                    assert _invariant_close(pt.place, lhs, rhs)
                else:
                    assert lhs == rhs
            done += 1

        # Certified-Schottky status survives basis changes.
        pt = dumbbell_point()
        assert is_schottky(pt).status == "yes"
        for letters in (("s2",), ("s3",), ("s3", "s2"), ("s2", "s3", "s2")):
            img = apply_word(NielsenWord(letters), pt)
            if not img.approximate:
                assert is_schottky(img, nielsen_depth=3).status == "yes"


def test_criterion_08_hybrid(capsys):
    with criterion(8, "hybrid degeneration table", seconds=60):
        payload = json.dumps({"r": ["1/2", "1/3"], "fixed": ["-2"]})
        code = cli_main(["hybrid", "--json", payload,
                         "--eps-grid", "1,1/2,1/1000"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["trivial_fiber"]["certified"] is True
        for row in out["rows"]:
            # |Y_i| = r_i for every eps (the exact identity is asserted
            # inside the command; the report echoes the radii).
            assert row["abs_Y"] == ["1/2", "1/3"]
        last = out["rows"][-1]
        assert last["eps"] == "1/1000"
        for name in ("T", "T+1", "3T^2+5"):
            hybrid = float(last["seminorms"][name]["hybrid"])
            trivial = float(last["seminorms"][name]["trivial"])
            assert abs(hybrid - trivial) <= 1e-2
        # Same bound checked directly against the exact seminorm.
        for coeffs in ([0, 1], [1, 1], [5, 0, 3]):
            want = float(trivial_seminorm(coeffs, Fraction(1, 2)))
            got = hybrid_section_eval(coeffs, Fraction(1, 2),
                                      Fraction(1, 1000))
            assert abs(got - want) <= 1e-2


ARCH_G2 = {
    "place": {"kind": "arch"},
    "g": 2,
    "koebe": [{"beta": "1/100"},
              {"beta": "1/100", "alpha_prime": {"re": "-1", "im": "0"}}],
}


def test_criterion_09_arch_search(tmp_path, capsys):
    with criterion(9, "archimedean search and limit-set SVG", seconds=60):
        g1 = schottky_point(Place.archimedean(), [Fraction(1, 4)])
        assert is_in_SB(g1).status == "yes"
        pt = schottky_point(Place.archimedean(),
                            [Fraction(1, 100), Fraction(1, 100)],
                            [Fraction(-1)])
        res = is_in_SB(pt)
        assert res.status == "yes"
        assert res.figure.witness.startswith("ford")

        src = tmp_path / "arch.json"
        svg = tmp_path / "limit.svg"
        src.write_text(json.dumps(ARCH_G2))
        start = time.monotonic()
        code = cli_main(["limitset", "--input", str(src), "--depth", "6",
                         "--out", str(svg)])
        elapsed = time.monotonic() - start
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert elapsed < 10
        assert report["count"] == 2 * 2 * (2 * 2 - 1) ** 5  # 972
        assert svg.read_text().count("<circle") == sum(
            4 * 3 ** (n - 1) for n in range(1, 7))


def test_criterion_10_cross_ratio_tree_bridge():
    with criterion(10, "cross-ratio vs join heights", seconds=60):
        rng = seeded(1010)
        done = 0
        while done < 50:
            place = Place.padic(rng.choice([2, 3, 5]))
            vals = [Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                    for _ in range(4)]
            if len(set(vals)) != 4:
                continue
            a, b, c, d = vals
            cr = cross_ratio(*(ProjPoint.finite(GaussianRational(x))
                               for x in vals))
            q_cr = abs_value(place, cr).log_exponent(place.p)

            tiny = ExactValue.p_power(place.p, Fraction(-40))

            def height(x, y):
                j = shilov_join(place,
                                Disc(GaussianRational(x), tiny),
                                Disc(GaussianRational(y), tiny))
                return j.radius.log_exponent(place.p)

            # Gromov-product identity: the valuation of the cross-ratio
            # is a signed combination of join heights, i.e. the signed
            # length of the common tree segment of the two point pairs.
            oracle = height(a, c) + height(b, d) - height(a, d) - height(b, c)
            assert q_cr == oracle
            done += 1
