import json
from fractions import Fraction

import pytest

from conftest import dumbbell_point
from schottky import Place, normalized_figure
from schottky.exactnum import GaussianRational
from schottky.moebius import Disc, ProjPoint
from schottky.places import ONE_ABS, ApproxReal, ExactValue, ExactZero
from schottky.serialize import (
    MalformedInput,
    absvalue_from_json,
    absvalue_to_json,
    disc_from_json,
    disc_to_json,
    dumps,
    gq_from_json,
    gq_to_json,
    metric_graph_to_json,
    place_from_json,
    place_to_json,
    point_from_json,
    point_to_json,
    proj_from_json,
    proj_to_json,
    rat_from_json,
    rat_to_json,
)
from schottky.skeleton import build_tree, glue_skeleton

P2 = Place.padic(2)


def test_rational_and_gq_roundtrip():
    for q in (Fraction(0), Fraction(-7, 3), Fraction(5)):
        assert rat_from_json(rat_to_json(q)) == q
    z = GaussianRational(Fraction(1, 2), Fraction(-3))
    assert gq_from_json(gq_to_json(z)) == z
    assert gq_from_json("4") == GaussianRational(4)  # rational shorthand
    with pytest.raises(MalformedInput):
        rat_from_json("one half")


def test_proj_roundtrip():
    assert proj_from_json("inf").is_infinity
    p = ProjPoint.finite(GaussianRational(Fraction(2, 3)))
    assert proj_from_json(proj_to_json(p)) == p


def test_place_roundtrip_and_aliases():
    for place in (Place.padic(5, Fraction(1, 2)), Place.archimedean(),
                  Place.trivial_q()):
        assert place_from_json(place_to_json(place)) == place
    # External name is "arch"; both spellings parse.
    assert place_to_json(Place.archimedean())["kind"] == "arch"
    assert place_from_json({"kind": "archimedean"}).is_archimedean
    with pytest.raises(MalformedInput):
        place_from_json({"kind": "adelic"})
    with pytest.raises(MalformedInput):
        place_from_json({"kind": "padic"})  # missing p


def test_absvalue_roundtrip():
    for v in (ExactValue.p_power(2, Fraction(-3, 2)),
              ONE_ABS, ExactZero(), ApproxReal(1.25)):
        back = absvalue_from_json(absvalue_to_json(v, P2))
        assert back == v
    # A pure power of the place's prime serializes in log form.
    enc = absvalue_to_json(ExactValue.p_power(2, -3), P2)
    assert enc == {"kind": "exact_log", "q": "3", "p": 2, "eps": "1"}
    # So does 1, a power of every prime; no other exact form is read.
    assert absvalue_to_json(ONE_ABS, Place.padic(3, Fraction(1, 2))) == {
        "kind": "exact_log", "q": "0", "p": 3, "eps": "1/2"}
    with pytest.raises(MalformedInput, match="unknown value kind"):
        absvalue_from_json({"kind": "exact_factors", "factors": {}})


def test_disc_roundtrip():
    d = Disc(GaussianRational(Fraction(1, 4)), ExactValue.p_power(2, -2),
             chart="inv")
    back = disc_from_json(disc_to_json(P2, d))
    assert (back.center, back.radius, back.chart) == (d.center, d.radius, "inv")


def test_point_roundtrip_and_validation():
    pt = dumbbell_point()
    enc = point_to_json(pt)
    # The pinned coordinates are implied, not stored.
    assert "alpha" not in enc["koebe"][0] and "alpha" not in enc["koebe"][1]
    assert point_from_json(enc).same_point(pt)
    bad = json.loads(json.dumps(enc))
    bad["g"] = 3
    with pytest.raises(MalformedInput, match="koebe list length"):
        point_from_json(bad)
    with pytest.raises(MalformedInput, match="missing field"):
        point_from_json({"place": {"kind": "padic", "p": 2}})
    degenerate = {"place": {"kind": "padic", "p": 2}, "g": 2,
                  "koebe": [{"beta": "4"}, {"beta": "4", "alpha_prime": "1"}]}
    with pytest.raises(MalformedInput, match="distinct"):
        point_from_json(degenerate)


def test_metric_graph_json():
    graph = glue_skeleton(build_tree(normalized_figure(dumbbell_point())))
    enc = metric_graph_to_json(graph)
    assert enc["betti"] == 2
    assert len(enc["edges"]) == 3
    assert sorted(e["len"]["q"] for e in enc["edges"]) == ["1", "2", "2"]
    gens = {c["gen"] for c in enc["cycles"]}
    assert gens == {1, 2}
    for c in enc["cycles"]:
        assert all(0 <= i < 3 for i in c["edges"])


def test_dumps_deterministic():
    obj = {"b": [1, 2], "a": {"y": "2", "x": "1"}}
    assert dumps(obj) == dumps(json.loads(dumps(obj)))
    assert dumps(obj).index('"a"') < dumps(obj).index('"b"')
