"""JSON encoding and decoding for every externally visible object.

Conventions: rationals are strings "num/den" (or "n" for integers),
Gaussian rationals are {"re": ..., "im": ...}, projective infinity is
the string "inf".  Output passes through ``dumps`` which sorts keys and
formats floats with 17 significant digits, so identical inputs always
produce identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .exactnum import GaussianRational, format_fraction, parse_fraction
from .places import (
    AbsValue,
    ApproxReal,
    ExactValue,
    ExactZero,
    Place,
)
from .moebius import Disc, KoebeTriple, ProjPoint
from .figures import SchottkyPoint


class MalformedInput(ValueError):
    """Input JSON does not describe the expected object."""


def _get(obj: dict, key: str, where: str):
    if not isinstance(obj, dict):
        raise MalformedInput(f"{where}: expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise MalformedInput(f"{where}: missing field {key!r}")
    return obj[key]


# -- rationals / Gaussian rationals ------------------------------------------


def rat_to_json(q: Fraction) -> str:
    return format_fraction(Fraction(q))


def rat_from_json(s, where: str = "rational") -> Fraction:
    try:
        return parse_fraction(str(s))
    except (ValueError, ZeroDivisionError) as e:
        raise MalformedInput(f"{where}: bad rational {s!r}") from e


def gq_to_json(z: GaussianRational):
    if z.im == 0:
        return rat_to_json(z.re)
    return {"re": rat_to_json(z.re), "im": rat_to_json(z.im)}


def gq_from_json(obj, where: str = "number") -> GaussianRational:
    if isinstance(obj, (str, int)):
        return GaussianRational(rat_from_json(obj, where))
    re = rat_from_json(_get(obj, "re", where), where + ".re")
    im = rat_from_json(_get(obj, "im", where), where + ".im")
    return GaussianRational(re, im)


def proj_to_json(pt: ProjPoint):
    return "inf" if pt.is_infinity else gq_to_json(pt.value())


def proj_from_json(obj, where: str = "point") -> ProjPoint:
    if obj == "inf":
        return ProjPoint.infinity()
    return ProjPoint.finite(gq_from_json(obj, where))


# -- places -------------------------------------------------------------------


def place_to_json(place: Place) -> dict:
    out = {"kind": "arch" if place.is_archimedean else place.kind}
    if place.kind == "padic":
        out["p"] = place.p
    if place.kind in ("padic", "archimedean"):
        out["eps"] = rat_to_json(place.eps)
    return out


def _prime_from_json(obj) -> int:
    p = _get(obj, "p", "place")
    if type(p) is not int:  # rejects bool, float and string
        raise TypeError(f"p must be a JSON integer, not {type(p).__name__}")
    return p


def place_from_json(obj) -> Place:
    kind = _get(obj, "kind", "place")
    eps = rat_from_json(obj.get("eps", "1"), "place.eps")
    try:
        if kind in ("arch", "archimedean"):
            return Place.archimedean(eps)
        if kind == "padic":
            return Place.padic(_prime_from_json(obj), eps)
        if kind == "trivial_q":
            return Place.trivial_q()
    except (ValueError, TypeError) as e:
        raise MalformedInput(f"place: {e}") from e
    raise MalformedInput(f"place: unknown kind {kind!r}")


# -- absolute values ----------------------------------------------------------


def absvalue_to_json(v: AbsValue, place: Place) -> dict:
    """A normalized value in the place's unit: ``approx`` prints |x|^eps,
    ``exact_log`` the q of |x|_p = p^(-q) and eps, for p^(-q eps)."""
    if isinstance(v, ExactZero):
        return {"kind": "zero"}
    if isinstance(v, ApproxReal):
        return {"kind": "approx", "value": format(v.value ** float(place.eps), ".17g")}
    return {"kind": "exact_log", "q": rat_to_json(v.log_exponent(place.p)),
            "p": place.p, "eps": rat_to_json(place.eps)}


def absvalue_from_json(obj, where: str = "value") -> AbsValue:
    """The normalized value (an ``approx`` value is read at eps = 1)."""
    kind = _get(obj, "kind", where)
    if kind == "zero":
        return ExactZero()
    if kind == "approx":
        return ApproxReal(float(_get(obj, "value", where)))
    if kind == "exact_log":
        q = rat_from_json(_get(obj, "q", where), where)
        return ExactValue(int(_get(obj, "p", where)), -q)
    raise MalformedInput(f"{where}: unknown value kind {kind!r}")


# -- discs --------------------------------------------------------------------


def disc_to_json(place: Place, d: Disc) -> dict:
    return {"chart": d.chart, "center": gq_to_json(d.center),
            "radius": absvalue_to_json(d.radius, place),
            "closed": True}  # Disc has no open form: all are closed


def disc_from_json(obj, where: str = "disc") -> Disc:
    return Disc(gq_from_json(_get(obj, "center", where), where + ".center"),
                absvalue_from_json(_get(obj, "radius", where), where + ".radius"),
                obj.get("chart", "std"))


# -- Schottky points ----------------------------------------------------------

_ZERO = ProjPoint.finite(GaussianRational(0))
_ONE = ProjPoint.finite(GaussianRational(1))
_INF = ProjPoint.infinity()


def point_to_json(pt: SchottkyPoint) -> dict:
    koebe = []
    for i, t in enumerate(pt.triples):
        entry = {"beta": gq_to_json(t.beta)}
        if i >= 2:
            entry["alpha"] = proj_to_json(t.alpha)
        if i >= 1:
            entry["alpha_prime"] = proj_to_json(t.alpha_prime)
        if t.approximate:
            entry["approximate"] = True
        koebe.append(entry)
    return {"place": place_to_json(pt.place), "g": pt.g, "koebe": koebe}


def point_from_json(obj) -> SchottkyPoint:
    place = place_from_json(_get(obj, "place", "point"))
    koebe = _get(obj, "koebe", "point")
    if not isinstance(koebe, list) or not koebe:
        raise MalformedInput("point.koebe: expected a non-empty list")
    if "g" in obj and obj["g"] != len(koebe):
        raise MalformedInput("point.g does not match the koebe list length")
    triples = []
    for i, entry in enumerate(koebe):
        where = f"point.koebe[{i}]"
        beta = gq_from_json(_get(entry, "beta", where), where + ".beta")
        if i == 0:
            alpha, alpha_prime = _ZERO, _INF
        elif i == 1:
            alpha = _ONE
            alpha_prime = proj_from_json(
                _get(entry, "alpha_prime", where), where + ".alpha_prime")
        else:
            alpha = proj_from_json(_get(entry, "alpha", where),
                                   where + ".alpha")
            alpha_prime = proj_from_json(
                _get(entry, "alpha_prime", where), where + ".alpha_prime")
        try:
            triples.append(KoebeTriple(alpha, alpha_prime, beta,
                                       bool(entry.get("approximate", False))))
        except ValueError as e:
            raise MalformedInput(f"{where}: {e}") from e
    try:
        return SchottkyPoint(place, tuple(triples))
    except ValueError as e:
        raise MalformedInput(f"point: {e}") from e


# -- skeleton output ----------------------------------------------------------


def metric_length_to_json(l) -> dict:
    return {"q": rat_to_json(l.q), "p": l.p, "eps": rat_to_json(l.eps)}


def metric_graph_to_json(graph) -> dict:
    order = sorted(graph.edges,
                   key=lambda e: (graph.edges[e][0], graph.edges[e][1],
                                  graph.edges[e][2].q, e))
    index = {eid: k for k, eid in enumerate(order)}
    return {
        "vertices": sorted(graph.vertices),
        "edges": [{"u": graph.edges[e][0], "v": graph.edges[e][1],
                   "len": metric_length_to_json(graph.edges[e][2])}
                  for e in order],
        "betti": graph.betti,
        "cycles": [{"gen": g, "edges": sorted(index[e] for e in eids)}
                   for g, eids in graph.cycle_basis],
    }


# -- deterministic output -----------------------------------------------------


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)
