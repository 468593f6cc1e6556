"""Seeded input generation, independent of the library under test.

Every operation k of a run gets its own input, drawn from
``random.Random(f"{workload}:{seed}:{k}")``, so inputs depend only on the
seed and the index and can be made in any order.  Inputs are plain data
(``PointSpec``); the workloads turn them into library objects.

The p-adic good-basis boundary is computed here with plain ``Fraction``
valuations, without the library, so that a generated point's expected
status ("yes" or "no") is known before the library sees it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

# A coordinate is a rational, a Gaussian rational (re, im), or None for oo.
Coord = Union[Fraction, tuple[Fraction, Fraction], None]


@dataclass(frozen=True)
class PointSpec:
    """Free coordinates of a normalized point: betas and 2g-3 fixed points."""

    kind: str  # "padic" or "arch"
    p: Optional[int]
    betas: tuple[Fraction, ...]
    fixed: tuple[Coord, ...]
    expect: Optional[str] = None  # "yes" / "no" when known by construction

    @property
    def g(self) -> int:
        return len(self.betas)

    def fixed_pairs(self) -> list[tuple[Coord, Coord]]:
        """(alpha_i, alpha_i') for every generator, pinned ones included."""
        pts: list[Coord] = [Fraction(0), None]
        if self.g >= 2:
            pts.append(Fraction(1))
            pts.extend(self.fixed)
        return [(pts[2 * i], pts[2 * i + 1]) for i in range(self.g)]

    def to_json(self) -> dict:
        """The point document the ``schottky`` CLI reads."""
        place = {"kind": self.kind, "eps": "1"}
        if self.kind == "padic":
            place["p"] = self.p
        koebe = []
        pairs = self.fixed_pairs()
        for i, beta in enumerate(self.betas):
            entry = {"beta": _coord_json(beta)}
            if i >= 2:
                entry["alpha"] = _coord_json(pairs[i][0])
            if i >= 1:
                entry["alpha_prime"] = _coord_json(pairs[i][1])
            koebe.append(entry)
        return {"place": place, "g": self.g, "koebe": koebe}


def _rat_json(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _coord_json(x: Coord):
    if x is None:
        return "inf"
    if isinstance(x, tuple):
        return {"re": _rat_json(x[0]), "im": _rat_json(x[1])}
    return _rat_json(x)


def rng_for(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")


# ---------------------------------------------------------------------------
# Exact p-adic valuations, written out here so checks do not trust the library
# ---------------------------------------------------------------------------


def vp(x: Fraction, p: int) -> int:
    """v_p(x) for a nonzero rational x."""
    v, n, d = 0, x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def _v_wedge(x: Coord, y: Coord, p: int) -> int:
    """Valuation of the homogeneous difference; |x - oo| counts as 1."""
    if x is None or y is None:
        return 0
    return vp(x - y, p)


def sb_boundaries(spec: PointSpec) -> list[int]:
    """B_i = max over j, k of -v_p([x_j, x_k; alpha_i, alpha_i']).

    The point is in the good-basis locus exactly when v_p(beta_i) > B_i
    for every generator i (|beta_i| |cross-ratio| < 1 in valuations).
    """
    p = spec.p
    pairs = spec.fixed_pairs()
    out = []
    for i, (a, ap) in enumerate(pairs):
        others = [x for j, pair in enumerate(pairs) if j != i for x in pair]
        best = 0
        for xj in others:
            for xk in others:
                v = (_v_wedge(xj, a, p) + _v_wedge(xk, ap, p)
                     - _v_wedge(xj, ap, p) - _v_wedge(xk, a, p))
                best = max(best, -v)
        out.append(best)
    return out


def expected_padic_status(spec: PointSpec) -> str:
    bounds = sb_boundaries(spec)
    ok = all(vp(b, spec.p) > bnd for b, bnd in zip(spec.betas, bounds))
    return "yes" if ok else "no"


# ---------------------------------------------------------------------------
# Point generators
# ---------------------------------------------------------------------------

_SMALL_POOL = [Fraction(n, d) for n in range(-12, 13) for d in (1, 2, 3, 4)
               if Fraction(n, d) not in (0, 1)]


def _unit(rng: random.Random, p: int) -> Fraction:
    while True:
        u = Fraction(rng.choice([1, -1, 3, -3, 5, -5, 7, 11]),
                     rng.choice([1, 1, 3, 7]))
        if u.numerator % p and u.denominator % p:
            return u


def _large_rational(rng: random.Random) -> Fraction:
    """A rational with 6-digit numerator and denominator."""
    while True:
        q = Fraction(rng.choice((1, -1)) * rng.randint(100000, 999999),
                     rng.randint(100000, 999999))
        if q.denominator >= 100000 and q != 1:
            return q


def _distinct(draw, n: int) -> tuple:
    out: list = []
    while len(out) < n:
        x = draw()
        if x not in out:
            out.append(x)
    return tuple(out)


def padic_point(rng: random.Random, g: int, p: int, side: str,
                height: str = "small") -> PointSpec:
    """A p-adic point whose multipliers sit just on one side of the boundary.

    side "yes": every v_p(beta_i) is 1 to 3 above its boundary B_i.
    side "no": one generator with B_i >= 1 gets v_p(beta_i) in [1, B_i],
    so exactly that inequality fails (others stay above their boundary).
    """
    if height == "small":
        def draw():
            return rng.choice(_SMALL_POOL)
    else:
        def draw():
            return _large_rational(rng)
    while True:
        fixed = _distinct(draw, 2 * g - 3) if g >= 2 else ()
        probe = PointSpec("padic", p, (Fraction(p),) * g, fixed)
        bounds = sb_boundaries(probe)
        if side == "no" and max(bounds) < 1:
            continue  # no generator can violate: redraw the fixed points
        vals = [b + rng.randint(1, 3) for b in bounds]
        if side == "no":
            i0 = rng.choice([i for i, b in enumerate(bounds) if b >= 1])
            vals[i0] = rng.randint(1, bounds[i0])
        betas = tuple(Fraction(p) ** v * _unit(rng, p) for v in vals)
        spec = PointSpec("padic", p, betas, fixed, side)
        if expected_padic_status(spec) != side:
            raise RuntimeError(f"generated point is not on the {side} side")
        return spec


def _gaussian(rng: random.Random) -> tuple[Fraction, Fraction]:
    re = Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3)))
    im = Fraction(rng.choice((-1, 1)) * rng.randint(1, 8), rng.choice((1, 2, 3)))
    return (re, im)


def arch_point(rng: random.Random, g: int, gaussian: bool,
               kmin: int, kmax: int) -> PointSpec:
    """An archimedean point with multipliers 1/k, kmin <= k <= kmax, and
    real or Gaussian fixed points.  Whether the Ford search certifies it
    is not known in advance."""
    if gaussian:
        def draw():
            return _gaussian(rng)
    else:
        def draw():
            return rng.choice(_SMALL_POOL)
    fixed = _distinct(draw, 2 * g - 3)
    betas = tuple(Fraction(1, rng.randint(kmin, kmax)) for _ in range(g))
    return PointSpec("arch", None, betas, fixed)
