"""Schottky figures, reduced words, membership tests and limit sets.

A SchottkyPoint is a normalized tuple of fixed-point/multiplier data for
g generators at a place; a SchottkyFigure is a ping-pong certificate:
2g pairwise disjoint closed discs with the mapping property.  At
non-archimedean places membership in the "good basis" locus is decided
exactly by one radius window per generator (`sb_window`), which also
gives the normalized figure its radii; archimedean membership is a
one-sided search over twisted Ford discs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property, partial
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .exactnum import ONE, GaussianRational, Rat, as_gaussian
from .moebius import (
    Disc,
    IDENTITY,
    INF,
    KoebeTriple,
    Moebius,
    ProjPoint,
    _Balls,
    disc_shape,
    disc_subset,
    discs_disjoint,
    discs_equal,
    image_of_disc,
    koebe_to_matrix,
)
from .places import (
    AbsValue,
    ApproxReal,
    ExactValue,
    ONE_ABS,
    Place,
    PlaceError,
    abs_value,
)


class NotInSB(ValueError):
    """Point fails a good-basis inequality; carries the witness."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"not in the good-basis locus: {witness}")


class RadiiOutOfWindow(ValueError):
    """User-supplied figure radii fall outside the admissible window."""


class GeneratorFixesInfinity(ValueError):
    """Ford discs need c != 0 for every generator."""


class DiscsNotDisjoint(ValueError):
    """Two candidate figure discs meet (or can't be separated)."""

    def __init__(self, i, ei, j, ej):
        self.pair = (i, ei, j, ej)
        super().__init__(
            f"discs ({i},{'+' if ei > 0 else '-'}) and "
            f"({j},{'+' if ej > 0 else '-'}) are not disjoint")


class FigureInvariantError(ValueError):
    """Mapping property of a candidate figure fails, or the disc of
    ``word`` is not certified inside its prefix's."""

    def __init__(self, message: str, word: Optional[tuple[int, ...]] = None):
        self.word = word
        super().__init__(message)


class BudgetExceeded(RuntimeError):
    """Word enumeration would exceed the configured disc budget."""


# ---------------------------------------------------------------------------
# Reduced words
# ---------------------------------------------------------------------------


class ReducedWord:
    """A reduced word in the free group, letters i (generator) / -i (inverse)."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[int] = ()):
        letters = tuple(map(int, letters))
        if 0 in letters:
            raise ValueError("letters are nonzero signed generator indices")
        if any(map(operator.eq, letters, map(operator.neg, letters[1:]))):
            raise ValueError(f"word {letters} is not reduced")
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("ReducedWord is immutable")

    @staticmethod
    def _of(letters: tuple[int, ...]) -> "ReducedWord":
        """The word of letters already known to be reduced, unchecked."""
        w = object.__new__(ReducedWord)
        object.__setattr__(w, "letters", letters)
        return w

    @staticmethod
    def reduce(letters: Iterable[int]) -> "ReducedWord":
        """Free reduction of an arbitrary letter sequence."""
        out: list[int] = []
        for x in letters:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        return ReducedWord(out)

    def __len__(self):
        return len(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other):
        return isinstance(other, ReducedWord) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __mul__(self, other: "ReducedWord") -> "ReducedWord":
        return ReducedWord.reduce(self.letters + other.letters)

    def inverse(self) -> "ReducedWord":
        return ReducedWord(tuple(-x for x in reversed(self.letters)))

    def cyclic_reduce(self) -> "ReducedWord":
        ls = list(self.letters)
        while len(ls) >= 2 and ls[0] == -ls[-1]:
            ls = ls[1:-1]
        return ReducedWord(ls)

    def conjugacy_representative(self) -> "ReducedWord":
        """Lexicographically minimal rotation of the cyclic reduction."""
        return ReducedWord(_least_rotation(self.cyclic_reduce().letters))

    def __repr__(self):
        return "w(" + ",".join(map(str, self.letters)) + ")"


def _least_rotation(w: tuple[int, ...]) -> tuple[int, ...]:
    """The least rotation of w, in linear time (Booth's algorithm): f is
    the failure function of the least rotation found so far, w[k:] + w[:k],
    over the doubled word."""
    n, k = len(w), 0
    f = [-1] * (2 * n)
    for j in range(1, 2 * n):
        x, i = w[j % n], f[j - k - 1]
        while i != -1 and x != w[(k + i + 1) % n]:
            if x < w[(k + i + 1) % n]:
                k = j - i - 1
            i = f[i]
        if x != w[(k + i + 1) % n]:  # here i == -1
            if x < w[k % n]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return w[k:] + w[:k]


def conjugacy_classes_upto(g: int, length: int) -> list[ReducedWord]:
    """One cyclically-reduced representative per conjugacy class, |w| <= length.

    The classes are the necklaces with no x x^-1, last-to-first included.
    A depth-first walk over reduced prenecklaces in the order 1..g, -1..-g
    (Ruskey and Sawada) prunes a letter ranking below the letter one
    period back, and keeps a word of length n when n is a multiple of the
    period and the last letter is not the inverse of the first.  Classes
    come by length, then least rotation, as `conjugacy_representative`.
    Such a word is its first period repeated, and so is its least rotation.
    The walk keeps its own stack, so the length is not bounded by Python's
    recursion limit.
    """
    alphabet = list(range(1, g + 1)) + list(range(-1, -g - 1, -1))
    by_length: list[list[ReducedWord]] = [[] for _ in range(length + 1)]
    word: list[int] = []
    # (letter, length of the word it ends, period of that word), pushed in
    # reverse so that they pop in alphabet order.
    stack = [(x, 1, 1) for x in reversed(alphabet)] if length > 0 else []
    while stack:
        x, n, period = stack.pop()
        del word[n - 1:]
        word.append(x)
        if n % period == 0 and x != -word[0]:
            by_length[n].append(ReducedWord(
                _least_rotation(tuple(word[:period])) * (n // period)))
        if n < length:
            prev = word[n - period]
            stack.extend((y, n + 1, period if y == prev else n + 1)
                         for y in reversed(alphabet[alphabet.index(prev):])
                         if y != -x)
    return [w for ws in by_length for w in ws]


# ---------------------------------------------------------------------------
# Schottky points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchottkyPoint:
    """Normalized Koebe data of a marked rank-g group at a place.

    The normalization pins alpha_1 = 0, alpha_1' = infinity and (for
    g >= 2) alpha_2 = 1; all multipliers have 0 < |beta_i| < 1.
    """

    place: Place
    triples: tuple[KoebeTriple, ...]

    def __post_init__(self):
        object.__setattr__(self, "triples", tuple(self.triples))
        g = len(self.triples)
        if g < 1:
            raise ValueError("rank must be at least 1")
        t0 = self.triples[0]
        if t0.alpha != ProjPoint.finite(0) or t0.alpha_prime != INF:
            raise ValueError("first triple must fix (0, infinity)")
        if g >= 2 and self.triples[1].alpha != ProjPoint.finite(1):
            raise ValueError("second attracting point must be 1")
        pts = self.fixed_points()
        if len(set(p for _, _, p in pts)) != 2 * g:
            raise ValueError("fixed points must be pairwise distinct")
        for t in self.triples:
            ab = abs_value(self.place, t.beta)
            if not (ab > abs_value(self.place, 0) and ab < ONE_ABS):
                raise ValueError("multipliers must satisfy 0 < |beta| < 1")

    @property
    def g(self) -> int:
        return len(self.triples)

    @property
    def approximate(self) -> bool:
        return any(t.approximate for t in self.triples)

    def fixed_points(self) -> list[tuple[int, int, ProjPoint]]:
        """All 2g fixed points as (index, sigma, point), sigma=+1 attracting."""
        out = []
        for i, t in enumerate(self.triples, start=1):
            out.append((i, +1, t.alpha))
            out.append((i, -1, t.alpha_prime))
        return out

    def generators(self) -> tuple[Moebius, ...]:
        return self._generators

    @cached_property
    def _generators(self) -> tuple[Moebius, ...]:
        return tuple(koebe_to_matrix(t) for t in self.triples)

    def canonical_key(self):
        """Hashable exact key (only meaningful for non-approximate points)."""
        return (
            self.place,
            tuple(
                (t.alpha.u, t.alpha.v, t.alpha_prime.u, t.alpha_prime.v, t.beta)
                for t in self.triples
            ),
        )

    def same_point(self, other: "SchottkyPoint", tol: float = 1e-9) -> bool:
        """Equality of points: exact non-archimedean, toleranced archimedean."""
        if self.place != other.place or self.g != other.g:
            return False
        if self.place.is_nonarchimedean:
            if self.approximate or other.approximate:
                return False
            return self.canonical_key() == other.canonical_key()
        for a, b in zip(self.triples, other.triples):
            for pa, pb in ((a.alpha, b.alpha), (a.alpha_prime, b.alpha_prime)):
                if pa.is_infinity != pb.is_infinity:
                    return False
                if not pa.is_infinity:
                    if abs(pa.value().to_complex() - pb.value().to_complex()) > tol:
                        return False
            if abs(a.beta.to_complex() - b.beta.to_complex()) > tol:
                return False
        return True


def schottky_point(place: Place, betas: Sequence, fixed: Sequence = ()) -> SchottkyPoint:
    """Build a normalized point from the free coordinates.

    ``betas`` lists the g multipliers; ``fixed`` lists the free fixed
    points in slot order: alpha_2', alpha_3, alpha_3', alpha_4, ...
    (length 2g-3 for g >= 2, empty for g = 1).
    """
    g = len(betas)
    if g == 1:
        if fixed:
            raise ValueError("rank 1 has no free fixed points")
        return SchottkyPoint(place, (KoebeTriple(
            ProjPoint.finite(0), INF, as_gaussian(betas[0])),))
    if len(fixed) != 2 * g - 3:
        raise ValueError(f"expected {2*g-3} free fixed points, got {len(fixed)}")
    pts = [as_gaussian(x) if not isinstance(x, ProjPoint) else x for x in fixed]
    pts = [x if isinstance(x, ProjPoint) else ProjPoint.finite(x) for x in pts]
    triples = [KoebeTriple(ProjPoint.finite(0), INF, as_gaussian(betas[0])),
               KoebeTriple(ProjPoint.finite(1), pts[0], as_gaussian(betas[1]))]
    for i in range(2, g):
        triples.append(KoebeTriple(pts[2 * i - 3], pts[2 * i - 2],
                                   as_gaussian(betas[i])))
    return SchottkyPoint(place, tuple(triples))


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchottkyFigure:
    """2g disjoint discs with the ping-pong mapping property."""

    place: Place
    generators: tuple[Moebius, ...]
    plus_discs: tuple[Disc, ...]
    minus_discs: tuple[Disc, ...]
    witness: str = "user"
    point: Optional[SchottkyPoint] = None

    @property
    def g(self) -> int:
        return len(self.generators)

    def disc(self, i: int, sign: int) -> Disc:
        """B+(gamma_i^sign), i one-based."""
        return (self.plus_discs if sign > 0 else self.minus_discs)[i - 1]

    def disc_for_letter(self, letter: int) -> Disc:
        return self.disc(abs(letter), 1 if letter > 0 else -1)

    def gen(self, letter: int) -> Moebius:
        m = self.generators[abs(letter) - 1]
        return m if letter > 0 else m.inverse()

    def all_discs(self) -> list[tuple[int, int, Disc]]:
        out = []
        for i in range(1, self.g + 1):
            out.append((i, +1, self.disc(i, +1)))
            out.append((i, -1, self.disc(i, -1)))
        return out


def _complement_as_open_disc(place: Place, d: Disc) -> tuple[Moebius, Disc]:
    """P^1 minus the closed disc d, as chart^-1(std disc): boundary only."""
    shape = disc_shape(place, d)
    if shape[0] == "std":
        _, a, r = shape
        chart_inv = Moebius(a, GaussianRational(1),
                            GaussianRational(1), GaussianRational(0))
        if isinstance(r, ExactValue):
            inv_r = r ** -1
        else:
            inv_r = ApproxReal(1.0 / r.to_float())
        return chart_inv, Disc(GaussianRational(0), inv_r)
    _, m, s = shape
    return IDENTITY, Disc(m, s)


def _check_mapping(place: Place, gamma: Moebius, source: Disc, target: Disc):
    """gamma(P^1 - source) must be the open disc with target's boundary."""
    chart, open_disc = _complement_as_open_disc(place, source)
    image = image_of_disc(place, gamma * chart, open_disc)
    if not discs_equal(place, image, target):
        raise FigureInvariantError(
            "image of the complement does not match the partner disc")


def validate_figure(fig: SchottkyFigure) -> SchottkyFigure:
    """Check disjointness and the mapping property; return fig if valid."""
    discs = fig.all_discs()
    for n, (i, ei, d1) in enumerate(discs):
        for j, ej, d2 in discs[n + 1:]:
            if discs_disjoint(fig.place, d1, d2) is not True:
                raise DiscsNotDisjoint(i, ei, j, ej)
    for i in range(1, fig.g + 1):
        gam = fig.gen(i)
        _check_mapping(fig.place, gam, fig.disc(i, -1), fig.disc(i, +1))
        _check_mapping(fig.place, gam.inverse(), fig.disc(i, +1), fig.disc(i, -1))
    return fig


# -- Ford figures -----------------------------------------------------------


def ford_figure_from_triples(place: Place, triples: Sequence[KoebeTriple],
                             lambdas: Sequence[Rat]) -> SchottkyFigure:
    """Twisted Ford discs for arbitrary (finite-fixed-point) triples."""
    if len(lambdas) != len(triples):
        raise ValueError("one lambda per generator")
    gens, plus, minus = [], [], []
    for t, lam in zip(triples, lambdas):
        lam = Fraction(lam)
        if lam <= 0:
            raise ValueError("lambdas must be positive")
        m = koebe_to_matrix(t)
        ar, ai, _, _, cr, ci, dr, di = m._n
        if not (cr or ci):
            raise GeneratorFixesInfinity(
                "ford discs need every generator to move infinity")
        c = GaussianRational(cr, ci)  # s cancels in the centres a/c, -d/c
        absdet = abs_value(place, m.det())
        absc = abs_value(place, m.c)
        lam_v = _scale_value(place, lam)
        rho = (lam_v * absdet).sqrt() / absc
        gens.append(m)
        # gamma sends the complement of the disc around its pole -d/c to
        # a disc around gamma(infinity) = a/c, so the latter is B+(gamma).
        plus.append(Disc(GaussianRational(ar, ai) / c, rho / lam_v))
        minus.append(Disc(GaussianRational(-dr, -di) / c, rho))
    fig = SchottkyFigure(place, tuple(gens), tuple(plus), tuple(minus),
                         witness="ford(" + ",".join(str(Fraction(x)) for x in lambdas) + ")")
    return validate_figure(fig)


def ford_figure(pt: SchottkyPoint, lambdas: Sequence[Rat]) -> SchottkyFigure:
    return replace(ford_figure_from_triples(pt.place, pt.triples, lambdas),
                   point=pt)


def _scale_value(place: Place, x: Rat) -> AbsValue:
    """A positive rational as a value: a float, or at a p-adic place p^k."""
    if place.is_archimedean:
        return ApproxReal(float(x))
    if place.kind != "padic":
        raise PlaceError("figures need an archimedean or p-adic place")
    return ExactValue.of_rational(place.p, x)


# -- good-basis inequalities --------------------------------------------------


def sb_window(i: int, absb: AbsValue, others: Sequence[tuple[object, AbsValue]]
              ) -> tuple[AbsValue, AbsValue]:
    """The radius window (lo, hi) of generator i, or NotInSB.

    ``others`` lists (label, |x|) for the other fixed points, in
    fixed_points() order, in a chart sending generator i's fixed points
    to (0, infinity).  There [x_j, x_k; 0, inf] = x_j / x_k, so every
    inequality |beta_i| |x_j / x_k| < 1 holds iff lo = |beta_i| max |x|
    is below hi = min |x|.  Otherwise the witness is the first (j, k) in
    row-major order that fails: (i, label_j, label_k, |beta_i| |x_j / x_k|).
    """
    if not others:
        return absb, ONE_ABS
    images = [x for _, x in others]
    lo, hi = absb * max(images), min(images)
    if lo < hi:
        return lo, hi
    j, xj = next((lab, x) for lab, x in others if not absb * x < hi)
    k, xk = next((lab, x) for lab, x in others if not absb * xj / x < ONE_ABS)
    raise NotInSB((i, j, k, absb * xj / xk))


@dataclass
class SBResult:
    status: str  # "yes" | "no" | "unknown"
    violated: Optional[tuple] = None
    figure: Optional[SchottkyFigure] = None


def is_in_SB(pt: SchottkyPoint) -> SBResult:
    """Membership in the good-basis locus at the point's place.

    Non-archimedean: decided exactly by each generator's radius window
    (`sb_window`).  Yes carries the normalized figure built from the
    windows; No names the first violated inequality.
    Archimedean: a one-sided Ford-disc search; Yes or unknown, never No.
    """
    if pt.place.is_nonarchimedean:
        try:  # normalized_figure checks every window before building
            return SBResult("yes", figure=normalized_figure(pt))
        except NotInSB as e:
            return SBResult("no", violated=e.witness)
    if pt.g == 1:
        return SBResult("yes", figure=normalized_figure(pt))
    fig = _arch_ford_search(pt)
    if fig is not None:
        return SBResult("yes", figure=fig)
    return SBResult("unknown")


# -- normalized figures -------------------------------------------------------


def _pin_chart(t: KoebeTriple) -> Moebius:
    """A chart sending (alpha, alpha_prime) to (0, infinity)."""
    a, ap = t.alpha, t.alpha_prime
    return Moebius(a.v, -a.u, ap.v, -ap.u)


def normalized_figure(pt: SchottkyPoint,
                      radii: Optional[Sequence[AbsValue]] = None
                      ) -> SchottkyFigure:
    """The figure built from per-generator radius windows.

    In the chart where generator i fixes (0, infinity) the window is
    (|beta_i| * max |other fixed points|, min |other fixed points|);
    the default radius is the exact log-midpoint (geometric mean).  Radii
    are normalized values; the witness prints each in the place's unit,
    r^eps.  Raises NotInSB at the first empty window.  Requires a
    non-archimedean place, except for g = 1 where the concentric
    construction works everywhere.
    """
    if pt.place.is_archimedean and pt.g > 1:
        raise ValueError("normalized figures need a non-archimedean place")
    pts = pt.fixed_points()
    pinned = []  # every window is checked before any disc is built
    for i, t in enumerate(pt.triples, start=1):
        phi, absb = _pin_chart(t), abs_value(pt.place, t.beta)
        others = [((j, s), abs_value(pt.place, phi.apply(p).value()))
                  for j, s, p in pts if j != i]
        pinned.append((phi, absb, sb_window(i, absb, others)))
    plus, minus, chosen = [], [], []
    for i, (phi, absb, (lo, hi)) in enumerate(pinned, start=1):
        if radii is None:
            r = (lo * hi).sqrt()
        else:
            r = radii[i - 1]
            if isinstance(r, (int, Fraction)):
                r = _scale_value(pt.place, r)
            if not (lo < r < hi):
                raise RadiiOutOfWindow(f"radius {r} outside window ({lo},{hi})")
        chosen.append(r)
        phi_inv = phi.inverse()
        plus.append(image_of_disc(pt.place, phi_inv, Disc(GaussianRational(0), r)))
        minus.append(image_of_disc(
            pt.place, phi_inv,
            Disc(GaussianRational(0), absb / r, chart="inv")))
    fig = SchottkyFigure(pt.place, pt.generators(), tuple(plus), tuple(minus),
                         witness="normalized(" + ",".join(
                             repr(r ** pt.place.eps) for r in chosen) + ")",
                         point=pt)
    return validate_figure(fig)


# -- archimedean search -------------------------------------------------------

_FORD_SCALE = [2.0 ** t for t in range(-8, 9)]  # sqrt(lambda) for lambda = 4^t


def _numerator(x: GaussianRational) -> tuple[int, int, int]:
    """(re, im, d) with x = (re + im i) / d and d > 0; no gcd is taken."""
    r, i = x.re, x.im
    return (r.numerator * i.denominator, i.numerator * r.denominator,
            r.denominator * i.denominator)


def _conjugated(p: ProjPoint, m: int) -> tuple[int, int, int]:
    """1/(p - m) as a `_numerator` triple; infinity maps to 0."""
    if p.is_infinity:
        return 0, 0, 1
    xr, xi, xd = _numerator(p.u)
    u = xr - m * xd
    return xd * u, -xd * xi, u * u + xi * xi


def _ford_proposals(pt: SchottkyPoint, m: int) -> tuple[list[complex], list[float]]:
    """Ford centres (pole, then a/c) and base radii after z -> 1/(z - m).

    With x = X/xd, y = Y/yd, beta = B/bd, c = C/bd in integers, (x - beta y)/c
    is (X bd yd - B Y xd) conj(C) / (xd yd |C|^2).  Each part is one correctly
    rounded int / int division: float() of the exact rational, bit for bit.
    """
    centres, rho = [], []
    for t in pt.triples:
        br, bi, bd = _numerator(t.beta)
        cr, ci = bd - br, -bi  # c = 1 - beta = (cr + ci i) / bd
        ar, ai, ad = _conjugated(t.alpha, m)
        pr, pi, pd = _conjugated(t.alpha_prime, m)
        n2 = ad * pd * (cr * cr + ci * ci)
        for xr, xi, xd, yr, yi, yd in ((pr, pi, pd, ar, ai, ad),  # (a', a)
                                       (ar, ai, ad, pr, pi, pd)):
            nr = xr * bd * yd - (br * yr - bi * yi) * xd
            ni = xi * bd * yd - (br * yi + bi * yr) * xd
            centres.append(complex((nr * cr + ni * ci) / n2,
                                   (ni * cr - nr * ci) / n2))
        dr, di = ar * pd - pr * ad, ai * pd - pi * ad  # (a - a') ad pd
        sr, si, n2 = dr * dr - di * di, 2 * dr * di, bd * (ad * pd) ** 2
        det = complex((br * sr - bi * si) / n2, (br * si + bi * sr) / n2)
        rho.append(abs(det) ** 0.5 / abs(complex(cr / bd, ci / bd)))
    return centres, rho


def _arch_ford_search(pt: SchottkyPoint) -> Optional[SchottkyFigure]:
    """Coordinate-descent search for disjoint Ford discs, up to conjugation.

    h(z) = 1/(z - m) sends each fixed point alpha to a = 1/(alpha - m)
    (infinity to 0), and the Koebe matrix of (a, a', beta) has c = 1 - beta,
    pole -d/c = (a' - beta a)/c, a/c = (a - beta a')/c, det beta (a - a')^2.
    `_ford_proposals` computes these from integer numerators, correctly
    rounded: bit-identical to float() of the exact rationals.  c does not
    depend on m, so a degenerate c ends the search at once.

    Ford disc i gets lambda_i = 4^t_i, t_i in [-8, 8]; the margin is the
    least (d - r) - r' over disc pairs.  Sweeping coordinate i, the pairs
    apart from its discs P = 2i, Q = 2i + 1 are scored once; each t scores
    the 4g - 3 pairs touching them in four classes: (j, P) and (j, Q) for
    j < P, whose d - r_j is fixed; (P, Q); (P, k) and (Q, k) for k > Q.
    Ties go to the larger t.  A sweep is a function of the exponents alone,
    so the sweeps (at most three) stop at the first that changes nothing.

    The float search only proposes lambdas.  The exact conjugated triples
    are built for a positive margin only, and `validate_figure` (through
    `ford_figure_from_triples`) decides whether the figure is a "yes".
    """
    if any(abs((ONE - t.beta).to_complex()) < 1e-12 for t in pt.triples):
        return None
    n = 2 * pt.g
    fixed = [p.u.to_complex() for _, _, p in pt.fixed_points() if not p.is_infinity]
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    apart = [[q for q in pairs if i not in (q[0] // 2, q[1] // 2)]
             for i in range(pt.g)]
    for m in (2, 3, -1, 5, -2, 7, -5, 11):
        if any(abs(z - m) < 1e-6 for z in fixed):
            continue
        centres, rho = _ford_proposals(pt, m)
        dist = [[abs(x - y) for y in centres] for x in centres]
        r = [x for q in rho for x in (q, q)]  # every t_i = 0
        rp = [[q * s for s in _FORD_SCALE] for q in rho]  # r_P, r_Q by t
        rq = [[q / s for s in _FORD_SCALE] for q in rho]

        def margin(among) -> float:
            return min([math.inf] + [dist[j][k] - r[j] - r[k] for j, k in among])

        ts = [0] * pt.g
        for _ in range(3):  # coordinate-descent sweeps
            before = list(ts)
            for i in range(pt.g):
                P, Q = 2 * i, 2 * i + 1
                cols = [[dist[P][Q] - x - y for x, y in zip(rp[i], rq[i])]]
                if P:  # x -> fl(x - r) is monotone: take the least d - r_j
                    e = min(dist[j][P] - r[j] for j in range(P))
                    f = min(dist[j][Q] - r[j] for j in range(P))
                    cols += [[e - x for x in rp[i]], [f - y for y in rq[i]]]
                for k in range(Q + 1, n):
                    d, e, rk = dist[P][k], dist[Q][k], r[k]
                    cols += [[d - x - rk for x in rp[i]],
                             [e - y - rk for y in rq[i]]]
                scores = list(map(min, [margin(apart[i])] * 17, *cols))
                ts[i] = 8 - scores[::-1].index(max(scores))  # ties: larger t
                r[P], r[Q] = rp[i][ts[i] + 8], rq[i][ts[i] + 8]
            if ts == before:
                break
        if margin(pairs) <= 0:
            continue
        h = Moebius(0, 1, 1, -m)  # z -> 1/(z - m), exactly
        triples = [KoebeTriple(h.apply(t.alpha), h.apply(t.alpha_prime), t.beta,
                               t.approximate) for t in pt.triples]
        lambdas = [Fraction(4) ** t for t in ts]
        try:
            fig = ford_figure_from_triples(pt.place, triples, lambdas)
        except (DiscsNotDisjoint, FigureInvariantError, GeneratorFixesInfinity):
            continue
        return replace(fig, point=pt)
    return None


# -- Nielsen-search membership ------------------------------------------------


@dataclass
class SchottkyResult:
    status: str  # "yes" | "no" | "unknown"
    tau: Optional[object] = None  # NielsenWord
    figure: Optional[SchottkyFigure] = None


def is_schottky(pt: SchottkyPoint, nielsen_depth: int = 2,
                root: Optional[SBResult] = None) -> SchottkyResult:
    """Search for a basis change putting the point into the good locus.

    Breadth-first over words of up to ``nielsen_depth`` letters, skipping
    points seen before; the first point `is_in_SB` certifies is the answer.
    ``root`` is `is_in_SB(pt)` when the caller already has it.
    Only exact points are built (`outer.exact_step`): every image of an
    approximate point is approximate, and none would be tested.  At a
    non-archimedean place a letter that permutes and inverts generators
    keeps the SB status (the inequalities run over all i, j, k), so its
    images of a "no" are not tested, nor built on the last level.
    """
    from . import outer

    letters = outer.nielsen_letters(pt.g)
    keeps_status = {s for s in letters if pt.place.is_nonarchimedean and all(
        len(w) == 1 for w in outer.letter_images(s, pt.g).values())}
    queue = [(outer.NielsenWord(()), pt, False)]
    seen = {pt.canonical_key()}
    idx = 0
    while idx < len(queue):
        word, cur, known_no = queue[idx]
        idx += 1
        if not (known_no or cur.approximate):
            res = root if root is not None and not word else is_in_SB(cur)
            if res.status == "yes":
                return SchottkyResult("yes", tau=word, figure=res.figure)
        if len(word) >= nielsen_depth:
            continue
        for s in letters:
            if s in keeps_status and len(word) + 1 == nielsen_depth:
                continue
            nxt = outer.exact_step(s, cur)
            if nxt is None or nxt.canonical_key() in seen:
                continue
            seen.add(nxt.canonical_key())
            queue.append((outer.NielsenWord(word.letters + (s,)), nxt,
                          s in keeps_status))
    return SchottkyResult("unknown")


# ---------------------------------------------------------------------------
# Word discs and limit sets
# ---------------------------------------------------------------------------


def word_disc(fig: SchottkyFigure, w: ReducedWord) -> Disc:
    """B+(w): the prefix of w applied to the last letter's disc."""
    if not w:
        raise ValueError("word must be non-empty")
    d = fig.disc_for_letter(w.letters[-1])
    for letter in reversed(w.letters[:-1]):
        d = image_of_disc(fig.place, fig.gen(letter), d)
    return d


def spherical_radius(place: Place, d: Disc) -> AbsValue:
    """Chart-independent disc size, computed in the disc's own chart.

    Non-archimedean: radius / max(1, |center|)^2, exact.  Archimedean: the
    geodesic radius atan(|c| + r) - atan(|c| - r) of the spherical cap, which
    shrinks under inclusion.  z -> 1/z is an isometry of the sphere."""
    if place.is_archimedean:
        c, r = abs(d.center.to_complex()), d.radius.to_float()
        return ApproxReal(math.atan(c + r) - math.atan(c - r))
    ac = abs_value(place, d.center)
    denom = ac if ac > ONE_ABS else ONE_ABS
    return d.radius / (denom * denom)


@dataclass
class LimitSample:
    figure: SchottkyFigure
    depth: int
    levels: dict[int, list[tuple[ReducedWord, Disc]]]
    decay_R: AbsValue
    decay_c: AbsValue

    @property
    def discs(self) -> list[tuple[ReducedWord, Disc]]:
        return self.levels[self.depth]

    def size(self, d: Disc) -> AbsValue:
        return spherical_radius(self.figure.place, d)


def _disc_count(g: int, depth: int) -> int:
    return sum(2 * g * (2 * g - 1) ** (n - 1) for n in range(1, depth + 1))


def limit_sample(fig: SchottkyFigure, depth: int,
                 budget: int = 10 ** 6) -> LimitSample:
    """Enumerate B+(w) for all reduced words up to the given depth.

    Level n comes from level n - 1 one generator at a time, B+(x u) =
    g_x(B+(u)), with no Moebius products; at a p-adic place on the integer
    disc kernel of `moebius`.  Words run in lexicographic order (letters
    1..g, -1..-g).  B+(w) must lie in B+(w[:-1]), or FigureInvariantError
    names w.  Fits the radius decay pair (R = max generator-disc radius,
    c = max depth-2 contraction).
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    g = fig.g
    if _disc_count(g, depth) > budget:
        raise BudgetExceeded(
            f"{_disc_count(g, depth)} discs exceed budget {budget}")
    alphabet = [i for i in range(1, g + 1)] + [-i for i in range(1, g + 1)]
    gens = [fig.gen(x) for x in alphabet]
    first = [fig.disc_for_letter(x) for x in alphabet]
    if fig.place.is_archimedean:
        image, nested = partial(image_of_disc, fig.place), partial(disc_subset, fig.place)
        as_disc = None
    else:  # integers in the unit of the figure's radii
        balls = _Balls(fig.place, *(d.radius for d in first))
        gens, first = [balls.matrix(f) for f in gens], [balls.ball(d) for d in first]
        image, nested, as_disc = balls.image, balls.subset, balls.disc
    gens = dict(zip(alphabet, gens))
    walk = [list(zip([(x,) for x in alphabet], first))]
    for _ in range(1, depth):
        by_word, level = dict(walk[-1]), []
        for v, parent in walk[-1]:
            for y in alphabet:
                if y == -v[-1]:
                    continue
                w = v + (y,)
                d = image(gens[w[0]], by_word[w[1:]])
                if nested(d, parent) is not True:
                    raise FigureInvariantError(
                        f"word disc not nested inside its prefix at {w}", w)
                level.append((w, d))
        walk.append(level)
    levels = {n: [(ReducedWord._of(w), as_disc(d) if as_disc else d) for w, d in level]
              for n, level in enumerate(walk, start=1)}

    # Radius decay is fitted in spherical size, which is chart-independent:
    # there may be no rational chart in which every disc avoids infinity.
    by_word = {w.letters: spherical_radius(fig.place, d) for w, d in levels[1]}
    radius_R = max(by_word.values())
    if depth >= 2 and levels.get(2):
        decay_c = max(spherical_radius(fig.place, d) / by_word[w.letters[:1]]
                      for w, d in levels[2])
    else:
        decay_c = abs_value(fig.place, fig.point.triples[0].beta) \
            if fig.point is not None else ApproxReal(0.5)
    return LimitSample(fig, depth, levels, radius_R, decay_c)


def fundamental_domain_report(fig: SchottkyFigure) -> dict:
    """Boundary discs, identifications and genus of the quotient curve."""
    from .serialize import disc_to_json
    return {
        "genus": fig.g,
        "witness": fig.witness,
        "boundary_discs": [
            {"generator": i, "sign": sign, "disc": disc_to_json(fig.place, d)}
            for i, sign, d in fig.all_discs()
        ],
        "identifications": [
            {"generator": i,
             "from": {"generator": i, "sign": -1},
             "to": {"generator": i, "sign": +1}}
            for i in range(1, fig.g + 1)
        ],
    }


def evaluate_word(fig_or_pt, w: ReducedWord) -> Moebius:
    """Product of generator matrices along the word."""
    if isinstance(fig_or_pt, SchottkyFigure):
        gens = fig_or_pt.generators
    else:
        gens = fig_or_pt.generators()
    m = IDENTITY
    for letter in w:
        gi = gens[abs(letter) - 1]
        m = m * (gi if letter > 0 else gi.inverse())
    return m
