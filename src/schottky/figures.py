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

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .exactnum import ZERO, GaussianRational, Rat, as_gaussian
from .moebius import (
    Disc,
    IDENTITY,
    INF,
    KoebeTriple,
    Moebius,
    ProjPoint,
    disc_shape,
    disc_subset,
    discs_disjoint,
    image_of_disc,
    koebe_to_matrix,
)
from .places import (
    AbsValue,
    ApproxReal,
    ExactValue,
    ONE_ABS,
    Place,
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
    """Mapping property of a candidate figure fails."""


class BudgetExceeded(RuntimeError):
    """Word enumeration would exceed the configured disc budget."""


# ---------------------------------------------------------------------------
# Reduced words
# ---------------------------------------------------------------------------


class ReducedWord:
    """A reduced word in the free group, letters i (generator) / -i (inverse)."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[int] = ()):
        letters = tuple(int(x) for x in letters)
        for x in letters:
            if x == 0:
                raise ValueError("letters are nonzero signed generator indices")
        for a, b in zip(letters, letters[1:]):
            if a == -b:
                raise ValueError(f"word {letters} is not reduced")
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("ReducedWord is immutable")

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
        w = self.cyclic_reduce().letters
        if not w:
            return ReducedWord(())
        rotations = [w[k:] + w[:k] for k in range(len(w))]
        return ReducedWord(min(rotations))

    def __repr__(self):
        return "w(" + ",".join(map(str, self.letters)) + ")"


def reduced_words(g: int, length: int) -> Iterator[ReducedWord]:
    """All reduced words of exactly the given length."""
    alphabet = [i for i in range(1, g + 1)] + [-i for i in range(1, g + 1)]

    def rec(acc: list[int], n: int):
        if n == 0:
            yield ReducedWord(acc)
            return
        for x in alphabet:
            if not acc or acc[-1] != -x:
                acc.append(x)
                yield from rec(acc, n - 1)
                acc.pop()

    yield from rec([], length)


def reduced_words_upto(g: int, length: int) -> Iterator[ReducedWord]:
    for n in range(1, length + 1):
        yield from reduced_words(g, n)


def conjugacy_classes_upto(g: int, length: int) -> list[ReducedWord]:
    """One cyclically-reduced representative per conjugacy class, |w| <= length."""
    seen: set[tuple[int, ...]] = set()
    out: list[ReducedWord] = []
    for w in reduced_words_upto(g, length):
        rep = w.conjugacy_representative()
        if rep.letters and rep.letters not in seen:
            seen.add(rep.letters)
            out.append(rep)
    return out


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

    def disc(self, i: int, eps: int) -> Disc:
        """B+(gamma_i^eps), i one-based."""
        return (self.plus_discs if eps > 0 else self.minus_discs)[i - 1]

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


def _same_shilov(place: Place, d1: Disc, d2: Disc) -> bool:
    """Same boundary (Shilov) data: same shape kind, radius, center class."""
    s1, s2 = disc_shape(place, d1), disc_shape(place, d2)
    if s1[0] != s2[0]:
        return False
    _, a, ra = s1
    _, b, rb = s2
    dist = abs_value(place, a - b)
    if place.is_nonarchimedean:
        return ra == rb and dist <= ra
    tol = 1e-9 * (ra.to_float() + rb.to_float())  # relative to the radii
    return abs(ra.to_float() - rb.to_float()) <= tol and dist.to_float() <= tol


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
    if not _same_shilov(place, image, target):
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
        if m.c.is_zero():
            raise GeneratorFixesInfinity(
                "ford discs need every generator to move infinity")
        absdet = abs_value(place, m.det())
        absc = abs_value(place, m.c)
        if place.is_nonarchimedean:
            lam_v: AbsValue = ExactValue.from_rational(lam)
        else:
            lam_v = ApproxReal(float(lam))
        rho = (lam_v * absdet).sqrt() / absc
        gens.append(m)
        # gamma sends the complement of the disc around its pole -d/c to
        # a disc around gamma(infinity) = a/c, so the latter is B+(gamma).
        plus.append(Disc(m.a / m.c, rho / lam_v))
        minus.append(Disc(-m.d / m.c, rho))
    fig = SchottkyFigure(place, tuple(gens), tuple(plus), tuple(minus),
                         witness="ford(" + ",".join(str(Fraction(x)) for x in lambdas) + ")")
    return validate_figure(fig)


def ford_figure(pt: SchottkyPoint, lambdas: Sequence[Rat]) -> SchottkyFigure:
    return replace(ford_figure_from_triples(pt.place, pt.triples, lambdas),
                   point=pt)


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
    the default radius is the exact log-midpoint (geometric mean).
    Raises NotInSB at the first empty window.  Requires a
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
        pinned.append((t, phi, absb, sb_window(i, absb, others)))
    gens, plus, minus, chosen = [], [], [], []
    for i, (t, phi, absb, (lo, hi)) in enumerate(pinned, start=1):
        if radii is None:
            r = (lo * hi).sqrt()
        else:
            r = radii[i - 1]
            if isinstance(r, (int, Fraction)):
                r = ExactValue.from_rational(Fraction(r))
            if not (lo < r < hi):
                raise RadiiOutOfWindow(f"radius {r} outside window ({lo},{hi})")
        chosen.append(r)
        phi_inv = phi.inverse()
        plus.append(image_of_disc(pt.place, phi_inv, Disc(GaussianRational(0), r)))
        minus.append(image_of_disc(
            pt.place, phi_inv,
            Disc(GaussianRational(0), absb / r, chart="inv")))
        gens.append(koebe_to_matrix(t))
    fig = SchottkyFigure(pt.place, tuple(gens), tuple(plus), tuple(minus),
                         witness="normalized(" + ",".join(map(repr, chosen)) + ")",
                         point=pt)
    return validate_figure(fig)


# -- archimedean search -------------------------------------------------------

def _arch_ford_search(pt: SchottkyPoint) -> Optional[SchottkyFigure]:
    """Coordinate-descent search for disjoint Ford discs, up to conjugation.

    h(z) = 1/(z - m) sends each fixed point alpha to a = 1/(alpha - m)
    (infinity to 0), and the Koebe matrix of (a, a', beta) has c = 1 - beta,
    pole -d/c = (a' - beta a)/c, a/c = (a - beta a')/c, det beta (a - a')^2:
    the exact rationals `koebe_to_matrix` gives, read off in closed form.
    c does not depend on m, so a degenerate c ends the search at once.

    Ford disc i gets lambda_i = 4^t_i, t_i in [-8, 8]; the margin is the
    least d - r - r' over disc pairs.  Sweeping coordinate i, the pairs
    apart from generator i's two discs are scored once, and each t rescores
    only the 4g - 3 pairs touching them (ties go to the larger t).  A sweep
    is a function of the exponents alone, so the sweeps (at most three)
    stop at the first one that changes nothing.

    The float search only proposes lambdas: for a positive margin the exact
    conjugated triples go through `ford_figure_from_triples`, whose
    `validate_figure` decides whether the figure is a "yes".
    """
    one = GaussianRational(1)
    cs = [one - t.beta for t in pt.triples]
    if any(c.is_zero() or abs(c.to_complex()) < 1e-12 for c in cs):
        return None
    inv_c, abs_c = [one / c for c in cs], [abs(c.to_complex()) for c in cs]
    fixed = [p for _, _, p in pt.fixed_points()]
    pairs = [(j, k) for j in range(2 * pt.g) for k in range(j + 1, 2 * pt.g)]
    touching = [[q for q in pairs if i in (q[0] // 2, q[1] // 2)]
                for i in range(pt.g)]
    apart = [[q for q in pairs if q not in near] for near in touching]
    for m in (2, 3, -1, 5, -2, 7, -5, 11):
        mc = complex(m)
        if any((not p.is_infinity) and abs(p.value().to_complex() - mc) < 1e-6
               for p in fixed):
            continue
        conj = [[ZERO if p.is_infinity else one / (p.value() - m)
                 for p in (t.alpha, t.alpha_prime)] for t in pt.triples]
        centres, rho = [], []
        for (a, ap), t, ic, ac in zip(conj, pt.triples, inv_c, abs_c):
            b = t.beta
            centres += [((ap - b * a) * ic).to_complex(),
                        ((a - b * ap) * ic).to_complex()]
            rho.append(abs((b * (a - ap) * (a - ap)).to_complex()) ** 0.5 / ac)
        dist = [[abs(x - y) for y in centres] for x in centres]
        r = [x for q in rho for x in (q, q)]  # every t_i = 0

        def place_discs(i: int, t_exp: int) -> None:
            s = 2.0 ** t_exp  # sqrt(lambda) for lambda = 4^t
            r[2 * i], r[2 * i + 1] = rho[i] * s, rho[i] / s

        def margin(among, best=float("inf")) -> float:
            return min([best] + [dist[j][k] - r[j] - r[k] for j, k in among])

        ts = [0] * pt.g
        for _ in range(3):  # coordinate-descent sweeps
            before = list(ts)
            for i in range(pt.g):
                rest = margin(apart[i])
                scores = []
                for t in range(-8, 9):
                    place_discs(i, t)
                    scores.append((margin(touching[i], rest), t))
                ts[i] = max(scores)[1]
                place_discs(i, ts[i])
            if ts == before:
                break
        if margin(pairs) <= 0:
            continue
        triples = [KoebeTriple(ProjPoint.finite(a), ProjPoint.finite(ap),
                               t.beta, t.approximate)
                   for (a, ap), t in zip(conj, pt.triples)]
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


def is_schottky(pt: SchottkyPoint, nielsen_depth: int = 2) -> SchottkyResult:
    """Search for a basis change putting the point into the good locus."""
    from . import outer

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
    """Chart-independent disc size: radius / max(1, |center|)^2.

    Computed in the disc's own chart; inversion is an isometry of the
    spherical metric, so this is well defined and lets discs containing
    infinity shrink like any others.  Exact at non-archimedean places.
    """
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

    Shares Moebius prefix products along the depth-first enumeration,
    verifies prefix nesting as it goes, and fits the radius decay pair
    (R = max generator-disc radius, c = max depth-2 contraction).
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    g = fig.g
    if _disc_count(g, depth) > budget:
        raise BudgetExceeded(
            f"{_disc_count(g, depth)} discs exceed budget {budget}")
    alphabet = [i for i in range(1, g + 1)] + [-i for i in range(1, g + 1)]
    levels: dict[int, list[tuple[ReducedWord, Disc]]] = {
        n: [] for n in range(1, depth + 1)}

    def rec(prefix: Moebius, word: tuple[int, ...], parent: Optional[Disc]):
        level = len(word) + 1
        for letter in alphabet:
            if word and word[-1] == -letter:
                continue
            d = image_of_disc(fig.place, prefix, fig.disc_for_letter(letter))
            if parent is not None and disc_subset(fig.place, d, parent) is not True:
                raise FigureInvariantError(
                    f"word disc not nested inside its prefix at {word + (letter,)}")
            levels[level].append((ReducedWord(word + (letter,)), d))
            if level < depth:
                rec(prefix * fig.gen(letter), word + (letter,), d)

    rec(IDENTITY, (), None)

    # Radius decay is fitted in spherical size, which is chart-independent:
    # there may be no rational chart in which every disc avoids infinity.
    def size(d: Disc) -> AbsValue:
        return spherical_radius(fig.place, d)

    radius_R = max(size(d) for _, d in levels[1])
    if depth >= 2 and levels.get(2):
        by_word = {w.letters: size(d) for w, d in levels[1]}
        decay_c = max(size(d) / by_word[w.letters[:1]] for w, d in levels[2])
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
            {"generator": i, "sign": eps, "disc": disc_to_json(fig.place, d)}
            for i, eps, d in fig.all_discs()
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
