"""Basis changes: the outer automorphism action on marked Schottky groups.

A marked group is a SchottkyPoint; changing the free-group basis by one
of the four standard elementary automorphisms (cyclic shift, swap of the
first two letters, inversion of the first letter, left-multiplication
into the second slot) produces a new marked group, which is renormalized
so that the first three reference fixed points are (0, infinity, 1).

Permutations and inversions act exactly on Koebe coordinates; only the
left-multiplication letters need an eigenvector computation and may
return an approximately-known point (flagged as such).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional, Sequence

from .moebius import (
    DegenerateConfiguration,
    INF,
    KoebeTriple,
    Moebius,
    ProjPoint,
    matrix_to_koebe,
    moebius_to_zero_inf_one,
    split_root,
)
from .places import Place
from .figures import ReducedWord, SchottkyPoint, evaluate_word


class DegenerateFixedPoints(DegenerateConfiguration):
    """The three reference fixed points are not pairwise distinct."""


class BadNielsenLetter(ValueError):
    pass


_TOKENS = ("s1", "s2", "s3", "s4")


@dataclass(frozen=True)
class NielsenWord:
    """A sequence of elementary-automorphism letters, applied in order.

    Letters are "s1".."s4", with a trailing "'" marking the inverse.
    """

    letters: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        for s in self.letters:
            base = s[:-1] if s.endswith("'") else s
            if base not in _TOKENS:
                raise BadNielsenLetter(f"unknown letter {s!r}")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)

    def __add__(self, other: "NielsenWord") -> "NielsenWord":
        return NielsenWord(self.letters + other.letters)

    def inverse(self) -> "NielsenWord":
        return NielsenWord(tuple(_invert_letter(s)
                                 for s in reversed(self.letters)))

    def __str__(self) -> str:
        return ",".join(self.letters)

    @staticmethod
    def parse(s: str) -> "NielsenWord":
        s = s.strip()
        return NielsenWord(tuple(t.strip() for t in s.split(",")) if s else ())


def _invert_letter(s: str) -> str:
    if s in ("s2", "s3", "s2'", "s3'"):  # involutions
        return s[:2]
    return s[:-1] if s.endswith("'") else s + "'"


def nielsen_letters(g: int) -> list[str]:
    """The elementary letters that act non-trivially on rank-g points."""
    if g < 1:
        raise ValueError("rank must be positive")
    if g == 1:
        return ["s3"]
    letters = ["s2", "s3", "s4", "s4'"]
    if g > 2:
        letters = ["s1", "s1'"] + letters
    return letters


# The substitution each letter performs on the free basis e_1..e_g.
def letter_images(s: str, g: int) -> dict[int, ReducedWord]:
    images = {i: ReducedWord((i,)) for i in range(1, g + 1)}
    base = s[:-1] if s.endswith("'") else s
    inv = s.endswith("'")
    if base == "s1":
        shift = -1 if inv else 1
        images = {i: ReducedWord(((i - 1 + shift) % g + 1,))
                  for i in range(1, g + 1)}
    elif base == "s2":
        if g < 2:
            raise BadNielsenLetter("s2 needs rank >= 2")
        images[1], images[2] = ReducedWord((2,)), ReducedWord((1,))
    elif base == "s3":
        images[1] = ReducedWord((-1,))
    elif base == "s4":
        if g < 2:
            raise BadNielsenLetter("s4 needs rank >= 2")
        images[2] = ReducedWord((1, 2)) if inv else ReducedWord((-1, 2))
    else:  # pragma: no cover
        raise BadNielsenLetter(f"unknown letter {s!r}")
    return images


def substitute(images: dict[int, ReducedWord], w: ReducedWord) -> ReducedWord:
    out = ReducedWord(())
    for letter in w:
        img = images[abs(letter)]
        out = out * (img if letter > 0 else img.inverse())
    return out


def free_action(word: NielsenWord, g: int) -> dict[int, ReducedWord]:
    """Images of e_1..e_g under the automorphism the word realizes.

    Matches apply_word: evaluating e_i at apply_word(word, pt) gives a
    conjugate of evaluating free_action(word, g)[i] at pt.
    """
    acc = {i: ReducedWord((i,)) for i in range(1, g + 1)}
    for s in word:
        imgs = letter_images(s, g)
        acc = {i: substitute(acc, imgs[i]) for i in acc}
    return acc


def act_on_word(word: NielsenWord, w: ReducedWord, g: int) -> ReducedWord:
    return substitute(free_action(word, g), w)


def iota_word() -> NielsenWord:
    """The rank-2 automorphism e_1 -> e_1^{-1}, e_2 -> e_2^{-1}."""
    return NielsenWord(("s3", "s2", "s3", "s2"))


# ---------------------------------------------------------------------------
# Acting on points
# ---------------------------------------------------------------------------


def _invert_triple(t: KoebeTriple) -> KoebeTriple:
    # The inverse map swaps attracting and repelling points and keeps
    # the multiplier (the derivative at its own attracting point).
    return KoebeTriple(t.alpha_prime, t.alpha, t.beta, t.approximate)


def _normalize_triples(place: Place,
                       triples: Sequence[KoebeTriple]) -> SchottkyPoint:
    t1 = triples[0]
    ref = [t1.alpha, t1.alpha_prime] + [t.alpha for t in triples[1:2]]
    for a in range(len(ref)):
        for b in range(a + 1, len(ref)):
            if ref[a] == ref[b]:
                raise DegenerateFixedPoints(
                    "reference fixed points are not distinct")
    if len(triples) == 1:
        # Rank 1 only needs (0, infinity), and conjugation keeps beta.
        return SchottkyPoint(place, (
            replace(t1, alpha=ProjPoint.finite(0), alpha_prime=INF),))
    phi = moebius_to_zero_inf_one(*ref)
    out = [KoebeTriple(phi.apply(t.alpha), phi.apply(t.alpha_prime),
                       t.beta, t.approximate) for t in triples]
    return SchottkyPoint(place, tuple(out))


def normalize_basis(place: Place, basis: Sequence[Moebius],
                    prec: int = 64) -> SchottkyPoint:
    """Koebe coordinates of a marked group given by loxodromic matrices.

    Conjugates by the unique Moebius map sending (attracting_1,
    repelling_1, attracting_2) to (0, infinity, 1).
    """
    triples = [matrix_to_koebe(place, m, prec=prec) for m in basis]
    return _normalize_triples(place, triples)


def _products(s: str, pt: SchottkyPoint) -> dict[int, Moebius]:
    """The matrix of each generator's image under s that is a product."""
    return {i: evaluate_word(pt, w)
            for i, w in letter_images(s, pt.g).items() if len(w) > 1}


def nielsen_apply(s: str, pt: SchottkyPoint, prec: int = 64,
                  products: Optional[dict[int, Moebius]] = None
                  ) -> SchottkyPoint:
    """One elementary letter applied to the marking, then renormalized.

    Permutation and inversion letters act exactly on the stored
    coordinates; the left-multiplication letters need the fixed points
    of a product matrix and may yield an approximate point.  A triple
    computed from a word is approximate when any triple the word reads is.
    ``products`` holds those matrices when the caller has evaluated them.
    """
    if products is None:
        products = _products(s, pt)
    triples = []
    for i, w in letter_images(s, pt.g).items():
        if len(w) == 1:
            t = pt.triples[abs(w.letters[0]) - 1]
            triples.append(t if w.letters[0] > 0 else _invert_triple(t))
        else:
            t = matrix_to_koebe(pt.place, products[i], prec=prec)
            fuzzy = any(pt.triples[abs(x) - 1].approximate for x in w)
            triples.append(replace(t, approximate=True) if fuzzy else t)
    return _normalize_triples(pt.place, triples)


def exact_step(s: str, pt: SchottkyPoint) -> Optional[SchottkyPoint]:
    """nielsen_apply(s, pt) if that point is exact, else None (also when
    the letter raises ValueError).  Exactness is decided first, by
    `split_root` on each product matrix, before any lift or point is built.
    """
    if pt.approximate:
        return None
    products = _products(s, pt)
    if any(split_root(pt.place, m) is None for m in products.values()):
        return None
    try:
        return nielsen_apply(s, pt, products=products)
    except ValueError:
        return None


def apply_word(word: NielsenWord, pt: SchottkyPoint,
               prec: int = 64) -> SchottkyPoint:
    """Apply the letters in reading order.

    Concatenation composes actions: apply_word(u + v, pt) equals
    apply_word(v, apply_word(u, pt)).
    """
    for s in word:
        pt = nielsen_apply(s, pt, prec=prec)
    return pt


def stabilizer_search(pt: SchottkyPoint, bound: int) -> list[NielsenWord]:
    """All words of length <= bound that fix the point exactly.

    Requires exact coordinates (non-archimedean).  Every point an
    approximate one leads to is approximate too, so only exact points
    are built (`exact_step`) rather than compared with tolerances.
    """
    letters = nielsen_letters(pt.g)
    found: list[NielsenWord] = []
    frontier: list[tuple[NielsenWord, SchottkyPoint]] = [(NielsenWord(()), pt)]
    for word, cur in frontier:
        if not cur.approximate and cur.same_point(pt):
            found.append(word)
        if len(word) >= bound:
            continue
        for s in letters:
            nxt = exact_step(s, cur)
            if nxt is not None:
                frontier.append((NielsenWord(word.letters + (s,)), nxt))
    return found
