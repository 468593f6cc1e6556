"""Metric trees and graphs attached to non-archimedean Schottky figures.

The boundary discs of a validated figure have Shilov boundary points
eta_{a,r}, which live in the tree of discs of the projective line.  Their
convex hull is a finite metric tree with exact rational edge lengths,
built on normalized radii p^(-q); the place exponent eps enters only as
the unit of a `MetricLength`, q eps ln p.  Gluing the leaf for gamma_i
with the leaf for gamma_i^{-1} produces the canonical Betti-g metric
graph of the quotient curve, whose translation lengths are read off the
tree.  Everything here is exact -- floats appear only in to_float().
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from .exactnum import GaussianRational, padic_valuation
from .moebius import (Disc, NotLoxodromic, _ball_dist, _ratio, disc_shape,
                      multiplier_valuation)
from .places import AbsValue, ExactValue, Place, abs_value
from .figures import (
    ReducedWord,
    SchottkyFigure,
    SchottkyPoint,
    conjugacy_classes_upto,
    evaluate_word,
    is_schottky,
)


class ArchimedeanUnsupported(ValueError):
    """Skeletons only exist over non-archimedean places."""


class ChartMismatch(ValueError):
    pass


def _require_padic(place: Place) -> None:
    if place.is_archimedean:
        raise ArchimedeanUnsupported(
            "metric skeletons require a non-archimedean place")
    if place.kind != "padic":
        raise ArchimedeanUnsupported(
            "a trivially-valued place has no metric skeleton")


# ---------------------------------------------------------------------------
# Exact lengths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricLength:
    """An exact length q in units eps*ln(p), i.e. q * eps * ln p."""

    q: Fraction
    p: int
    eps: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", Fraction(self.q))
        object.__setattr__(self, "eps", Fraction(self.eps))
        if self.q < 0:
            raise ValueError("lengths are nonnegative")

    def _check(self, other: "MetricLength") -> None:
        if (self.p, self.eps) != (other.p, other.eps):
            raise ValueError("lengths carry different units")

    def __add__(self, other: "MetricLength") -> "MetricLength":
        self._check(other)
        return MetricLength(self.q + other.q, self.p, self.eps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MetricLength):
            return NotImplemented
        self._check(other)
        return self.q == other.q

    def __lt__(self, other: "MetricLength") -> bool:
        self._check(other)
        return self.q < other.q

    def __le__(self, other: "MetricLength") -> bool:
        self._check(other)
        return self.q <= other.q

    def __hash__(self):
        return hash((self.q, self.p, self.eps))

    def to_float(self) -> float:
        return float(self.q) * float(self.eps) * math.log(self.p)

    def __repr__(self):
        return f"len({self.q} * {self.eps}*ln{self.p})"


def zero_length(place: Place) -> MetricLength:
    return MetricLength(Fraction(0), place.p, place.eps)


# ---------------------------------------------------------------------------
# Shilov points and joins
# ---------------------------------------------------------------------------


def shilov_join(place: Place, d1: Disc, d2: Disc) -> Disc:
    """The smallest disc containing both: D+(a, max(r, s, |a-b|)).

    Its boundary point is the join of the two Shilov points in the tree
    of discs.  Both inputs must be standard-chart discs.
    """
    _require_padic(place)
    if d1.chart != "std" or d2.chart != "std":
        raise ChartMismatch("shilov_join expects standard-chart discs")
    return Disc(d1.center, max(d1.radius, d2.radius,
                               abs_value(place, d1.center - d2.center)))


# ---------------------------------------------------------------------------
# The convex-hull tree
# ---------------------------------------------------------------------------


@dataclass
class TreeNode:
    id: int
    center: GaussianRational
    radius: AbsValue
    q: Fraction
    labels: list[tuple[int, int]] = field(default_factory=list)
    parent: Optional[int] = None
    edge_length: Optional[MetricLength] = None  # to the parent
    children: list[int] = field(default_factory=list)


@dataclass
class MetricTree:
    place: Place
    nodes: dict[int, TreeNode]
    root: int
    leaf_of: dict[tuple[int, int], int]
    unit: int  # every node's q lies in (1/unit)Z

    def edges(self) -> list[tuple[int, int, MetricLength]]:
        return [(n.parent, n.id, n.edge_length)
                for n in self.nodes.values() if n.parent is not None]

    def _path_to_root(self, nid: int) -> list[int]:
        path = [nid]
        while self.nodes[path[-1]].parent is not None:
            path.append(self.nodes[path[-1]].parent)
        return path

    def path_edges(self, a: int, b: int) -> list[int]:
        """Ids of the child endpoints of the edges on the tree path a..b."""
        pa, pb = set(self._path_to_root(a)), set(self._path_to_root(b))
        return [n for n in pa.symmetric_difference(pb)]

    def distance(self, la: tuple[int, int], lb: tuple[int, int]) -> MetricLength:
        a, b = self.leaf_of[la], self.leaf_of[lb]
        total = zero_length(self.place)
        for n in self.path_edges(a, b):
            total = total + self.nodes[n].edge_length
        return total

    def translation_lengths(self, words: Iterable[ReducedWord]
                            ) -> list[MetricLength]:
        """The translation length of each word, read off the tree.

        The axis of a cyclically reduced w = x_1...x_n crosses one
        translate of the hull per letter, from the leaf of x_k^-1 to the
        leaf of x_{k+1}: l(w) = sum_k d_T(leaf(x_k, -), leaf(x_{k+1}, +)),
        indices mod n, with leaf(x, s) the label (|x|, s*sign x).  Other
        words are cyclically reduced first, as l is a class function.
        One (2g)^2 table of leaf distances, integers in units of 1/unit,
        serves every word; the matrix `translation_length` is the check.
        """
        leaf = {i * s: (i, s) for i, s in self.leaf_of}
        table = {(x, y): int(self.distance(leaf[-x], leaf[y]).q * self.unit)
                 for x in leaf for y in leaf}
        out = []
        for w in words:
            ls = w.cyclic_reduce().letters
            k = sum(table[x, y] for x, y in zip(ls, ls[1:] + ls[:1]))
            out.append(MetricLength(Fraction(k, self.unit), self.place.p,
                                    self.place.eps))
        return out


def build_tree(fig: SchottkyFigure) -> MetricTree:
    """Convex hull of the 2g boundary Shilov points, as a rooted tree.

    Nodes are discs eta_{a,r} ordered by containment; the parent of a
    node is its least strict container, and an edge measures the drop
    in log-radius.  Labels (i, sign) mark where B+(gamma_i^sign) sits.

    It runs on integer depths: p^(-q) has depth q U, with the unit U
    clearing the denominators of the leaves' q, and |a - b| has depth
    v_p(a - b) U.  A disc of depth k about a holds b iff |a - b| has depth
    >= k, and a join is the least of three depths.
    """
    place = fig.place
    _require_padic(place)
    p = place.p

    labels, centres, qs = [], [], []
    for i, sign, d in fig.all_discs():
        # A codisc P^1 - B(m, s) has the same boundary point eta_{m,s}
        # as the closed ball B[m, s]: no chart change is needed.
        _kind, c, r = disc_shape(place, d)
        if not isinstance(r, ExactValue):
            raise ArchimedeanUnsupported("exact radii required")
        qs.append(r.log_exponent(p))  # ValueError unless r is p^e
        labels.append((i, sign))
        centres.append(c)
    unit = math.lcm(*(q.denominator for q in qs))
    depth = [int(q * unit) for q in qs]

    def of(x: int):  # the depth of |x|
        return padic_valuation(x, p) * unit if x else math.inf

    ratios = [_ratio(c) for c in centres]
    apart = {(a, b): _ball_dist(of, ca, cb)
             for (a, ca), (b, cb) in itertools.product(enumerate(ratios), repeat=2)}

    # Leaves plus all pairwise joins; joins of joins add nothing new.
    points: list[list] = []  # [centre index, depth, labels]
    for a, k, label in [(a, depth[a], lab) for a, lab in enumerate(labels)] + [
            (a, min(depth[a], depth[b], apart[a, b]), None)
            for a, b in itertools.combinations(range(len(centres)), 2)]:
        home = next((pt for pt in points if pt[1] == k and apart[a, pt[0]] >= k),
                    None)
        if home is None:
            points.append(home := [a, k, []])
        home[2] += [label] if label else []

    points.sort(key=lambda pt: pt[1])  # radius descending, stable
    nodes: dict[int, TreeNode] = {}
    for nid, (a, k, plabels) in enumerate(points):
        q = Fraction(k, unit)
        n = nodes[nid] = TreeNode(nid, centres[a], ExactValue(p, -q), q, labels=plabels)
        # Parent = the smallest node strictly containing this one.
        holders = [m for m in range(nid) if points[m][1] < k
                   and apart[a, points[m][0]] >= points[m][1]]
        if holders:
            n.parent = max(holders, key=lambda m: points[m][1])
            n.edge_length = MetricLength(n.q - nodes[n.parent].q, p, place.eps)
            nodes[n.parent].children.append(nid)

    roots = [n.id for n in nodes.values() if n.parent is None]
    if len(roots) != 1:
        raise ValueError("boundary points do not span a connected tree")
    leaf_of = {lab: n.id for n in nodes.values() for lab in n.labels}
    return MetricTree(place, nodes, roots[0], leaf_of, unit)


# ---------------------------------------------------------------------------
# Gluing into the quotient graph
# ---------------------------------------------------------------------------


@dataclass
class MetricGraph:
    place: Place
    vertices: list[int]
    edges: dict[int, tuple[int, int, MetricLength]]
    betti: int
    cycle_basis: list[tuple[int, list[int]]]  # (generator index, edge ids)
    glued_vertex: dict[int, int]

    def degree(self, v: int) -> int:
        return sum((u == v) + (w == v) for u, w, _ in self.edges.values())

    def cycle_length(self, gen: int) -> MetricLength:
        for g, eids in self.cycle_basis:
            if g == gen:
                total = zero_length(self.place)
                for e in eids:
                    total = total + self.edges[e][2]
                return total
        raise KeyError(f"no cycle for generator {gen}")

    def canonical_form(self) -> tuple:
        """A relabelling-invariant description, for equality of graphs.

        The vertex set is tiny (at most 2g - 2), so the form is the
        lexicographic minimum over all vertex relabellings of the sorted
        edge multisets, per generator cycle and for the whole graph.
        """
        verts = sorted({w for u, v, _ in self.edges.values()
                        for w in (u, v)} | set(self.vertices))

        def describe(rename):
            def edge(e):
                u, v, l = self.edges[e]
                a, b = sorted((rename[u], rename[v]))
                return (a, b, l.q)

            cycles = tuple((g, tuple(sorted(edge(e) for e in eids)))
                           for g, eids in sorted(self.cycle_basis))
            rest = tuple(sorted(edge(e) for e in self.edges))
            return (cycles, rest)

        return min(describe({v: perm[i] for i, v in enumerate(verts)})
                   for perm in itertools.permutations(range(len(verts))))


def glue_skeleton(tree: MetricTree) -> MetricGraph:
    """Identify leaf (i,+) with leaf (i,-), then suppress degree-2 vertices.

    Suppressing a vertex whose two incident edges are distinct merges
    them into one edge of summed length; a vertex carrying only a loop
    stays (it is the whole cycle when g = 1).
    """
    labels = sorted(tree.leaf_of)
    gens = sorted({abs(i) for i, _ in labels})

    # Union-find over tree nodes.
    rep = {n: n for n in tree.nodes}

    def find(x: int) -> int:
        while rep[x] != x:
            rep[x] = rep[rep[x]]
            x = rep[x]
        return x

    glued_vertex = {}
    for i in gens:
        a, b = find(tree.leaf_of[(i, 1)]), find(tree.leaf_of[(i, -1)])
        rep[a] = b
        glued_vertex[i] = b

    edges: dict[int, tuple[int, int, MetricLength]] = {}
    for parent, child, length in tree.edges():
        edges[child] = (find(parent), find(child), length)

    cycles = {i: set(tree.path_edges(tree.leaf_of[(i, 1)],
                                     tree.leaf_of[(i, -1)]))
              for i in gens}

    # Degree-2 suppression.
    changed = True
    next_id = max(edges, default=0) + 1
    while changed:
        changed = False
        incident: dict[int, list[int]] = {}
        for eid, (u, v, _) in edges.items():
            incident.setdefault(u, []).append(eid)
            incident.setdefault(v, []).append(eid)
        for v, eids in incident.items():
            if len(eids) != 2 or eids[0] == eids[1]:
                continue
            e1, e2 = eids
            u1, v1, l1 = edges[e1]
            u2, v2, l2 = edges[e2]
            if u1 == v1 or u2 == v2:
                continue  # loop at v: degree 2 but nothing to merge
            a = u1 if v1 == v else v1
            b = u2 if v2 == v else v2
            del edges[e1], edges[e2]
            edges[next_id] = (a, b, l1 + l2)
            for cyc in cycles.values():
                if e1 in cyc or e2 in cyc:
                    cyc.discard(e1)
                    cyc.discard(e2)
                    cyc.add(next_id)
            next_id += 1
            changed = True
            break

    vertices = sorted({w for u, v, _ in edges.values() for w in (u, v)})
    if not vertices:  # degenerate: a single glued point, no edges
        vertices = [find(tree.root)]
    betti = len(edges) - len(vertices) + 1
    if betti != len(gens):
        raise ValueError(
            f"glued graph has Betti number {betti}, expected {len(gens)}")
    glued_vertex = {i: find(v) for i, v in glued_vertex.items()}
    basis = [(i, sorted(cycles[i])) for i in gens]
    return MetricGraph(tree.place, vertices, edges, betti, basis, glued_vertex)


# ---------------------------------------------------------------------------
# Translation lengths and the outer-space datum
# ---------------------------------------------------------------------------


def translation_length(pt: SchottkyPoint, w: ReducedWord) -> MetricLength:
    """Displacement of the word's matrix on the tree: -log of |multiplier|.

    Exact: |beta| = p^(-q) with q the `multiplier_valuation` of the
    word's matrix.  Works for any p-adic point and nonempty word; the
    check of the tree lengths.
    """
    place = pt.place
    _require_padic(place)
    if not len(w):
        raise ValueError("the empty word has no translation length")
    q = multiplier_valuation(place, evaluate_word(pt, w))
    if q <= 0:
        raise NotLoxodromic(f"word {w!r} evaluates to a non-loxodromic matrix")
    return MetricLength(Fraction(q), place.p, place.eps)


def cv_datum(pt: SchottkyPoint, max_len: int):
    """Marked metric graph plus translation lengths of short conjugacy classes.

    Returns (MetricGraph, [(representative word, MetricLength), ...]) with
    one cyclically-reduced representative per conjugacy class of length
    <= max_len (see `conjugacy_classes_upto`).  Both are read off the tree
    of the certified figure, so words are in the basis the search found.
    """
    res = is_schottky(pt)
    if res.status != "yes":
        raise ValueError(f"point is not certified Schottky: {res.status}")
    tree = build_tree(res.figure)
    words = conjugacy_classes_upto(pt.g, max_len)
    return glue_skeleton(tree), list(zip(words, tree.translation_lengths(words)))
