"""Span tracing around calls into the library, installed for traced runs only.

Wrappers replace each traced function in every ``schottky.*`` module
namespace that holds it (the modules bind names with ``from .x import y``)
and each traced method on its class.  A wrapper records a span: name id,
start, end, parent span and operation id, in flat arrays kept in memory.
Spans are recorded only while an operation is open, so answer checks,
which call the library too, leave no spans.  ``uninstall`` puts every
original back.

A span's self time is its duration minus the durations of its child
spans; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

# layer -> (module, [function names]) or (module, {class: [method names]})
FUNCTIONS = {
    "exactnum.factorize": ("schottky.exactnum", ["factorize"]),
    "places.abs_value": ("schottky.places", ["abs_value"]),
    "moebius.image_of_disc": ("schottky.moebius", ["image_of_disc"]),
    "moebius.disc_predicates": ("schottky.moebius",
                                ["discs_disjoint", "disc_subset", "discs_equal"]),
    "moebius.cross_ratio": ("schottky.moebius", ["cross_ratio"]),
    "moebius.matrix_to_koebe": ("schottky.moebius", ["matrix_to_koebe"]),
    "figures.is_in_SB": ("schottky.figures", ["is_in_SB"]),
    "figures.normalized_figure": ("schottky.figures", ["normalized_figure"]),
    "figures.validate_figure": ("schottky.figures", ["validate_figure"]),
    "figures.ford_figure": ("schottky.figures", ["ford_figure_from_triples"]),
    "figures.is_schottky": ("schottky.figures", ["is_schottky"]),
    "figures.limit_sample": ("schottky.figures", ["limit_sample"]),
    "skeleton.build_tree": ("schottky.skeleton", ["build_tree"]),
    "skeleton.glue_skeleton": ("schottky.skeleton", ["glue_skeleton"]),
    "skeleton.translation_length": ("schottky.skeleton", ["translation_length"]),
    "outer.nielsen_apply": ("schottky.outer", ["nielsen_apply"]),
    "serialize.point_from_json": ("schottky.serialize", ["point_from_json"]),
    "serialize.encode": ("schottky.serialize", None),  # every *_to_json, dumps
    "cli.main": ("schottky.cli", ["main"]),
}

_ARITH = ["__add__", "__radd__", "__sub__", "__rsub__",
          "__mul__", "__rmul__", "__truediv__", "__rtruediv__"]
_VALUE_ARITH = ["__mul__", "__rmul__", "__truediv__", "__pow__", "sqrt"]

METHODS = {
    "exactnum.gq_arith": ("schottky.exactnum", {"GaussianRational": _ARITH}),
    "places.compare": ("schottky.places", {
        "ExactValue": ["cmp"], "ApproxReal": ["cmp"], "ExactZero": ["cmp"]}),
    "places.value_arith": ("schottky.places", {
        "ExactValue": _VALUE_ARITH, "ApproxReal": _VALUE_ARITH,
        "ExactZero": ["__mul__", "__rmul__", "__truediv__"]}),
    "moebius.product": ("schottky.moebius", {"Moebius": ["__mul__"]}),
}

# Layers reported as <layer>.calls and <layer>.self_ms.
LAYERS = [
    "exactnum.gq_arith", "exactnum.factorize",
    "places.abs_value", "places.compare", "places.value_arith",
    "moebius.product", "moebius.image_of_disc", "moebius.disc_predicates",
    "moebius.cross_ratio", "moebius.matrix_to_koebe",
    "figures.is_in_SB", "figures.normalized_figure", "figures.validate_figure",
    "figures.ford_figure", "figures.is_schottky", "figures.limit_sample",
    "skeleton.build_tree", "skeleton.glue_skeleton",
    "skeleton.translation_length",
    "outer.nielsen_apply", "serialize.point_from_json", "serialize.encode",
]


def _encode_names(module) -> list[str]:
    return sorted(n for n in vars(module)
                  if n.endswith("_to_json") or n == "dumps")


class Tracer:
    """Records spans of library calls made inside operations."""

    def __init__(self):
        self.names: list[str] = ["op"]
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.op_id = -1
        self.active = False
        self.outcomes = {"figures.is_in_SB": 0, "figures.is_schottky": 0,
                         "moebius.disc_predicates": 0,
                         "outer.nielsen_apply": 0, "figures.limit_sample": 0,
                         "serialize.bytes_out": 0}
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(i)
        return i

    def begin_op(self, k: int) -> None:
        self.op_id = k
        self.active = True
        self._op_span = self._open(0)
        self.start[self._op_span] = perf_counter()

    def end_op(self) -> None:
        self.end[self._op_span] = perf_counter()
        self.stack.pop()
        self.active = False

    def _wrap(self, fn, layer: str, observe=None):
        if layer not in self.names:
            self.names.append(layer)
        nid = self.names.index(layer)
        tr = self
        start, end, stack = self.start, self.end, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            i = tr._open(nid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                start[i] = t0
                stack.pop()
            if observe is not None:
                observe(out)
            return out
        return wrapper

    # -- outcome counters --------------------------------------------------------

    def _observer(self, layer: str, fname: str):
        out = self.outcomes
        if layer in ("figures.is_in_SB", "figures.is_schottky"):
            def obs(res):
                out[layer] += res.status == "yes"
        elif layer == "moebius.disc_predicates":
            def obs(res):
                out[layer] += res is not None
        elif layer == "outer.nielsen_apply":
            def obs(res):
                out[layer] += bool(res.approximate)
        elif layer == "figures.limit_sample":
            def obs(res):
                out[layer] += sum(len(v) for v in res.levels.values())
        elif fname == "dumps":
            def obs(res):
                out["serialize.bytes_out"] += len(res.encode())
        else:
            return None
        return obs

    # -- install / uninstall -------------------------------------------------------

    def install(self) -> None:
        mods = [m for n, m in sys.modules.items()
                if m is not None and (n == "schottky" or n.startswith("schottky."))]
        for layer, (modname, fnames) in FUNCTIONS.items():
            home = sys.modules[modname]
            for fname in fnames if fnames is not None else _encode_names(home):
                orig = getattr(home, fname)
                wrapped = self._wrap(orig, layer, self._observer(layer, fname))
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._undo.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)
        for layer, (modname, classes) in METHODS.items():
            home = sys.modules[modname]
            for cname, methods in classes.items():
                cls = getattr(home, cname)
                for meth in methods:
                    orig = cls.__dict__[meth]
                    self._undo.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(orig, layer))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- results --------------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Spans as a JSON header line followed by the five raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "count": len(self.name),
                  "arrays": ["start:d", "end:d", "name:i", "parent:i", "op:i"]}
        with open(path, "wb") as f:
            f.write((json.dumps(header) + "\n").encode())
            for arr in (self.start, self.end, self.name, self.parent, self.op):
                arr.tofile(f)

    def layer_metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-operation calls, self time and outcome ratios of every layer."""
        n = len(self.name)
        child = [0.0] * n
        start, end, parent, name = self.start, self.end, self.parent, self.name
        for i in range(n):
            par = parent[i]
            if par >= 0:
                child[par] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        total_s = [0.0] * len(self.names)
        for i in range(n):
            d = end[i] - start[i]
            nid = name[i]
            calls[nid] += 1
            total_s[nid] += d
            self_s[nid] += d - child[i]
        per = max(n_ops, 1)

        def by(layer):
            return self.names.index(layer) if layer in self.names else None

        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS + ["cli.main"]:
            nid = by(layer)
            c = calls[nid] if nid is not None else 0
            s = self_s[nid] if nid is not None else 0.0
            if layer != "cli.main":
                out[f"{layer}.calls"] = (c / per, "count/op")
            out[f"{layer}.self_ms"] = (s * 1000 / per, "ms/op")
            if layer == "figures.is_in_SB":
                t = total_s[nid] if nid is not None else 0.0
                out[f"{layer}.total_ms"] = (t * 1000 / per, "ms/op")
            ratio_name = {"figures.is_in_SB": "yes_ratio",
                          "figures.is_schottky": "yes_ratio",
                          "moebius.disc_predicates": "decided_ratio",
                          "outer.nielsen_apply": "approximate_ratio"}.get(layer)
            if ratio_name:
                out[f"{layer}.{ratio_name}"] = (
                    self.outcomes[layer] / c if c else 0.0, "ratio")
        out["figures.limit_sample.discs"] = (
            self.outcomes["figures.limit_sample"] / per, "count/op")
        out["serialize.bytes_out"] = (
            self.outcomes["serialize.bytes_out"] / per, "B/op")
        return out
