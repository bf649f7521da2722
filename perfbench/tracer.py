"""Span tracer for the pe2ford layers, applied from outside the package.

Each traced function is replaced at every place it is bound: pe2ford
modules import functions such as ``membership`` or ``is_unimodular``
by name, so every attribute of every loaded ``pe2ford`` module that
*is* the original gets the wrapper, and methods are replaced on their
class.  Spans (layer, parent span, start, end) stay in memory until
``summary`` reduces them; a layer's self time is its span time minus
the time of its child spans.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable

PACKAGE = "pe2ford"


def _count_points(args, kwargs, out, c):
    c["orders.lattice_points_within.points"] += len(out)


def _count_letters(args, kwargs, out, c):
    c["words.word_to_matrix.letters"] += len(args[0] if args else kwargs["word"])


def _count_verdict(args, kwargs, out, c):
    c["words.membership.nodes"] += out.stats.nodes_explored
    c["words.membership." + out.kind] += 1


def _count_hemispheres(args, kwargs, out, c):
    c["arrangement.enumerate_hemispheres.hemispheres"] += len(out.hemispheres)


def _count_completion(args, kwargs, out, c):
    c["arrangement.is_unimodular.useful"] += out is not None


def _count_contributes(args, kwargs, out, c):
    c["arrangement.face_status.contributes"] += type(out).__name__ == "Contributes"


def _count_gap(args, kwargs, out, c):
    c["subgroups.gap_check.useful"] += out is not None


def _count_replaced(args, kwargs, out, c):
    c["subgroups.coset_family.replaced"] += len(out.replaced)


@dataclass(frozen=True)
class Layer:
    name: str  # span name, "<module>.<function>"
    attr: str  # attribute path inside pe2ford.<module>
    counter: Callable | None = None


LAYERS = (
    Layer("orders.lattice_points_within", "lattice_points_within", counter=_count_points),
    Layer("moebius.Mat.mul", "Mat.__mul__"),
    Layer("moebius.Mat.inv", "Mat.inv"),
    Layer("words.word_to_matrix", "word_to_matrix", counter=_count_letters),
    Layer("words.normal_form", "normal_form"),
    Layer("words.membership", "membership", counter=_count_verdict),
    Layer("ford.presentation", "presentation"),
    Layer("arrangement.enumerate_hemispheres", "enumerate_hemispheres", counter=_count_hemispheres),
    Layer("arrangement.is_unimodular", "is_unimodular", counter=_count_completion),
    Layer("arrangement.face_status", "face_status", counter=_count_contributes),
    Layer("arrangement.plane_split", "plane_split"),
    Layer("arrangement.svg_topview", "svg_topview"),
    Layer("subgroups.amalgam_report", "amalgam_report"),
    Layer("subgroups.gap_check", "gap_check", counter=_count_gap),
    Layer("subgroups.gap_points", "gap_points"),
    Layer("subgroups.coset_family", "coset_family", counter=_count_replaced),
    Layer("subgroups.normalizer_witness", "normalizer_witness"),
    Layer("subgroups.collapse_hom_check", "collapse_hom_check"),
    Layer("cli.main", "main"),
)

# ratio metric -> (useful count, attempts count)
RATIOS = {
    "arrangement.is_unimodular.useful_ratio": ("arrangement.is_unimodular.useful", "arrangement.is_unimodular.calls"),
    "arrangement.face_status.contributes_ratio": (
        "arrangement.face_status.contributes",
        "arrangement.face_status.calls",
    ),
    "subgroups.gap_check.useful_ratio": ("subgroups.gap_check.useful", "subgroups.gap_check.calls"),
}
NODES_PER_S = "words.membership.nodes_per_s"
OVERHEAD = "trace.overhead_ratio"


class Tracer:
    """Records one span per call of every layer while installed."""

    def __init__(self) -> None:
        self.layer = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, code: int, fn: Callable, counter: Callable | None) -> Callable:
        layer, parent, start, end, stack, counts = self.layer, self.parent, self.start, self.end, self.stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            layer.append(code)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                counter(args, kwargs, out, counts)
            return out

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for code, spec in enumerate(LAYERS):
            owner = sys.modules[f"{PACKAGE}.{spec.name.split('.')[0]}"]
            *path, attr = spec.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(code, original, spec.counter)
            if path:  # a method: rebinding it on its class covers every caller
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._restore):
            setattr(obj, key, original)
        self._restore.clear()

    def reset(self) -> None:
        for arr in (self.layer, self.parent, self.start, self.end):
            del arr[:]
        self.counts.clear()

    def summary(self) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
        """(counts, self seconds, inclusive seconds) per layer from the recorded spans."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        counts = Counter(dict.fromkeys((f"{spec.name}.calls" for spec in LAYERS), 0))
        counts.update(self.counts)
        self_s = {spec.name: 0.0 for spec in LAYERS}
        total_s = dict(self_s)
        for i in range(n):
            name = LAYERS[self.layer[i]].name
            dur = self.end[i] - self.start[i]
            counts[f"{name}.calls"] += 1
            self_s[name] += dur - child[i]
            total_s[name] += dur
        return dict(counts), self_s, total_s


def layer_metrics(
    names, counts: dict[str, int], self_s: dict[str, float], total_s: dict[str, float], overhead: float
) -> dict[str, float]:
    """Value of each named per-layer metric from one traced pass.

    A count that never occurred is 0; a name of no traced layer is an error.
    """
    layers = {spec.name for spec in LAYERS}
    values: dict[str, float] = {}
    for name in names:
        layer = name.rsplit(".", 1)[0]
        if name == OVERHEAD:
            values[name] = overhead
        elif layer not in layers:
            raise KeyError(f"{name} names no traced layer")
        elif name == NODES_PER_S:
            busy = total_s[layer]
            values[name] = counts.get("words.membership.nodes", 0) / busy if busy else 0.0
        elif name in RATIOS:
            num, den = RATIOS[name]
            values[name] = counts.get(num, 0) / counts[den] if counts[den] else 0.0
        elif name.endswith(".self_s"):
            values[name] = self_s[layer]
        else:
            values[name] = counts.get(name, 0)
    return values
