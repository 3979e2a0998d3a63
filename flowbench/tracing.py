"""Per-layer attribution of a ``place_and_route`` call, from outside.

:func:`instrument` replaces the names the flow looks up for each layer
with wrappers that record a span around every call, and puts the
originals back when it exits.  No file of the program changes, and the
program's own tracer stays off.

A span is ``[name, start, end, parent, attrs]``, kept in memory by a
:class:`SpanRecorder` and written out once the run is over.  A span's
self time is its duration minus the durations of its direct children;
calls are synchronous, so children never overlap.
:func:`layer_metrics` folds the spans of one or more traced calls into
the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class SpanRecorder:
    """Spans and call counters of a traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._open: List[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")
        self._open.pop()
        self.spans[index][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        index = self.begin(name)
        try:
            yield self.spans[index][4]
        finally:
            self.end(index)

    def write(self, path) -> None:
        """One JSON line per span: name, start, end, parent, attrs."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "attrs": attrs,
                }) + "\n")


# -- what gets wrapped ------------------------------------------------------
#
# (module, attribute path, span name, attrs hook).  The module is where
# the flow looks the name up: a name imported with ``from x import f``
# must be replaced in the importing module, a method on its class.


def _count_len(key: str):
    def hook(attrs, args, kwargs, result):
        attrs[key] = len(result)
    return hook


def _graph_edges(attrs, args, kwargs, result):
    attrs["edges"] = len(result.edges())


def _density_pairs(attrs, args, kwargs, result):
    graph, routes = args[0], args[1]
    route_edges = sum(len(edges) for edges in routes.values())
    attrs["pairs"] = route_edges * len(graph.regions)


def _anneal(attrs, args, kwargs, result):
    attrs["moves"] = sum(s.attempts for s in result.steps)
    attrs["accepts"] = sum(s.accepts for s in result.steps)
    attrs["temperatures"] = len(result.steps)


def _routing(attrs, args, kwargs, result):
    attrs["nets"] = len(result.alternatives)
    attrs["alternatives"] = sum(len(a) for a in result.alternatives.values())


def _interchange(attrs, args, kwargs, result):
    attrs["attempts"] = result.attempts
    attrs["accepted"] = result.accepted


WRAPPED: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.flow.timberwolf", "run_stage1", "stage1", None),
    ("repro.flow.timberwolf", "remove_overlaps", "legalize", None),
    ("repro.flow.timberwolf", "run_refinement", "stage2", None),
    ("repro.placement.refine", "remove_overlaps", "legalize", None),
    ("repro.placement.refine", "extract_critical_regions", "channels.regions",
     _count_len("regions")),
    ("repro.placement.refine", "decompose_free_space", "channels.freespace",
     _count_len("rects")),
    ("repro.placement.refine", "ChannelGraph", "channels.graph", _graph_edges),
    ("repro.placement.refine", "cell_edge_expansions", "channels.expansions",
     _density_pairs),
    ("repro.placement.refine", "compact", "compact", None),
    ("repro.routing.router", "GlobalRouter.route", "router.route", _routing),
    ("repro.routing.router", "GlobalRouter.route_net", "router.phase1", None),
    ("repro.routing.interchange", "RouteSelector.run", "router.phase2",
     _interchange),
    ("repro.annealing.engine", "Annealer.run", "anneal", _anneal),
    ("repro.placement.state", "PlacementState.set_static_expansions",
     "stage2.static_expansions", None),
)

#: Names wrapped with a call counter only (too many calls for spans).
COUNTED: Tuple[Tuple[str, str, str], ...] = (
    ("repro.routing.mpaths", "dijkstra", "dijkstra"),
    ("repro.routing.steiner", "dijkstra", "dijkstra"),
)


def _owner(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    if attr not in vars(owner):
        raise AttributeError(f"{module}.{path} is not defined there")
    return owner, attr


def _spanned(recorder: SpanRecorder, fn, name: str, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        if hook is not None:
            hook(recorder.spans[index][4], args, kwargs, result)
        return result
    return wrapper


def _counted(recorder: SpanRecorder, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


@contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every layer for the duration of the block; the originals
    are restored on exit, also when the block raises."""
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for module, path, name, hook in WRAPPED:
            owner, attr = _owner(module, path)
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _spanned(recorder, original, name, hook))
        for module, path, name in COUNTED:
            owner, attr = _owner(module, path)
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _counted(recorder, original, name))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- attribution --------------------------------------------------------------


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus its direct children's durations."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def _ancestor(spans: List[list], index: int, names) -> Optional[str]:
    parent = spans[index][3]
    while parent is not None:
        if spans[parent][0] in names:
            return spans[parent][0]
        parent = spans[parent][3]
    return None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    recorder: SpanRecorder,
    calls: int,
    traced_s: float,
    untraced_s: float,
) -> Dict[str, float]:
    """Per-layer metrics of ``calls`` traced ``place_and_route`` calls,
    each the root ``flow`` span.  Times and counts are per call; ratios
    are taken over all calls.  ``traced_s`` / ``untraced_s`` are the
    wall times of the same call(s) with and without tracing."""
    spans = recorder.spans
    own = self_times(spans)
    total: Counter = Counter()
    for i, (name, start, end, _, attrs) in enumerate(spans):
        if name == "anneal":
            stage = _ancestor(spans, i, ("stage1", "stage2"))
            name = "stage1.anneal" if stage == "stage1" else "refine.anneal"
        total[name + ".wall"] += end - start
        total[name + ".self"] += own[i]
        total[name + ".calls"] += 1
        for key, value in attrs.items():
            total[f"{name}.{key}"] += value

    def per_call(value: float) -> float:
        return value / calls

    define_s = sum(
        total[f"channels.{part}.wall"] for part in ("regions", "freespace", "graph")
    )
    return {
        "stage1.wall_s": per_call(total["stage1.wall"]),
        "stage1.moves": per_call(total["stage1.anneal.moves"]),
        "stage1.accept_ratio": _ratio(
            total["stage1.anneal.accepts"], total["stage1.anneal.moves"]
        ),
        "stage1.moves_per_s": _ratio(
            total["stage1.anneal.moves"], total["stage1.anneal.wall"]
        ),
        "stage1.temperatures": per_call(total["stage1.anneal.temperatures"]),
        "legalize.wall_s": per_call(total["legalize.self"]),
        "legalize.calls": per_call(total["legalize.calls"]),
        "channels.define_s": per_call(define_s),
        "channels.critical_regions": per_call(total["channels.regions.regions"]),
        "channels.free_rects": per_call(total["channels.freespace.rects"]),
        "channels.graph_edges": per_call(total["channels.graph.edges"]),
        "channels.expansions_s": per_call(total["channels.expansions.self"]),
        "channels.density_pairs": per_call(total["channels.expansions.pairs"]),
        "router.route_s": per_call(total["router.route.wall"]),
        "router.self_s": per_call(total["router.route.self"]),
        "router.nets": per_call(total["router.route.nets"]),
        "router.alternatives": per_call(total["router.route.alternatives"]),
        "router.phase1_s": per_call(total["router.phase1.wall"]),
        "router.dijkstra_calls": per_call(recorder.counts["dijkstra"]),
        "router.phase2_s": per_call(total["router.phase2.wall"]),
        "router.interchange_attempts": per_call(total["router.phase2.attempts"]),
        "router.interchange_accept_ratio": _ratio(
            total["router.phase2.accepted"], total["router.phase2.attempts"]
        ),
        "refine.anneal_s": per_call(total["refine.anneal.wall"]),
        "refine.moves": per_call(total["refine.anneal.moves"]),
        "refine.accept_ratio": _ratio(
            total["refine.anneal.accepts"], total["refine.anneal.moves"]
        ),
        "refine.moves_per_s": _ratio(
            total["refine.anneal.moves"], total["refine.anneal.wall"]
        ),
        "compact.wall_s": per_call(total["compact.self"]),
        "stage2.static_expansions_s": per_call(total["stage2.static_expansions.self"]),
        "stage2.wall_s": per_call(total["stage2.wall"]),
        "stage2.unattributed_s": per_call(total["stage2.self"]),
        "flow.unattributed_s": per_call(total["flow.self"]),
        "trace.overhead_pct": 100.0 * _ratio(traced_s - untraced_s, untraced_s),
    }
