"""Channel density, overflow, and the width rule w = (d + 2) * t_s.

After global routing, every channel's density is known and the required
spacing between its two bounding cell edges follows from Eqn 22.  Half of
each channel's width is charged to each bounding cell edge — these are
the static expansions the stage-2 refinement anneals against.

Densities live at two granularities:

* per *routing-graph edge* (the capacity constraints of Eqn 24), and
* per *critical region* — a net crossing any free-space node that
  intersects a region contributes one track to that region's density,
  which then sets the region's required width.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple

from ..geometry import Rect, interval_overlap
from ..placement.spatial import UniformGridIndex
from .graph import ChannelGraph
from .regions import CORE_BOUNDARY, CriticalRegion

#: Extra tracks of Eqn 22: channel routers achieve t <= d + 1, plus one
#: track of margin, so the expected width is (d + 2) * t_s.
WIDTH_MARGIN_TRACKS = 2


def required_channel_width(density: int, track_spacing: float) -> float:
    """Eqn 22: expected channel width for two-layer routing."""
    if density < 0:
        raise ValueError("density must be non-negative")
    if track_spacing <= 0:
        raise ValueError("track spacing must be positive")
    return (density + WIDTH_MARGIN_TRACKS) * track_spacing


@dataclass
class CongestionReport:
    """Densities and overflow of one global-routing solution."""

    edge_density: Dict[Tuple[int, int], int] = field(default_factory=dict)
    node_density: Dict[int, int] = field(default_factory=dict)

    def overflow(self, graph: ChannelGraph) -> int:
        """X of Eqn 24: total excess tracks over all channel edges."""
        total = 0
        for key, density in self.edge_density.items():
            capacity = graph.edge(*key).capacity
            if capacity is not None and density > capacity:
                total += density - capacity
        return total

    def max_node_density(self) -> int:
        return max(self.node_density.values(), default=0)


def compute_congestion(
    graph: ChannelGraph, routes: Dict[str, Iterable[Tuple[int, int]]]
) -> CongestionReport:
    """Tally densities from net routes.

    ``routes`` maps net names to collections of (u, v) node-pair edges.
    A net contributes one track to every routing edge it uses and to
    every free-space node it visits (pin nodes count toward their host
    node — the pin's access track still occupies the channel).
    """
    report = CongestionReport()
    num_free = graph.num_free_nodes
    for edges in routes.values():
        seen_edges: Set[Tuple[int, int]] = set()
        seen_nodes: Set[int] = set()
        for u, v in edges:
            key = (u, v) if u < v else (v, u)
            if key not in seen_edges:
                seen_edges.add(key)
                report.edge_density[key] = report.edge_density.get(key, 0) + 1
            for node in (u, v):
                host = node if node < num_free else graph.pin_host(node)
                if host is not None and host not in seen_nodes:
                    seen_nodes.add(host)
                    report.node_density[host] = (
                        report.node_density.get(host, 0) + 1
                    )
    return report


def region_densities(
    graph: ChannelGraph,
    routes: Dict[str, Iterable[Tuple[int, int]]],
) -> Dict[int, int]:
    """Density of every critical region: the number of distinct nets
    whose routes actually cross the region.

    A route edge between two graph nodes is modelled as the L-shaped
    (horizontal-then-vertical) connection of their positions — the way a
    global route traverses adjacent strips — and a net is charged to a
    region when any of its edges' legs passes through the region's
    rectangle.

    Both legs lie inside the bounding box of the edge's endpoints, so
    only regions whose rectangles meet that box (found through a uniform
    grid) are tested exactly, and each distinct edge is tested once for
    all the nets that use it.
    """
    regions = graph.regions
    densities: Dict[int, int] = {r.index: 0 for r in regions}
    if not regions:
        return densities
    grid = UniformGridIndex.for_bboxes(r.rect for r in regions)
    for i, region in enumerate(regions):
        grid.insert(i, region.rect)
    positions = graph.positions
    crossed: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    for edges in routes.values():
        charged: Set[int] = set()
        for u, v in edges:
            hit = crossed.get((u, v))
            if hit is None:
                p = positions[u]
                q = positions[v]
                box = Rect(
                    min(p[0], q[0]), min(p[1], q[1]),
                    max(p[0], q[0]), max(p[1], q[1]),
                )
                hit = crossed[(u, v)] = tuple(
                    regions[i].index
                    for i in grid.query(box)
                    if _l_path_crosses(regions[i].rect, p, q)
                )
            charged.update(hit)
        for idx in charged:
            densities[idx] += 1
    return densities


def _l_path_crosses(rect, p: Tuple[float, float], q: Tuple[float, float]) -> bool:
    """Does the horizontal-then-vertical path p -> (qx, py) -> q touch the
    rectangle along a segment (not a mere corner point)?"""
    corner = (q[0], p[1])
    return _leg_crosses(rect, p, corner) or _leg_crosses(rect, corner, q)


def _leg_crosses(rect, a: Tuple[float, float], b: Tuple[float, float]) -> bool:
    x1, x2 = sorted((a[0], b[0]))
    y1, y2 = sorted((a[1], b[1]))
    if x1 > rect.x2 or x2 < rect.x1 or y1 > rect.y2 or y2 < rect.y1:
        return False
    # Overlap length along the leg's direction of travel must be positive;
    # a zero-length leg (coincident endpoints) never counts.
    w = interval_overlap(x1, x2, rect.x1, rect.x2)
    h = interval_overlap(y1, y2, rect.y1, rect.y2)
    if x1 == x2 and y1 == y2:
        return False
    if y1 == y2:  # horizontal leg
        return w > 0
    return h > 0  # vertical leg


def cell_edge_expansions(
    graph: ChannelGraph,
    routes: Dict[str, Iterable[Tuple[int, int]]],
    track_spacing: float,
) -> Dict[str, Dict[str, float]]:
    """Static per-cell, per-side expansions for placement refinement (§4.3).

    Each channel's required width (Eqn 22) is split half-and-half between
    its two bounding cell edges; a cell side adjacent to several channels
    takes the widest requirement.
    """
    densities = region_densities(graph, routes)
    expansions: Dict[str, Dict[str, float]] = {}
    for region in graph.regions:
        density = densities.get(region.index, 0)
        half = required_channel_width(density, track_spacing) / 2.0
        for ref in (region.side_a, region.side_b):
            if ref.cell == CORE_BOUNDARY:
                continue
            sides = expansions.setdefault(ref.cell, {})
            sides[ref.edge.side] = max(sides.get(ref.edge.side, 0.0), half)
    return expansions
