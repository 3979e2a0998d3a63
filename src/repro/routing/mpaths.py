"""M-shortest loopless paths on a channel graph.

Phase one of the global router stores the M shortest routes of every
net.  For two-pin nets this is Lawler's M-shortest-path problem; we use
Yen's deviation algorithm (equivalent output), generalized in two ways
the router needs:

* *multi-source*: paths may start from any node of an existing partial
  route (the target-node set of Figures 11-12), and
* *multi-target*: paths may end at any node of an electrically
  equivalent pin group.

Both are realized with virtual terminals, kept out of returned paths.
"""

from __future__ import annotations

import heapq
from math import inf
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

#: neighbors(node) -> iterable of (neighbor, edge length).
NeighborFn = Callable[[int], Iterable[Tuple[int, float]]]

Path = Tuple[float, Tuple[int, ...]]  # (length, node sequence)


class ManhattanHeuristic(dict):
    """The A* heuristic as a node -> estimate mapping: the Manhattan
    distance from a node to the nearest target, 0 for nodes without a
    position.  Entries are computed on first lookup and kept, so one
    instance serves every search aimed at the same ``targets``."""

    def __init__(
        self, positions: Dict[int, Tuple[float, float]], targets: Iterable[int]
    ) -> None:
        super().__init__()
        self._positions = positions
        self._targets = [positions[t] for t in targets if t in positions]

    def __missing__(self, node: int) -> float:
        p = self._positions.get(node)
        if p is None or not self._targets:
            h = 0.0
        else:
            h = min(abs(p[0] - tx) + abs(p[1] - ty) for tx, ty in self._targets)
        self[node] = h
        return h


def dijkstra(
    neighbors: NeighborFn,
    sources: Dict[int, float],
    targets: Set[int],
    banned_nodes: Optional[Set[int]] = None,
    banned_edges: Optional[Set[Tuple[int, int]]] = None,
    positions: Optional[Dict[int, Tuple[float, float]]] = None,
    heuristic: Optional[ManhattanHeuristic] = None,
) -> Optional[Path]:
    """Shortest path from any source (with initial costs) to any target.

    ``banned_nodes`` may not be visited; ``banned_edges`` (directed pairs)
    may not be traversed.  When ``positions`` is given the search runs as
    A* with the Manhattan distance-to-nearest-target heuristic, which is
    admissible here because every edge's length is the Manhattan distance
    between its endpoints (triangle inequality).  ``heuristic`` passes in
    that heuristic's memo, built for the same ``positions`` and
    ``targets``.  Returns (length, path) or None.
    """
    banned_nodes = banned_nodes or set()
    # Nodes each node may not step to: the banned nodes, plus the heads
    # of its banned out-edges.
    forbidden: Dict[int, Set[int]] = {}
    for u, v in banned_edges or ():
        forbidden.setdefault(u, set(banned_nodes)).add(v)
    # Without positions every estimate is 0: plain Dijkstra.
    h = heuristic if heuristic is not None else ManhattanHeuristic(
        positions or {}, targets
    )

    dist: Dict[int, float] = {}
    prev: Dict[int, Optional[int]] = {}
    heap: List[Tuple[float, float, int]] = []
    for node, cost in sources.items():
        if node in banned_nodes:
            continue
        if cost < dist.get(node, inf):
            dist[node] = cost
            prev[node] = None
            heapq.heappush(heap, (cost + h[node], cost, node))

    push = heapq.heappush
    pop = heapq.heappop
    get_dist = dist.get
    while heap:
        _, d, node = pop(heap)
        if d > get_dist(node, inf):
            continue
        if node in targets:
            path = []
            cur: Optional[int] = node
            while cur is not None:
                path.append(cur)
                cur = prev[cur]
            path.reverse()
            return (d, tuple(path))
        skip = forbidden.get(node, banned_nodes)
        for nxt, length in neighbors(node):
            if nxt in skip:
                continue
            nd = d + length
            if nd < get_dist(nxt, inf) - 1e-12:
                dist[nxt] = nd
                prev[nxt] = node
                push(heap, (nd + h[nxt], nd, nxt))
    return None


class EdgeLengths:
    """Edge lengths read through a :data:`NeighborFn`, scanning each
    node's neighbour list once.  Parallel edges resolve to the shortest;
    ``lengths(u, v)`` is None when no (u, v) edge exists."""

    __slots__ = ("_neighbors", "_rows")

    def __init__(self, neighbors: NeighborFn) -> None:
        self._neighbors = neighbors
        self._rows: Dict[int, Dict[int, float]] = {}

    def __call__(self, u: int, v: int) -> Optional[float]:
        row = self._rows.get(u)
        if row is None:
            row = {}
            for nxt, length in self._neighbors(u):
                if nxt not in row or length < row[nxt]:
                    row[nxt] = length
            self._rows[u] = row
        return row.get(v)


#: Default cap on deviation (spur) points per Yen iteration.  The exact
#: algorithm deviates at every node of the newest path, costing one
#: Dijkstra per node; on pin-heavy channel graphs paths run tens of nodes
#: long and the exact version dominates the router's wall clock.  Spur
#: points are subsampled evenly along the path instead — alternative
#: routes differ mildly from the exact k-shortest set, which the beam
#: search tolerates by construction.
DEFAULT_MAX_SPURS = 12


def k_shortest_paths(
    neighbors: NeighborFn,
    sources: Dict[int, float],
    targets: Set[int],
    k: int,
    max_spurs: int = DEFAULT_MAX_SPURS,
    positions: Optional[Dict[int, Tuple[float, float]]] = None,
    heuristic: Optional[ManhattanHeuristic] = None,
) -> List[Path]:
    """Yen's algorithm: up to k shortest loopless source-to-target paths.

    Sources act as a single virtual origin (deviations never re-enter
    another source) and targets as a single virtual destination, so the
    result is the k best ways of joining the source set to the target
    set — exactly what connecting a pin group to a partial route needs.

    Every search shares one A* heuristic memo (they all aim at
    ``targets``); pass ``heuristic`` to share it further, between calls
    with the same ``targets`` and ``positions``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if max_spurs < 1:
        raise ValueError("max_spurs must be at least 1")
    if heuristic is None:
        heuristic = ManhattanHeuristic(positions or {}, targets)
    first = dijkstra(
        neighbors, sources, targets, positions=positions, heuristic=heuristic
    )
    if first is None:
        return []
    lengths = EdgeLengths(neighbors)
    found: List[Path] = [first]
    candidates: List[Path] = []
    seen: Set[Tuple[int, ...]] = {first[1]}

    while len(found) < k:
        base_len, base_path = found[-1]
        # Deviate at (a sample of) the newest path's nodes.
        spur_indices = range(len(base_path) - 1)
        if len(base_path) - 1 > max_spurs:
            step = (len(base_path) - 1) / max_spurs
            spur_indices = sorted({int(j * step) for j in range(max_spurs)})
        root_costs = _prefix_costs(lengths, base_path, sources)
        for i in spur_indices:
            spur = base_path[i]
            root = base_path[: i + 1]
            root_len = root_costs[i]
            if root_len is None:
                continue
            banned_edges: Set[Tuple[int, int]] = set()
            for length, path in found:
                if len(path) > i and path[: i + 1] == root:
                    banned_edges.add((path[i], path[i + 1]))
            banned_nodes = set(root[:-1])
            # Nodes of the source set other than the root's own origin
            # stay usable only if not already on the root.
            spur_result = dijkstra(
                neighbors,
                {spur: 0.0},
                targets,
                banned_nodes=banned_nodes,
                banned_edges=banned_edges,
                positions=positions,
                heuristic=heuristic,
            )
            if spur_result is None:
                continue
            spur_len, spur_path = spur_result
            total = root + spur_path[1:]
            if total in seen:
                continue
            seen.add(total)
            heapq.heappush(candidates, (root_len + spur_len, total))
        if not candidates:
            break
        best = heapq.heappop(candidates)
        found.append(best)
    return found[:k]


def _prefix_costs(
    lengths: EdgeLengths, path: Tuple[int, ...], sources: Dict[int, float]
) -> List[Optional[float]]:
    """Cost of every prefix ``path[: i + 1]``, honoring per-source initial
    costs: the source's cost plus the edge lengths, added in path order.
    None from the first missing edge on (or throughout, when the path
    does not start at a source)."""
    costs: List[Optional[float]] = [None] * len(path)
    if path[0] not in sources:
        return costs
    total = sources[path[0]]
    costs[0] = total
    for i in range(1, len(path)):
        step = lengths(path[i - 1], path[i])
        if step is None:
            break
        total += step
        costs[i] = total
    return costs


def path_edges(path: Tuple[int, ...]) -> FrozenSet[Tuple[int, int]]:
    """Undirected edge set of a node path."""
    return frozenset(
        (u, v) if u < v else (v, u) for u, v in zip(path, path[1:])
    )
