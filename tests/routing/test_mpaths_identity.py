"""Phase one's memoized searches return exactly what plain Yen returns.

``reference_dijkstra`` / ``reference_k_shortest`` are the un-memoized
algorithm: the A* heuristic recomputed on every push, banned edges
looked up as pairs, and every root cost summed from scratch by scanning
neighbour lists.  The router's versions must give the same paths and
the same float lengths, bit for bit.
"""

import heapq
import random

from hypothesis import given, settings, strategies as st

from repro.routing import k_shortest_paths, m_shortest_routes
from repro.routing import steiner
from repro.routing.mpaths import DEFAULT_MAX_SPURS

from .test_astar import random_geometric_graph


def reference_dijkstra(neighbors, sources, targets, banned_nodes=None,
                       banned_edges=None, positions=None):
    banned_nodes = banned_nodes or set()
    banned_edges = banned_edges or set()
    if positions is not None and targets:
        target_pos = [positions[t] for t in targets if t in positions]

        def h(node):
            p = positions.get(node)
            if p is None or not target_pos:
                return 0.0
            return min(abs(p[0] - tx) + abs(p[1] - ty) for tx, ty in target_pos)
    else:

        def h(node):
            return 0.0

    dist, prev, heap = {}, {}, []
    for node, cost in sources.items():
        if node in banned_nodes:
            continue
        if cost < dist.get(node, float("inf")):
            dist[node] = cost
            prev[node] = None
            heapq.heappush(heap, (cost + h(node), cost, node))
    while heap:
        _, d, node = heapq.heappop(heap)
        if d > dist.get(node, float("inf")):
            continue
        if node in targets:
            path = []
            cur = node
            while cur is not None:
                path.append(cur)
                cur = prev[cur]
            return (d, tuple(reversed(path)))
        for nxt, length in neighbors(node):
            if nxt in banned_nodes or (node, nxt) in banned_edges:
                continue
            nd = d + length
            if nd < dist.get(nxt, float("inf")) - 1e-12:
                dist[nxt] = nd
                prev[nxt] = node
                heapq.heappush(heap, (nd + h(nxt), nd, nxt))
    return None


def reference_step(neighbors, u, v):
    step = None
    for nxt, length in neighbors(u):
        if nxt == v and (step is None or length < step):
            step = length
    return step


def reference_path_cost(neighbors, path, sources):
    if path[0] not in sources:
        return None
    total = sources[path[0]]
    for u, v in zip(path, path[1:]):
        step = reference_step(neighbors, u, v)
        if step is None:
            return None
        total += step
    return total


def reference_k_shortest(neighbors, sources, targets, k,
                         max_spurs=DEFAULT_MAX_SPURS, positions=None):
    first = reference_dijkstra(neighbors, sources, targets, positions=positions)
    if first is None:
        return []
    found, candidates, seen = [first], [], {first[1]}
    while len(found) < k:
        _, base_path = found[-1]
        spur_indices = range(len(base_path) - 1)
        if len(base_path) - 1 > max_spurs:
            step = (len(base_path) - 1) / max_spurs
            spur_indices = sorted({int(j * step) for j in range(max_spurs)})
        for i in spur_indices:
            root = base_path[: i + 1]
            root_len = reference_path_cost(neighbors, root, sources)
            if root_len is None:
                continue
            banned_edges = {
                (path[i], path[i + 1])
                for _, path in found
                if len(path) > i and path[: i + 1] == root
            }
            spur_result = reference_dijkstra(
                neighbors, {base_path[i]: 0.0}, targets,
                banned_nodes=set(root[:-1]), banned_edges=banned_edges,
                positions=positions,
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
        found.append(heapq.heappop(candidates))
    return found[:k]


def reference_edge_total(neighbors, edges):
    total = 0.0
    for u, v in edges:
        total += reference_step(neighbors, u, v)
    return total


def pick(rng, n, count):
    return rng.sample(range(n), count)


class TestKShortestIdentity:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.booleans(), st.integers(1, 12),
           st.sampled_from([2, 5, DEFAULT_MAX_SPURS]))
    def test_same_paths_and_lengths(self, seed, geometric, k, max_spurs):
        nb, positions = random_geometric_graph(seed)
        positions = positions if geometric else None
        rng = random.Random(seed)
        nodes = pick(rng, 25, rng.randint(2, 6))
        cut = rng.randint(1, len(nodes) - 1)
        # Multi-source with unequal initial costs, multi-target.
        sources = {n: rng.choice([0.0, 0.0, 1.5]) for n in nodes[:cut]}
        targets = set(nodes[cut:])
        fast = k_shortest_paths(nb, sources, targets, k, max_spurs=max_spurs,
                                positions=positions)
        ref = reference_k_shortest(nb, sources, targets, k, max_spurs=max_spurs,
                                   positions=positions)
        assert fast == ref


class TestMShortestRoutesIdentity:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.booleans(), st.integers(1, 8))
    def test_same_alternatives(self, seed, geometric, m):
        nb, positions = random_geometric_graph(seed)
        positions = positions if geometric else None
        rng = random.Random(seed)
        nodes = pick(rng, 25, rng.randint(2, 9))
        groups, i = [], 0
        while i < len(nodes):
            size = rng.randint(1, 2)
            groups.append(nodes[i:i + size])
            i += size
        fast = m_shortest_routes(nb, groups, m, positions=positions)

        real_k, real_total = steiner.k_shortest_paths, steiner._edge_total
        steiner.k_shortest_paths = (
            lambda neighbors, sources, targets, k, positions=None, **_:
            reference_k_shortest(neighbors, sources, targets, k, positions=positions)
        )
        steiner._edge_total = lambda lengths, edges: reference_edge_total(nb, edges)
        try:
            ref = m_shortest_routes(nb, groups, m, positions=positions)
        finally:
            steiner.k_shortest_paths, steiner._edge_total = real_k, real_total
        assert fast == ref
