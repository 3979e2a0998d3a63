"""Property tests: the interchange's incremental bookkeeping is a pure cache.

``RouteSelector`` keeps X, the overflowed-edge set and each net's route
diffs up to date as routes are installed and removed.  After every step
they must equal a from-scratch recount, and a full ``run`` must make the
same choices, with the same random draws, as ``NaiveSelector`` below: the
straightforward algorithm that recounts everything it needs on every
iteration.
"""

import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.routing import RouteSelector
from repro.routing.interchange import InterchangeResult
from repro.routing.steiner import RouteAlternative

NODES = 5
ALL_EDGES = [(u, v) for u in range(NODES) for v in range(u + 1, NODES)]


class NaiveSelector:
    """Reference interchange: recounts overflow per edge on every query
    and re-sorts the overflowed edges on every iteration."""

    def __init__(self, alternatives, capacities):
        self.alternatives = {net: list(alts) for net, alts in alternatives.items()}
        self.capacities = capacities
        self.selection = {net: 0 for net in self.alternatives}
        self._density = {}
        self._nets_on_edge = {}
        self._length = 0.0
        self._overflow = 0
        for net in self.alternatives:
            self._install(net, 0)

    def _edge_overflow(self, edge, density):
        cap = self.capacities.get(edge)
        if cap is None:
            return 0
        return max(0, density - cap)

    def _install(self, net, k):
        alt = self.alternatives[net][k]
        self.selection[net] = k
        self._length += alt.length
        for edge in sorted(alt.edges):
            old = self._density.get(edge, 0)
            self._overflow += self._edge_overflow(edge, old + 1) - self._edge_overflow(
                edge, old
            )
            self._density[edge] = old + 1
            self._nets_on_edge.setdefault(edge, set()).add(net)

    def _uninstall(self, net):
        alt = self.alternatives[net][self.selection[net]]
        self._length -= alt.length
        for edge in alt.edges:
            old = self._density[edge]
            self._overflow += self._edge_overflow(edge, old - 1) - self._edge_overflow(
                edge, old
            )
            if old == 1:
                del self._density[edge]
            else:
                self._density[edge] = old - 1
            users = self._nets_on_edge[edge]
            users.discard(net)
            if not users:
                del self._nets_on_edge[edge]

    def overflowed_edges(self):
        return sorted(
            e for e, d in self._density.items() if self._edge_overflow(e, d) > 0
        )

    def _delta(self, net, k):
        cur = self.alternatives[net][self.selection[net]]
        alt = self.alternatives[net][k]
        d_x = 0
        for edge in cur.edges - alt.edges:
            old = self._density[edge]
            d_x += self._edge_overflow(edge, old - 1) - self._edge_overflow(edge, old)
        for edge in alt.edges - cur.edges:
            old = self._density.get(edge, 0)
            d_x += self._edge_overflow(edge, old + 1) - self._edge_overflow(edge, old)
        return (d_x, alt.length - cur.length)

    def run(self, rng, stagnation_limit=None):
        n_nets = len(self.alternatives)
        m = max((len(a) for a in self.alternatives.values()), default=1)
        limit = stagnation_limit if stagnation_limit is not None else m * n_nets
        attempts = accepted = stagnant = 0
        while self._overflow > 0 and stagnant < limit:
            hot = self.overflowed_edges()
            if not hot:
                break
            edge = hot[rng.randrange(len(hot))]
            users = sorted(self._nets_on_edge.get(edge, ()))
            if not users:
                stagnant += 1
                continue
            net = users[rng.randrange(len(users))]
            current = self.selection[net]
            options = [
                k
                for k in range(len(self.alternatives[net]))
                if k != current and self._delta(net, k)[0] <= 0
            ]
            attempts += 1
            if not options:
                stagnant += 1
                continue
            k = options[rng.randrange(len(options))]
            d_x, d_len = self._delta(net, k)
            if d_x < 0 or (d_x == 0 and d_len <= 0):
                self._uninstall(net)
                self._install(net, k)
                accepted += 1
                stagnant = 0 if d_x < 0 or d_len < 0 else stagnant + 1
            else:
                stagnant += 1
        return InterchangeResult(
            selection=dict(self.selection),
            total_length=self._length,
            overflow=self._overflow,
            attempts=attempts,
            accepted=accepted,
        )


@st.composite
def instances(draw):
    """Random nets with sorted alternatives over a small complete graph,
    and capacities of 0-3 tracks, None, or missing altogether."""
    capacities = {}
    for edge in ALL_EDGES:
        cap = draw(st.sampled_from([0, 1, 2, 3, None, "missing"]))
        if cap != "missing":
            capacities[edge] = cap
    alternatives = {}
    for i in range(draw(st.integers(1, 6))):
        count = draw(st.integers(1, 4))
        lengths = sorted(
            draw(st.lists(st.sampled_from([1.0, 1.5, 2.0, 3.25]), min_size=count,
                          max_size=count))
        )
        alts = []
        for length in lengths:
            edges = frozenset(draw(st.lists(st.sampled_from(ALL_EDGES), max_size=5)))
            nodes = frozenset(n for e in edges for n in e)
            alts.append(RouteAlternative(edges, nodes, length))
        alternatives[f"n{i}"] = alts
    return alternatives, capacities


def recount(sel, capacities):
    """(density, X, sorted overflowed edges) from the current selection."""
    density = Counter(
        edge for net in sel.alternatives for edge in sel.selected_route(net).edges
    )
    overflow = 0
    hot = []
    for edge, d in density.items():
        cap = capacities.get(edge)
        if cap is not None and d > cap:
            overflow += d - cap
            hot.append(edge)
    return density, overflow, sorted(hot)


def fresh_delta(sel, capacities, net, k):
    """(dX, dL) of switching ``net`` to alternative ``k``, by recounting."""
    _, before, _ = recount(sel, capacities)
    density = Counter(
        edge
        for other in sel.alternatives
        for edge in (
            sel.alternatives[net][k] if other == net else sel.selected_route(other)
        ).edges
    )
    after = sum(
        d - capacities[e]
        for e, d in density.items()
        if capacities.get(e) is not None and d > capacities[e]
    )
    return (after - before, sel.alternatives[net][k].length - sel.selected_route(net).length)


def assert_consistent(sel, capacities):
    density, overflow, hot = recount(sel, capacities)
    assert sel.overflow == overflow
    assert sel.overflowed_edges() == hot
    assert {e: sel.density(e) for e in density} == dict(density)
    for net, alts in sel.alternatives.items():
        for k in range(len(alts)):
            assert sel._delta(net, k) == fresh_delta(sel, capacities, net, k)


class TestBookkeepingMatchesRecount:
    @settings(max_examples=60, deadline=None)
    @given(instances(), st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)),
                                 max_size=25))
    def test_install_uninstall_sequences(self, instance, steps):
        alternatives, capacities = instance
        sel = RouteSelector(alternatives, capacities)
        nets = sorted(alternatives)
        assert_consistent(sel, capacities)
        for net_i, k in steps:
            net = nets[net_i % len(nets)]
            sel._uninstall(net)
            sel._install(net, k % len(alternatives[net]))
            assert_consistent(sel, capacities)


class TestRunMatchesNaive:
    @settings(max_examples=80, deadline=None)
    @given(instances(), st.integers(0, 2**32 - 1),
           st.sampled_from([None, 1, 3, 12]))
    def test_same_trajectory(self, instance, seed, limit):
        alternatives, capacities = instance
        rng_fast, rng_naive = random.Random(seed), random.Random(seed)
        fast = RouteSelector(alternatives, capacities).run(rng_fast, limit)
        naive = NaiveSelector(alternatives, capacities).run(rng_naive, limit)
        assert fast.selection == naive.selection
        assert fast.attempts == naive.attempts
        assert fast.accepted == naive.accepted
        assert fast.overflow == naive.overflow
        assert fast.total_length == naive.total_length
        # Same number of random draws, in the same order.
        assert rng_fast.getstate() == rng_naive.getstate()
