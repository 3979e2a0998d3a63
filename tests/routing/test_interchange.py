"""The phase-two random route interchange (§4.2.2)."""

import random

import pytest

from repro.routing import RouteSelector
from repro.routing.steiner import RouteAlternative


def alt(edges, length):
    edge_set = frozenset(tuple(sorted(e)) for e in edges)
    nodes = frozenset(n for e in edge_set for n in e)
    return RouteAlternative(edge_set, nodes, length)


class TestBookkeeping:
    def test_initial_selection_shortest(self):
        alts = {"a": [alt([(0, 1)], 1.0), alt([(0, 2), (2, 1)], 2.0)]}
        sel = RouteSelector(alts, {(0, 1): 5, (0, 2): 5, (1, 2): 5})
        assert sel.selection == {"a": 0}
        assert sel.total_length == 1.0
        assert sel.overflow == 0

    def test_unsorted_alternatives_rejected(self):
        alts = {"a": [alt([(0, 1)], 2.0), alt([(0, 2)], 1.0)]}
        with pytest.raises(ValueError):
            RouteSelector(alts, {})

    def test_empty_alternatives_rejected(self):
        with pytest.raises(ValueError):
            RouteSelector({"a": []}, {})

    def test_density_tracking(self):
        alts = {
            "a": [alt([(0, 1)], 1.0)],
            "b": [alt([(0, 1)], 1.0)],
        }
        sel = RouteSelector(alts, {(0, 1): 1})
        assert sel.density((0, 1)) == 2
        assert sel.overflow == 1
        assert sel.overflowed_edges() == [(0, 1)]

    def test_uncapacitated_edges_never_overflow(self):
        alts = {
            "a": [alt([(0, 1)], 1.0)],
            "b": [alt([(0, 1)], 1.0)],
        }
        sel = RouteSelector(alts, {(0, 1): None})
        assert sel.overflow == 0

    def test_delta_computation(self):
        alts = {
            "a": [alt([(0, 1)], 1.0), alt([(0, 2), (2, 1)], 2.0)],
            "b": [alt([(0, 1)], 1.0)],
        }
        sel = RouteSelector(alts, {(0, 1): 1, (0, 2): 5, (1, 2): 5})
        d_x, d_len = sel._delta("a", 1)
        assert d_x == -1
        assert d_len == 1.0


class TestRun:
    def test_resolves_overflow(self):
        alts = {
            "a": [alt([(0, 1)], 1.0), alt([(0, 2), (2, 1)], 2.0)],
            "b": [alt([(0, 1)], 1.0), alt([(0, 3), (3, 1)], 2.0)],
        }
        caps = {(0, 1): 1, (0, 2): 5, (1, 2): 5, (0, 3): 5, (1, 3): 5}
        sel = RouteSelector(alts, caps)
        assert sel.overflow == 1
        result = sel.run(random.Random(0))
        assert result.overflow == 0
        # Exactly one net was diverted; total length 1 + 2.
        assert result.total_length == 3.0

    def test_already_feasible_converges_immediately(self):
        alts = {"a": [alt([(0, 1)], 1.0)], "b": [alt([(2, 3)], 1.0)]}
        sel = RouteSelector(alts, {(0, 1): 1, (2, 3): 1})
        result = sel.run(random.Random(0))
        assert result.converged_shortest
        assert result.attempts == 0

    def test_stagnation_stops(self):
        # Unresolvable: both nets have only the congested route.
        alts = {
            "a": [alt([(0, 1)], 1.0)],
            "b": [alt([(0, 1)], 1.0)],
        }
        sel = RouteSelector(alts, {(0, 1): 1})
        result = sel.run(random.Random(0), stagnation_limit=10)
        assert result.overflow == 1
        assert not result.converged_shortest

    def test_zero_delta_switches_count_as_stagnant(self, monkeypatch):
        # Two nets, each with two equal-length alternatives through one
        # over-capacity edge: every switch has dX = dL = 0, so the run
        # must stop after M * N such attempts instead of flipping a net
        # between its alternatives forever.
        alts = {
            "a": [alt([(0, 1), (1, 2)], 2.0), alt([(0, 1), (1, 3)], 2.0)],
            "b": [alt([(0, 1), (1, 4)], 2.0), alt([(0, 1), (1, 5)], 2.0)],
        }
        caps = {(0, 1): 1, (1, 2): 5, (1, 3): 5, (1, 4): 5, (1, 5): 5}
        sel = RouteSelector(alts, caps)
        iterations = []
        real = RouteSelector.overflowed_edges

        def bounded(self):
            iterations.append(1)
            assert len(iterations) <= 100, "interchange never stopped"
            return real(self)

        monkeypatch.setattr(RouteSelector, "overflowed_edges", bounded)
        result = sel.run(random.Random(0))
        assert result.attempts == result.accepted == 4  # M * N
        assert result.overflow == 1

    def test_routes_reflect_selection(self):
        alts = {
            "a": [alt([(0, 1)], 1.0), alt([(0, 2), (2, 1)], 2.0)],
            "b": [alt([(0, 1)], 1.0), alt([(0, 3), (3, 1)], 2.0)],
        }
        caps = {(0, 1): 1, (0, 2): 5, (1, 2): 5, (0, 3): 5, (1, 3): 5}
        sel = RouteSelector(alts, caps)
        sel.run(random.Random(1))
        routes = sel.routes()
        assert set(routes) == {"a", "b"}
        for net, k in sel.selection.items():
            assert routes[net] == alts[net][k].edges

    def test_never_worsens_overflow(self):
        rng = random.Random(2)
        alts = {
            f"n{i}": [
                alt([(0, 1)], 1.0),
                alt([(0, 2), (2, 1)], 2.0),
                alt([(0, 3), (3, 1)], 2.0),
            ]
            for i in range(6)
        }
        caps = {(0, 1): 2, (0, 2): 2, (1, 2): 2, (0, 3): 2, (1, 3): 2}
        sel = RouteSelector(alts, caps)
        history = [sel.overflow]
        for _ in range(50):
            sel.run(rng, stagnation_limit=1)
            history.append(sel.overflow)
        assert all(a >= b for a, b in zip(history, history[1:]))

    def test_deterministic_given_seed(self):
        def run(seed):
            alts = {
                "a": [alt([(0, 1)], 1.0), alt([(0, 2), (2, 1)], 2.0)],
                "b": [alt([(0, 1)], 1.0), alt([(0, 3), (3, 1)], 2.0)],
            }
            caps = {(0, 1): 1, (0, 2): 5, (1, 2): 5, (0, 3): 5, (1, 3): 5}
            sel = RouteSelector(alts, caps)
            return sel.run(random.Random(seed)).selection

        assert run(5) == run(5)
