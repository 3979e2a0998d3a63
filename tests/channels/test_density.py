"""Congestion accounting and the width rule of Eqn 22."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.channels import (
    WIDTH_MARGIN_TRACKS,
    ChannelGraph,
    cell_edge_expansions,
    compute_congestion,
    decompose_free_space,
    extract_critical_regions,
    region_densities,
    required_channel_width,
)
from repro.channels.density import _l_path_crosses
from repro.geometry import Rect, TileSet


class TestWidthRule:
    def test_eqn22(self):
        assert required_channel_width(0, 1.0) == 2.0
        assert required_channel_width(5, 1.0) == 7.0
        assert required_channel_width(5, 2.0) == 14.0

    def test_validation(self):
        with pytest.raises(ValueError):
            required_channel_width(-1, 1.0)
        with pytest.raises(ValueError):
            required_channel_width(1, 0.0)

    def test_margin_constant(self):
        assert WIDTH_MARGIN_TRACKS == 2


def simple_setup():
    """Two cells side by side inside a boundary, with a routed net."""
    shapes = {
        "a": TileSet.rectangle(10, 10),
        "b": TileSet.rectangle(10, 10).translated(14, 0),
    }
    boundary = Rect(-15, -15, 30, 15)
    regions = extract_critical_regions(shapes, boundary)
    strips = decompose_free_space(shapes.values(), boundary)
    graph = ChannelGraph(strips, 1.0, regions=regions)
    pa = graph.attach_pin("a", "p", (5.0, 0.0))
    pb = graph.attach_pin("b", "p", (9.0, 0.0))
    return graph, pa, pb


class TestComputeCongestion:
    def test_counts_edges_and_nodes(self):
        graph, pa, pb = simple_setup()
        host_a = graph.pin_host(pa)
        host_b = graph.pin_host(pb)
        route = [(pa, host_a)]
        if host_a != host_b:
            route.append((host_a, host_b))
        route.append((host_b, pb))
        report = compute_congestion(graph, {"n1": route})
        assert report.node_density[host_a] == 1
        assert report.node_density[host_b] == 1
        assert sum(report.edge_density.values()) == len(set(
            tuple(sorted(e)) for e in route
        ))

    def test_net_counted_once_per_node(self):
        graph, pa, pb = simple_setup()
        host = graph.pin_host(pa)
        # Same edge twice in the route: density must still be 1.
        report = compute_congestion(graph, {"n": [(pa, host), (host, pa)]})
        assert report.edge_density[tuple(sorted((pa, host)))] == 1

    def test_two_nets_stack(self):
        graph, pa, pb = simple_setup()
        host = graph.pin_host(pa)
        routes = {"n1": [(pa, host)], "n2": [(pa, host)]}
        report = compute_congestion(graph, routes)
        assert report.node_density[host] == 2

    def test_overflow(self):
        graph, pa, pb = simple_setup()
        host_a, host_b = graph.pin_host(pa), graph.pin_host(pb)
        if host_a == host_b:
            pytest.skip("pins share a strip in this decomposition")
        edge = graph.edge(host_a, host_b)
        routes = {
            f"n{i}": [(host_a, host_b)] for i in range((edge.capacity or 0) + 3)
        }
        report = compute_congestion(graph, routes)
        assert report.overflow(graph) == 3


class TestRegionDensities:
    def test_routed_channel_has_density(self):
        graph, pa, pb = simple_setup()
        host_a, host_b = graph.pin_host(pa), graph.pin_host(pb)
        route = [(pa, host_a), (host_a, host_b), (host_b, pb)]
        densities = region_densities(graph, {"n1": route})
        # The channel between a and b must see the net.
        between = [
            r for r in graph.regions if set(r.cells()) == {"a", "b"}
        ]
        assert between
        assert densities[between[0].index] >= 1

    def test_unrouted_region_zero(self):
        graph, pa, pb = simple_setup()
        densities = region_densities(graph, {})
        assert all(v == 0 for v in densities.values())


def brute_force_densities(graph, routes):
    """Every route edge against every region, as the definition reads."""
    region_nets = {r.index: set() for r in graph.regions}
    for net, edges in routes.items():
        for u, v in edges:
            p, q = graph.positions[u], graph.positions[v]
            for region in graph.regions:
                if _l_path_crosses(region.rect, p, q):
                    region_nets[region.index].add(net)
    return {idx: len(nets) for idx, nets in region_nets.items()}


@st.composite
def region_layouts(draw):
    """Regions and node positions on a coarse integer grid, so legs often
    run exactly along a region's boundary or end on its corner."""
    coord = st.integers(0, 12)
    regions = []
    for i in range(draw(st.integers(0, 8))):
        x1, x2 = sorted((draw(coord), draw(coord)))
        y1, y2 = sorted((draw(coord), draw(coord)))
        regions.append(SimpleNamespace(index=i, rect=Rect(x1, y1, x2, y2)))
    positions = {
        n: (float(draw(coord)), float(draw(coord)))
        for n in range(draw(st.integers(1, 10)))
    }
    node = st.sampled_from(sorted(positions))
    routes = {
        f"n{i}": draw(st.lists(st.tuples(node, node), max_size=6))
        for i in range(draw(st.integers(0, 5)))
    }
    return SimpleNamespace(regions=regions, positions=positions), routes


class TestRegionDensitiesMatchBruteForce:
    @settings(max_examples=150, deadline=None)
    @given(region_layouts())
    def test_random_layouts(self, layout):
        graph, routes = layout
        assert region_densities(graph, routes) == brute_force_densities(graph, routes)

    def test_leg_along_boundary_counts(self):
        # A horizontal leg running along the region's top edge crosses it;
        # one that only touches a corner does not.
        region = SimpleNamespace(index=0, rect=Rect(2, 0, 6, 4))
        graph = SimpleNamespace(
            regions=[region],
            positions={0: (0.0, 4.0), 1: (8.0, 4.0), 2: (6.0, 4.0), 3: (6.0, 9.0)},
        )
        routes = {"along": [(0, 1)], "corner": [(2, 3)]}
        assert brute_force_densities(graph, routes) == {0: 1}
        assert region_densities(graph, routes) == {0: 1}


class TestCellEdgeExpansions:
    def test_half_width_per_side(self):
        graph, pa, pb = simple_setup()
        host_a, host_b = graph.pin_host(pa), graph.pin_host(pb)
        route = [(pa, host_a), (host_a, host_b), (host_b, pb)]
        expansions = cell_edge_expansions(graph, {"n1": route}, 1.0)
        # Cell a's right edge and cell b's left edge share the channel.
        assert "a" in expansions and "b" in expansions
        assert expansions["a"]["right"] >= required_channel_width(1, 1.0) / 2
        assert expansions["a"]["right"] == expansions["b"]["left"]

    def test_core_boundary_not_expanded(self):
        graph, pa, pb = simple_setup()
        expansions = cell_edge_expansions(graph, {}, 1.0)
        assert "__core__" not in expansions

    def test_zero_density_still_reserves_margin(self):
        graph, pa, pb = simple_setup()
        expansions = cell_edge_expansions(graph, {}, 1.0)
        # Even unrouted channels get (0 + 2) * t_s / 2 = 1 per side.
        assert expansions["a"]["right"] == pytest.approx(1.0)
