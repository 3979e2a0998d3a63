"""The placement state: caches, incremental costs, snapshots."""

import random

import pytest

from repro.estimator import determine_core
from repro.geometry import BOTTOM, LEFT, RIGHT, TOP
from repro.netlist import CustomCell, MacroCell
from repro.placement import PlacementState, world_side

from ..conftest import make_macro_circuit, make_mixed_circuit


@pytest.fixture
def macro_state():
    ckt = make_macro_circuit()
    return PlacementState(ckt, determine_core(ckt))


@pytest.fixture
def mixed_state():
    ckt = make_mixed_circuit()
    return PlacementState(ckt, determine_core(ckt))


class TestWorldSide:
    def test_identity(self):
        for side in (LEFT, RIGHT, BOTTOM, TOP):
            assert world_side(side, 0) == side

    def test_r90(self):
        assert world_side(LEFT, 1) == BOTTOM
        assert world_side(BOTTOM, 1) == RIGHT
        assert world_side(RIGHT, 1) == TOP
        assert world_side(TOP, 1) == LEFT

    def test_r180(self):
        assert world_side(LEFT, 2) == RIGHT
        assert world_side(TOP, 2) == BOTTOM

    def test_mirror(self):
        assert world_side(LEFT, 4) == RIGHT
        assert world_side(TOP, 4) == TOP

    def test_permutation(self):
        for o in range(8):
            mapped = {world_side(s, o) for s in (LEFT, RIGHT, BOTTOM, TOP)}
            assert mapped == {LEFT, RIGHT, BOTTOM, TOP}


class TestInitialState:
    def test_all_cells_at_core_center(self, macro_state):
        c = macro_state.core.center
        for record in macro_state.records:
            assert record.center == (c.x, c.y)

    def test_cost_components_nonnegative(self, macro_state):
        assert macro_state.c1() >= 0
        assert macro_state.c2_raw() >= 0
        assert macro_state.c3() >= 0

    def test_stacked_cells_overlap(self, macro_state):
        # Everything starts at the center, so C2 must see heavy overlap.
        assert macro_state.c2_raw() > 0

    def test_randomize_spreads(self, macro_state):
        macro_state.randomize(random.Random(0))
        centers = {r.center for r in macro_state.records}
        assert len(centers) == len(macro_state.records)

    def test_custom_records_have_aspect(self, mixed_state):
        idx = mixed_state.index["cust0"]
        assert mixed_state.records[idx].aspect_ratio == 1.0
        assert mixed_state.records[idx].pin_sites


class TestGeometryQueries:
    def test_world_shape_follows_center(self, macro_state):
        macro_state.move_cell(0, center=(30.0, -20.0))
        bbox = macro_state.world_shape(macro_state.names[0]).bbox
        assert bbox.center.x == pytest.approx(30.0)
        assert bbox.center.y == pytest.approx(-20.0)

    def test_expanded_contains_shape(self, macro_state):
        macro_state.randomize(random.Random(1))
        for name in macro_state.names:
            shape = macro_state.world_shape(name).bbox
            expanded = macro_state.expanded_shape(name).bbox
            assert expanded.contains_rect(shape)

    def test_pin_positions_move_with_cell(self, macro_state):
        name = macro_state.names[0]
        before = macro_state.pin_position(name, "p0")
        macro_state.move_cell(0, center=(25.0, 10.0))
        after = macro_state.pin_position(name, "p0")
        assert after != before

    def test_pin_rotates_with_orientation(self, macro_state):
        name = macro_state.names[0]
        macro_state.move_cell(0, center=(0.0, 0.0), orientation=0)
        p0 = macro_state.pin_position(name, "p0")
        macro_state.move_cell(0, orientation=2)  # R180
        p180 = macro_state.pin_position(name, "p0")
        assert p180[0] == pytest.approx(-p0[0])
        assert p180[1] == pytest.approx(-p0[1])

    def test_custom_pin_on_current_shape_boundary(self, mixed_state):
        idx = mixed_state.index["cust0"]
        record = mixed_state.records[idx]
        cell = mixed_state.cell(idx)
        assert isinstance(cell, CustomCell)
        w, h = cell.dimensions(record.aspect_ratio)
        pos = mixed_state.pin_position("cust0", "a")
        cx, cy = record.center
        assert (
            abs(abs(pos[0] - cx) - w / 2) < 1e-6
            or abs(abs(pos[1] - cy) - h / 2) < 1e-6
        )

    def test_chip_bbox_covers_all_cells(self, macro_state):
        macro_state.randomize(random.Random(2))
        chip = macro_state.chip_bbox()
        for name in macro_state.names:
            assert chip.contains_rect(macro_state.world_shape(name).bbox)


def random_walk(state, steps, seed):
    """Apply a random sequence of accepted/rejected mutations."""
    rng = random.Random(seed)
    n = len(state.names)
    for _ in range(steps):
        kind = rng.randrange(5)
        idx = rng.randrange(n)
        if kind == 0:
            delta, snap = state.move_cell(
                idx,
                center=(rng.uniform(-50, 50), rng.uniform(-50, 50)),
            )
        elif kind == 1:
            delta, snap = state.move_cell(idx, orientation=rng.randrange(8))
        elif kind == 2 and n >= 2:
            j = rng.randrange(n - 1)
            j = j + 1 if j >= idx else j
            delta, snap = state.swap_cells(idx, j)
        elif kind == 3:
            delta, snap = state.move_cell_inverted(
                idx, (rng.uniform(-50, 50), rng.uniform(-50, 50))
            )
        else:
            cell = state.cell(idx)
            if isinstance(cell, CustomCell) and state._groups[idx]:
                key, _ = state._groups[idx][0]
                delta, snap = state.move_pin_group(
                    idx, key, rng.choice([LEFT, RIGHT, BOTTOM, TOP]),
                    rng.randrange(cell.sites_per_edge),
                )
            else:
                delta, snap = state.move_cell(idx, center=(0.0, 0.0))
        if rng.random() < 0.5:
            state.restore(snap)


class TestIncrementalConsistency:
    """The central invariant: incremental accounting equals a rebuild."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_macro_walk(self, macro_state, seed):
        macro_state.randomize(random.Random(seed))
        random_walk(macro_state, 120, seed)
        c1, c2, c3 = macro_state.c1(), macro_state.c2_raw(), macro_state.c3()
        macro_state.rebuild()
        assert macro_state.c1() == pytest.approx(c1, rel=1e-9, abs=1e-6)
        assert macro_state.c2_raw() == pytest.approx(c2, rel=1e-9, abs=1e-6)
        assert macro_state.c3() == pytest.approx(c3, rel=1e-9, abs=1e-6)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_walk(self, mixed_state, seed):
        mixed_state.randomize(random.Random(seed))
        random_walk(mixed_state, 120, seed)
        cost = mixed_state.cost()
        mixed_state.rebuild()
        assert mixed_state.cost() == pytest.approx(cost, rel=1e-9, abs=1e-6)


class TestSnapshotRestore:
    def test_move_restore_exact(self, macro_state):
        macro_state.randomize(random.Random(3))
        before_cost = macro_state.cost()
        before_teil = macro_state.teil()
        center_before = macro_state.records[0].center
        orientation_before = macro_state.records[0].orientation
        delta, snap = macro_state.move_cell(0, center=(5.0, 5.0), orientation=3)
        assert macro_state.cost() == pytest.approx(before_cost + delta)
        macro_state.restore(snap)
        assert macro_state.cost() == before_cost
        assert macro_state.teil() == before_teil
        assert macro_state.records[0].center == center_before
        assert macro_state.records[0].orientation == orientation_before

    def test_swap_restore_exact(self, macro_state):
        macro_state.randomize(random.Random(4))
        c0, c1 = macro_state.records[0].center, macro_state.records[1].center
        cost = macro_state.cost()
        delta, snap = macro_state.swap_cells(0, 1)
        assert macro_state.records[0].center == c1
        macro_state.restore(snap)
        assert macro_state.records[0].center == c0
        assert macro_state.cost() == cost

    def test_pin_group_restore(self, mixed_state):
        idx = mixed_state.index["cust0"]
        key, _ = mixed_state._groups[idx][0]
        sites_before = dict(mixed_state.records[idx].pin_sites)
        cost = mixed_state.cost()
        _, snap = mixed_state.move_pin_group(idx, key, TOP, 2)
        mixed_state.restore(snap)
        assert mixed_state.records[idx].pin_sites == sites_before
        assert mixed_state.cost() == cost

    def test_swap_self_rejected(self, macro_state):
        with pytest.raises(ValueError):
            macro_state.swap_cells(1, 1)


class TestAspectAndInstance:
    def test_custom_aspect_change(self, mixed_state):
        idx = mixed_state.index["cust0"]
        delta, snap = mixed_state.move_cell(idx, aspect_ratio=2.0)
        shape = mixed_state.world_shape("cust0")
        assert shape.bbox.height / shape.bbox.width == pytest.approx(2.0)
        mixed_state.restore(snap)
        shape = mixed_state.world_shape("cust0")
        assert shape.bbox.height / shape.bbox.width == pytest.approx(1.0)

    def test_macro_inverted_changes_orientation(self, macro_state):
        o_before = macro_state.records[0].orientation
        macro_state.move_cell_inverted(0, (0.0, 0.0))
        assert macro_state.records[0].orientation != o_before

    def test_custom_inverted_inverts_ratio(self, mixed_state):
        idx = mixed_state.index["cust0"]
        mixed_state.move_cell(idx, aspect_ratio=2.0)
        mixed_state.move_cell_inverted(idx, (0.0, 0.0))
        assert mixed_state.records[idx].aspect_ratio == pytest.approx(0.5)


def make_tight_custom_state():
    """A custom cell so small that each pin site holds a single pin."""
    from repro.netlist import Circuit, ContinuousAspectRatio, Pin, PinKind
    from repro.netlist import CustomCell as CC
    from repro.netlist import MacroCell as MC

    pins = [
        Pin(f"g1_{k}", f"n{k}", PinKind.GROUP, group="g1") for k in range(3)
    ] + [Pin(f"g2_{k}", f"n{k}", PinKind.GROUP, group="g2") for k in range(3)]
    tiny = CC(
        "tiny",
        pins,
        area=16.0,
        aspect=ContinuousAspectRatio(1.0, 1.0),
        sites_per_edge=4,
        pin_pitch=1.0,
    )
    anchor = MC.rectangular(
        "anchor",
        8,
        8,
        [Pin(f"p{k}", f"n{k}", PinKind.FIXED, offset=(0, 4)) for k in range(3)],
    )
    ckt = Circuit("tight", [tiny, anchor])
    return PlacementState(ckt, determine_core(ckt)), ckt


class TestC3Penalty:
    def test_overflow_penalized(self):
        state, _ = make_tight_custom_state()
        idx = state.index["tiny"]
        # Site capacity is 1 (4-unit edge, 4 sites); stacking both 3-pin
        # groups on the same sites puts 2 pins in each -> overflow.
        state.move_pin_group(idx, "g1", LEFT, 0)
        state.move_pin_group(idx, "g2", LEFT, 0)
        piled = state.c3()
        assert piled > 0
        # E = (count - capacity + kappa)**2 = (2 - 1 + 5)**2 per site, 3 sites.
        assert piled == pytest.approx(3 * 36.0)

    def test_spread_cheaper_than_piled(self):
        state, _ = make_tight_custom_state()
        idx = state.index["tiny"]
        state.move_pin_group(idx, "g1", LEFT, 0)
        state.move_pin_group(idx, "g2", LEFT, 0)
        piled = state.c3()
        state.move_pin_group(idx, "g2", RIGHT, 0)
        assert state.c3() < piled
        assert state.c3() == 0.0


class TestStaticExpansions:
    def test_switch_to_static(self, macro_state):
        macro_state.randomize(random.Random(5))
        name = macro_state.names[0]
        macro_state.set_static_expansions({name: {LEFT: 4.0, TOP: 2.0}})
        assert not macro_state.dynamic_expansion
        shape = macro_state.world_shape(name).bbox
        expanded = macro_state.expanded_shape(name).bbox
        assert shape.x1 - expanded.x1 == pytest.approx(4.0)
        assert expanded.y2 - shape.y2 == pytest.approx(2.0)
        assert expanded.x2 - shape.x2 == pytest.approx(0.0)

    def test_unlisted_cells_zero_margin(self, macro_state):
        macro_state.set_static_expansions({})
        for name in macro_state.names:
            assert (
                macro_state.expanded_shape(name).bbox.area
                == macro_state.world_shape(name).bbox.area
            )


class TestClamp:
    def test_clamp_inside(self, macro_state):
        core = macro_state.core
        assert macro_state.clamp_to_core((core.x2 + 100, 0.0)) == (core.x2, 0.0)
        inside = (core.center.x, core.center.y)
        assert macro_state.clamp_to_core(inside) == inside
