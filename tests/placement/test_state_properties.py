"""Long randomized invariants for the incremental hot path.

The spatial-index broad phase, the overlap adjacency map, and the
snapshot protocol are only correct if, after *any* sequence of moves and
restores, the incremental accumulators equal a from-scratch rebuild and
the auxiliary structures (``_adj``, the grid) stay in sync with
``_overlaps``.  These tests replay long fixed-seed mixed-move sequences
and check exactly that.
"""

import random

import pytest

from repro.estimator import determine_core
from repro.geometry import BOTTOM, LEFT, RIGHT, TOP
from repro.netlist import CustomCell
from repro.placement import PlacementState

from ..conftest import (
    make_crowded_custom_circuit,
    make_macro_circuit,
    make_mixed_circuit,
)

SIDES = (LEFT, RIGHT, BOTTOM, TOP)


def mixed_move_sequence(state, steps, seed, span=60.0):
    """Displace / inverted displace / swap / pin-group / restore, with
    roughly half of the moves taken back — the §3.2.1 cascade's shape."""
    rng = random.Random(seed)
    n = len(state.names)
    for _ in range(steps):
        kind = rng.randrange(5)
        idx = rng.randrange(n)
        target = (rng.uniform(-span, span), rng.uniform(-span, span))
        if kind == 0:
            _, snap = state.move_cell(idx, center=target)
        elif kind == 1:
            _, snap = state.move_cell_inverted(idx, target)
        elif kind == 2 and n >= 2:
            j = rng.randrange(n - 1)
            j = j + 1 if j >= idx else j
            _, snap = state.swap_cells(idx, j)
        elif kind == 3:
            _, snap = state.move_cell(idx, orientation=rng.randrange(8))
        else:
            cell = state.cell(idx)
            if isinstance(cell, CustomCell) and state._groups[idx]:
                groups = state._groups[idx]
                key, _ = groups[rng.randrange(len(groups))]
                _, snap = state.move_pin_group(
                    idx,
                    key,
                    SIDES[rng.randrange(4)],
                    rng.randrange(cell.sites_per_edge),
                )
            else:
                _, snap = state.move_cell(idx, center=target)
        if rng.random() < 0.5:
            state.restore(snap)


def assert_matches_rebuild(state):
    """Incremental _c1/_c2_raw/_c3_total must equal a rebuild to 1e-6."""
    c1, c2, c3 = state._c1, state._c2_raw, state._c3_total
    state.rebuild()
    assert state._c1 == pytest.approx(c1, rel=1e-9, abs=1e-6)
    assert state._c2_raw == pytest.approx(c2, rel=1e-9, abs=1e-6)
    assert state._c3_total == pytest.approx(c3, rel=1e-9, abs=1e-6)


def assert_structures_in_sync(state):
    """_adj must mirror _overlaps; the grid must hold every cell under
    its current expanded bbox."""
    n = len(state.names)
    # Adjacency is exactly the edge set of _overlaps.
    edges = {frozenset(pair) for pair in state._overlaps}
    from_adj = {
        frozenset((i, j)) for i in range(n) for j in state._adj[i]
    }
    assert from_adj == edges
    for i, j in state._overlaps:
        assert i < j, "overlap keys must be ordered pairs"
        assert state._overlaps[(i, j)] > 0.0
    # Every cell is indexed under the bin range of its current bbox.
    for i in range(n):
        assert i in state._grid
        assert state._grid.stored_range(i) == state._grid.bin_range(
            state.expanded_shape(state.names[i]).bbox
        )


class TestLongMixedWalks:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_macro_500_moves(self, seed):
        ckt = make_macro_circuit()
        state = PlacementState(ckt, determine_core(ckt))
        state.randomize(random.Random(seed))
        mixed_move_sequence(state, 500, seed)
        assert_structures_in_sync(state)
        assert_matches_rebuild(state)

    @pytest.mark.parametrize("seed", [21, 22])
    def test_mixed_500_moves(self, seed):
        ckt = make_mixed_circuit()
        state = PlacementState(ckt, determine_core(ckt))
        state.randomize(random.Random(seed))
        mixed_move_sequence(state, 500, seed)
        assert_structures_in_sync(state)
        assert_matches_rebuild(state)

    def test_walk_crossing_bin_boundaries(self):
        # Small span relative to the core keeps cells clustered so they
        # repeatedly cross grid-bin boundaries while staying in contact.
        ckt = make_macro_circuit()
        state = PlacementState(ckt, determine_core(ckt))
        state.randomize(random.Random(31))
        bin_size = state._grid.bin_size
        rng = random.Random(31)
        n = len(state.names)
        for _ in range(300):
            idx = rng.randrange(n)
            cx, cy = state.records[idx].center
            # Step of about one bin: guaranteed re-binning traffic.
            _, snap = state.move_cell(
                idx,
                center=(
                    cx + rng.uniform(-1.5, 1.5) * bin_size,
                    cy + rng.uniform(-1.5, 1.5) * bin_size,
                ),
            )
            if rng.random() < 0.5:
                state.restore(snap)
        assert_structures_in_sync(state)
        assert_matches_rebuild(state)

    def test_cell_larger_than_one_bin(self):
        # The expanded bbox of a macro is far larger than one grid bin
        # when the grid is rebuilt with a deliberately tiny bin size.
        from repro.placement.spatial import UniformGridIndex

        ckt = make_macro_circuit()
        state = PlacementState(ckt, determine_core(ckt))
        state.randomize(random.Random(41))
        # Rebuild the index with bins much smaller than any cell.
        state._grid = UniformGridIndex(0.75)
        for i in range(len(state.names)):
            state._grid.insert(i, state._expanded[i].bbox)
        for i in range(len(state.names)):
            bx1, by1, bx2, by2 = state._grid.stored_range(i)
            assert (bx2 - bx1 + 1) * (by2 - by1 + 1) > 1
        mixed_move_sequence(state, 200, 41)
        assert_structures_in_sync(state)
        assert_matches_rebuild(state)


class TestPinGroupFastPath:
    """move_pin_group skips all geometry work; nothing geometric may
    drift even across restores."""

    def test_geometry_untouched_and_costs_exact(self):
        ckt = make_mixed_circuit()
        state = PlacementState(ckt, determine_core(ckt))
        state.randomize(random.Random(51))
        customs = [
            i
            for i in range(len(state.names))
            if isinstance(state.cell(i), CustomCell) and state._groups[i]
        ]
        assert customs, "fixture must contain custom cells with groups"
        expanded_before = [state._expanded[i] for i in range(len(state.names))]
        overlaps_before = dict(state._overlaps)
        rng = random.Random(51)
        for _ in range(200):
            idx = customs[rng.randrange(len(customs))]
            cell = state.cell(idx)
            groups = state._groups[idx]
            key, _ = groups[rng.randrange(len(groups))]
            _, snap = state.move_pin_group(
                idx,
                key,
                SIDES[rng.randrange(4)],
                rng.randrange(cell.sites_per_edge),
            )
            assert snap.ebbs is None  # no geometry saved
            if rng.random() < 0.5:
                state.restore(snap)
        # Pin moves cannot change shapes, overlaps, or the grid.
        for i in range(len(state.names)):
            assert state._expanded[i] is expanded_before[i]
        assert state._overlaps == overlaps_before
        assert_structures_in_sync(state)
        assert_matches_rebuild(state)


def mirror_copy(state):
    """Deep copies of every hot-path mirror, the site-occupancy counts,
    the records and the accumulators."""
    return (
        list(state._lex1), list(state._ley1), list(state._lex2),
        list(state._ley2), list(state._ltiles),
        list(state._lpx), list(state._lpy), list(state._lox), list(state._loy),
        list(state._lsx), list(state._lsy),
        list(state._borders), list(state._c3), list(state._cdims),
        [None if occ is None else list(occ) for occ in state._occ],
        dict(state._overlaps), [set(a) for a in state._adj],
        state.state_dict(),
    )


def pin_heavy_walk(state, steps, seed):
    """Random pin-group, displace, inverted-displace, orientation,
    aspect and swap moves, each restored (rejected) about half the
    time; yields after every step with the move's snapshot state."""
    rng = random.Random(seed)
    n = len(state.names)
    span = state.core.width / 2.0
    for _ in range(steps):
        idx = rng.randrange(n)
        cell = state.cell(idx)
        kind = rng.choice(
            ("pin_group", "pin_group", "pin_group", "displace",
             "displace_inverted", "orientation", "aspect", "swap")
        )
        target = (rng.uniform(-span, span), rng.uniform(-span, span))
        before = mirror_copy(state)
        if kind == "pin_group":
            g = rng.randrange(len(state._groups[idx]))
            _, snap = state.move_pin_group(
                idx,
                state._groups[idx][g][0],
                rng.choice(state._group_sides[idx][g]),
                rng.randrange(cell.sites_per_edge),
            )
        elif kind == "displace":
            _, snap = state.move_cell(idx, center=target)
        elif kind == "displace_inverted":
            _, snap = state.move_cell_inverted(idx, target)
        elif kind == "orientation":
            _, snap = state.move_cell(idx, orientation=rng.randrange(8))
        elif kind == "aspect":
            ar = cell.aspect.clamp(rng.uniform(0.4, 2.5))
            _, snap = state.move_cell(idx, aspect_ratio=ar)
        else:
            j = rng.randrange(n - 1)
            j = j + 1 if j >= idx else j
            _, snap = state.swap_cells(idx, j)
        rejected = rng.random() < 0.5
        if rejected:
            state.restore(snap)
        yield kind, rejected, before


class TestPinMoveProperties:
    """Group-local pin moves and the incremental C3 against the
    from-scratch reference, after every single step."""

    # 5.0 and 2.5 give exact (integer, quarter-integer) terms; at 0.1
    # they round, so only the canonical summation order matches.
    @pytest.mark.parametrize("kappa", [5.0, 2.5, 0.1])
    def test_every_step_matches_reference(self, kappa):
        # Sixteen grouped pins on sixteen one-pin sites: many sites
        # overflow at once, so the summation order shows.
        ckt = make_crowded_custom_circuit(groups=4, group_size=4)
        state = PlacementState(ckt, determine_core(ckt), kappa=kappa)
        state.randomize(random.Random(81))
        kinds = set()
        c3_live = False
        for kind, rejected, before in pin_heavy_walk(state, 400, seed=81):
            kinds.add(kind)
            if rejected:
                assert mirror_copy(state) == before, f"{kind} restore"
            for i in range(len(state.names)):
                pins = state._pin_positions(i)
                for p, name in enumerate(state._pin_names[i], state._pin_start[i]):
                    assert (state._lpx[p], state._lpy[p]) == pins[name], kind
                # The canonical sum order makes the per-cell penalty
                # exactly the reference's, at any kappa.
                assert state._c3[i] == state._cell_c3(i), kind
            c1, _, c3 = state.cost_breakdown_fresh()
            assert state.c1() == pytest.approx(c1, rel=1e-9, abs=1e-6)
            assert state.c3() == pytest.approx(c3, rel=1e-9, abs=1e-9)
            c3_live = c3_live or c3 != int(c3)
        assert len(kinds) == 6
        if kappa != 5.0:
            assert c3_live, "the walk must reach non-integer penalties"

    def test_pin_move_touches_only_its_group(self):
        ckt = make_crowded_custom_circuit()
        state = PlacementState(ckt, determine_core(ckt))
        state.randomize(random.Random(82))
        idx = 2
        g = 1
        key = state._groups[idx][g][0]
        slots = set(state._gslots[idx][g])
        lpx = list(state._lpx)
        _, snap = state.move_pin_group(idx, key, TOP, 3)
        changed = {p for p, x in enumerate(state._lpx) if x != lpx[p]}
        assert changed <= slots
        # Only the group's incident nets are re-spanned.
        assert [e for e, _, _ in snap.spans] == list(state._gnets[idx][g])
        members = {e for e in state._cnets[idx] if slots & set(state._nmem[e])}
        assert set(state._gnets[idx][g]) == members


class TestLazyWorldShape:
    def test_world_shape_materializes_on_demand(self):
        ckt = make_macro_circuit()
        state = PlacementState(ckt, determine_core(ckt))
        state.randomize(random.Random(61))
        name = state.names[0]
        idx = state.index[name]
        state.move_cell(idx, center=(7.0, -3.0))
        # The move leaves the world shape stale…
        assert state._shapes[idx] is None
        # …and the accessor rebuilds it at the new center.
        bbox = state.world_shape(name).bbox
        assert bbox.center.x == pytest.approx(7.0)
        assert bbox.center.y == pytest.approx(-3.0)
        assert state._shapes[idx] is not None

    def test_restore_may_restore_stale_marker(self):
        ckt = make_macro_circuit()
        state = PlacementState(ckt, determine_core(ckt))
        state.randomize(random.Random(62))
        idx = 0
        state.move_cell(idx, center=(1.0, 1.0))
        _, snap = state.move_cell(idx, center=(2.0, 2.0))
        state.restore(snap)
        # Whether stale or materialized, the accessor must agree with
        # the record's center.
        bbox = state.world_shape(state.names[idx]).bbox
        assert bbox.center.x == pytest.approx(1.0)
        assert bbox.center.y == pytest.approx(1.0)


class TestSnapshotScope:
    def test_single_move_snapshot_visits_only_partners(self):
        """The snapshot records only pairs of the moved cell (its
        broad-phase candidates), and only its adjacency carries a
        nonzero saved area — not every pair in the placement."""
        ckt = make_macro_circuit()
        state = PlacementState(ckt, determine_core(ckt))
        state.randomize(random.Random(71))
        idx = 0
        partners = set(state._adj[idx])
        _, snap = state.move_cell(idx, center=(0.0, 0.0))
        assert {j for _, j, old in snap.overlaps if old > 0.0} == partners
        for i, j, _ in snap.overlaps:
            assert i == idx and j != idx
        state.restore(snap)
        assert set(state._adj[idx]) == partners
