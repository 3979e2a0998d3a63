"""The placement hot path against its from-scratch oracle.

``PlacementState`` applies every move incrementally over a
struct-of-arrays mirror.  Its only reference is the from-scratch
evaluation — ``cost_breakdown_fresh()`` and ``rebuild()`` — which shares
none of the incremental code.  These tests replay long fixed-seed walks
over randomized circuits (macro orientations, multi-instance macros,
custom cells with grouped and sequenced pins), covering every move kind
in both the dynamic (stage-1) and static (stage-2) expansion modes, and
check that:

* the incremental C1/C2/C3 accumulators agree with the oracle,
* replaying a walk is deterministic bit for bit,
* a ``state_dict`` round trip rebuilds the identical mirror, so a
  resumed run continues on the same trajectory.
"""

import random

import pytest

from repro import TimberWolfConfig
from repro.annealing import RangeLimiter
from repro.bench import CircuitSpec, generate_circuit
from repro.estimator import determine_core
from repro.geometry import BOTTOM, LEFT, RIGHT, TOP
from repro.netlist import CustomCell, MacroCell
from repro.placement import BatchMoveGenerator, MoveGenerator, PlacementState
from repro.placement.moves import MOVE_KINDS
from repro.service.spec import JobSpec

#: Randomized-circuit population for the property tests: custom-heavy,
#: macro-only, and the default mix, across sizes and seeds.  The bench
#: generator emits multi-instance macros (``multi_instance_fraction``)
#: and custom cells with grouped/sequenced pins, so every snapshot
#: field is exercised.
SPECS = [
    CircuitSpec(name="prop_a", num_cells=12, num_nets=24, num_pins=60, seed=3,
                custom_fraction=0.5, multi_instance_fraction=0.5),
    CircuitSpec(name="prop_b", num_cells=20, num_nets=40, num_pins=100, seed=5,
                custom_fraction=0.0, multi_instance_fraction=0.6),
    CircuitSpec(name="prop_c", num_cells=16, num_nets=32, num_pins=80, seed=8,
                custom_fraction=0.25),
]

#: The MoveGenerator walk circuit: macros (some multi-instance) and
#: custom cells, so the cascade issues every move kind.
WALK = CircuitSpec(
    name="walk", num_cells=30, num_nets=60, num_pins=150, seed=2,
    custom_fraction=0.25, multi_instance_fraction=0.4,
)

SIDES = (LEFT, RIGHT, BOTTOM, TOP)


def _state(spec, static=False, seed=0):
    """A randomized placement; ``static`` switches it to stage-2 mode
    with seeded per-side margins."""
    circuit = generate_circuit(spec)
    state = PlacementState(circuit, determine_core(circuit))
    state.randomize(random.Random(seed))
    if static:
        rng = random.Random(seed + 1)
        state.set_static_expansions(
            {name: {side: rng.uniform(0.0, 3.0) for side in SIDES}
             for name in state.names}
        )
    return state


def _clone(state):
    """A fresh state rebuilt from ``state``'s checkpoint form."""
    clone = PlacementState(state.circuit, state.plan, kappa=state.kappa)
    clone.load_state_dict(state.state_dict())
    return clone


def assert_matches_oracle(state):
    """Incremental accumulators == cost_breakdown_fresh() == rebuild(),
    to summation-order rounding."""
    c1, c2, c3 = state._c1, state._c2_raw, state._c3_total
    for fresh in (state.cost_breakdown_fresh(), None):
        if fresh is None:
            state.rebuild()
            fresh = (state._c1, state._c2_raw, state._c3_total)
        assert fresh[0] == pytest.approx(c1, rel=1e-9, abs=1e-6)
        assert fresh[1] == pytest.approx(c2, rel=1e-9, abs=1e-6)
        assert fresh[2] == pytest.approx(c3, rel=1e-9, abs=1e-6)


def every_kind_sequence(state, steps, seed, span=60.0):
    """Every state move method — displace, inverted displace, swap,
    inverted swap, orientation, instance, aspect, pin group — with about
    half of the moves restored.  Returns the kinds actually issued."""
    rng = random.Random(seed)
    n = len(state.names)
    issued = set()
    for _ in range(steps):
        idx = rng.randrange(n)
        cell = state.cell(idx)
        kind = rng.randrange(8)
        target = (rng.uniform(-span, span), rng.uniform(-span, span))
        before = state.cost()
        if kind == 1:
            delta, snap = state.move_cell_inverted(idx, target)
        elif kind in (2, 3):
            j = rng.randrange(n - 1)
            j = j + 1 if j >= idx else j
            swap = state.swap_cells if kind == 2 else state.swap_cells_inverted
            delta, snap = swap(idx, j)
        elif kind == 4:
            delta, snap = state.move_cell(idx, orientation=rng.randrange(8))
        elif kind == 5 and isinstance(cell, MacroCell) and cell.num_instances > 1:
            instance = rng.randrange(cell.num_instances)
            delta, snap = state.move_cell(idx, instance=instance)
        elif kind == 6 and isinstance(cell, CustomCell):
            ar = cell.aspect.clamp(rng.uniform(0.3, 3.0))
            delta, snap = state.move_cell(idx, aspect_ratio=ar)
        elif kind == 7 and isinstance(cell, CustomCell) and state._groups[idx]:
            key, _ = state._groups[idx][rng.randrange(len(state._groups[idx]))]
            delta, snap = state.move_pin_group(
                idx, key, SIDES[rng.randrange(4)],
                rng.randrange(cell.sites_per_edge),
            )
        else:
            kind = 0
            delta, snap = state.move_cell(idx, center=target)
        issued.add(kind)
        assert state.cost() - before == delta
        if rng.random() < 0.5:
            state.restore(snap)
            assert state.cost() == before
    return issued


class TestFactory:
    def test_unknown_core_rejected(self):
        with pytest.raises(ValueError, match="core must be 'array'"):
            TimberWolfConfig(core="simd")

    def test_object_core_rejected(self):
        """Configs and queued job specs naming the removed object core
        fail loudly instead of silently running the array core."""
        with pytest.raises(ValueError, match="object placement core was removed"):
            TimberWolfConfig(core="object")
        with pytest.raises(ValueError, match="object placement core was removed"):
            JobSpec(circuit="c.twmc", core="object")


class TestRoundTrip:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_round_trip_after_array_moves(self, spec):
        """Age a state with moves, round-trip it through state_dict into
        a fresh state, and the rebuilt clone matches bit for bit — and
        keeps matching as both continue the same walk."""
        state = _state(spec)
        every_kind_sequence(state, 120, seed=17)
        clone = _clone(state)
        assert clone.state_dict() == state.state_dict()
        assert clone.net_spans() == state.net_spans()
        assert clone.chip_bbox() == state.chip_bbox()
        every_kind_sequence(state, 60, seed=19)
        every_kind_sequence(clone, 60, seed=19)
        assert clone.state_dict() == state.state_dict()

    def test_soa_views_match_state(self):
        """After a walk, every flat mirror entry equals the value the
        object model computes from the records."""
        state = _state(SPECS[2])
        every_kind_sequence(state, 150, seed=23)
        for i in range(len(state.names)):
            exp = state._expanded_shape(i, state._world_shape(i))
            bbox = (state._lex1[i], state._ley1[i], state._lex2[i], state._ley2[i])
            assert bbox == (exp.bbox.x1, exp.bbox.y1, exp.bbox.x2, exp.bbox.y2)
            pins = state._pin_positions(i)
            for name in state.cell(i).pins:
                assert state.pin_position(state.names[i], name) == pins[name]


class TestReplayIdentity:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_mixed_sequence_cost_identical(self, spec):
        """The every-kind move/restore walk, in both expansion modes:
        each delta is exact, each restore returns the cost bit for bit,
        replaying the walk gives identical accumulators, and they agree
        with the from-scratch oracle."""
        for static in (False, True):
            runs = []
            for _ in range(2):
                state = _state(spec, static=static)
                issued = every_kind_sequence(state, 200, seed=0)
                runs.append((state._c1, state._c2_raw, state._c3_total))
            assert runs[0] == runs[1]
            assert {0, 1, 2, 3, 4} <= issued
            if spec.custom_fraction:
                assert {6, 7} <= issued
            assert_matches_oracle(state)

    def test_500_move_generator_walk_identical(self):
        """A seeded 500-step MoveGenerator walk (the real §3.2.1
        cascade, Metropolis decisions included) issues every move kind
        and, in both expansion modes, replays with identical per-step
        attempts, accepts, and cost while matching the oracle."""
        for static in (False, True):
            traces = []
            for _ in range(2):
                state = _state(WALK, static=static)
                limiter = RangeLimiter(
                    full_span_x=state.core.width,
                    full_span_y=state.core.height,
                    t_infinity=500.0,
                )
                generator = MoveGenerator(state, limiter)
                rng = random.Random(4)
                trace = []
                for _ in range(500):
                    attempts, accepts = generator.step(50.0, rng)
                    trace.append((attempts, accepts, state.cost()))
                traces.append((trace, generator.stats, state.state_dict()))
            assert traces[0] == traces[1]
            assert all(traces[0][1][kind][0] > 0 for kind in MOVE_KINDS)
            assert_matches_oracle(state)
        cells = [state.cell(i) for i in range(len(state.names))]
        assert any(isinstance(c, CustomCell) for c in cells)
        assert any(isinstance(c, MacroCell) and c.num_instances > 1 for c in cells)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.name)
    def test_accumulators_match_rebuild(self, spec):
        """After a long walk the incremental accumulators still agree
        with a from-scratch rebuild."""
        state = _state(spec)
        every_kind_sequence(state, 150, seed=29)
        c1, c2, c3 = state._c1, state._c2_raw, state._c3_total
        state.rebuild()
        assert state._c1 == pytest.approx(c1, rel=1e-9, abs=1e-6)
        assert state._c2_raw == pytest.approx(c2, rel=1e-9, abs=1e-6)
        assert state._c3_total == pytest.approx(c3, rel=1e-9, abs=1e-6)


class TestBatchGenerator:
    def _arr(self, n=24, seed=0):
        spec = CircuitSpec(
            name="batch", num_cells=n, num_nets=2 * n, num_pins=5 * n, seed=6,
            custom_fraction=0.25,
        )
        circuit = generate_circuit(spec)
        arr = PlacementState(circuit, determine_core(circuit))
        arr.randomize(random.Random(seed))
        return arr

    def test_batched_accumulators_match_fresh_evaluation(self):
        """The batched kernel's incremental cost agrees with a full
        fresh evaluation after hundreds of accepted moves."""
        arr = self._arr()
        limiter = RangeLimiter(
            full_span_x=arr.core.width,
            full_span_y=arr.core.height,
            t_infinity=500.0,
        )
        generator = BatchMoveGenerator(arr, limiter, batch=16, seed=3)
        generator.begin()
        total_attempts = total_accepts = 0
        for _ in range(40):
            a, acc = generator.step(50.0)
            total_attempts += a
            total_accepts += acc
        generator.finish()
        assert total_attempts > 0
        assert total_accepts > 0
        c1, c2, c3 = arr.cost_breakdown_fresh()
        assert arr._c1 == pytest.approx(c1, rel=1e-9, abs=1e-6)
        assert arr._c2_raw == pytest.approx(c2, rel=1e-9, abs=1e-6)
        assert arr._c3_total == pytest.approx(c3, rel=1e-9, abs=1e-6)

    def test_batched_stats_cover_both_kinds(self):
        arr = self._arr()
        limiter = RangeLimiter(
            full_span_x=arr.core.width,
            full_span_y=arr.core.height,
            t_infinity=500.0,
        )
        generator = BatchMoveGenerator(arr, limiter, batch=12, seed=1)
        generator.begin()
        for _ in range(60):
            generator.step(50.0)
        generator.finish()
        stats = generator.stats
        assert stats["displace_batch"][0] > 0
        assert stats["interchange_batch"][0] > 0

    def test_batched_is_deterministic_per_seed(self):
        runs = []
        for _ in range(2):
            arr = self._arr()
            limiter = RangeLimiter(
                full_span_x=arr.core.width,
                full_span_y=arr.core.height,
                t_infinity=500.0,
            )
            generator = BatchMoveGenerator(arr, limiter, batch=16, seed=9)
            generator.begin()
            trace = []
            for _ in range(25):
                trace.append(generator.step(50.0) + (arr.cost(),))
            generator.finish()
            runs.append(trace)
        assert runs[0] == runs[1]


class TestVectorizedCost:
    def test_accessors_read_the_mirror(self):
        """pin_position / net_spans / teil / chip_bbox / shapes read the
        incrementally maintained mirror, and agree exactly with a clone
        rebuilt from scratch."""
        state = _state(SPECS[0])
        every_kind_sequence(state, 40, seed=37)
        clone = _clone(state)
        assert state.teil() == clone.teil()
        assert state.net_spans() == clone.net_spans()
        assert state.chip_bbox() == clone.chip_bbox()
        for name in state.names:
            assert state.expanded_shape(name).tiles == clone.expanded_shape(name).tiles
            assert state.world_shape(name).bbox == clone.world_shape(name).bbox
            for pin in state.cell(state.index[name]).pins:
                assert state.pin_position(name, pin) == clone.pin_position(name, pin)
