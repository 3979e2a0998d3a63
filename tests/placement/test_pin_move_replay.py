"""Replay and resume identity of the serial move cascade on all-custom
circuits, where most attempts are pin-group moves.

* A 2,000-step ``MoveGenerator`` walk on the ``custom-serial-n16``
  benchmark circuit (seed 7) must reproduce a pinned digest of its
  (delta, accepted) stream and of its final accumulators and records.
  The constants were recorded before pin-group moves became
  group-local, so any change to a delta's last bit, to an rng draw or
  to a Metropolis decision shows up here.
* A stage-1 anneal checkpointed mid-schedule and resumed at a
  non-integer kappa must end bit-identical to the uninterrupted run.
  At kappa = 2.5 the C3 terms are not integers, so this guards the
  canonical order in which the pin-site penalty is summed.
"""

import hashlib
import pickle
import random
from dataclasses import replace

from repro import TimberWolfConfig
from repro.annealing import RangeLimiter
from repro.bench import CircuitSpec, generate_circuit
from repro.estimator import determine_core
from repro.placement import MoveGenerator, PlacementState
from repro.placement.stage1 import run_stage1
from repro.resilience.control import RunControl

from ..conftest import make_crowded_custom_circuit

#: The circuit ``custom-serial-n16`` places first at seed 7.
SERIAL_N16 = CircuitSpec(
    name="custom-serial-n16-s7", num_cells=16, num_nets=32, num_pins=80,
    seed=7, custom_fraction=1.0,
)

#: sha256 of the walk's (delta, accepted) stream, as float hex strings.
STREAM_DIGEST = (
    "8d1b3daa85eeb127ab6857ce6a7e96c44a5c25b2116663d0accdcd997ec3406f"
)
#: sha256 of the final (c1, c2_raw, c3_total) and the state's records.
FINAL_DIGEST = (
    "6f596d7cfde235a53829e45141bcd3dc17ef5ae434d00b1528e8ab658ae11e0c"
)


class _RecordingGenerator(MoveGenerator):
    """The cascade, with every judged attempt appended to ``log``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []

    def _judge(self, delta, snap, temperature, rng):
        accepted = super()._judge(delta, snap, temperature, rng)
        self.log.append((delta.hex(), accepted))
        return accepted


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def serial_walk(steps=2000, seed=7):
    """(stream digest, final digest, move stats) of a cooling walk."""
    circuit = generate_circuit(SERIAL_N16)
    state = PlacementState(circuit, determine_core(circuit))
    state.randomize(random.Random(seed))
    limiter = RangeLimiter(
        full_span_x=state.core.width,
        full_span_y=state.core.height,
        t_infinity=400.0,
    )
    generator = _RecordingGenerator(state, limiter)
    rng = random.Random(seed)
    temperature = 400.0
    for _ in range(steps):
        generator.step(temperature, rng)
        temperature *= 0.998
    final = (
        state._c1.hex(),
        state._c2_raw.hex(),
        state._c3_total.hex(),
        sorted(state.state_dict()["records"].items()),
    )
    return _digest(generator.log), _digest(final), generator.stats


class TestSerialReplayIdentity:
    def test_walk_matches_pinned_digests(self):
        stream, final, stats = serial_walk()
        # The walk exercises the pin-group move it pins down.
        assert stats["pin_group"][0] > 1000
        assert stats["aspect"][0] > 0 and stats["orientation"][0] > 0
        assert stream == STREAM_DIGEST
        assert final == FINAL_DIGEST


class _CaptureControl(RunControl):
    """A ``RunControl`` that keeps the stage-1 checkpoint payload of one
    temperature step, pickled as a checkpoint file is, and the pin-site
    penalty it saw at every step."""

    def __init__(self, at_step):
        super().__init__()
        self.at_step = at_step
        self.payload = None
        self.c3_seen = []

    def stage1_observer(self, placement_state):
        def _observe(step_index, stats, state, make_cursor):
            self.c3_seen.append(placement_state.c3())
            if step_index == self.at_step:
                self.payload = pickle.dumps(
                    {
                        "cursor": make_cursor().to_dict(),
                        "state": placement_state.state_dict(),
                    }
                )

        return _observe


def _final(result):
    state = result.state
    return (
        state._c1,
        state._c2_raw,
        state._c3_total,
        list(state._c3),
        state.state_dict(),
        [(s.temperature, s.attempts, s.accepts, s.cost_after)
         for s in result.anneal.steps],
    )


class TestResumeAtNonIntegerKappa:
    def test_stage1_resume_is_bit_identical(self):
        circuit = make_crowded_custom_circuit()
        config = replace(
            TimberWolfConfig.smoke(seed=3), kappa=2.5, max_temperatures=24
        )
        uninterrupted = run_stage1(circuit, config)
        assert uninterrupted.state.kappa == 2.5

        control = _CaptureControl(at_step=11)
        run_stage1(circuit, config, control=control)
        assert control.payload is not None
        # The anneal crosses non-integer pin-site penalties, before and
        # after the checkpoint.
        assert any(c3 != int(c3) for c3 in control.c3_seen[:11])
        assert any(c3 != int(c3) for c3 in control.c3_seen[12:])
        resumed = run_stage1(
            circuit, config, resume=pickle.loads(control.payload)
        )
        assert _final(resumed) == _final(uninterrupted)
