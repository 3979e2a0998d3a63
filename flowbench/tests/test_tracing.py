"""The span recorder, the wrappers and the attribution arithmetic."""

from dataclasses import replace

import pytest

from flowbench import checks, tracing
from repro import TimberWolfConfig, place_and_route
from repro.bench import CircuitSpec, generate_circuit


def _recorded(spans):
    """A recorder holding (name, start, end, parent) spans."""
    recorder = tracing.SpanRecorder()
    recorder.spans = [[name, start, end, parent, {}] for name, start, end, parent in spans]
    return recorder


def test_self_time_is_span_minus_children():
    recorder = _recorded([
        ("flow", 0.0, 10.0, None),
        ("stage1", 0.0, 4.0, 0),
        ("anneal", 1.0, 3.0, 1),
        ("legalize", 4.0, 5.0, 0),
        ("stage2", 5.0, 9.5, 0),
        ("router.route", 5.0, 7.0, 4),
        ("router.phase1", 5.0, 6.0, 5),
        ("router.phase2", 6.0, 6.5, 5),
        ("anneal", 7.0, 9.0, 4),
    ])
    own = tracing.self_times(recorder.spans)
    assert own == pytest.approx([0.5, 2.0, 2.0, 1.0, 0.5, 0.5, 1.0, 0.5, 2.0])

    layers = tracing.layer_metrics(recorder, calls=1, traced_s=11.0, untraced_s=10.0)
    assert layers["flow.unattributed_s"] == pytest.approx(0.5)
    assert layers["stage2.unattributed_s"] == pytest.approx(0.5)
    assert layers["stage2.wall_s"] == pytest.approx(4.5)
    assert layers["router.route_s"] == pytest.approx(2.0)
    assert layers["router.self_s"] == pytest.approx(0.5)
    assert layers["router.phase1_s"] == pytest.approx(1.0)
    assert layers["router.phase2_s"] == pytest.approx(0.5)
    assert layers["stage1.wall_s"] == pytest.approx(4.0)
    assert layers["refine.anneal_s"] == pytest.approx(2.0)
    assert layers["legalize.wall_s"] == pytest.approx(1.0)
    assert layers["trace.overhead_pct"] == pytest.approx(10.0)


def test_per_call_metrics_divide_by_calls():
    recorder = _recorded([("flow", 0.0, 2.0, None), ("stage2", 0.0, 2.0, 0)])
    layers = tracing.layer_metrics(recorder, calls=2, traced_s=1.0, untraced_s=1.0)
    assert layers["stage2.wall_s"] == pytest.approx(1.0)
    assert layers["stage2.unattributed_s"] == pytest.approx(1.0)
    assert layers["flow.unattributed_s"] == pytest.approx(0.0)


def test_spans_must_close_in_order():
    recorder = tracing.SpanRecorder()
    outer = recorder.begin("outer")
    recorder.begin("inner")
    with pytest.raises(RuntimeError):
        recorder.end(outer)


def _bound():
    """The object bound to every wrapped name right now."""
    out = {}
    for module, path, *_ in tracing.WRAPPED + tracing.COUNTED:
        owner, attr = tracing._owner(module, path)
        out[f"{module}.{path}"] = vars(owner)[attr]
    return out


def test_instrument_restores_every_name():
    before = _bound()
    recorder = tracing.SpanRecorder()
    with tracing.instrument(recorder):
        during = _bound()
        assert all(during[name] is not fn for name, fn in before.items())
    assert _bound() == before


def test_instrument_restores_after_an_error():
    before = _bound()
    with pytest.raises(ZeroDivisionError):
        with tracing.instrument(tracing.SpanRecorder()):
            1 / 0
    assert _bound() == before


def _tiny(seed=3):
    circuit = generate_circuit(CircuitSpec(
        name="tiny", num_cells=10, num_nets=20, num_pins=50, seed=seed,
        custom_fraction=0.25,
    ))
    config = replace(
        TimberWolfConfig.smoke(seed), attempts_per_cell=4, max_temperatures=30,
        mover="batched",
    )
    return circuit, config


def test_traced_qor_equals_untraced_qor(tmp_path):
    circuit, config = _tiny()
    untraced = place_and_route(circuit, config, collect_trace=False)
    recorder = tracing.SpanRecorder()
    with tracing.instrument(recorder), recorder.span("flow"):
        traced = place_and_route(circuit, config, collect_trace=False)
    assert checks.qor(traced) == checks.qor(untraced)
    assert checks.problems(traced) == []

    names = {span[0] for span in recorder.spans}
    assert {"flow", "stage1", "legalize", "stage2", "channels.regions",
            "channels.freespace", "channels.graph", "channels.expansions",
            "router.route", "router.phase1", "router.phase2", "anneal",
            "compact", "stage2.static_expansions"} <= names
    assert recorder.counts["dijkstra"] > 0

    layers = tracing.layer_metrics(recorder, 1, 1.0, 1.0)
    assert layers["stage1.moves"] == sum(s.attempts for s in traced.stage1.anneal.steps)
    assert layers["stage1.temperatures"] == len(traced.stage1.anneal.steps)
    assert layers["router.nets"] > 0
    assert 0 <= layers["stage2.unattributed_s"] <= 0.05 * layers["stage2.wall_s"]

    recorder.write(tmp_path / "spans.jsonl")
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert len(lines) == len(recorder.spans)
