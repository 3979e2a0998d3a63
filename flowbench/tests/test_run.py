"""The benchmark command end to end, on a tiny workload."""

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import pytest

from flowbench import run, workloads
from flowbench.workloads import Workload

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class TinyWorkload(Workload):
    def config(self, seed):
        return replace(super().config(seed), max_temperatures=30)


@pytest.fixture
def tiny(monkeypatch):
    workload = TinyWorkload(
        name="tiny", why="test", cells=10, custom_fraction=0.25,
        mover="batched", m_routes=4, circuits=2, validated=1,
    )
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", workload)
    # a fresh interpreter would not know the tiny workload
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    return workload


def _run(capsys, tmp_path, *extra):
    """The run's exit code, its result and the detail line before it."""
    code = run.main([
        "--workload", "tiny", "--seed", "3", "--seconds", "0",
        "--out-dir", str(tmp_path), *extra,
    ])
    *_, detail, last = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(last), json.loads(detail)["detail"]


def test_end_to_end_metrics_match_the_benchmark_file(tiny, capsys, tmp_path):
    code, result, _ = _run(capsys, tmp_path, "--trace", "0")
    assert code == 0
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (2, 0)
    names = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer(tiny, capsys, tmp_path):
    code, result, _ = _run(capsys, tmp_path, "--trace", "1")
    assert code == 0
    assert result["correct"] is True
    # circuit 0 untraced, then both circuits traced
    assert result["attempted"] == 3
    names = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == names
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    assert metrics["stage2.unattributed_s"] <= 0.05 * metrics["stage2.wall_s"]
    assert (tmp_path / "spans-tiny-3.jsonl").exists()


def test_planted_stage_failure_is_counted(tiny, capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "channels.define@1:error")
    code, result, _ = _run(capsys, tmp_path, "--trace", "0")
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 2


def test_recovered_router_failure_is_counted(tiny, capsys, tmp_path, monkeypatch):
    # the router reroutes the net with M/2, so the call itself succeeds
    monkeypatch.setenv("REPRO_FAULTS", "router.route_net@1:error")
    code, result, detail = _run(capsys, tmp_path, "--trace", "0")
    assert code == 1
    assert result["failed"] == result["attempted"] == 2
    assert all("1 nets rerouted" in note for note in detail["failures"])


def test_fresh_setup_times_import_generation_and_warm_up():
    name = BENCHMARK["workloads"][0]["name"]
    seconds = run.fresh_setup_s(name, 1)
    assert 0 < seconds < 60


def test_a_call_past_the_time_limit_fails(monkeypatch):
    monkeypatch.setattr(run, "CALL_LIMIT_S", 0.2)
    tally = run.Tally()
    result, wall, _ = tally.call("sleeper", 0, lambda: time.sleep(5))
    assert result is None and wall < 2
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "still running" in tally.notes[0]


def test_no_result_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "flowbench/run.py", "--workload", BENCHMARK["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_same_seed_gives_the_same_inputs():
    workload = workloads.WORKLOADS[BENCHMARK["workloads"][0]["name"]]
    first = [(c.num_cells, sorted(c.nets)) for c, _ in workload.inputs(5)]
    again = [(c.num_cells, sorted(c.nets)) for c, _ in workload.inputs(5)]
    assert first == again
    assert workloads.circuit_seeds(5, 3) == workloads.circuit_seeds(5, 3)
    assert len(set(workloads.circuit_seeds(5, 3))) == 3


def test_benchmark_file_names_every_workload_and_prediction():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    predictions = json.loads((run.HERE / "predictions.json").read_text())
    predicted = [m for layer in predictions["layers"] for m in layer["metrics"]]
    assert sorted(predicted) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    for layer in predictions["layers"]:
        assert set(layer["share"]) == set(workloads.WORKLOADS)
