"""Heartbeat files: atomic writes, throttling, and the ambient contextvar."""

import json
import threading

import pytest

from repro.qor import (
    HEARTBEAT_VERSION,
    NULL_HEARTBEAT,
    HeartbeatWriter,
    NullHeartbeat,
    current_heartbeat,
    parse_prometheus,
    read_heartbeat,
    use_heartbeat,
)


class TestNullHeartbeat:
    def test_disabled_and_inert(self):
        hb = NullHeartbeat()
        assert not hb.enabled
        hb.beat("anneal", step=1)  # must not raise, must not write
        hb.set_context(stage="stage1")


class TestWriter:
    def test_beat_round_trip(self, tmp_path):
        path = tmp_path / "hb.json"
        writer = HeartbeatWriter(path, run_id="r1")
        writer.beat("anneal", step=3, T=100.0)
        doc = read_heartbeat(path)
        assert doc["v"] == HEARTBEAT_VERSION
        assert doc["run_id"] == "r1"
        assert doc["phase"] == "anneal"
        assert doc["seq"] == 1
        assert doc["step"] == 3 and doc["T"] == 100.0
        assert doc["final"] is False
        assert doc["updated"] > 0

    def test_context_merges_and_none_deletes(self, tmp_path):
        path = tmp_path / "hb.json"
        writer = HeartbeatWriter(path)
        writer.set_context(stage="stage1", circuit="fix")
        writer.beat("anneal")
        assert read_heartbeat(path)["stage"] == "stage1"
        writer.set_context(stage=None)
        writer.beat("anneal")
        doc = read_heartbeat(path)
        assert "stage" not in doc
        assert doc["circuit"] == "fix"

    def test_per_beat_fields_win_over_context(self, tmp_path):
        path = tmp_path / "hb.json"
        writer = HeartbeatWriter(path)
        writer.set_context(stage="stage1")
        writer.beat("anneal", stage="override")
        assert read_heartbeat(path)["stage"] == "override"

    def test_throttle_skips_fast_same_phase_beats(self, tmp_path):
        path = tmp_path / "hb.json"
        writer = HeartbeatWriter(path, min_interval=3600.0)
        writer.beat("anneal", step=1)
        writer.beat("anneal", step=2)  # throttled
        assert read_heartbeat(path)["step"] == 1
        writer.beat("route")  # phase change always writes
        assert read_heartbeat(path)["phase"] == "route"
        writer.beat("route", final=True, step=9)  # final always writes
        doc = read_heartbeat(path)
        assert doc["final"] is True and doc["step"] == 9

    def test_negative_interval_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            HeartbeatWriter(tmp_path / "hb.json", min_interval=-1.0)

    def test_read_missing_is_none(self, tmp_path):
        assert read_heartbeat(tmp_path / "nope.json") is None

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "rundir" / "hb.json"
        HeartbeatWriter(path).beat("start")
        assert read_heartbeat(path)["phase"] == "start"

    def test_metrics_textfile_rendered_per_beat(self, tmp_path):
        prom = tmp_path / "metrics.prom"
        writer = HeartbeatWriter(
            tmp_path / "hb.json", run_id="r1", metrics_textfile=prom
        )
        writer.beat("anneal", T=50.0, cost=123.5)
        parsed = parse_prometheus(prom.read_text(encoding="utf-8"))
        label = '{run_id="r1"}'
        assert parsed["repro_T" + label] == 50.0
        assert parsed["repro_cost" + label] == 123.5


class TestAtomicity:
    def test_reader_never_sees_partial_json(self, tmp_path):
        """A writer hammering beats while a reader polls: every read either
        returns None (no file yet) or parses as a complete document."""
        path = tmp_path / "hb.json"
        writer = HeartbeatWriter(path, run_id="race")
        stop = threading.Event()
        errors = []

        def pound():
            step = 0
            while not stop.is_set():
                step += 1
                # A long field value makes a torn write easy to catch.
                writer.beat("anneal", step=step, pad="x" * 4096)

        thread = threading.Thread(target=pound)
        thread.start()
        try:
            seen = 0
            while seen < 200:
                try:
                    doc = read_heartbeat(path)
                except (json.JSONDecodeError, ValueError) as exc:
                    errors.append(exc)
                    break
                if doc is not None:
                    seen += 1
                    if doc["run_id"] != "race" or len(doc["pad"]) != 4096:
                        errors.append(f"partial document: {doc}")
                        break
        finally:
            stop.set()
            thread.join()
        assert not errors


class TestAmbientHeartbeat:
    def test_default_is_null(self):
        assert current_heartbeat() is NULL_HEARTBEAT

    def test_install_and_restore(self, tmp_path):
        writer = HeartbeatWriter(tmp_path / "hb.json")
        with use_heartbeat(writer):
            assert current_heartbeat() is writer
            with use_heartbeat(NULL_HEARTBEAT):
                assert current_heartbeat() is NULL_HEARTBEAT
            assert current_heartbeat() is writer
        assert current_heartbeat() is NULL_HEARTBEAT


class TestHistoryRing:
    def test_every_beat_lands_in_the_ring(self, tmp_path):
        from repro.qor import history_path, read_history

        writer = HeartbeatWriter(tmp_path / "hb.json", run_id="r1")
        for step in range(5):
            writer.beat("anneal", step=step)
        ring = read_history(history_path(tmp_path / "hb.json"))
        assert [b["seq"] for b in ring] == [1, 2, 3, 4, 5]
        assert [b["step"] for b in ring] == [0, 1, 2, 3, 4]

    def test_ring_path_derivation(self, tmp_path):
        from repro.qor import history_path

        assert (
            history_path(tmp_path / "heartbeat.json").name
            == "heartbeat.history.jsonl"
        )

    def test_compaction_bounds_the_file(self, tmp_path, monkeypatch):
        from repro.qor import heartbeat, history_path, read_history

        monkeypatch.setattr(heartbeat, "HISTORY_LIMIT", 10)
        writer = HeartbeatWriter(tmp_path / "hb.json", run_id="r1")
        for step in range(55):
            writer.beat("anneal", step=step)
        ring = read_history(history_path(tmp_path / "hb.json"))
        # Never more than 2*limit lines survive; the newest always do.
        assert len(ring) <= 20
        assert ring[-1]["seq"] == 55
        seqs = [b["seq"] for b in ring]
        assert seqs == sorted(seqs)

    def test_since_seq_and_limit_filters(self, tmp_path):
        from repro.qor import history_path, read_history

        writer = HeartbeatWriter(tmp_path / "hb.json", run_id="r1")
        for step in range(6):
            writer.beat("anneal", step=step)
        ring_path = history_path(tmp_path / "hb.json")
        assert [b["seq"] for b in read_history(ring_path, since_seq=4)] == [5, 6]
        assert [b["seq"] for b in read_history(ring_path, limit=2)] == [5, 6]
        assert [
            b["seq"] for b in read_history(ring_path, since_seq=2, limit=2)
        ] == [5, 6]

    def test_torn_and_corrupt_lines_skipped(self, tmp_path):
        """The ring outlives its writers, so it is read leniently: a
        torn final line and a corrupt middle line are both skipped."""
        from repro.qor import history_path, read_history

        writer = HeartbeatWriter(tmp_path / "hb.json", run_id="r1")
        writer.beat("anneal", step=1)
        ring_path = history_path(tmp_path / "hb.json")
        with open(ring_path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 2, "torn')
        assert [b["seq"] for b in read_history(ring_path)] == [1]
        ring_path.write_text('{"seq": 1, "bad\n{"seq": 2}\n', encoding="utf-8")
        assert [b["seq"] for b in read_history(ring_path)] == [2]

    def test_old_ring_marker_lines_are_not_beats(self, tmp_path):
        """Rings compacted by older versions start with a marker line
        that carries no ``seq``; readers keep only beats."""
        from repro.qor import read_history

        ring_path = tmp_path / "heartbeat.history.jsonl"
        ring_path.write_text(
            '{"ring":{"v":1,"generation":3,"kept":1}}\n{"seq":7}\n',
            encoding="utf-8",
        )
        assert read_history(ring_path) == [{"seq": 7}]

    def test_missing_ring_reads_empty(self, tmp_path):
        from repro.qor import read_history

        assert read_history(tmp_path / "absent.jsonl") == []


class TestReadRetry:
    def test_vanished_file_is_retried_then_none(self, tmp_path, monkeypatch):
        import time as time_module

        sleeps = []
        monkeypatch.setattr(time_module, "sleep", sleeps.append)
        assert read_heartbeat(tmp_path / "hb.json", retries=2) is None
        assert len(sleeps) == 2  # both retries waited before giving up

    def test_mid_replace_enoent_recovers(self, tmp_path, monkeypatch):
        """A reader that hits the ENOENT window of a non-atomic replace
        sees the document on retry, not a crash or a spurious None."""
        from pathlib import Path

        path = tmp_path / "hb.json"
        writer = HeartbeatWriter(path, run_id="r1")
        writer.beat("anneal", step=7)
        real_read_text = Path.read_text
        failures = {"left": 2}

        def flaky_read_text(self, *args, **kwargs):
            if self == path and failures["left"] > 0:
                failures["left"] -= 1
                raise FileNotFoundError(str(self))
            return real_read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", flaky_read_text)
        doc = read_heartbeat(path, retries=2, retry_delay=0.001)
        assert doc is not None and doc["step"] == 7
        assert failures["left"] == 0

    def test_concurrent_writer_never_breaks_readers(self, tmp_path, monkeypatch):
        """Satellite: a watch-style reader polling while a writer beats
        as fast as it can must never see a torn document or crash."""
        from repro.qor import heartbeat, history_path, read_history

        monkeypatch.setattr(heartbeat, "HISTORY_LIMIT", 16)
        path = tmp_path / "hb.json"
        writer = HeartbeatWriter(path, run_id="race2")
        stop = threading.Event()
        errors = []

        def pound():
            step = 0
            while not stop.is_set():
                writer.beat("anneal", step=step, pad="x" * 2048)
                step += 1

        thread = threading.Thread(target=pound)
        thread.start()
        try:
            reads = 0
            last_seq = 0
            while reads < 300:
                doc = read_heartbeat(path)
                if doc is None:
                    continue
                reads += 1
                if doc["seq"] < last_seq:
                    errors.append(f"seq went backwards: {doc['seq']}")
                    break
                last_seq = doc["seq"]
                ring = read_history(history_path(path))
                ring_seqs = [b["seq"] for b in ring]
                if ring_seqs != sorted(ring_seqs):
                    errors.append(f"ring out of order: {ring_seqs}")
                    break
        except Exception as exc:  # noqa: BLE001 - the assertion target
            errors.append(exc)
        finally:
            stop.set()
            thread.join()
        assert not errors
