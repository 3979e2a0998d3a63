"""The history ring across compaction, re-attaching writers and torn
lines.

Compaction atomically replaces the ring file while readers poll it; a
writer re-attaching to an existing rundir (a retried service job)
continues ``seq`` from the snapshot; and a torn line left by a killed
writer never breaks a later append or any reader.
"""

import json
import threading

from repro.obs.health import analyze_health
from repro.obs.sse import HeartbeatTailer
from repro.qor import heartbeat
from repro.qor.heartbeat import HeartbeatWriter, read_history


def make_writer(tmp_path):
    return HeartbeatWriter(tmp_path / "heartbeat.json", run_id="r")


def fill(writer, beats):
    for _ in range(beats):
        writer.beat("stage1")


class TestReattachingWriter:
    def test_seq_continues_from_the_snapshot(self, tmp_path):
        fill(make_writer(tmp_path), 3)
        second = make_writer(tmp_path)
        fill(second, 2)
        seqs = [doc["seq"] for doc in read_history(second.history_path)]
        assert seqs == [1, 2, 3, 4, 5]

    def test_ring_bound_holds_across_writers(self, tmp_path, monkeypatch):
        monkeypatch.setattr(heartbeat, "HISTORY_LIMIT", 4)
        fill(make_writer(tmp_path), 6)
        second = make_writer(tmp_path)
        fill(second, 2)  # 8 beats in the ring: 2x the bound, compacts
        seqs = [doc["seq"] for doc in read_history(second.history_path)]
        assert seqs == [5, 6, 7, 8]

    def test_torn_line_then_append_reads_every_beat(self, tmp_path):
        """A killed writer's torn line, then a new writer's beat: the
        ring readers skip the torn line and keep every whole beat."""
        fill(make_writer(tmp_path), 2)
        ring = heartbeat.history_path(tmp_path / "heartbeat.json")
        with open(ring, "a", encoding="utf-8") as handle:
            handle.write('{"v":1,"run_id":"r","pha')  # no newline
        fill(make_writer(tmp_path), 1)
        history = read_history(ring)
        assert [doc["seq"] for doc in history] == [1, 2, 3]
        assert [b["seq"] for b in HeartbeatTailer(tmp_path).poll()] == [1, 2, 3]
        assert analyze_health(history)["history_beats"] == 3

    def test_compaction_keeps_the_newest_beats(self, tmp_path, monkeypatch):
        monkeypatch.setattr(heartbeat, "HISTORY_LIMIT", 4)
        writer = make_writer(tmp_path)
        fill(writer, 8)  # 2x the bound: one compaction
        lines = writer.history_path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["seq"] for line in lines] == [5, 6, 7, 8]


class TestConcurrentReaderAndCompactor:
    def test_tailer_survives_compaction_races(self, tmp_path, monkeypatch):
        """A reader polling while the writer compacts must never see a
        non-beat, a torn document, or seq going backwards."""
        monkeypatch.setattr(heartbeat, "HISTORY_LIMIT", 8)
        writer = make_writer(tmp_path)
        writer.beat("stage1")  # ensure files exist before readers start
        tailer = HeartbeatTailer(tmp_path)
        stop = threading.Event()
        errors = []
        seen = []

        def read_loop():
            last_seq = 0
            try:
                while not stop.is_set():
                    for beat in tailer.poll():
                        seq = int(beat.get("seq", 0))
                        if seq <= last_seq:
                            errors.append(
                                f"seq went backwards: {seq} after {last_seq}"
                            )
                        last_seq = seq
                        seen.append(seq)
                    # Raw history reads race the atomic swap too.
                    seqs = [doc["seq"] for doc in read_history(writer.history_path)]
                    if seqs != sorted(set(seqs)):
                        errors.append(f"ring seq not increasing: {seqs}")
            except Exception as exc:  # noqa: BLE001 - fail the test
                errors.append(f"reader crashed: {exc!r}")

        reader = threading.Thread(target=read_loop)
        reader.start()
        try:
            # ~24 compactions worth of beats while the reader polls.
            fill(writer, 400)
        finally:
            stop.set()
            reader.join(timeout=10.0)
        assert not reader.is_alive()
        assert errors == []
        ring = read_history(writer.history_path)
        assert all("seq" in doc for doc in ring)
        assert len(ring) <= 2 * 8 and ring[-1]["seq"] == 401
        assert seen, "reader never observed a beat"
