"""SSE framing and the heartbeat tailer: every beat, once, in order."""

import json
import threading

from repro.obs import format_sse, stream_events
from repro.obs.sse import HeartbeatTailer, keepalive
from repro.qor import HeartbeatWriter, history_path


def parse_frames(raw: bytes):
    """Decode an SSE byte stream into (event, id, payload) tuples."""
    frames = []
    for block in raw.decode("utf-8").split("\n\n"):
        if not block.strip() or block.startswith(":"):
            continue
        event = event_id = None
        data_lines = []
        for line in block.splitlines():
            if line.startswith("event: "):
                event = line[len("event: "):]
            elif line.startswith("id: "):
                event_id = line[len("id: "):]
            elif line.startswith("data: "):
                data_lines.append(line[len("data: "):])
        frames.append((event, event_id, json.loads("\n".join(data_lines))))
    return frames


class TestFormat:
    def test_frame_shape(self):
        frame = format_sse({"a": 1}, event="beat", event_id="7")
        assert frame == b'event: beat\nid: 7\ndata: {"a":1}\n\n'

    def test_plain_data_frame(self):
        assert format_sse({"a": 1}) == b'data: {"a":1}\n\n'

    def test_keepalive_is_a_comment(self):
        assert keepalive().startswith(b":")


class TestTailer:
    def test_beats_in_order_exactly_once(self, tmp_path):
        writer = HeartbeatWriter(tmp_path / "heartbeat.json", run_id="r1")
        for step in range(5):
            writer.beat("anneal", step=step)
        tailer = HeartbeatTailer(tmp_path)
        seqs = [b["seq"] for b in tailer.poll()]
        assert seqs == [1, 2, 3, 4, 5]
        assert list(tailer.poll()) == []  # nothing new
        writer.beat("anneal", step=5)
        assert [b["seq"] for b in tailer.poll()] == [6]

    def test_since_seq_resumes_mid_stream(self, tmp_path):
        writer = HeartbeatWriter(tmp_path / "heartbeat.json", run_id="r1")
        for step in range(4):
            writer.beat("anneal", step=step)
        tailer = HeartbeatTailer(tmp_path, since_seq=2)
        assert [b["seq"] for b in tailer.poll()] == [3, 4]

    def test_snapshot_only_rundir_falls_back(self, tmp_path):
        writer = HeartbeatWriter(tmp_path / "heartbeat.json", run_id="r1")
        writer.beat("anneal", step=1)
        writer.beat("anneal", step=2)
        writer.history_path.unlink()
        tailer = HeartbeatTailer(tmp_path)
        # No ring: only the newest snapshot is observable.
        assert [b["seq"] for b in tailer.poll()] == [2]

    def test_empty_rundir_polls_empty(self, tmp_path):
        assert list(HeartbeatTailer(tmp_path).poll()) == []

    def test_torn_final_ring_line_is_tolerated(self, tmp_path):
        writer = HeartbeatWriter(tmp_path / "heartbeat.json", run_id="r1")
        writer.beat("anneal", step=1)
        writer.beat("anneal", step=2)
        ring = history_path(tmp_path / "heartbeat.json")
        with open(ring, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 3, "truncat')  # writer mid-append
        tailer = HeartbeatTailer(tmp_path)
        assert [b["seq"] for b in tailer.poll()] == [1, 2]

    def test_retried_attempt_continues_the_stream(self, tmp_path):
        """A second writer on the same rundir (``resume --rundir``)
        continues seq, so a live tailer sees its beats and its final."""
        first = HeartbeatWriter(tmp_path / "heartbeat.json", run_id="r1")
        for step in range(5):
            first.beat("anneal", step=step)
        tailer = HeartbeatTailer(tmp_path)
        assert [b["seq"] for b in tailer.poll()] == [1, 2, 3, 4, 5]
        second = HeartbeatWriter(tmp_path / "heartbeat.json", run_id="r1")
        second.beat("anneal", step=5)
        second.beat("done", final=True)
        beats = list(tailer.poll())
        assert [b["seq"] for b in beats] == [6, 7]
        assert beats[-1]["final"] is True
        frames = parse_frames(
            b"".join(stream_events(tmp_path, since_seq=5, timeout=5.0))
        )
        assert [(f[0], f[2]["seq"]) for f in frames if f[0] != "stage"] == [
            ("beat", 6),
            ("final", 7),
        ]


class TestStreamEvents:
    def test_stage_beat_final_sequence(self, tmp_path):
        writer = HeartbeatWriter(tmp_path / "heartbeat.json", run_id="r1")
        writer.set_context(stage="stage1")
        writer.beat("anneal", step=0)
        writer.beat("anneal", step=1)
        writer.set_context(stage=None)
        writer.beat("done", final=True)
        raw = b"".join(stream_events(tmp_path, timeout=5.0))
        frames = parse_frames(raw)
        kinds = [f[0] for f in frames]
        # stage on entry, a beat per heartbeat, stage on change, final ends.
        assert kinds == ["stage", "beat", "beat", "stage", "final"]
        assert frames[0][2]["stage"] == "stage1"
        assert frames[-1][2]["phase"] == "done"

    def test_max_beats_bounds_the_stream(self, tmp_path):
        writer = HeartbeatWriter(tmp_path / "heartbeat.json", run_id="r1")
        for step in range(10):
            writer.beat("anneal", step=step)
        raw = b"".join(stream_events(tmp_path, timeout=5.0, max_beats=3))
        beats = [f for f in parse_frames(raw) if f[0] == "beat"]
        assert len(beats) == 3

    def test_stop_event_unblocks_an_idle_stream(self, tmp_path):
        stop = threading.Event()
        writer = HeartbeatWriter(tmp_path / "heartbeat.json", run_id="r1")
        writer.beat("anneal", step=0)
        collected = []

        def consume():
            for frame in stream_events(
                tmp_path, stop=stop, timeout=30.0, poll_interval=0.01
            ):
                collected.append(frame)

        thread = threading.Thread(target=consume, daemon=True)
        thread.start()
        stop.set()
        thread.join(timeout=5.0)
        assert not thread.is_alive()

    def test_live_writer_is_followed(self, tmp_path):
        """Beats written while the stream is open are delivered."""
        writer = HeartbeatWriter(tmp_path / "heartbeat.json", run_id="r1")
        writer.beat("anneal", step=0)

        def produce():
            for step in range(1, 4):
                writer.beat("anneal", step=step)
            writer.beat("done", final=True)

        thread = threading.Thread(target=produce)
        frames_raw = []
        stream = stream_events(tmp_path, timeout=10.0, poll_interval=0.01)
        frames_raw.append(next(stream))  # stage frame for 'anneal'
        thread.start()
        frames_raw.extend(f for f in stream if f is not None)
        thread.join()
        frames = parse_frames(b"".join(frames_raw))
        seqs = [f[2]["seq"] for f in frames if f[0] in ("beat", "final")]
        assert seqs == [1, 2, 3, 4, 5]
        assert frames[-1][0] == "final"
