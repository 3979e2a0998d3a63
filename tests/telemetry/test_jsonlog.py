"""The one JSONL log contract, checked through every stream's reader.

The tracer's trace is read strictly (a corrupt middle line raises); the
heartbeat ring and the service journal are shared logs that outlive
their writers and are read leniently.  Everything else is the same for
all three, so each case runs against each reader.
"""

import json
import os

import pytest

from repro.qor.heartbeat import read_history
from repro.service.events import EventTailer, read_events
from repro.telemetry import jsonlog
from repro.telemetry.report import load_events
from repro.telemetry.tracer import FileSink, Tracer

#: stream name -> (reader, strict)
READERS = {
    "jsonlog-strict": (lambda path: jsonlog.read(path, strict=True), True),
    "jsonlog-lenient": (jsonlog.read, False),
    "trace": (load_events, True),
    "ring": (read_history, False),
    "journal": (read_events, False),
}


@pytest.fixture(params=sorted(READERS))
def reader(request):
    return READERS[request.param]


def docs(*seqs):
    return [{"seq": seq, "event": "e"} for seq in seqs]


def write_lines(path, lines, mode="w"):
    with open(path, mode, encoding="utf-8") as handle:
        handle.write("".join(lines))


def encoded(*seqs):
    return [jsonlog.encode(doc) + "\n" for doc in docs(*seqs)]


class TestReader:
    def test_unterminated_tail_is_skipped(self, tmp_path, reader):
        read, _ = reader
        path = tmp_path / "log.jsonl"
        write_lines(path, encoded(1, 2) + ['{"seq": 3, "ev'])
        assert read(path) == docs(1, 2)

    def test_blank_lines_are_skipped(self, tmp_path, reader):
        read, _ = reader
        path = tmp_path / "log.jsonl"
        write_lines(path, ["\n"] + encoded(1) + ["  \n", "\n"] + encoded(2) + ["\n"])
        assert read(path) == docs(1, 2)

    def test_missing_file_reads_empty(self, tmp_path, reader):
        read, _ = reader
        assert read(tmp_path / "absent.jsonl") == []

    @pytest.mark.parametrize("corrupt", ['{"seq": 2, "ev\n', "[1, 2]\n"])
    def test_corrupt_middle_line(self, tmp_path, reader, corrupt):
        """Raises in strict mode, skipped in lenient mode; a line that is
        valid JSON but not an object counts as corrupt too."""
        read, strict = reader
        path = tmp_path / "log.jsonl"
        write_lines(path, encoded(1) + [corrupt] + encoded(3))
        if strict:
            with pytest.raises(ValueError):
                read(path)
        else:
            assert read(path) == docs(1, 3)


class TestTailer:
    def test_torn_tail_left_unconsumed_then_completes(self, tmp_path):
        path = tmp_path / "log.jsonl"
        tailer = EventTailer(path, from_start=True)
        write_lines(path, encoded(1) + ['{"seq": 2, '])
        assert tailer.poll() == docs(1)
        assert tailer.poll() == []
        write_lines(path, ['"event": "e"}\n'], mode="a")
        assert tailer.poll() == docs(2)

    def test_restarts_at_zero_after_truncation(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_lines(path, encoded(1, 2))
        tailer = EventTailer(path, from_start=True)
        assert tailer.poll() == docs(1, 2)
        write_lines(path, encoded(3))  # rewritten shorter
        assert tailer.poll() == docs(3)

    def test_starts_at_the_end_unless_from_start(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_lines(path, encoded(1))
        tailer = EventTailer(path)
        assert tailer.poll() == []
        jsonlog.append(path, jsonlog.encode(docs(2)[0]))
        assert tailer.poll() == docs(2)

    def test_missing_file_polls_empty(self, tmp_path):
        tailer = EventTailer(tmp_path / "absent.jsonl")
        assert tailer.poll() == []
        write_lines(tmp_path / "absent.jsonl", encoded(1))
        assert tailer.poll() == docs(1)


class TestWriters:
    def test_encoding_is_compact_with_str_fallback(self):
        assert jsonlog.encode({"a": 1, "b": [2, 3]}) == '{"a":1,"b":[2,3]}'
        assert json.loads(jsonlog.encode({"x": object})) == {"x": str(object)}

    def test_append_is_one_write_per_line(self, tmp_path, monkeypatch):
        writes = []
        real_write = os.write

        def counting_write(fd, data):
            writes.append(data)
            return real_write(fd, data)

        monkeypatch.setattr(os, "write", counting_write)
        path = tmp_path / "log.jsonl"
        for doc in docs(1, 2):
            jsonlog.append(path, jsonlog.encode(doc))
        assert [w.count(b"\n") for w in writes] == [1, 1]
        assert jsonlog.read(path) == docs(1, 2)

    def test_append_terminates_a_torn_tail(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_lines(path, encoded(1) + ['{"seq": 2, "ev'])
        jsonlog.append(path, jsonlog.encode(docs(3)[0]))
        assert jsonlog.read(path) == docs(1, 3)
        with pytest.raises(ValueError):
            jsonlog.read(path, strict=True)

    def test_file_sink_truncates_on_open(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_lines(path, encoded(1, 2))
        sink = FileSink(str(path))
        Tracer(sink).event("fresh")
        sink.close()
        assert [e["name"] for e in load_events(path)] == ["fresh"]
