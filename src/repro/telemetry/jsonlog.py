"""One append-only JSON-lines log: encoder, append, reader, tailer.

The trace (``FileSink``), the heartbeat history ring and the service
journal all write and read through this module.  Its contract (one
whole line per ``os.write`` to an ``O_APPEND`` descriptor; blank and
torn final lines skipped; a corrupt middle line raising only when
``strict``; the tailer reading through the last newline and restarting
at 0 on truncation) is described once, in ``docs/telemetry.md`` ("The
JSONL log contract").
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Union

Doc = Dict[str, Any]
PathLike = Union[str, Path]


def encode(doc: Doc) -> str:
    """One log line for ``doc``, without the newline."""
    return json.dumps(doc, separators=(",", ":"), default=str)


def open_append(path: PathLike, truncate: bool = False) -> int:
    """An ``O_APPEND`` descriptor on ``path`` (created if missing,
    emptied first when ``truncate``).  It is also readable, so
    :func:`append` can look at the last byte."""
    flags = os.O_RDWR | os.O_CREAT | os.O_APPEND
    if truncate:
        flags |= os.O_TRUNC
    return os.open(str(path), flags, 0o644)


def write_line(fd: int, line: str) -> None:
    """Write one encoded line and its newline in a single ``os.write``."""
    os.write(fd, (line + "\n").encode("utf-8"))


def append(path: PathLike, line: str) -> None:
    """Append one encoded line to the shared log at ``path``.

    When the file ends in a torn line, the write starts with a newline
    that terminates it, so the torn line reads as one corrupt line and
    this one stays whole."""
    fd = open_append(path)
    try:
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            line = "\n" + line
        write_line(fd, line)
    finally:
        os.close(fd)


def _decode(raw: bytes) -> Doc:
    doc = json.loads(raw)
    if not isinstance(doc, dict):
        raise ValueError(f"log line is not a JSON object: {raw[:40]!r}")
    return doc


def _parse(data: bytes, strict: bool = False) -> List[Doc]:
    """The docs in a chunk of log bytes (see the module contract)."""
    lines = [line for line in data.split(b"\n") if line.strip()]
    docs: List[Doc] = []
    for index, raw in enumerate(lines):
        try:
            docs.append(_decode(raw))
        except ValueError:
            if strict and index < len(lines) - 1:
                raise
    return docs


def read(path: PathLike, strict: bool = False) -> List[Doc]:
    """Every doc in the log at ``path``, oldest first; a missing file
    reads as empty."""
    try:
        data = Path(path).read_bytes()
    except OSError:
        return []
    return _parse(data, strict)


class Tailer:
    """Incremental reader of a shared log: each :meth:`poll` returns the
    docs appended since the previous one.

    Starts at the end of the file unless ``from_start``.
    """

    def __init__(self, path: PathLike, from_start: bool = False) -> None:
        self.path = Path(path)
        self._offset = 0
        if not from_start:
            try:
                self._offset = self.path.stat().st_size
            except OSError:
                pass

    def poll(self) -> List[Doc]:
        try:
            with open(self.path, "rb") as handle:
                size = os.fstat(handle.fileno()).st_size
                if size < self._offset:
                    self._offset = 0  # truncated or replaced: start over
                handle.seek(self._offset)
                data = handle.read(size - self._offset)
        except OSError:
            return []
        end = data.rfind(b"\n") + 1
        self._offset += end
        return _parse(data[:end])
