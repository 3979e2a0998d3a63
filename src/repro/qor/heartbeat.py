"""Atomic heartbeat files: live progress of an in-flight flow run.

A heartbeat is a single small JSON document, rewritten in place at
natural progress boundaries (temperature steps of the annealer, round
boundaries of the multi-chain coordinator, net batches of the router).
``python -m repro status`` and ``watch`` read it; nothing in the flow
ever blocks on it.

Two constraints shape the implementation:

1. *Atomicity.*  Every write goes to a temp file in the target
   directory followed by ``os.replace``, so a reader can never observe
   a partially-written document — it sees either the previous complete
   beat or the new one.  (This is the same discipline checkpoints use.)
2. *Zero cost when disabled.*  The ambient heartbeat defaults to
   :data:`NULL_HEARTBEAT` (``enabled = False``); instrumented loops pay
   one attribute read and a branch, exactly like the tracer.

The writer keeps a monotonically increasing ``seq`` and stamps every
beat with a wall-clock ``updated`` time so monitors can report
staleness.  ``min_interval`` throttles the file traffic of very fast
loops; a phase change or a ``final`` beat always writes.

Alongside the snapshot, the writer appends every published beat to a
bounded history ring (``heartbeat.history.jsonl``), a shared append-only
log in the format of :mod:`repro.telemetry.jsonlog` (appends, the
lenient torn-line reader, the contract).  When the ring grows past
twice :data:`HISTORY_LIMIT` entries it is compacted back down to the
newest ``HISTORY_LIMIT`` through the same temp-file + ``os.replace``
discipline as the snapshot.  The observability server reads the ring to
stream progress (SSE) and to compute anneal-health analytics.

A writer that re-attaches to an existing rundir (``resume --rundir``,
a retried service job) continues ``seq`` from the snapshot, so ``seq``
increases across attempts in both the snapshot and the ring.
"""

from __future__ import annotations

import contextvars
import json
import os
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from ..telemetry import jsonlog

#: Schema tag written into every heartbeat document.
HEARTBEAT_VERSION = 1

#: Bound on the heartbeat history ring (entries kept after a
#: compaction; the file may grow to twice this between compactions).
HISTORY_LIMIT = 512


def history_path(snapshot_path: Union[str, Path]) -> Path:
    """The history-ring path for a heartbeat snapshot path
    (``heartbeat.json`` → ``heartbeat.history.jsonl``)."""
    snapshot_path = Path(snapshot_path)
    return snapshot_path.with_name(snapshot_path.stem + ".history.jsonl")


class NullHeartbeat:
    """The default (disabled) heartbeat: drops every beat."""

    enabled = False

    def beat(self, phase: str, final: bool = False, **fields: Any) -> None:
        pass

    def set_context(self, **fields: Any) -> None:
        pass


class HeartbeatWriter:
    """Writes atomic heartbeat documents to ``path``.

    ``context`` fields (e.g. the current flow stage) are merged into
    every subsequent beat until overwritten; per-beat ``fields`` win
    over context on collision.  When ``metrics_textfile`` is set, each
    written beat is also rendered to Prometheus text format (the
    node-exporter textfile-collector contract) at that path, again
    atomically.
    """

    enabled = True

    def __init__(
        self,
        path: Union[str, Path],
        run_id: Optional[str] = None,
        min_interval: float = 0.0,
        metrics_textfile: Optional[Union[str, Path]] = None,
    ) -> None:
        if min_interval < 0:
            raise ValueError("min_interval must be non-negative")
        self.path = Path(path)
        self.run_id = run_id
        self.min_interval = min_interval
        self.metrics_textfile = (
            Path(metrics_textfile) if metrics_textfile is not None else None
        )
        self.history_path = history_path(self.path)
        self._context: Dict[str, Any] = {}
        # Re-attaching to an existing rundir: count the ring's beats
        # toward the compaction bound, and continue after the newest
        # beat, so tailers and ``read_history(since_seq=...)`` never see
        # seq go backwards.
        self._history_appends = len(read_history(self.history_path))
        previous = read_heartbeat(self.path, retries=0)
        self._seq = int(previous.get("seq", 0) or 0) if previous else 0
        self._last_write = 0.0
        self._last_phase: Optional[str] = None

    def set_context(self, **fields: Any) -> None:
        """Merge fields into every subsequent beat (None deletes)."""
        for key, value in fields.items():
            if value is None:
                self._context.pop(key, None)
            else:
                self._context[key] = value

    def beat(self, phase: str, final: bool = False, **fields: Any) -> None:
        """Publish one heartbeat.  Throttled by ``min_interval`` except
        on a phase change or a ``final`` beat."""
        now = time.monotonic()
        if (
            not final
            and phase == self._last_phase
            and self.min_interval > 0
            and now - self._last_write < self.min_interval
        ):
            return
        self._seq += 1
        doc: Dict[str, Any] = {
            "v": HEARTBEAT_VERSION,
            "run_id": self.run_id,
            "phase": phase,
            "seq": self._seq,
            "updated": time.time(),
            "final": final,
        }
        doc.update(self._context)
        doc.update(fields)
        text = jsonlog.encode(doc)
        _atomic_write(self.path, text)
        self._append_history(text)
        if self.metrics_textfile is not None:
            from .prometheus import render_prometheus

            _atomic_write(self.metrics_textfile, render_prometheus(doc))
        self._last_write = now
        self._last_phase = phase

    def _append_history(self, line: str) -> None:
        """Append one beat to the history ring, compacting when the file
        has grown to twice :data:`HISTORY_LIMIT`.  Ring failures never
        propagate into the instrumented loop: the snapshot is the source
        of truth, the ring is best-effort."""
        try:
            jsonlog.append(self.history_path, line)
            self._history_appends += 1
            if self._history_appends >= 2 * HISTORY_LIMIT:
                keep = read_history(self.history_path, limit=HISTORY_LIMIT)
                _atomic_write(
                    self.history_path,
                    "".join(jsonlog.encode(doc) + "\n" for doc in keep),
                )
                self._history_appends = len(keep)
        except OSError:
            pass


def _atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory temp file and
    ``os.replace``, so concurrent readers never see a partial file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def read_heartbeat(
    path: Union[str, Path], retries: int = 2, retry_delay: float = 0.01
) -> Optional[Dict[str, Any]]:
    """The latest heartbeat document, or None when no beat exists yet.

    Because writes are atomic, a successfully opened file always parses
    on POSIX; but ``os.replace`` is not atomic everywhere (and a reader
    can race the very first write), so a vanished, empty, or unparsable
    file is retried ``retries`` times before reading as "no heartbeat
    yet" rather than raising.  Monitors can therefore poll a rundir
    that is still warming up — or mid-replace — without special-casing.
    """
    path = Path(path)
    for attempt in range(retries + 1):
        try:
            text = path.read_text(encoding="utf-8")
            if text.strip():
                return json.loads(text)
        except (OSError, json.JSONDecodeError):
            pass
        if attempt < retries:
            time.sleep(retry_delay)
    return None


def read_history(
    path: Union[str, Path],
    since_seq: Optional[int] = None,
    limit: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Parsed history-ring beats, oldest first.

    ``since_seq`` keeps only beats with ``seq`` strictly greater (the
    resume point of a streaming client); ``limit`` keeps the newest N.
    The ring is read leniently (:mod:`repro.telemetry.jsonlog`): torn
    and corrupt lines are skipped, and a missing ring reads as empty.
    Only docs that carry ``seq`` are beats.
    """
    entries = [
        doc
        for doc in jsonlog.read(path)
        if "seq" in doc and (since_seq is None or doc["seq"] > since_seq)
    ]
    if limit is not None:
        entries = entries[-limit:]
    return entries


#: The process-wide disabled heartbeat; ``current_heartbeat`` falls back to it.
NULL_HEARTBEAT = NullHeartbeat()

_CURRENT: "contextvars.ContextVar[Any]" = contextvars.ContextVar(
    "repro_heartbeat", default=NULL_HEARTBEAT
)


def current_heartbeat():
    """The heartbeat installed by the innermost :func:`use_heartbeat`
    block (the disabled :data:`NULL_HEARTBEAT` outside any block)."""
    return _CURRENT.get()


@contextmanager
def use_heartbeat(heartbeat) -> Iterator[Any]:
    """Install ``heartbeat`` as the ambient heartbeat for the dynamic
    extent of the block (contextvar-based, like ``use_tracer``)."""
    token = _CURRENT.set(heartbeat)
    try:
        yield heartbeat
    finally:
        _CURRENT.reset(token)
