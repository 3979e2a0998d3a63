"""The service's append-only event journal (``events.jsonl``).

Every job-lifecycle transition the supervisor or the submit path makes
is recorded as one JSON line — the queue-event transcript the chaos
gate uploads, and the feed behind the ``/jobs/events`` SSE stream.

The journal is a shared log in the format of
:mod:`repro.telemetry.jsonlog`: concurrent writers (a submitter racing
the supervisor) interleave whole lines, readers skip torn and corrupt
lines, and :class:`EventTailer` is the shared offset tailer.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from ..telemetry import jsonlog
from ..telemetry.jsonlog import Tailer as EventTailer

__all__ = ["EventLog", "EventTailer", "read_events", "stream_job_events"]


class EventLog:
    """Appends job events to ``events.jsonl``, one JSON doc per line."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def emit(self, event: str, job_id: Optional[str] = None,
             **fields: Any) -> Dict[str, Any]:
        """Append one event; returns the document written."""
        doc: Dict[str, Any] = {"ts": time.time(), "event": event}
        if job_id is not None:
            doc["job_id"] = job_id
        doc.update(fields)
        jsonlog.append(self.path, jsonlog.encode(doc))
        return doc


def read_events(
    path: Union[str, Path],
    job_id: Optional[str] = None,
    limit: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """All events in the journal (oldest first), optionally filtered."""
    docs = jsonlog.read(path)
    if job_id is not None:
        docs = [d for d in docs if d.get("job_id") == job_id]
    if limit is not None and limit >= 0:
        docs = docs[-limit:]
    return docs


def stream_job_events(
    path: Union[str, Path],
    stop=None,
    timeout: Optional[float] = None,
    poll_interval: float = 0.25,
    keepalive_every: float = 15.0,
    job_id: Optional[str] = None,
    from_start: bool = False,
    max_events: Optional[int] = None,
) -> Iterator[bytes]:
    """The ``/jobs/events`` SSE body: queue events as they land.

    Each journal line becomes one SSE frame whose ``event:`` field is
    the journal event name (``job_start``, ``job_retry``, ...).  Runs
    until ``stop`` is set, ``timeout`` elapses or ``max_events`` were
    sent, on the same pump as the run-level ``/runs/<id>/events``
    stream.
    """
    from ..obs.sse import format_sse, sse_pump

    tailer = EventTailer(path, from_start=from_start)
    delivered = 0

    def frames() -> Iterator[Optional[bytes]]:
        nonlocal delivered
        for doc in tailer.poll():
            if job_id is not None and doc.get("job_id") != job_id:
                continue
            delivered += 1
            yield format_sse(
                doc, event=str(doc.get("event", "event")),
                event_id=str(delivered),
            )
            if max_events is not None and delivered >= max_events:
                yield None
                return

    return sse_pump(frames, stop, timeout, poll_interval, keepalive_every)
