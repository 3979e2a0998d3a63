"""Server-Sent Events: the wire format and the heartbeat tailer.

SSE (``text/event-stream``) is the simplest push channel a browser —
or the future job API — can consume without polling: one long-lived
HTTP response carrying ``event:``/``data:`` frames.  The tailer turns a
run's atomic heartbeat snapshot plus its ``heartbeat.history.jsonl``
ring into an ordered event stream:

* ``beat`` — every heartbeat the run publishes, in ``seq`` order (the
  ring supplies the beats that landed between two polls, so a fast
  annealer does not alias down to the poll rate);
* ``stage`` — a flow stage/phase transition (start → anneal → route →
  done), emitted alongside the beat that revealed it;
* ``final`` — the run's last beat; the stream closes after it.

The tailer never touches the writer's files other than to read them,
and tolerates snapshot replacement and ring compaction mid-read (the
ring is a shared log in the format of :mod:`repro.telemetry.jsonlog`).
:func:`sse_pump` is the poll loop behind every SSE body the server
sends, this one and the service's ``/jobs/events``.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Union

from ..qor.heartbeat import history_path, read_heartbeat, read_history
from ..qor.monitor import FINAL_PHASES
from ..qor.recorder import RunRecorder
from ..telemetry import jsonlog


def format_sse(
    data: Any, event: Optional[str] = None, event_id: Optional[str] = None
) -> bytes:
    """One SSE frame: optional ``event``/``id`` lines, then the JSON
    payload as ``data`` lines, then the blank separator line."""
    lines = []
    if event is not None:
        lines.append(f"event: {event}")
    if event_id is not None:
        lines.append(f"id: {event_id}")
    payload = data if isinstance(data, str) else jsonlog.encode(data)
    for chunk in payload.splitlines() or [""]:
        lines.append(f"data: {chunk}")
    return ("\n".join(lines) + "\n\n").encode("utf-8")


def keepalive() -> bytes:
    """An SSE comment frame: keeps proxies from timing the stream out."""
    return b": keepalive\n\n"


class HeartbeatTailer:
    """Follows one rundir's heartbeat as an ordered beat iterator.

    Polls the atomic snapshot for the newest ``seq`` and backfills the
    intermediate beats from the history ring, so consumers observe every
    published beat exactly once and in order (ring permitting — beats
    compacted away before the first poll are gone, like any ring).
    """

    def __init__(self, rundir: Union[str, Path], since_seq: int = 0) -> None:
        self.rundir = Path(rundir)
        self.snapshot_path = self.rundir / RunRecorder.HEARTBEAT_NAME
        self.history_file = history_path(self.snapshot_path)
        self.last_seq = since_seq

    def poll(self) -> Iterator[Dict[str, Any]]:
        """Every beat newer than the cursor, oldest first (may be empty)."""
        snapshot = read_heartbeat(self.snapshot_path)
        if snapshot is None:
            return
        newest = int(snapshot.get("seq", 0) or 0)
        if newest <= self.last_seq:
            return
        backfill = read_history(self.history_file, since_seq=self.last_seq)
        emitted = False
        for beat in backfill:
            seq = int(beat.get("seq", 0) or 0)
            if seq <= self.last_seq:
                continue
            self.last_seq = seq
            emitted = True
            yield beat
        if newest > self.last_seq or not emitted:
            # No ring (or the snapshot outran it): emit the snapshot.
            self.last_seq = newest
            yield snapshot


def sse_pump(
    frames: Callable[[], Iterable[Optional[bytes]]],
    stop: Optional[threading.Event] = None,
    timeout: Optional[float] = None,
    poll_interval: float = 0.25,
    keepalive_every: float = 15.0,
) -> Iterator[bytes]:
    """The poll loop of an SSE body.

    Calls ``frames()`` once per poll and sends what it returns; a
    ``None`` among the frames ends the stream.  Between empty polls it
    sleeps ``poll_interval`` and sends a keepalive comment once
    ``keepalive_every`` seconds pass without a frame.  ``stop`` and
    ``timeout`` end the stream early.
    """
    deadline = time.monotonic() + timeout if timeout is not None else None
    last_emit = time.monotonic()
    while stop is None or not stop.is_set():
        if deadline is not None and time.monotonic() > deadline:
            return
        got = False
        for frame in frames():
            if frame is None:
                return
            got = True
            yield frame
            last_emit = time.monotonic()
        if not got:
            if time.monotonic() - last_emit >= keepalive_every:
                last_emit = time.monotonic()
                yield keepalive()
            time.sleep(poll_interval)


def stream_events(
    rundir: Union[str, Path],
    stop: Optional[threading.Event] = None,
    timeout: Optional[float] = None,
    poll_interval: float = 0.25,
    since_seq: int = 0,
    keepalive_every: float = 15.0,
    max_beats: Optional[int] = None,
) -> Iterator[bytes]:
    """The ``/runs/<id>/events`` body: SSE frames for one run.

    Emits a ``stage`` event whenever the beat's phase or stage changed,
    a ``beat`` event for every heartbeat, and a ``final`` event (then
    ends) when the run publishes its last beat.
    """
    tailer = HeartbeatTailer(rundir, since_seq=since_seq)
    last_marker: Optional[tuple] = None
    delivered = 0

    def frames() -> Iterator[Optional[bytes]]:
        nonlocal last_marker, delivered
        for beat in tailer.poll():
            marker = (beat.get("phase"), beat.get("stage"))
            seq = str(beat.get("seq", ""))
            if marker != last_marker:
                last_marker = marker
                yield format_sse(
                    {
                        "run_id": beat.get("run_id"),
                        "phase": beat.get("phase"),
                        "stage": beat.get("stage"),
                        "seq": beat.get("seq"),
                    },
                    event="stage",
                    event_id=seq,
                )
            final = bool(beat.get("final") or beat.get("phase") in FINAL_PHASES)
            yield format_sse(
                beat, event="final" if final else "beat", event_id=seq
            )
            delivered += 1
            if final or (max_beats is not None and delivered >= max_beats):
                yield None
                return

    return sse_pump(frames, stop, timeout, poll_interval, keepalive_every)
