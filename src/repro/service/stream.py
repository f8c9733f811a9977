"""Job lifecycle event journal and SSE (Server-Sent Events) codec.

The streaming tier is two small pieces:

- :class:`EventJournal` — the service-side append-only log.  Every
  job record gets an ordered event sequence (``queued`` → ``running``
  → one terminal event) with per-job monotonically
  increasing sequence numbers, and blocking subscription
  (:meth:`EventJournal.wait`) so one HTTP handler thread can stream a
  job live without polling the service.
- the SSE codec — :func:`sse_encode` for the server,
  :func:`parse_sse` for the stdlib client.  Events ride the standard
  ``id:`` / ``event:`` / ``data:`` frame layout, so ``curl`` and
  browsers' ``EventSource`` can watch a job too.

Resumability: sequence numbers are per-job and start at 1, so a
client that reconnects with ``Last-Event-ID: <seq>`` (or
``?after=<seq>``) receives exactly the events it has not seen —
including never duplicating the terminal event, which the tests pin
down.

The journal is bounded on both axes: per-job event counts are capped
(non-terminal events beyond the cap are dropped, never the terminal
one), and whole sequences are discarded when the service evicts the
matching job record.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

#: Event names that end a job's stream (mirrors the service's terminal
#: record states).  A stream always finishes with exactly one of these.
TERMINAL_EVENTS = frozenset(
    ("done", "failed", "rejected", "requeued", "quarantined"))

#: Per-job cap on journaled events.  Lifecycle events are few; past
#: the cap only non-terminal events are shed, so every stream still
#: ends with its terminal event.
MAX_EVENTS_PER_JOB = 512


@dataclass(frozen=True)
class JobEvent:
    """One journaled lifecycle event of one job."""

    seq: int
    event: str
    data: Dict[str, Any] = field(default_factory=dict)
    ts: float = 0.0

    @property
    def terminal(self) -> bool:
        return self.event in TERMINAL_EVENTS

    def to_payload(self) -> Dict[str, Any]:
        return {"seq": self.seq, "event": self.event,
                "ts": self.ts, "data": self.data}


class EventJournal:
    """Thread-safe per-job event sequences with blocking subscription."""

    def __init__(self, max_events_per_job: int = MAX_EVENTS_PER_JOB) -> None:
        self.max_events_per_job = max_events_per_job
        self._events: Dict[str, List[JobEvent]] = {}
        self._cond = threading.Condition()

    def append(self, job_id: str, event: str,
               data: Optional[Dict[str, Any]] = None) -> Optional[JobEvent]:
        """Journal one event; wakes all waiting subscribers.

        Returns the journaled event, or None when the per-job cap shed
        it (terminal events are never shed).
        """
        with self._cond:
            sequence = self._events.setdefault(job_id, [])
            if (len(sequence) >= self.max_events_per_job
                    and event not in TERMINAL_EVENTS):
                return None
            entry = JobEvent(seq=len(sequence) + 1, event=event,
                             data=dict(data or {}), ts=time.time())
            sequence.append(entry)
            self._cond.notify_all()
            return entry

    def events(self, job_id: str, after: int = 0) -> List[JobEvent]:
        """Snapshot of the journaled events with ``seq > after``."""
        with self._cond:
            sequence = self._events.get(job_id, [])
            return [event for event in sequence if event.seq > after]

    def known(self, job_id: str) -> bool:
        with self._cond:
            return job_id in self._events

    def finished(self, job_id: str) -> bool:
        """True once the job's stream has its terminal event."""
        with self._cond:
            sequence = self._events.get(job_id, [])
            return bool(sequence) and sequence[-1].terminal

    def wait(self, job_id: str, after: int = 0,
             timeout: Optional[float] = None) -> List[JobEvent]:
        """Block until events with ``seq > after`` exist (or timeout).

        Returns the new events — possibly ``[]`` on timeout, which
        streaming handlers use as their keepalive tick.  Never blocks
        when the stream is already finished.
        """
        deadline = None if timeout is None else time.time() + timeout
        with self._cond:
            while True:
                sequence = self._events.get(job_id, [])
                fresh = [event for event in sequence if event.seq > after]
                if fresh or (sequence and sequence[-1].terminal):
                    return fresh
                if deadline is not None:
                    remaining = deadline - time.time()
                    if remaining <= 0:
                        return []
                    self._cond.wait(remaining)
                else:
                    self._cond.wait()

    def discard(self, job_id: str) -> None:
        with self._cond:
            self._events.pop(job_id, None)

    def __len__(self) -> int:
        with self._cond:
            return len(self._events)


# ---------------------------------------------------------------------------
# SSE codec


def sse_encode(event: JobEvent) -> bytes:
    """One SSE frame: ``id`` carries the resume cursor."""
    data = json.dumps(event.data, separators=(",", ":"))
    return (f"id: {event.seq}\n"
            f"event: {event.event}\n"
            f"data: {data}\n\n").encode("utf-8")


def sse_keepalive() -> bytes:
    """An SSE comment frame; clients ignore it, proxies stay warm."""
    return b": keepalive\n\n"


def parse_sse(stream) -> Iterator[Dict[str, Any]]:
    """Incrementally decode SSE frames from a binary file-like object.

    Yields ``{"id": int, "event": str, "data": dict}`` per frame;
    comment lines (keepalives) are skipped.  Returns when the stream
    closes.  Tolerates half-frames at EOF (a killed server mid-write):
    the partial frame is dropped, which is safe because the client
    resumes from the last *complete* frame's id.
    """
    fields: Dict[str, str] = {}
    for raw in stream:
        line = raw.decode("utf-8", errors="replace").rstrip("\r\n")
        if not line:
            if "event" in fields or "data" in fields:
                try:
                    data = json.loads(fields.get("data", "{}"))
                except ValueError:
                    data = {"raw": fields.get("data", "")}
                yield {"id": int(fields.get("id", 0) or 0),
                       "event": fields.get("event", "message"),
                       "data": data}
            fields = {}
            continue
        if line.startswith(":"):
            continue
        name, _, value = line.partition(":")
        fields[name.strip()] = value.lstrip()


__all__ = [
    "EventJournal",
    "JobEvent",
    "MAX_EVENTS_PER_JOB",
    "TERMINAL_EVENTS",
    "parse_sse",
    "sse_encode",
    "sse_keepalive",
]
