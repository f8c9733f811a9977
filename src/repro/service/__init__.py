"""Queue-driven TMA analysis service.

Turns the one-shot CLI pipeline into a long-running service: clients
submit :class:`TMAJob` analyses over a stdlib JSON HTTP API (or
in-process), a bounded priority scheduler coalesces duplicates and
applies backpressure, a crash-surviving worker pool executes through
the resilient runner, repeat requests are served O(1) from the
checksummed disk cache, and live counters/gauges/latency histograms
are one ``GET /metrics`` away.  See ``docs/service.md``.

Every job's lifecycle is observable live over SSE
(:mod:`repro.service.stream`, ``GET /jobs/<id>/events``).

Quickstart (in-process)::

    from repro.service import TMAService

    service = TMAService(workers=2, executor="thread").start()
    receipt = service.submit_payload({"workload": "vvadd", "scale": 0.2})
    ...
    service.drain()

Or over HTTP: ``repro-tma serve`` + ``repro-tma submit`` /
:class:`ServiceClient`.
"""

from .app import TMAService
from .client import JobRejected, ServiceClient, ServiceError
from .job import (GridJob, JobRecord, JobValidationError, MulticoreJob,
                  TMAJob, outcome_payload)
from .metrics import Histogram, MetricsRegistry
from .scheduler import JobScheduler, SubmitReceipt
from .server import ServiceServer, make_server, serve_in_thread
from .store import ResultStore
from .stream import EventJournal, JobEvent, parse_sse, sse_encode
from .workers import WorkerPool, execute_job

__all__ = [
    "EventJournal",
    "GridJob",
    "Histogram",
    "JobEvent",
    "JobRecord",
    "JobRejected",
    "JobScheduler",
    "JobValidationError",
    "MetricsRegistry",
    "MulticoreJob",
    "ResultStore",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "SubmitReceipt",
    "TMAJob",
    "TMAService",
    "WorkerPool",
    "execute_job",
    "make_server",
    "outcome_payload",
    "parse_sse",
    "serve_in_thread",
    "sse_encode",
]
