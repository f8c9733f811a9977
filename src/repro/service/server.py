"""Stdlib-only JSON HTTP API in front of :class:`TMAService`.

Endpoints::

    POST /jobs          submit a job            -> 202 receipt
                        (429 + Retry-After on backpressure,
                         400 on validation errors)
    POST /multicore     submit a multicore      -> 202 receipt (same
                        scenario job             contract as /jobs)
    GET  /jobs/<id>     job status + result     -> 200 | 404
    POST /grids         submit a design-space   -> 202 grid receipt
                        grid (fans out into      (429 when the whole
                        per-point jobs)          grid cannot be
                                                 admitted atomically)
    GET  /grids/<id>    aggregated grid status  -> 200 | 404
    GET  /metrics       metrics snapshot        -> 200
    GET  /healthz       liveness + drain state  -> 200
    POST /admin/drain   graceful drain          -> 200 drain report

Built on :class:`http.server.ThreadingHTTPServer` so the API stays
dependency-free; each request handler thread calls straight into the
thread-safe service facade.  ``serve_forever`` runs until
``shutdown()`` — the CLI wires SIGINT/SIGTERM to a drain-then-shutdown
sequence so Ctrl-C never drops accepted jobs.
"""

from __future__ import annotations

import json
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from .app import TMAService
from .job import JobValidationError
from .stream import sse_encode, sse_keepalive

#: Submissions above this size are rejected outright (413): job
#: payloads are a few hundred bytes, so anything huge is abuse/error.
MAX_BODY_BYTES = 64 * 1024


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests into the owning server's TMAService."""

    server_version = "repro-tma-service/1.1"
    protocol_version = "HTTP/1.1"

    # Quiet by default; the service's metrics are the observability
    # surface, not an access log on stderr.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    @property
    def service(self) -> TMAService:
        return self.server.service  # type: ignore[attr-defined]

    # ------------------------------------------------------------------

    def _send_json(self, status: int, payload: Dict[str, Any],
                   headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_json_body(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise JobValidationError(
                f"body too large ({length} > {MAX_BODY_BYTES} bytes)")
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw.decode("utf-8") or "{}")
        except (UnicodeDecodeError, ValueError) as exc:
            raise JobValidationError(f"body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise JobValidationError("body must be a JSON object")
        return payload

    # ------------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/jobs":
            self._post_jobs()
        elif self.path == "/multicore":
            self._post_jobs(multicore=True)
        elif self.path == "/grids":
            self._post_grids()
        elif self.path == "/admin/drain":
            report = self.service.drain()
            self._send_json(200, report)
        else:
            self._send_json(404, {"error": f"no such endpoint {self.path}"})

    def _post_jobs(self, multicore: bool = False) -> None:
        try:
            payload = self._read_json_body()
            submit = (self.service.submit_multicore_payload if multicore
                      else self.service.submit_payload)
            receipt = submit(payload)
        except JobValidationError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        record = receipt.record
        if not receipt.accepted:
            retry_after = receipt.retry_after or 1.0
            self._send_json(
                429,
                {"error": record.error or "queue full",
                 "id": record.id,
                 "retry_after": retry_after,
                 "queue_depth": receipt.queue_depth},
                headers={"Retry-After": f"{retry_after:.3f}"})
            return
        self._send_json(202, {
            "id": record.id,
            "state": record.state,
            "job_key": record.job_key,
            "deduped": receipt.deduped,
            "coalesced_with": record.coalesced_with,
            "queue_depth": receipt.queue_depth,
        })

    def _post_grids(self) -> None:
        try:
            payload = self._read_json_body()
            grid = self.service.submit_grid_payload(payload)
        except JobValidationError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        summary = {
            "id": grid.id,
            "grid_key": grid.key,
            "workload": grid.workload,
            "points": len(grid.point_keys),
            "point_records": dict(grid.point_record_ids),
            "coalesced_with": grid.coalesced_with,
        }
        if not grid.accepted:
            retry_after = self.service._retry_after_estimate()
            summary["error"] = "grid could not be admitted atomically"
            summary["retry_after"] = retry_after
            self._send_json(429, summary,
                            headers={"Retry-After": f"{retry_after:.3f}"})
            return
        self._send_json(202, summary)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path.startswith("/jobs/"):
            rest = self.path[len("/jobs/"):]
            if rest.endswith("/events") or "/events?" in rest:
                job_id, _, query = rest.partition("/events")
                self._stream_events(job_id, query.lstrip("?"))
                return
            payload = self.service.status(rest)
            if payload is None:
                self._send_json(404, {"error": f"unknown job {rest!r}"})
            else:
                self._send_json(200, payload)
        elif self.path.startswith("/grids/"):
            grid_id = self.path[len("/grids/"):]
            payload = self.service.grid_status(grid_id)
            if payload is None:
                self._send_json(404, {"error": f"unknown grid {grid_id!r}"})
            else:
                self._send_json(200, payload)
        elif self.path == "/metrics":
            self._send_json(200, self.service.metrics_snapshot())
        elif self.path == "/healthz":
            self._send_json(200, self.service.healthz())
        else:
            self._send_json(404, {"error": f"no such endpoint {self.path}"})

    # ------------------------------------------------------------------
    # SSE streaming

    def _stream_events(self, job_id: str, query: str) -> None:
        """``GET /jobs/<id>/events``: stream lifecycle events as SSE.

        The response is unframed (``Connection: close`` delimits the
        body), because the journal produces events until a terminal
        one and a streamed body cannot carry Content-Length.  Resume
        semantics: ``?after=<seq>`` or the standard ``Last-Event-ID``
        header skips events the client already saw — the terminal
        event is therefore delivered exactly once per cursor.
        """
        after = 0
        params = urllib.parse.parse_qs(query)
        if params.get("after"):
            try:
                after = int(params["after"][0])
            except ValueError:
                self._send_json(400, {"error": "after must be an integer"})
                return
        elif self.headers.get("Last-Event-ID"):
            try:
                after = int(self.headers["Last-Event-ID"])
            except ValueError:
                after = 0
        service = self.service
        if (service.status(job_id) is None
                and not service.events.known(job_id)):
            self._send_json(404, {"error": f"unknown job {job_id!r}"})
            return
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        last = after
        finished = False
        try:
            while not finished:
                events = service.events.wait(job_id, after=last,
                                             timeout=0.25)
                if not events:
                    if service.events.finished(job_id):
                        break  # resumed past the terminal event
                    self.wfile.write(sse_keepalive())
                    self.wfile.flush()
                    continue
                for event in events:
                    self.wfile.write(sse_encode(event))
                    last = event.seq
                    if event.terminal:
                        finished = True
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            return  # client went away; it can resume from its cursor


class ServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that owns a TMAService reference."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: TMAService,
                 verbose: bool = False) -> None:
        super().__init__(address, ServiceRequestHandler)
        self.service = service
        self.verbose = verbose


def make_server(service: TMAService, host: str = "127.0.0.1",
                port: int = 0, verbose: bool = False) -> ServiceServer:
    """Bind (port 0 = ephemeral) but do not start serving yet."""
    return ServiceServer((host, port), service, verbose=verbose)


def serve_in_thread(service: TMAService, host: str = "127.0.0.1",
                    port: int = 0) -> Tuple[ServiceServer, threading.Thread]:
    """Start a server on a daemon thread; returns (server, thread).

    Used by tests and the smoke script; the CLI runs
    ``serve_forever`` on the main thread instead.
    """
    server = make_server(service, host=host, port=port)
    thread = threading.Thread(target=server.serve_forever,
                              name="tma-http", daemon=True)
    thread.start()
    return server, thread
