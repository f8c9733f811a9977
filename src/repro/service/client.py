"""Thin Python client for the analysis service's JSON API.

Stdlib-only (:mod:`urllib.request`).  The client mirrors the service's
backpressure contract: a 429 raises :class:`JobRejected` carrying the
server's ``retry_after`` hint, and :meth:`ServiceClient.submit` can
optionally honour it for you (``retries > 0``), which is what the CLI
and the smoke harness use to push a burst through a bounded queue.

Transport resilience: connection-level failures (refused, reset, DNS)
surface as :class:`ServiceError` with ``status == 0``.  *Idempotent*
requests — every GET, plus ``POST /admin/drain`` which the service
makes safe to repeat — are retried through the shared
:class:`~repro.reliability.retry.RetryPolicy` (capped exponential
backoff, deterministic jitter) before that error is allowed to
propagate.  Submissions are **not** retried on connection errors (the
job may have been accepted before the connection died); they are only
retried on explicit 429 rejections, where the server has vouched that
nothing was enqueued.

The chaos layer (:mod:`repro.chaos`) hooks the transport seam: an
active plan may refuse/reset/delay individual requests, which exercises
exactly these retry paths.
"""

from __future__ import annotations

import json
import os
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Iterator, Optional

from ..chaos import injector as chaos
from ..reliability.retry import RetryPolicy
from .stream import TERMINAL_EVENTS, parse_sse

#: Transport retry schedule: three tries, fast capped backoff.  Small
#: enough that a genuinely-down service fails in well under a second.
DEFAULT_CLIENT_RETRY_POLICY = RetryPolicy(
    max_attempts=3, base_delay=0.05, max_delay=0.5, multiplier=2.0)

#: Environment override for the default request timeout (seconds).
TIMEOUT_ENV = "REPRO_CLIENT_TIMEOUT"

#: Built-in default when neither the constructor nor the environment
#: picks a timeout.
DEFAULT_TIMEOUT = 10.0


def _env_timeout(name: str) -> Optional[float]:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value > 0 else None


class ServiceError(RuntimeError):
    """A non-2xx response that is not backpressure (4xx/5xx).

    ``status == 0`` means the request never got an HTTP response at
    all: connection refused/reset, DNS failure, timeout.
    """

    def __init__(self, status: int, payload: Dict[str, Any]) -> None:
        super().__init__(f"HTTP {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload


class JobRejected(ServiceError):
    """HTTP 429: the queue is full; retry after ``retry_after`` seconds."""

    def __init__(self, status: int, payload: Dict[str, Any]) -> None:
        super().__init__(status, payload)
        self.retry_after = float(payload.get("retry_after", 1.0))


class ServiceClient:
    """Submit/poll/stream helper bound to one service base URL.

    The socket timeout for every request is configurable per client
    and through the environment (``REPRO_CLIENT_TIMEOUT``): an explicit
    constructor argument wins, the environment fills in otherwise.
    """

    def __init__(self, base_url: str, timeout: Optional[float] = None,
                 retry_policy: Optional[RetryPolicy] = None) -> None:
        self.base_url = base_url.rstrip("/")
        if timeout is None:
            timeout = _env_timeout(TIMEOUT_ENV) or DEFAULT_TIMEOUT
        self.timeout = timeout
        self.retry_policy = retry_policy or DEFAULT_CLIENT_RETRY_POLICY
        self._request_sequence = 0

    # ------------------------------------------------------------------

    def _request_once(self, method: str, path: str,
                      body: Optional[Dict[str, Any]],
                      attempt: int) -> Dict[str, Any]:
        # Chaos transport seam.  The per-client request sequence is
        # part of the decision key, so a retried request draws a fresh
        # decision (a single flaky connection, not a permanently dead
        # route) and distinct requests to the same path fault
        # independently.
        del attempt  # folded into the sequence below
        sequence = self._request_sequence
        self._request_sequence += 1
        fault = chaos.client_fault(f"{method}:{path}:req-{sequence}")
        if fault == "delay":
            active = chaos.plan()
            if active is not None:
                time.sleep(active.delay_seconds)
        elif fault is not None:
            raise ServiceError(
                0, {"error": f"chaos-injected connection {fault}"})
        data = json.dumps(body).encode("utf-8") if body is not None else None
        request = urllib.request.Request(
            self.base_url + path, data=data, method=method,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                payload = json.loads(exc.read().decode("utf-8"))
            except ValueError:
                payload = {"error": str(exc)}
            if exc.code == 429:
                raise JobRejected(exc.code, payload) from None
            raise ServiceError(exc.code, payload) from None
        except urllib.error.URLError as exc:
            # Connection-level failure (refused, DNS, timeout): status 0.
            raise ServiceError(0, {"error": str(exc.reason)}) from None

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None,
                 idempotent: Optional[bool] = None) -> Dict[str, Any]:
        if idempotent is None:
            idempotent = method == "GET"
        attempts = self.retry_policy.max_attempts if idempotent else 1
        last_error: Optional[ServiceError] = None
        for attempt in range(attempts):
            if attempt:
                pause = self.retry_policy.delay(
                    attempt - 1, salt=f"{method}:{path}")
                if pause > 0:
                    time.sleep(pause)
            try:
                return self._request_once(method, path, body, attempt)
            except ServiceError as exc:
                if exc.status != 0 or not idempotent:
                    raise
                last_error = exc  # connection-level: retry
        assert last_error is not None
        raise last_error

    # ------------------------------------------------------------------

    def submit(self, workload: str, retries: int = 0,
               **fields: Any) -> Dict[str, Any]:
        """POST /jobs; optionally retry (honouring Retry-After) on 429.

        The pause before each retry is the larger of the retry policy's
        scheduled backoff and the server's (capped) ``retry_after``
        hint, so the client never hammers a loaded queue faster than
        the server asked it to.
        """
        body = {"workload": workload, **fields}
        attempt = 0
        while True:
            try:
                return self._request("POST", "/jobs", body)
            except JobRejected as rejected:
                if attempt >= retries:
                    raise
                pause = max(self.retry_policy.delay(
                                attempt, salt=f"submit:{workload}"),
                            min(rejected.retry_after, 2.0))
                attempt += 1
                time.sleep(pause)

    def submit_multicore(self, scenario: str, retries: int = 0,
                         **fields: Any) -> Dict[str, Any]:
        """POST /multicore; optionally retry (honouring Retry-After) on 429."""
        body = {"scenario": scenario, **fields}
        attempt = 0
        while True:
            try:
                return self._request("POST", "/multicore", body)
            except JobRejected as rejected:
                if attempt >= retries:
                    raise
                pause = max(self.retry_policy.delay(
                                attempt, salt=f"multicore:{scenario}"),
                            min(rejected.retry_after, 2.0))
                attempt += 1
                time.sleep(pause)

    def submit_grid(self, workload: str, retries: int = 0,
                    **fields: Any) -> Dict[str, Any]:
        """POST /grids; optionally retry (honouring Retry-After) on 429.

        A grid rejection is all-or-nothing (the server admits the whole
        design-space matrix atomically or none of it), so retrying a
        429 is always safe: nothing was enqueued.
        """
        body = {"workload": workload, **fields}
        attempt = 0
        while True:
            try:
                return self._request("POST", "/grids", body)
            except JobRejected as rejected:
                if attempt >= retries:
                    raise
                pause = max(self.retry_policy.delay(
                                attempt, salt=f"grid:{workload}"),
                            min(rejected.retry_after, 2.0))
                attempt += 1
                time.sleep(pause)

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def grid_status(self, grid_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/grids/{grid_id}")

    def wait_grid(self, grid_id: str, timeout: float = 120.0,
                  poll: float = 0.05,
                  deadline: Optional[float] = None) -> Dict[str, Any]:
        """Poll until every grid point reaches a terminal state.

        ``deadline`` is an *absolute* ``time.time()`` cutoff that wins
        over ``timeout`` — the same plumbing ``submit --deadline``
        stamps onto jobs, so a CLI grid wait and the jobs it watches
        share one wall-clock budget instead of two drifting ones.
        """
        if deadline is None:
            deadline = time.time() + timeout
        terminal = ("done", "failed", "rejected")
        while True:
            payload = self.grid_status(grid_id)
            if payload["state"] in terminal:
                return payload
            if time.time() >= deadline:
                raise TimeoutError(
                    f"grid {grid_id} still {payload['state']!r} "
                    f"at deadline (timeout {timeout:.1f}s)")
            time.sleep(poll)

    def wait(self, job_id: str, timeout: float = 60.0,
             poll: float = 0.05,
             deadline: Optional[float] = None) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state (or timeout).

        ``deadline`` (absolute, optional) wins over ``timeout`` — see
        :meth:`wait_grid`.
        """
        if deadline is None:
            deadline = time.time() + timeout
        terminal = ("done", "failed", "rejected", "requeued", "quarantined")
        while True:
            payload = self.status(job_id)
            if payload["state"] in terminal:
                return payload
            if time.time() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {payload['state']!r} "
                    f"at deadline (timeout {timeout:.1f}s)")
            time.sleep(poll)

    def stream(self, job_id: str, last_event_id: int = 0,
               reconnect: bool = True,
               read_timeout: Optional[float] = None
               ) -> Iterator[Dict[str, Any]]:
        """Yield SSE lifecycle events for a job until its terminal event.

        Events are ``{"id": seq, "event": name, "data": {...}}`` in
        journal order: ``queued`` → ``running`` → ``progress``\\* →
        one terminal event (whose data carries the full result), after
        which the generator returns.  On a dropped connection the
        client reconnects with the last seen sequence number
        (``Last-Event-ID``), so resumed streams never replay events —
        and never duplicate the terminal one.  Consecutive reconnects
        that yield no event are capped at the retry policy's
        ``max_attempts``; past that the stream raises
        :class:`ServiceError` with ``status == 0``.  Pass
        ``reconnect=False`` to surface the first transport failure
        instead.
        """
        last = last_event_id
        reconnects = 0
        while True:
            request = urllib.request.Request(
                f"{self.base_url}/jobs/{job_id}/events?after={last}",
                headers={"Accept": "text/event-stream",
                         "Last-Event-ID": str(last)})
            try:
                timeout = (read_timeout if read_timeout is not None
                           else self.timeout)
                with urllib.request.urlopen(request,
                                            timeout=timeout) as response:
                    for event in parse_sse(response):
                        reconnects = 0
                        last = max(last, int(event.get("id", 0)))
                        yield event
                        if event.get("event") in TERMINAL_EVENTS:
                            return
            except urllib.error.HTTPError as exc:
                try:
                    payload = json.loads(exc.read().decode("utf-8"))
                except ValueError:
                    payload = {"error": str(exc)}
                raise ServiceError(exc.code, payload) from None
            except (urllib.error.URLError, ConnectionError, OSError) as exc:
                error = str(exc)
            else:
                # Server closed the stream without a terminal event
                # (drain): reconnect and resume after `last`.
                error = f"stream for {job_id} ended early"
            if not reconnect or reconnects >= self.retry_policy.max_attempts:
                raise ServiceError(0, {"error": error})
            time.sleep(self.retry_policy.delay(
                reconnects, salt=f"stream:{job_id}"))
            reconnects += 1

    def metrics(self) -> Dict[str, Any]:
        return self._request("GET", "/metrics")

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def drain(self) -> Dict[str, Any]:
        # Draining twice is safe (the second is a no-op), so transport
        # retries are allowed even though this is a POST.
        return self._request("POST", "/admin/drain", idempotent=True)
