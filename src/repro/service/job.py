"""Typed job model for the TMA analysis service.

A :class:`TMAJob` is the unit of work a client submits: one
workload × scale × core-config measurement, plus the harness options
(counter architecture, baremetal/linux mode, explicit event list) and
execution policy (cache use, watchdog budget).  Jobs are value objects
with a canonical :meth:`TMAJob.job_key` built on
:func:`repro.tools.cache.cache_key`, so two requests for the same
analysis — regardless of submitting client or priority — share one key
and can be coalesced by the scheduler and served by the result store.

:class:`JobRecord` is the service-side lifecycle wrapper: identity,
client, priority, state machine, timestamps, attempts, and the JSON
result payload handed back through the API.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..cores import CONFIGS_BY_NAME
from ..cores.batch import (DEFAULT_GRID, GridPoint, canonical_grid_key,
                           parse_grid, resolve_config_spec)
from ..pmu.csr import INCREMENT_MODES
from ..reliability.runner import DEFAULT_MAX_CYCLES, RunOutcome
from ..tools.cache import cache_key
from ..tools.pool import RunnerSpec
from ..workloads import workload_names

#: Job lifecycle states.  ``queued -> running -> done|failed`` is the
#: happy path; ``rejected`` marks backpressure refusals (never entered
#: the queue), ``requeued`` marks jobs durably persisted by a drain,
#: and ``quarantined`` marks jobs skipped because their
#: (workload, config) circuit breaker was open.
JOB_STATES = ("queued", "running", "done", "failed", "rejected", "requeued",
              "quarantined")

#: Priorities are small ints, 0 = most urgent.
DEFAULT_PRIORITY = 1
MAX_PRIORITY = 9


class JobValidationError(ValueError):
    """A submitted job payload failed validation (HTTP 400)."""


@dataclass(frozen=True)
class TMAJob:
    """One requested analysis: workload × scale × config × options."""

    workload: str
    config: str = "large-boom"
    scale: float = 1.0
    increment_mode: str = "adders"
    mode: str = "baremetal"
    events: Optional[Tuple[str, ...]] = None
    use_cache: bool = True
    max_cycles: Optional[int] = DEFAULT_MAX_CYCLES
    #: Relative wall-clock budget in seconds.  The service converts it
    #: to an absolute deadline when the job launches and propagates it
    #: into the worker-side runner (see ``RunnerSpec.deadline``).
    deadline_seconds: Optional[float] = None
    #: Windowed execution: shard the trace into K windows simulated in
    #: parallel and stitched (:mod:`repro.cores.windowed`).  ``huge``
    #: tier workloads are accepted *only* with ``windows`` set.
    windows: Optional[int] = None
    warmup: Optional[int] = None
    sampled: bool = False

    def validate(self) -> None:
        if self.workload not in workload_names():
            # Huge-tier workloads are excluded from the default
            # enumeration; they are valid submissions, but only through
            # the windowed path.
            if self.workload in workload_names("huge"):
                if self.windows is None:
                    raise JobValidationError(
                        f"workload {self.workload!r} is in the 'huge' tier "
                        f"and requires 'windows'")
            else:
                raise JobValidationError(
                    f"unknown workload {self.workload!r}")
        # A config is a Table IV registry name or a canonical grid
        # point key ("large-boom+l1d=16"), so design-space variants
        # fanned out of a grid submission ride the normal job path.
        try:
            resolve_config_spec(self.config)
        except (KeyError, ValueError):
            raise JobValidationError(
                f"unknown config {self.config!r}; choose from "
                f"{sorted(CONFIGS_BY_NAME)} or a canonical grid point "
                f"key such as 'large-boom+l1d=16'") from None
        if not (0 < self.scale <= 10.0):
            raise JobValidationError(
                f"scale must be in (0, 10], got {self.scale}")
        if self.increment_mode not in INCREMENT_MODES:
            raise JobValidationError(
                f"unknown increment mode {self.increment_mode!r}")
        if self.mode not in ("baremetal", "linux"):
            raise JobValidationError(f"unknown mode {self.mode!r}")
        if self.max_cycles is not None and self.max_cycles < 1:
            raise JobValidationError("max_cycles must be >= 1 or null")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise JobValidationError(
                "deadline_seconds must be > 0 or null")
        if self.windows is not None and self.windows < 1:
            raise JobValidationError("windows must be >= 1 or null")
        if self.warmup is not None:
            if self.windows is None:
                raise JobValidationError("warmup requires windows")
            if self.warmup < 0:
                raise JobValidationError("warmup must be >= 0 or null")
        if self.sampled and self.windows is None:
            raise JobValidationError("sampled=true requires windows")

    def config_obj(self):
        return resolve_config_spec(self.config)

    def job_key(self) -> str:
        """Canonical dedup/store key for this analysis.

        Reuses the disk cache's (fingerprint, workload, scale, config)
        key and folds in every option that changes what a measurement
        returns: the harness options (so e.g. a ``distributed``-counter
        request never coalesces with an exact ``adders`` one) *and* the
        execution policy — a ``use_cache=False`` force-fresh submission
        must not be served a cached result via a ``use_cache=True``
        primary, and jobs with different watchdog budgets must not
        share a timeout verdict produced under someone else's smaller
        ``max_cycles``.
        """
        base = self.cache_key()
        digest = hashlib.sha256(base.encode())
        digest.update(self.increment_mode.encode())
        digest.update(self.mode.encode())
        digest.update(repr(self.events).encode())
        digest.update(repr(self.use_cache).encode())
        digest.update(repr(self.max_cycles).encode())
        digest.update(repr(self.deadline_seconds).encode())
        # The window plan is already folded through cache_key() when
        # windows is set, but fold the raw triple too so a future
        # cache-key simplification can never silently coalesce a
        # windowed job with a plain one.
        digest.update(
            repr((self.windows, self.warmup, self.sampled)).encode())
        return digest.hexdigest()[:24]

    def cache_key(self) -> str:
        """Key of the underlying core-result disk-cache entry.

        Windowed jobs key through
        :func:`repro.tools.cache.windowed_cache_key`, so they read and
        write the same entries :func:`repro.cores.windowed.run_windowed`
        uses — and never collide with plain runs.
        """
        if self.windows is not None:
            from ..cores.windowed import normalized_warmup
            from ..tools.cache import windowed_cache_key

            return windowed_cache_key(
                self.workload, self.scale, self.config_obj(), self.windows,
                normalized_warmup(self.windows, self.warmup, self.sampled),
                self.sampled)
        return cache_key(self.workload, self.scale, self.config_obj())

    def runner_spec(self) -> RunnerSpec:
        return RunnerSpec(
            core=self.config_obj().core,
            increment_mode=self.increment_mode,
            mode=self.mode,
            event_names=self.events,
            scale=self.scale,
            max_cycles=self.max_cycles,
            use_cache=self.use_cache,
            windows=self.windows,
            windows_warmup=self.warmup,
            windows_sampled=self.sampled,
        )

    def to_payload(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "config": self.config,
            "scale": self.scale,
            "increment_mode": self.increment_mode,
            "mode": self.mode,
            "events": list(self.events) if self.events else None,
            "use_cache": self.use_cache,
            "max_cycles": self.max_cycles,
            "deadline_seconds": self.deadline_seconds,
            "windows": self.windows,
            "warmup": self.warmup,
            "sampled": self.sampled,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "TMAJob":
        if not isinstance(payload, dict):
            raise JobValidationError("job payload must be a JSON object")
        if "workload" not in payload:
            raise JobValidationError("job payload requires 'workload'")
        known = {"workload", "config", "scale", "increment_mode", "mode",
                 "events", "use_cache", "max_cycles", "deadline_seconds",
                 "windows", "warmup", "sampled"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise JobValidationError(f"unknown job fields: {unknown}")
        events = payload.get("events")
        if events is not None:
            if (not isinstance(events, (list, tuple))
                    or not all(isinstance(e, str) for e in events)):
                raise JobValidationError("'events' must be a string list")
            events = tuple(events)
        try:
            job = cls(
                workload=str(payload["workload"]),
                config=str(payload.get("config", "large-boom")),
                scale=float(payload.get("scale", 1.0)),
                increment_mode=str(payload.get("increment_mode", "adders")),
                mode=str(payload.get("mode", "baremetal")),
                events=events,
                use_cache=bool(payload.get("use_cache", True)),
                max_cycles=(None if payload.get("max_cycles") is None
                            else int(payload["max_cycles"])),
                deadline_seconds=(
                    None if payload.get("deadline_seconds") is None
                    else float(payload["deadline_seconds"])),
                windows=(None if payload.get("windows") is None
                         else int(payload["windows"])),
                warmup=(None if payload.get("warmup") is None
                        else int(payload["warmup"])),
                sampled=bool(payload.get("sampled", False)),
            )
        except (TypeError, ValueError) as exc:
            raise JobValidationError(f"malformed job payload: {exc}") from exc
        job.validate()
        return job


@dataclass(frozen=True)
class GridJob:
    """One design-space request: workload × grid of core configs.

    A grid submission fans out into one :class:`TMAJob` per grid point
    (:meth:`expand`); each point job carries the canonical point key as
    its ``config`` and rides the normal scheduler path, so overlapping
    grids from different clients coalesce point-by-point through the
    existing in-flight dedup, and repeated grids are served by the
    result store.  :meth:`grid_key` is the order-independent identity
    of the whole request, used for grid-level dedup accounting.
    """

    workload: str
    grid: str = DEFAULT_GRID
    vary: Tuple[str, ...] = ()
    scale: float = 1.0
    increment_mode: str = "adders"
    mode: str = "baremetal"
    events: Optional[Tuple[str, ...]] = None
    use_cache: bool = True
    max_cycles: Optional[int] = DEFAULT_MAX_CYCLES
    deadline_seconds: Optional[float] = None

    def points(self) -> Tuple[GridPoint, ...]:
        return tuple(parse_grid(self.grid, vary=self.vary))

    def validate(self) -> Tuple[GridPoint, ...]:
        try:
            points = self.points()
        except (KeyError, ValueError) as exc:
            raise JobValidationError(f"bad grid spec: {exc}") from exc
        # Every per-point field constraint is enforced by the point
        # jobs themselves; validating the first catches the shared
        # template fields exactly once.
        self._point_job(points[0]).validate()
        return points

    def _point_job(self, point: GridPoint) -> TMAJob:
        return TMAJob(
            workload=self.workload,
            config=point.key,
            scale=self.scale,
            increment_mode=self.increment_mode,
            mode=self.mode,
            events=self.events,
            use_cache=self.use_cache,
            max_cycles=self.max_cycles,
            deadline_seconds=self.deadline_seconds,
        )

    def expand(self) -> Tuple[Tuple[GridPoint, TMAJob], ...]:
        """One (point, job) pair per grid point, in grid order."""
        return tuple((point, self._point_job(point))
                     for point in self.points())

    def grid_key(self) -> str:
        """Canonical identity of the whole grid request.

        Order-independent over the grid points (two clients listing
        the same points differently coalesce) and folded with every
        template option that changes what the point jobs return.
        """
        base = canonical_grid_key(self.workload, self.points(), self.scale)
        digest = hashlib.sha256(base.encode())
        digest.update(self.increment_mode.encode())
        digest.update(self.mode.encode())
        digest.update(repr(self.events).encode())
        digest.update(repr(self.use_cache).encode())
        digest.update(repr(self.max_cycles).encode())
        digest.update(repr(self.deadline_seconds).encode())
        return digest.hexdigest()[:24]

    def to_payload(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "grid": self.grid,
            "vary": list(self.vary),
            "scale": self.scale,
            "increment_mode": self.increment_mode,
            "mode": self.mode,
            "events": list(self.events) if self.events else None,
            "use_cache": self.use_cache,
            "max_cycles": self.max_cycles,
            "deadline_seconds": self.deadline_seconds,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "GridJob":
        if not isinstance(payload, dict):
            raise JobValidationError("grid payload must be a JSON object")
        if "workload" not in payload:
            raise JobValidationError("grid payload requires 'workload'")
        known = {"workload", "grid", "vary", "scale", "increment_mode",
                 "mode", "events", "use_cache", "max_cycles",
                 "deadline_seconds"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise JobValidationError(f"unknown grid fields: {unknown}")
        vary = payload.get("vary") or ()
        if not isinstance(vary, (list, tuple)) \
                or not all(isinstance(v, str) for v in vary):
            raise JobValidationError("'vary' must be a string list")
        events = payload.get("events")
        if events is not None:
            if (not isinstance(events, (list, tuple))
                    or not all(isinstance(e, str) for e in events)):
                raise JobValidationError("'events' must be a string list")
            events = tuple(events)
        try:
            job = cls(
                workload=str(payload["workload"]),
                grid=str(payload.get("grid") or DEFAULT_GRID),
                vary=tuple(vary),
                scale=float(payload.get("scale", 1.0)),
                increment_mode=str(payload.get("increment_mode", "adders")),
                mode=str(payload.get("mode", "baremetal")),
                events=events,
                use_cache=bool(payload.get("use_cache", True)),
                max_cycles=(None if payload.get("max_cycles") is None
                            else int(payload["max_cycles"])),
                deadline_seconds=(
                    None if payload.get("deadline_seconds") is None
                    else float(payload["deadline_seconds"])),
            )
        except (TypeError, ValueError) as exc:
            raise JobValidationError(
                f"malformed grid payload: {exc}") from exc
        job.validate()
        return job


@dataclass(frozen=True)
class MulticoreJob:
    """One requested multicore scenario run (see :mod:`repro.multicore`).

    Duck-types the :class:`TMAJob` surface the scheduler, store, and
    dispatcher rely on (``workload``/``config``/``job_key``/
    ``runner_spec``/``deadline_seconds``), so scenario jobs ride the
    normal admission, dedup, breaker, and drain-persistence paths
    unchanged.  ``workload`` is the scenario name and ``config`` is the
    fixed tag ``"multicore"`` — together they form the breaker key, so
    a repeatedly-failing scenario quarantines without affecting
    single-core jobs.
    """

    scenario: str
    cores: Optional[int] = None
    scale: Optional[float] = None
    shared_bus: Optional[bool] = None
    arbitration: Optional[str] = None
    use_cache: bool = True
    deadline_seconds: Optional[float] = None

    @property
    def workload(self) -> str:
        return self.scenario

    @property
    def config(self) -> str:
        return "multicore"

    def resolved(self):
        """The scenario with this job's overrides applied."""
        from ..multicore import get_scenario

        return get_scenario(self.scenario).with_overrides(
            cores=self.cores, scale=self.scale,
            shared_bus=self.shared_bus, arbitration=self.arbitration)

    def validate(self) -> None:
        if self.scale is not None and not (0 < self.scale <= 10.0):
            raise JobValidationError(
                f"scale must be in (0, 10], got {self.scale}")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise JobValidationError(
                "deadline_seconds must be > 0 or null")
        try:
            self.resolved().validate()
        except (KeyError, ValueError) as exc:
            message = exc.args[0] if exc.args else str(exc)
            raise JobValidationError(str(message)) from None

    def cache_key(self) -> str:
        """Key of the underlying scenario-payload disk-cache entry."""
        from ..multicore import scenario_cache_key

        return scenario_cache_key(self.resolved())

    def job_key(self) -> str:
        """Canonical dedup/store key for this scenario run.

        Built on the scenario disk-cache key (which already folds the
        resolved slots, scale, bus, arbitration, and the model +
        multicore fingerprints) plus the execution policy, mirroring
        :meth:`TMAJob.job_key`.
        """
        digest = hashlib.sha256(self.cache_key().encode())
        digest.update(repr(self.use_cache).encode())
        digest.update(repr(self.deadline_seconds).encode())
        return digest.hexdigest()[:24]

    def runner_spec(self) -> RunnerSpec:
        return RunnerSpec(
            scale=self.scale if self.scale is not None else 1.0,
            max_cycles=None,
            use_cache=self.use_cache,
            scenario=self.scenario,
            scenario_cores=self.cores,
            scenario_scale=self.scale,
            scenario_shared_bus=self.shared_bus,
            scenario_arbitration=self.arbitration,
        )

    def to_payload(self) -> Dict[str, Any]:
        return {
            "type": "multicore",
            "scenario": self.scenario,
            "cores": self.cores,
            "scale": self.scale,
            "shared_bus": self.shared_bus,
            "arbitration": self.arbitration,
            "use_cache": self.use_cache,
            "deadline_seconds": self.deadline_seconds,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "MulticoreJob":
        if not isinstance(payload, dict):
            raise JobValidationError(
                "multicore payload must be a JSON object")
        if "scenario" not in payload:
            raise JobValidationError(
                "multicore payload requires 'scenario'")
        known = {"type", "scenario", "cores", "scale", "shared_bus",
                 "arbitration", "use_cache", "deadline_seconds"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise JobValidationError(
                f"unknown multicore fields: {unknown}")
        try:
            job = cls(
                scenario=str(payload["scenario"]),
                cores=(None if payload.get("cores") is None
                       else int(payload["cores"])),
                scale=(None if payload.get("scale") is None
                       else float(payload["scale"])),
                shared_bus=(None if payload.get("shared_bus") is None
                            else bool(payload["shared_bus"])),
                arbitration=(None if payload.get("arbitration") is None
                             else str(payload["arbitration"])),
                use_cache=bool(payload.get("use_cache", True)),
                deadline_seconds=(
                    None if payload.get("deadline_seconds") is None
                    else float(payload["deadline_seconds"])),
            )
        except (TypeError, ValueError) as exc:
            raise JobValidationError(
                f"malformed multicore payload: {exc}") from exc
        job.validate()
        return job


def outcome_payload(outcome: RunOutcome,
                    from_cache: bool = False) -> Dict[str, Any]:
    """JSON-ready result summary for one finished execution."""
    payload: Dict[str, Any] = {
        "status": outcome.status,
        "attempts": outcome.attempts,
        "from_cache": from_cache,
    }
    if outcome.error_class:
        payload["error_class"] = outcome.error_class
        payload["error"] = outcome.error
    measurement = outcome.measurement
    if measurement is not None:
        payload["cycles"] = measurement.cycles
        payload["instret"] = measurement.instret
        payload["ipc"] = round(measurement.ipc, 6)
    tma = outcome.tma
    if tma is not None:
        payload["tma"] = {
            "level1": {k: round(v, 6) for k, v in tma.level1.items()},
            "level2": {k: round(v, 6) for k, v in tma.level2.items()},
            "dominant": tma.dominant_class(),
        }
    if outcome.payload is not None:
        # Payload-carried flavours: windowed runs label themselves with
        # kind="windowed" (and always surface the sampled flag — a
        # sampled extrapolation must never masquerade as an exact run);
        # anything else is a multicore scenario payload.
        if (isinstance(outcome.payload, dict)
                and outcome.payload.get("kind") == "windowed"):
            payload["windowed"] = outcome.payload
            payload["sampled"] = bool(outcome.payload.get("sampled", False))
        else:
            payload["multicore"] = outcome.payload
    return payload


@dataclass
class JobRecord:
    """Service-side lifecycle of one submitted job."""

    id: str
    job: TMAJob
    client: str = "anonymous"
    priority: int = DEFAULT_PRIORITY
    state: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    requeues: int = 0
    #: Primary record id this (duplicate) submission coalesced onto,
    #: or None when this record is itself the executing primary.
    coalesced_with: Optional[str] = None
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = None

    @property
    def job_key(self) -> str:
        return self.job.job_key()

    @property
    def done(self) -> bool:
        return self.state in ("done", "failed", "rejected", "quarantined")

    def latency(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    def to_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "id": self.id,
            "job": self.job.to_payload(),
            "job_key": self.job_key,
            "client": self.client,
            "priority": self.priority,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "requeues": self.requeues,
        }
        if self.coalesced_with:
            payload["coalesced_with"] = self.coalesced_with
        if self.error:
            payload["error"] = self.error
        if self.result is not None:
            payload["result"] = self.result
        latency = self.latency()
        if latency is not None:
            payload["latency_seconds"] = round(latency, 6)
        return payload
