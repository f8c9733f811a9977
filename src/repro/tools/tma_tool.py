"""``tma_tool``: the one-call workload -> TMA pipeline.

This is the reproduction's equivalent of the artifact's ``tma_tool``
commands: it assembles the workload, functionally executes it, replays
the trace through the requested core model (with disk-cached results),
and applies the TMA model.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Union

from ..core.tma import TmaResult, compute_tma
from ..cores.base import BoomConfig, CoreResult, RocketConfig
from ..cores.boom import BoomCore
from ..cores.configs import LARGE_BOOM, ROCKET
from ..cores.rocket import RocketCore
from ..isa.errors import DeadlineExceeded
from ..uarch.cache import CacheConfig
from ..workloads import build_trace, workload_names
from . import cache
from .checkpoint import SweepCheckpoint, point_key

CoreConfig = Union[RocketConfig, BoomConfig]


class SuiteDeadlineExceeded(DeadlineExceeded):
    """A suite ran out of wall-clock budget; partial results attached.

    ``results`` holds every workload finished (or restored from the
    checkpoint) before the deadline lapsed; ``remaining`` names the
    workloads left undone.  With a checkpoint in play, a later
    ``--resume`` run completes only ``remaining``.
    """

    def __init__(self, message: str, results: List[TmaResult],
                 remaining: List[str]) -> None:
        super().__init__(message)
        self.results = results
        self.remaining = remaining


def run_core(workload: str, config: CoreConfig, scale: float = 1.0,
             use_cache: bool = True,
             engine: Optional[str] = None) -> CoreResult:
    """Replay *workload* through the timing model for *config*.

    Results are cached on disk keyed by a fingerprint of every module
    that influences timing, so repeated benchmark runs are cheap.

    *engine* selects the timing-engine implementation (``None`` defers
    to ``REPRO_TIMING_ENGINE``, default ``columnar``).  The engines are
    bit-identical, so the disk cache is deliberately shared between
    them: the key does not include the engine.
    """
    key = cache.cache_key(workload, scale, config)
    if use_cache:
        cached = cache.load(key)
        if cached is not None:
            return cached
    trace = build_trace(workload, scale=scale)
    if isinstance(config, RocketConfig):
        core = RocketCore(config)
    else:
        core = BoomCore(config)
    result = core.run(trace, engine=engine)
    if use_cache:
        cache.store(key, result)
    return result


def run_tma(workload: str, config: CoreConfig = LARGE_BOOM,
            scale: float = 1.0, use_cache: bool = True,
            engine: Optional[str] = None) -> TmaResult:
    """End-to-end: workload name + core config -> TMA classification."""
    return compute_tma(run_core(workload, config, scale=scale,
                                use_cache=use_cache, engine=engine))


def run_suite(workloads: Sequence[str], config: CoreConfig,
              scale: float = 1.0,
              use_cache: bool = True,
              engine: Optional[str] = None,
              checkpoint: Optional[SweepCheckpoint] = None,
              deadline: Optional[float] = None) -> List[TmaResult]:
    """TMA for a list of workloads on one configuration.

    With a *checkpoint*, workloads it already holds are restored (the
    stored :class:`CoreResult` round-trips bit-exactly; the TMA
    classification is recomputed) and every freshly computed workload
    is recorded as it completes — so a killed run resumes from its
    last finished workload.  The caller owns ``checkpoint.clear()``.

    *deadline* is an absolute ``time.time()`` epoch; when it lapses
    between workloads, :class:`SuiteDeadlineExceeded` is raised
    carrying the partial results (everything completed so far stays
    checkpointed).
    """
    results: List[TmaResult] = []
    for position, name in enumerate(workloads):
        key = point_key(name, config.name)
        if checkpoint is not None:
            payload = checkpoint.get(key)
            if payload is not None:
                try:
                    results.append(
                        compute_tma(cache.deserialize_result(payload)))
                    continue
                except Exception:  # noqa: BLE001 - damaged entry: re-run
                    pass
        if deadline is not None and time.time() >= deadline:
            remaining = list(workloads[position:])
            raise SuiteDeadlineExceeded(
                f"suite deadline lapsed with {len(remaining)} of "
                f"{len(workloads)} workloads remaining",
                results=results, remaining=remaining)
        result = run_core(name, config, scale=scale, use_cache=use_cache,
                          engine=engine)
        if checkpoint is not None:
            checkpoint.record(key, cache.serialize_result(result))
        results.append(compute_tma(result))
    return results


def run_grid(workloads: Sequence[str], points: Sequence["GridPoint"],
             scale: float = 1.0,
             use_cache: bool = True,
             engine: Optional[str] = None,
             workers: Optional[int] = None,
             checkpoint: Optional[SweepCheckpoint] = None,
             deadline: Optional[float] = None) -> List["BatchResult"]:
    """Batched design-space sweep: workloads x grid points.

    Each workload runs through :func:`repro.cores.batch.run_batch`,
    which pays the trace fetch, descriptor-table compiles, and TAGE
    fold derivations once per workload instead of once per (workload,
    config) pair — with every per-point result bit-identical to
    :func:`run_core`.  Checkpoint/resume and deadline semantics mirror
    :func:`run_suite`: the deadline is checked between workloads, and
    :class:`SuiteDeadlineExceeded` carries the finished
    :class:`~repro.cores.batch.BatchResult` list (points completed
    inside an interrupted workload stay checkpointed).
    """
    from ..cores.batch import run_batch

    results: List["BatchResult"] = []
    for position, name in enumerate(workloads):
        if deadline is not None and time.time() >= deadline:
            remaining = list(workloads[position:])
            raise SuiteDeadlineExceeded(
                f"grid sweep deadline lapsed with {len(remaining)} of "
                f"{len(workloads)} workloads remaining",
                results=results, remaining=remaining)
        results.append(run_batch(
            name, points, scale=scale, engine=engine, use_cache=use_cache,
            checkpoint=checkpoint, workers=workers))
    return results


def micro_suite() -> List[str]:
    """The microbenchmark list shown in Fig. 7a/k."""
    return workload_names("micro")


def spec_suite() -> List[str]:
    """The SPEC CPU2017 intrate proxy list shown in Fig. 7g."""
    return workload_names("spec")


def rocket_with_l1d(size_kib: int) -> RocketConfig:
    """A Rocket config with a resized L1 D-cache (Rocket CS1)."""
    from dataclasses import replace

    l1d = CacheConfig("L1D", size_kib * 1024, 8, 64, hit_latency=2)
    return replace(ROCKET, name=f"Rocket-{size_kib}KiB-L1D", l1d=l1d)
