"""Common core-model infrastructure: configs, signals, results, observers.

Signal convention
-----------------

Each cycle a core produces a mapping ``{event_name: lane_bitmask}`` where
bit *i* of the mask is the boolean signal of event source *i* in that
cycle (single-source events use bit 0).  This is exactly the wire-level
view the PMU counter architectures (Fig. 6) and the TracerV-style tracer
(§IV-C) tap, so the same per-cycle dictionary drives:

- the core's own aggregate event totals (always on; the columnar
  production loop accumulates them in place without the dictionary),
- attached :class:`SignalObserver` instances — counter-architecture
  hardware models and the cycle tracer (the per-cycle ``steps`` loop,
  opt-in).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Mapping, Optional, Protocol

from ..isa.columnar import ColumnarTrace
from ..isa.errors import RunTimeout
from ..uarch.branch import PredictorStats
from ..uarch.cache import CacheConfig, CacheStats, L1D_32K

#: Environment knob selecting the timing-engine implementation, the
#: timing-layer mirror of ``REPRO_EXEC_ENGINE``:
#:
#: - ``columnar`` (default) — descriptor-compiled cycle loops reading
#:   the :class:`~repro.isa.columnar.ColumnarTrace` columns directly;
#: - ``objects``  — the ``DynInst``-walking per-cycle ``steps`` loops,
#:   the bit-identical reference oracle.
TIMING_ENGINE_ENV = "REPRO_TIMING_ENGINE"

#: Valid values for :data:`TIMING_ENGINE_ENV` / ``engine=`` arguments.
TIMING_ENGINES = ("columnar", "objects")


def resolve_timing_engine(override: Optional[str] = None) -> str:
    """Resolve the timing engine: explicit *override*, else env, else default.

    Raises ``ValueError`` on an unknown engine name so a typo in a CI
    matrix or CLI flag fails loudly instead of silently running the
    default engine.
    """
    engine = override if override is not None else os.environ.get(
        TIMING_ENGINE_ENV, TIMING_ENGINES[0])
    engine = engine.strip().lower()
    if engine not in TIMING_ENGINES:
        raise ValueError(
            f"unknown timing engine {engine!r}; expected one of "
            f"{', '.join(TIMING_ENGINES)}")
    return engine


class SignalObserver(Protocol):
    """Anything that wants the per-cycle event signals (PMU HW, tracer)."""

    def on_cycle(self, cycle: int, signals: Mapping[str, int]) -> None:
        """Observe the lane bitmasks of every event for one cycle."""
        ...  # pragma: no cover - protocol


class CoreFaultHook(Protocol):
    """Injection point the fault injector uses to stall a core.

    A core consults the hook at the top of every simulated cycle; a
    ``True`` return means the whole pipeline is frozen that cycle (a
    hung memory system / clock-gated core), so the cycle passes with no
    fetch, issue, or commit and no signals.  Combined with the
    ``max_cycles`` watchdog this models — and detects — runaway runs.
    """

    def stall_cycle(self, cycle: int) -> bool:
        ...  # pragma: no cover - protocol


def check_cycle_budget(cycle: int, max_cycles: Optional[int], *,
                       workload: str, retired: int, total: int) -> None:
    """Watchdog guard for core run loops.

    Raises :class:`~repro.isa.errors.RunTimeout` once *cycle* reaches
    the optional *max_cycles* budget.  Cores call this every cycle when
    a budget is armed (the resilient runner sets one; default off).
    """
    if max_cycles is not None and cycle >= max_cycles:
        raise RunTimeout(
            f"run exceeded its cycle budget with "
            f"{retired}/{total} instructions retired",
            invariant="cycle-budget", workload=workload,
            observed=cycle, expected=max_cycles)


def check_run_completed(retired: int, total: int, cycle: int,
                        max_cycles: Optional[int], *,
                        workload: str) -> None:
    """Post-loop watchdog: a budgeted run must retire the whole trace.

    Covers the case where the core's internal safety stop fires before
    the armed ``max_cycles`` budget — still a hang, still a timeout.
    """
    if max_cycles is not None and retired < total:
        raise RunTimeout(
            f"run stopped after {cycle} cycles with only "
            f"{retired}/{total} instructions retired",
            invariant="run-completion", workload=workload,
            observed=retired, expected=total)


#: A core's per-cycle step generator (``core.steps``): it yields once at
#: the top of every simulated cycle and returns the run's result.
CoreSteps = Generator[None, None, "CoreResult"]


def run_steps(steps: CoreSteps) -> "CoreResult":
    """Drive a per-cycle step generator to the end; return its result."""
    try:
        while True:
            next(steps)
    except StopIteration as done:
        return done.value


def runs_columnar(core, trace, engine: Optional[str]) -> bool:
    """Whether ``core.run`` takes its columnar loop, not ``core.steps``.

    The columnar loop keeps no per-cycle record, so it runs only when
    nothing needs one (no observer, no fault hook), the trace has
    columns (a ``ColumnarTrace``) and the timing engine is
    ``columnar`` (*engine* ``None`` defers to ``REPRO_TIMING_ENGINE``,
    default ``columnar``).  Every other run takes the per-cycle
    ``steps`` oracle.  An unknown *engine* raises ``ValueError``.
    """
    return (resolve_timing_engine(engine) == "columnar"
            and not core.observers and core.fault_hook is None
            and isinstance(trace, ColumnarTrace))


@dataclass(frozen=True)
class RocketConfig:
    """Rocket core parameters (Table IV column 1)."""

    name: str = "Rocket"
    fetch_width: int = 2
    ibuf_entries: int = 4
    bht_entries: int = 512
    btb_entries: int = 28
    l1d: CacheConfig = L1D_32K
    # Redirect latency after a mispredict (recovery length, cycles).
    redirect_latency: int = 3
    core: str = "rocket"

    @property
    def commit_width(self) -> int:
        return 1


@dataclass(frozen=True)
class BoomConfig:
    """BOOM core parameters (Table IV columns 2-6)."""

    name: str
    fetch_width: int
    decode_width: int            # also the commit width W_C
    rob_entries: int
    iq_int: int
    iq_mem: int
    iq_fp: int
    ldq_entries: int
    stq_entries: int
    mshrs: int
    issue_int: int               # issue ports per queue; sum = W_I
    issue_mem: int
    issue_fp: int
    fetch_buffer_entries: int = 0   # 0 -> 2 x fetch_width
    btb_entries: int = 512
    l1d: CacheConfig = L1D_32K
    # Flush-to-first-valid-fetch latency.  The Recovering window opens
    # the cycle after the flush, so 5 yields the dominant 4-cycle
    # Recovering sequence of Fig. 8b (and the model's M_rl = 4).
    redirect_latency: int = 5
    # Next-line I$ prefetch (BOOM's frontend prefetcher); the ablation
    # bench switches it off to expose straight-line fetch latency.
    icache_prefetch: bool = True
    # Direction predictor: "tage" (Table IV), "gshare", or "bimodal";
    # the predictor-sensitivity ablation sweeps this.
    branch_predictor: str = "tage"
    # Optional stride data prefetcher on the L1D (off by default to
    # match Table IV; the prefetch ablation switches it on).
    dcache_prefetch: bool = False
    core: str = "boom"

    @property
    def commit_width(self) -> int:
        return self.decode_width

    @property
    def issue_width(self) -> int:
        """Total issue width W_I."""
        return self.issue_int + self.issue_mem + self.issue_fp

    @property
    def fetch_buffer_size(self) -> int:
        return self.fetch_buffer_entries or 2 * self.fetch_width


@dataclass
class CoreResult:
    """Everything a core run produces.

    ``events`` holds total *slot* counts per event (summed over lanes and
    cycles); ``lane_events`` holds the per-lane totals used by the
    per-lane study (Table V).
    """

    workload: str
    config_name: str
    core: str
    cycles: int
    instret: int
    events: Dict[str, int]
    lane_events: Dict[str, List[int]]
    commit_width: int
    issue_width: int
    l1i_stats: CacheStats
    l1d_stats: CacheStats
    l2_stats: CacheStats
    predictor_stats: PredictorStats
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.instret / self.cycles if self.cycles else 0.0

    def event(self, name: str) -> int:
        """Total slot count of *name* (0 when never asserted)."""
        return self.events.get(name, 0)

    def lanes(self, name: str) -> List[int]:
        """Per-lane totals of *name* ([] when never asserted)."""
        return self.lane_events.get(name, [])


class EventAccumulator:
    """Accumulates per-cycle lane bitmasks into totals and lane counts.

    Per-lane totals are only maintained for the event names listed in
    *track_lanes* (the per-lane study of Table V needs them; everything
    else only needs aggregate slot counts).
    """

    __slots__ = ("totals", "lane_totals", "_track")

    def __init__(self, track_lanes: Optional[set] = None) -> None:
        self.totals: Dict[str, int] = {}
        self.lane_totals: Dict[str, List[int]] = {}
        self._track = track_lanes or set()

    def add(self, signals: Mapping[str, int]) -> None:
        totals = self.totals
        track = self._track
        for name, mask in signals.items():
            if not mask:
                continue
            # Single-lane signals (mask == 1, the overwhelmingly common
            # case) skip the popcount.
            count = 1 if mask == 1 else mask.bit_count()
            if name in totals:
                totals[name] += count
            else:
                totals[name] = count
            if track and name in track:
                per_lane = self.lane_totals.get(name)
                if per_lane is None:
                    per_lane = []
                    self.lane_totals[name] = per_lane
                bit = 0
                m = mask
                while m:
                    if m & 1:
                        while len(per_lane) <= bit:
                            per_lane.append(0)
                        per_lane[bit] += 1
                    m >>= 1
                    bit += 1
