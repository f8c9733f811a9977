"""The benchmark's workloads: inputs from a seed, set-up, measured work.

Each workload is a class whose steps run in a fresh process per round
(see ``child.py``):

- ``make_inputs(rng)`` runs in the parent and derives the round's
  inputs (an order of runs, a job sequence) from the seeded generator;
  the program only ever sees these inputs, never the seed;
- ``setup(inputs)`` readies the program (imports, warmed traces, a
  started service) and is charged to ``setup_s``;
- ``run(state, inputs)`` is the measured work: a sequence of user
  operations, each timed, returned as an :class:`Outcome`;
- ``verify(state, outcome)`` digests every result outside the timed
  region, and ``teardown(state)`` stops whatever ``setup`` started.

What one operation is, per workload, and why each workload is here is
listed in ``README.md``.
"""

from __future__ import annotations

import random
import resource
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

import digest

#: Every default-registry workload (micro + spec + case-study).
REGISTRY_WORKLOADS = (
    "500.perlbench_r", "502.gcc_r", "505.mcf_r", "520.omnetpp_r",
    "523.xalancbmk_r", "525.x264_r", "531.deepsjeng_r", "541.leela_r",
    "548.exchange2_r", "557.xz_r", "brmiss", "brmiss_inv", "coremark",
    "coremark_sched", "dhrystone", "median", "memcpy", "mergesort", "mm",
    "multiply", "qsort", "rsort", "spmv", "towers", "vvadd",
)

#: A mix of bottlenecks for the design-space sweep: pointer chasing,
#: branchy search, compression, sorting and streaming copies.
SWEEP_WORKLOADS = ("505.mcf_r", "531.deepsjeng_r", "557.xz_r", "mergesort",
                   "memcpy")

MULTICORE_SCENARIOS = ("capacity-clash", "latency-victim", "noisy-neighbor",
                       "symmetric")
#: Half scale: the cores hand off through a thread turnstile every
#: cycle, so a round's time swings with host scheduling; shorter rounds
#: fit more of them into a run, which steadies the per-scenario medians.
MULTICORE_SCALE = 0.5

#: The service's key pool is (workload, config) at SERVICE_SCALE: 22
#: keys.  The workloads are the cheapest third of the registry to serve,
#: so a round's misses finish in about three seconds on two workers and
#: a run holds several rounds.
SERVICE_WORKLOADS = ("548.exchange2_r", "brmiss", "brmiss_inv", "coremark",
                     "coremark_sched", "dhrystone", "median", "mm",
                     "multiply", "qsort", "towers")
SERVICE_CONFIGS = ("rocket", "large-boom")
SERVICE_SCALE = 0.5
#: Jobs per round.  Every key appears at least once, so 22 jobs miss and
#: the other 86% are store hits or coalesce onto a running job.
SERVICE_JOBS = 160
SERVICE_CLIENTS = 2
SERVICE_WORKERS = 2


#: Iterations of the calibration loop: about 10 ms of pure Python.
CALIBRATION_LOOPS = 100_000


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: how fast this host is now."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total = (total + i * i) % 1_000_003
    return time.perf_counter() - start


@dataclass
class Outcome:
    """What one round's measured work produced."""

    #: (operation key, host seconds, calibration seconds or None) of
    #: each user operation.
    latencies: List[Tuple[str, float, Any]] = field(default_factory=list)
    #: Time a calibration loop just before each operation.  Only where
    #: the program is idle between operations; with concurrent clients
    #: the loop would compete with the service it calibrates against.
    calibrate_each: bool = True
    #: Seconds spent in those calibration loops, which are the
    #: benchmark's own work, not the program's.
    calibrated_s: float = 0.0
    #: Operations that raised or ended in a state other than done.
    errors: int = 0
    #: The program's return values, digested by ``verify``.
    results: List[Any] = field(default_factory=list)
    #: (result key, digest) of every result, filled by ``verify``.
    observed: List[Tuple[str, str]] = field(default_factory=list)
    #: Simulated retired instructions, filled by ``verify``.
    instret: int = 0
    #: Service only: seconds inside each ``submit`` call, the job
    #: records' lifecycle timestamps and the ``/metrics`` snapshot.
    submit_s: List[float] = field(default_factory=list)
    statuses: List[Dict[str, Any]] = field(default_factory=list)
    service_metrics: Dict[str, Any] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def timed(self, key: str, operation: Callable[[], Any]) -> None:
        """Run one operation; keep its result and latency, or count it failed.

        Safe to call from several client threads at once.
        """
        calib = calibrate() if self.calibrate_each else None
        if calib is not None:
            with self._lock:
                self.calibrated_s += calib
        start = time.perf_counter()
        try:
            result = operation()
        except Exception:  # noqa: BLE001 - a failed operation is counted
            with self._lock:
                self.errors += 1
            return
        latency = time.perf_counter() - start
        with self._lock:
            self.latencies.append((key, latency, calib))
            self.results.append(result)


def own_peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _vm_hwm_kib(pid: int) -> int:
    """Peak resident set of a live process, from ``/proc`` (0 if unknown)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _shuffled(rng: random.Random, names) -> Dict[str, Any]:
    order = list(names)
    rng.shuffle(order)
    return {"order": order}


class Workload:
    """Defaults shared by the workloads below."""

    #: True when every round runs the same operations, so throughput
    #: can be taken over each operation's median latency.
    fixed_mix = True

    def peak_rss_kib(self, state) -> int:
        return own_peak_rss_kib()

    def teardown(self, state) -> None:
        pass

    def solo_loop_s(self, outcome: Outcome) -> float:
        """Multicore only: the same cores run solo (see that workload)."""
        return 0.0


class CharacterizeCold(Workload):
    """One operation: ``run_tma`` of one workload on Rocket, cold caches."""

    name = "characterize-cold"

    def make_inputs(self, rng: random.Random) -> Dict[str, Any]:
        return _shuffled(rng, REGISTRY_WORKLOADS)

    def setup(self, inputs):
        from repro.tools import tma_tool  # noqa: F401

    def run(self, state, inputs) -> Outcome:
        from repro.cores.configs import ROCKET
        from repro.tools.tma_tool import run_tma

        outcome = Outcome()
        for name in inputs["order"]:
            outcome.timed(name, lambda: run_tma(name, ROCKET, scale=1.0))
        return outcome

    def verify(self, state, outcome: Outcome) -> None:
        """Digest what the result store now holds for each run."""
        from repro.cores.configs import ROCKET
        from repro.tools import cache

        for tma in outcome.results:
            key = f"{tma.workload}@rocket"
            result = cache.load(cache.cache_key(tma.workload, 1.0, ROCKET))
            if result is None:
                outcome.observed.append((key, "not-stored"))
                continue
            outcome.instret += result.instret
            outcome.observed.append((key, digest.core_digest(result, tma)))


class SweepGrid(Workload):
    """One operation: ``run_grid`` of one workload over the default grid."""

    name = "sweep-grid"

    def make_inputs(self, rng: random.Random) -> Dict[str, Any]:
        return _shuffled(rng, SWEEP_WORKLOADS)

    def setup(self, inputs):
        from repro.cores.batch import DEFAULT_GRID, parse_grid
        from repro.workloads import build_trace

        for name in inputs["order"]:
            build_trace(name, scale=1.0)
        return parse_grid(DEFAULT_GRID)

    def run(self, points, inputs) -> Outcome:
        from repro.tools.tma_tool import run_grid

        outcome = Outcome()
        for name in inputs["order"]:
            outcome.timed(name, lambda: run_grid([name], points, scale=1.0,
                                                 use_cache=False,
                                                 workers=1)[0])
        return outcome

    def verify(self, state, outcome: Outcome) -> None:
        for batch in outcome.results:
            for point, result, tma in zip(batch.points, batch.results,
                                          batch.tma):
                outcome.instret += result.instret
                outcome.observed.append((f"{batch.workload}@{point.key}",
                                         digest.core_digest(result, tma)))


class MulticoreLockstep(Workload):
    """One operation: ``run_scenario`` of one multicore scenario."""

    name = "multicore-lockstep"

    def make_inputs(self, rng: random.Random) -> Dict[str, Any]:
        return _shuffled(rng, MULTICORE_SCENARIOS)

    def setup(self, inputs):
        import repro.multicore  # noqa: F401

    def run(self, state, inputs) -> Outcome:
        from repro.multicore import get_scenario, run_scenario

        outcome = Outcome()
        for name in inputs["order"]:
            scenario = get_scenario(name).with_overrides(scale=MULTICORE_SCALE)
            outcome.timed(name, lambda: run_scenario(scenario))
        return outcome

    def verify(self, state, outcome: Outcome) -> None:
        for scenario in outcome.results:
            for core in scenario.cores:
                outcome.instret += core.result.instret
                outcome.observed.append(
                    (f"{scenario.scenario}/core{core.index}",
                     digest.multicore_digest(core)))

    def solo_loop_s(self, outcome: Outcome) -> float:
        """Seconds to run every active slot alone through ``core.run``."""
        from repro.cores.batch import make_core, resolve_config_spec
        from repro.workloads import build_trace

        total = 0.0
        for scenario in outcome.results:
            for core in scenario.cores:
                trace = build_trace(core.workload, scale=scenario.scale)
                solo = make_core(resolve_config_spec(core.config_name))
                start = time.perf_counter()
                solo.run(trace)
                total += time.perf_counter() - start
        return total


class ServiceBurst(Workload):
    """One operation: submit one job and follow its SSE stream to the end."""

    name = "service-burst"
    #: Each round draws its own job sequence, and whether a job hits,
    #: coalesces or executes depends on what ran before it.
    fixed_mix = False

    def make_inputs(self, rng: random.Random) -> Dict[str, Any]:
        keys = [[w, c] for w in SERVICE_WORKLOADS for c in SERVICE_CONFIGS]
        jobs = keys + [rng.choice(keys)
                       for _ in range(SERVICE_JOBS - len(keys))]
        rng.shuffle(jobs)
        return {"jobs": jobs, "scale": SERVICE_SCALE}

    def setup(self, inputs):
        from repro.service import ServiceClient, TMAService, serve_in_thread

        service = TMAService(workers=SERVICE_WORKERS,
                             executor="process").start()
        server, thread = serve_in_thread(service)
        client = ServiceClient(
            f"http://127.0.0.1:{server.server_address[1]}", timeout=120.0)
        client.healthz()
        return {"service": service, "server": server, "thread": thread,
                "client": client}

    def run(self, state, inputs) -> Outcome:
        client = state["client"]
        scale = inputs["scale"]
        outcome = Outcome(calibrate_each=False)
        jobs = iter(inputs["jobs"])
        lock = threading.Lock()

        def job(workload: str, config: str) -> Dict[str, Any]:
            start = time.perf_counter()
            receipt = client.submit(workload, config=config, scale=scale)
            submitted = time.perf_counter() - start
            terminal = list(client.stream(receipt["id"]))[-1]["data"]
            if terminal.get("state") != "done" or "result" not in terminal:
                raise RuntimeError(f"job ended {terminal.get('state')}")
            outcome.submit_s.append(submitted)
            return {"key": f"{workload}@{config}", "id": receipt["id"],
                    "result": terminal["result"]}

        def closed_loop() -> None:
            while True:
                with lock:
                    pair = next(jobs, None)
                if pair is None:
                    return
                outcome.timed("@".join(pair), lambda: job(*pair))

        threads = [threading.Thread(target=closed_loop, name=f"client-{i}")
                   for i in range(SERVICE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return outcome

    def verify(self, state, outcome: Outcome) -> None:
        service = state["service"]
        executed = {}
        for record in outcome.results:
            outcome.observed.append((record["key"],
                                     digest.job_digest(record["result"])))
            executed[record["key"]] = record["result"]["instret"]
            status = service.status(record["id"])
            if status is not None:
                outcome.statuses.append(status)
        # Each distinct key is simulated once; the rest are served.
        outcome.instret = sum(executed.values())
        outcome.service_metrics = state["client"].metrics()

    def peak_rss_kib(self, state) -> int:
        import multiprocessing

        return own_peak_rss_kib() + sum(
            _vm_hwm_kib(child.pid)
            for child in multiprocessing.active_children())

    def teardown(self, state) -> None:
        state["server"].shutdown()
        state["server"].server_close()
        state["thread"].join(timeout=10.0)
        state["service"].drain(timeout=30.0)


WORKLOADS = {workload.name: workload for workload in (
    CharacterizeCold(), SweepGrid(), ServiceBurst(), MulticoreLockstep())}
