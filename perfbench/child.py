"""One benchmark round in a fresh process: set up, measure, verify.

``run.py`` starts this script once per round with a JSON job on stdin::

    {"workload": ..., "inputs": ..., "spawn_time": ..., "traced": ...}

and reads one JSON object from the last line of its stdout.  The
environment it is given holds a fresh, empty ``REPRO_CACHE_DIR``, so
nothing cached by an earlier round is visible.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from typing import Any, Dict, List

import digest
from tracer import Tracer
from workloads import WORKLOADS, Outcome, calibrate

def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, outcome: Outcome,
                  trace_cache: Dict[str, int],
                  solo_s: float) -> Dict[str, float]:
    """The per-layer figures of one traced round."""
    layers = tracer.summary()

    def get(layer: str, key: str = "self_s") -> float:
        return layers.get(layer, {}).get(key, 0)

    def rate(count: float, seconds: float) -> float:
        return count / seconds / 1e3 if seconds else 0.0

    metrics = {
        "isa.assembler.self_s": get("isa.assembler"),
        "isa.assembler.programs": get("isa.assembler", "calls"),
        "isa.compiler.self_s": get("isa.compiler"),
        "isa.compiler.kinst_per_s": rate(get("isa.compiler", "instructions"),
                                         get("isa.compiler")),
        "workloads.registry.self_s": get("workloads.registry"),
        "workloads.trace_cache.get_s": get("workloads.trace_cache"),
        "cores.descriptors.table_s": get("cores.descriptors"),
        "core.tma.self_s": get("core.tma"),
        "tools.cache.load_s": get("tools.cache.load"),
        "tools.cache.store_s": get("tools.cache.store"),
        "tools.cache.hits": get("tools.cache.load", "hit"),
        "tools.cache.stores": get("tools.cache.store", "calls"),
    }
    for key, value in trace_cache.items():
        metrics[f"workloads.trace_cache.{key}"] = value
    for family in ("rocket", "boom"):
        layer = f"cores.{family}"
        loop_s = get(layer)
        metrics[f"{layer}.loop_s"] = loop_s
        metrics[f"{layer}.kcyc_per_s"] = rate(get(layer, "cycles"), loop_s)
        metrics[f"{layer}.kinst_per_s"] = rate(get(layer, "instret"), loop_s)

    # The batch engine's own cost: sweep wall time not spent in a loop.
    metrics["cores.batch.overhead_s"] = (
        get("cores.batch", "total_s")
        - tracer.inclusive_under("cores.rocket", "cores.batch")
        - tracer.inclusive_under("cores.boom", "cores.batch"))

    scenario_s = get("multicore", "total_s")
    metrics["multicore.scenario_s"] = scenario_s
    metrics["multicore.solo_loop_s"] = solo_s
    metrics["multicore.overhead_frac"] = (
        (scenario_s - solo_s) / scenario_s if scenario_s else 0.0)

    counters = outcome.service_metrics.get("counters", {})
    # Store hits and coalesced followers are never queued for a worker.
    executed = [status for status in outcome.statuses
                if not status["result"]["from_cache"]
                and "coalesced_with" not in status]
    metrics.update({
        "service.submit_ms": 1e3 * _median(outcome.submit_s),
        "service.queue_wait_ms": 1e3 * _median(
            [s["started_at"] - s["submitted_at"] for s in executed]),
        "service.exec_ms": 1e3 * _median(
            [s["finished_at"] - s["started_at"] for s in executed]),
        "service.cache_hits": counters.get("cache_hits", 0),
        "service.dedup_hits": counters.get("dedup_hits", 0),
        "service.jobs_executed": counters.get("jobs_executed", 0),
    })

    covered = sum(entry["self_s"] for entry in layers.values())
    metrics["host.layer_coverage_frac"] = covered / wall_s if wall_s else 0.0
    return metrics


def main() -> int:
    job = json.load(sys.stdin)
    workload = WORKLOADS[job["workload"]]
    inputs = job["inputs"]
    from repro.workloads import trace_cache

    state = workload.setup(inputs)
    setup_s = time.time() - job["spawn_time"]
    try:
        calib_before = calibrate()
        tracer = Tracer() if job["traced"] else None
        before = trace_cache.stats()
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            outcome = workload.run(state, inputs)
        finally:
            wall_s = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        wall_s -= outcome.calibrated_s
        trace_counts = trace_cache.stats_delta(before)
        calib_after = calibrate()
        workload.verify(state, outcome)
        pinned = digest.load_pinned().get(workload.name, {})
        failed = outcome.errors + len(digest.mismatches(pinned,
                                                        outcome.observed))
        peak_rss_kib = workload.peak_rss_kib(state)
    finally:
        workload.teardown(state)

    if outcome.service_metrics:
        # The service's traces are built in its worker processes, which
        # ship their counter deltas home into /metrics.
        counters = outcome.service_metrics.get("counters", {})
        trace_counts = {key: counters.get(f"trace_cache_{key}", 0)
                        for key in trace_counts}

    report: Dict[str, Any] = {
        "setup_s": setup_s,
        "calib_s": [calib_before, calib_after],
        "wall_s": wall_s,
        "latencies": outcome.latencies,
        "instret": outcome.instret,
        "peak_rss_kib": peak_rss_kib,
        "attempted": outcome.errors + len(outcome.observed),
        "failed": failed,
    }
    if tracer is not None:
        report["layers"] = layer_metrics(tracer, wall_s, outcome,
                                         trace_counts,
                                         workload.solo_loop_s(outcome))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
