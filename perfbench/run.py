"""Benchmark entry point: run one workload for a while and report metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round runs in a fresh Python process (``child.py``) with a fresh,
empty result and trace cache; rounds repeat until ``--seconds`` is
spent.  The last line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` rounds alternate untraced and
traced, and the metrics are the per-layer ones.  The line before it
records the seed, the host, its calibration time and the end-to-end
metrics before scaling to the reference host; the same record is
appended to ``.perfbench/runs.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
STATE_DIR = ROOT / ".perfbench"

#: Rounds a run makes at the least, untraced; a traced run makes at
#: least one untraced/traced pair.
MIN_ROUNDS = 3
#: No round starts unless it can end this many seconds into the run.
HARD_LIMIT_S = 160.0
#: Share of the traced wall time the layers' self times must cover.
MIN_COVERAGE = 0.9
#: Seconds the calibration loop (``workloads.calibrate``) takes on the
#: reference host.  The shared hosts this runs on drift in speed by
#: tens of percent over minutes; end-to-end times are reported as they
#: would read on the reference host (see ``end_to_end``).
CALIB_REF_S = 0.010


class RoundFailed(RuntimeError):
    """A child process crashed, timed out or printed no report."""


def run_round(workload: str, inputs: Dict[str, Any], traced: bool,
              scratch: Path, timeout: float) -> Dict[str, Any]:
    """Start one child round and return its report."""
    cache_dir = scratch / "cache"
    tmp_dir = scratch / "tmp"
    shutil.rmtree(scratch, ignore_errors=True)
    cache_dir.mkdir(parents=True)
    tmp_dir.mkdir()
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(PYTHONPATH=str(ROOT / "src"), REPRO_CACHE_DIR=str(cache_dir),
               TMPDIR=str(tmp_dir))
    job = {"workload": workload, "inputs": inputs, "traced": traced,
           "spawn_time": time.time()}
    child = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        cwd=ROOT, start_new_session=True)
    try:
        out, err = child.communicate(json.dumps(job), timeout=timeout)
    except subprocess.TimeoutExpired:
        out, err = "", f"round timed out after {timeout:.0f} s"
    finally:
        # The child's own workers share its session: stop any left over.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RoundFailed(f"{workload} round failed "
                          f"(exit {child.returncode}):\n{err[-4000:]}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise RoundFailed(f"{workload} round printed no report:\n"
                          f"{err[-4000:]}") from None


def percentile(samples: List[float], pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def end_to_end(rounds: List[Dict[str, Any]], fixed_mix: bool,
               reference: Optional[float] = CALIB_REF_S) -> Dict[str, float]:
    """The end-to-end metrics of a run's untraced rounds.

    Each host time is scaled to a host on which the calibration loop
    takes *reference* seconds, using the calibration timed next to it:
    just before the operation, or for the service (whose clients run
    concurrently) around the whole burst.  ``reference=None`` reports
    the raw host times.  When every round runs the same operations
    (*fixed_mix*), each operation's latency is its median over rounds,
    which drops a round that a burst of host load slowed; throughput is
    taken over the sum of those medians and the percentiles over them.
    Otherwise throughput is the median over rounds, and the percentiles
    pool every operation of the run.
    """
    def scale(seconds: float, calib: Optional[float],
              r: Dict[str, Any]) -> float:
        if reference is None:
            return seconds
        if calib is None:
            calib = statistics.mean(r["calib_s"])
        return seconds * reference / calib

    latencies = [(key, scale(s, calib, r))
                 for r in rounds for key, s, calib in r["latencies"]]
    if fixed_mix:
        by_key: Dict[str, List[float]] = defaultdict(list)
        for key, seconds in latencies:
            by_key[key].append(seconds)
        samples = [statistics.median(v) for v in by_key.values()]
        kinst_per_s = statistics.median(r["instret"] for r in rounds) \
            / sum(samples) / 1e3
        jobs_per_s = len(samples) / sum(samples)
    else:
        samples = [seconds for _, seconds in latencies]
        walls = [scale(r["wall_s"], None, r) for r in rounds]
        kinst_per_s = statistics.median(
            r["instret"] / wall / 1e3 for r, wall in zip(rounds, walls))
        jobs_per_s = statistics.median(
            len(r["latencies"]) / wall for r, wall in zip(rounds, walls))
    return {
        "setup_s": statistics.median(
            scale(r["setup_s"], r["calib_s"][0], r) for r in rounds),
        "sim_kinst_per_s": kinst_per_s,
        "jobs_per_s": jobs_per_s,
        "job_latency_p50_ms": 1e3 * statistics.median(samples),
        "job_latency_p95_ms": 1e3 * percentile(samples, 95),
        "peak_rss_mb": statistics.median(
            r["peak_rss_kib"] / 1024 for r in rounds),
    }


def per_layer(untraced: List[Dict[str, Any]],
              traced: List[Dict[str, Any]]) -> Dict[str, float]:
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]}
    metrics["host.calib_s"] = median_calib(untraced + traced)
    metrics["host.trace_overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in untraced))
    return metrics


def median_calib(rounds: List[Dict[str, Any]]) -> float:
    return statistics.median(c for r in rounds for c in r["calib_s"])


def host_fingerprint() -> Dict[str, Any]:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "system": platform.system()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Rounds run in their own sessions; turn a termination request into
    # an exit, so run_round still stops and reaps the current round.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    scratch = STATE_DIR / f"run-{os.getpid()}"
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    started = time.perf_counter()
    longest = 0.0
    try:
        while True:
            elapsed = time.perf_counter() - started
            enough = (len(traced) >= 1 if args.trace
                      else len(untraced) >= MIN_ROUNDS)
            if (enough and elapsed + longest > args.seconds) \
                    or elapsed + longest > HARD_LIMIT_S:
                break
            inputs = workload.make_inputs(rng)
            begun = time.perf_counter()
            # Traced pairs alternate which round goes first, so a host
            # that speeds up or slows down over the run biases neither.
            if not args.trace:
                order: Tuple[bool, ...] = (False,)
            elif len(untraced) % 2 == 0:
                order = (False, True)
            else:
                order = (True, False)
            for traced_round in order:
                budget = HARD_LIMIT_S - (time.perf_counter() - started)
                report = run_round(args.workload, inputs, traced_round,
                                   scratch, budget)
                (traced if traced_round else untraced).append(report)
            longest = max(longest, time.perf_counter() - begun)
    except RoundFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    rounds = untraced + traced
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    correct = failed == 0
    if args.trace:
        measured = per_layer(untraced, traced)
        coverage = min(r["layers"]["host.layer_coverage_frac"]
                       for r in traced)
        if coverage < MIN_COVERAGE:
            print(f"perfbench: layers cover only {coverage:.1%} of the traced "
                  f"wall time (need {MIN_COVERAGE:.0%})", file=sys.stderr)
            correct = False
        raw: Dict[str, float] = {}
    else:
        measured = end_to_end(untraced, workload.fixed_mix)
        raw = end_to_end(untraced, workload.fixed_mix, reference=None)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "rounds": len(rounds), "host": host_fingerprint(),
              "calib_s": median_calib(rounds),
              "failed_frac": failed / attempted if attempted else 0.0,
              "raw_host_metrics": raw,
              "result": result}
    STATE_DIR.mkdir(exist_ok=True)
    with open(STATE_DIR / "runs.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")
    print(json.dumps({key: value for key, value in record.items()
                      if key != "result"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
