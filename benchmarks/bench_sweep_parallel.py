"""Tier-2: parallel sweep engine vs. the serial resilient runner.

Not a paper figure — this bench guards the evaluation *infrastructure*:
the process-pool sweep engine must merge to exactly the serial runner's
results.  The assertion pins that property (identical merges); the
timings show what the pool buys on this host.
"""

import dataclasses

import pytest

from repro.cores import ROCKET
from repro.pmu.harness import PerfHarness
from repro.reliability.runner import ResilientRunner
from repro.tools.parallel import ParallelSweepRunner

WORKLOADS = ["dhrystone", "median", "qsort", "towers"]
SCALE = 0.5


def _make_runner():
    return ResilientRunner(harness=PerfHarness(core="rocket"),
                           scale=SCALE, use_cache=False)


def _outcome_digest(outcome):
    """Every observable field of one sweep outcome."""
    measurement = outcome.measurement
    return (
        outcome.workload, outcome.config_name, outcome.status,
        outcome.attempts, outcome.error_class,
        None if measurement is None else (
            tuple(sorted(measurement.events.items())),
            measurement.cycles, measurement.instret, measurement.passes),
        None if outcome.tma is None else dataclasses.astuple(outcome.tma),
    )


@pytest.fixture(scope="module")
def serial_report():
    return ParallelSweepRunner(runner=_make_runner(),
                               max_workers=1).run_grid(WORKLOADS, [ROCKET])


def test_parallel_sweep_matches_serial(benchmark, serial_report, artifact):
    parallel = benchmark(
        lambda: ParallelSweepRunner(runner=_make_runner(),
                                    max_workers=4).run_grid(WORKLOADS,
                                                            [ROCKET]))
    assert [_outcome_digest(o) for o in parallel.outcomes] \
        == [_outcome_digest(o) for o in serial_report.outcomes]
    artifact("sweep_parallel_engine", parallel.summary())


def test_serial_sweep_baseline(benchmark):
    report = benchmark(
        lambda: ParallelSweepRunner(runner=_make_runner(),
                                    max_workers=1).run_grid(WORKLOADS,
                                                            [ROCKET]))
    assert all(o.ok for o in report.outcomes)
