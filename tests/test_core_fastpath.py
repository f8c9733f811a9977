"""A core's fast production loop must be bit-identical to its traced loop.

Each core keeps two cycle loops: the columnar production loop, which
``core.run`` takes when nothing needs a per-cycle record, and the
per-cycle ``core.steps`` generator, which is the observer, fault-hook
and multicore path and the reference oracle.  The only acceptable
difference is wall clock.  These tests pin the full result surface —
event totals, per-lane splits, cycles, instret, cache and predictor
statistics — for both cores across a workload cross-section, driving
``steps`` directly the way the multicore harness does.

The functional executor is pinned to ``compiled`` so the production
loop gets a ``ColumnarTrace`` under every ``REPRO_EXEC_ENGINE``.
"""

import dataclasses

import pytest

from repro.cores import LARGE_BOOM, ROCKET, SMALL_BOOM
from repro.cores.base import run_steps
from repro.isa.columnar import ColumnarTrace
from repro.pmu.harness import make_core
from repro.workloads import build_trace

WORKLOADS = ["dhrystone", "median", "memcpy", "mergesort", "qsort",
             "spmv", "towers", "vvadd"]
SCALE = 0.3


def result_digest(result):
    return (
        result.events,
        result.lane_events,
        result.cycles,
        result.instret,
        dataclasses.astuple(result.l1i_stats),
        dataclasses.astuple(result.l1d_stats),
        dataclasses.astuple(result.l2_stats),
        dataclasses.astuple(result.predictor_stats),
        result.extra,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("config", [ROCKET, SMALL_BOOM, LARGE_BOOM],
                         ids=lambda c: c.name)
def test_fast_path_matches_traced_path(workload, config):
    trace = build_trace(workload, scale=SCALE, engine="compiled")
    assert isinstance(trace, ColumnarTrace)
    oracle = make_core(config)
    oracle.reset_run_state()
    traced = run_steps(oracle.steps(trace))
    fast = make_core(config).run(trace, engine="columnar")
    assert result_digest(traced) == result_digest(fast)
