"""The columnar timing engines must be bit-identical to the oracles.

``REPRO_TIMING_ENGINE=columnar`` (the default) runs the descriptor-
compiled, slab-allocated cycle loops over the trace columns;
``objects`` runs the materialized ``DynInst``/µop loops.  The only
acceptable difference is wall clock: these tests pin the full
``CoreResult`` surface (event totals, per-lane splits, cycles, instret,
cache/predictor statistics, extras) *and* the TMA level-1/level-2
classification for every registry workload on Rocket and three BOOM
sizes, plus the engine-selection knob itself and the per-run state
reset that makes core instances safely reusable.

The functional executor is pinned to ``compiled`` throughout: these
tests are about the *timing* engines and need ``ColumnarTrace`` inputs
even when the surrounding suite runs under
``REPRO_EXEC_ENGINE=interpreted`` (whose reference path produces
``DynamicTrace``).
"""

import dataclasses

import pytest

from repro.core import compute_tma
from repro.cores import LARGE_BOOM, MEDIUM_BOOM, ROCKET, SMALL_BOOM
from repro.cores.base import (TIMING_ENGINE_ENV, TIMING_ENGINES,
                              resolve_timing_engine)
from repro.cores.boom import BoomCore
from repro.isa import execute
from repro.isa.columnar import ColumnarTrace
from repro.pmu.harness import make_core
from repro.workloads import build_program, build_trace, workload_names

SCALE = 0.3

CONFIGS = [ROCKET, SMALL_BOOM, MEDIUM_BOOM, LARGE_BOOM]


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


# ----------------------------------------------------------------------
# bit-identity across the registry


@pytest.mark.parametrize("workload", workload_names())
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_columnar_matches_objects(workload, config):
    trace = build_trace(workload, scale=SCALE, engine="compiled")
    assert isinstance(trace, ColumnarTrace)
    objects = make_core(config).run(trace, engine="objects")
    columnar = make_core(config).run(trace, engine="columnar")
    assert result_digest(objects) == result_digest(columnar)

    tma_objects = compute_tma(objects)
    tma_columnar = compute_tma(columnar)
    assert tma_objects.level1 == tma_columnar.level1
    assert tma_objects.level2 == tma_columnar.level2


# ----------------------------------------------------------------------
# engine selection


def test_unknown_engine_rejected():
    with pytest.raises(ValueError, match="unknown timing engine"):
        resolve_timing_engine("vectorized")
    trace = build_trace("vvadd", scale=SCALE, engine="compiled")
    with pytest.raises(ValueError, match="unknown timing engine"):
        make_core(ROCKET).run(trace, engine="vectorized")


def test_env_selects_engine(monkeypatch):
    monkeypatch.setenv(TIMING_ENGINE_ENV, "objects")
    assert resolve_timing_engine() == "objects"
    # An explicit override always beats the environment.
    assert resolve_timing_engine("columnar") == "columnar"
    monkeypatch.setenv(TIMING_ENGINE_ENV, "jit")
    with pytest.raises(ValueError, match="unknown timing engine"):
        resolve_timing_engine()


def test_default_engine_is_columnar(monkeypatch):
    monkeypatch.delenv(TIMING_ENGINE_ENV, raising=False)
    assert resolve_timing_engine() == "columnar"
    assert set(TIMING_ENGINES) == {"columnar", "objects"}


@pytest.mark.parametrize("config", [ROCKET, SMALL_BOOM],
                         ids=lambda c: c.name)
def test_dynamic_trace_falls_back_to_objects(config):
    """A ``DynamicTrace`` input runs the ``steps`` oracle on any engine.

    Only a ``ColumnarTrace`` can feed the columnar loop, so asking for
    it with a ``DynamicTrace`` still gives the columnar loop's result.
    """
    columnar_trace = build_trace("median", scale=SCALE, engine="compiled")
    dynamic_trace = execute(build_program("median", scale=SCALE))
    assert not isinstance(dynamic_trace, ColumnarTrace)
    reference = make_core(config).run(columnar_trace, engine="columnar")
    via_dynamic = make_core(config).run(dynamic_trace, engine="columnar")
    assert result_digest(via_dynamic) == result_digest(reference)


@pytest.mark.parametrize("config", [ROCKET, SMALL_BOOM],
                         ids=lambda c: c.name)
def test_observer_sees_every_cycle(config):
    """An attached observer moves the run onto ``steps``: it sees every
    cycle, and the events equal the unobserved columnar run's."""

    class Recorder:
        def __init__(self):
            self.cycles = 0

        def on_cycle(self, cycle, signals):
            self.cycles += 1

    trace = build_trace("median", scale=SCALE, engine="compiled")
    default = make_core(config).run(trace, engine="columnar")
    observed_core = make_core(config)
    recorder = Recorder()
    observed_core.add_observer(recorder)
    observed = observed_core.run(trace, engine="columnar")
    assert recorder.cycles == observed.cycles == default.cycles
    assert observed.events == default.events


# ----------------------------------------------------------------------
# per-run state reset / instance reuse


def test_boom_run_resets_per_run_state():
    """Stale per-run state must not leak into a later ``run()``.

    The machine-clear count, the store-set training, and the store
    queue are per-run; the caches, TLBs, and predictor deliberately
    stay warm.  A core poisoned with stale per-run state must produce
    the exact result of a pristine core.
    """
    trace = build_trace("qsort", scale=SCALE, engine="compiled")
    clean = BoomCore(SMALL_BOOM).run(trace)
    poisoned = BoomCore(SMALL_BOOM)
    poisoned.machine_clears = 999
    poisoned._trained_loads.add(0x80000123)
    poisoned._stq = [object()]
    assert result_digest(poisoned.run(trace)) == result_digest(clean)


@pytest.mark.parametrize("config", [SMALL_BOOM, LARGE_BOOM],
                         ids=lambda c: c.name)
def test_reused_core_engines_stay_identical(config):
    """Back-to-back runs on one instance stay engine-independent.

    Warm cache/predictor state evolves across runs; both engines must
    see the identical evolution, so a reused objects-engine core and a
    reused columnar-engine core agree run by run.
    """
    core_objects = BoomCore(config)
    core_columnar = BoomCore(config)
    for workload in ("qsort", "median", "qsort"):
        trace = build_trace(workload, scale=SCALE, engine="compiled")
        objects = core_objects.run(trace, engine="objects")
        columnar = core_columnar.run(trace, engine="columnar")
        assert result_digest(objects) == result_digest(columnar)
