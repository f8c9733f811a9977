"""Columnar trace backend: codec round-trip, laziness, core parity."""

import pickle

import pytest

from repro.cores import config_by_name
from repro.isa import ColumnarTrace, ExecutionError, execute, execute_compiled
from repro.isa.columnar import unpack
from repro.pmu.harness import make_core
from repro.workloads import build_program

from tests.test_trace_compiler import assert_traces_identical


@pytest.fixture(scope="module")
def trace():
    return execute_compiled(build_program("towers"))


def test_pack_unpack_round_trip(trace):
    restored = unpack(trace.pack())
    assert isinstance(restored, ColumnarTrace)
    assert_traces_identical(trace, restored)
    assert restored.program_name == trace.program_name


def test_unpack_rejects_corruption(trace):
    data = trace.pack()
    with pytest.raises(ExecutionError):
        unpack(b"NOPE" + data[4:])
    with pytest.raises(ExecutionError):
        unpack(data[:len(data) // 2])  # truncated columns
    with pytest.raises(ExecutionError):
        unpack(b"")


def test_lazy_indexing_matches_materialized_list(trace):
    fresh = unpack(trace.pack())  # nothing materialized yet
    assert fresh._materialized is None
    sampled = [fresh[0], fresh[len(fresh) // 2], fresh[-1]]
    assert fresh._materialized is None  # single indexing stays lazy
    full = fresh.instructions
    assert fresh._materialized is full
    for inst, expect in zip(
            (full[0], full[len(fresh) // 2], full[-1]), sampled):
        assert inst.index == expect.index
        assert inst.pc == expect.pc
        assert inst.mnemonic == expect.mnemonic
    with pytest.raises(IndexError):
        unpack(trace.pack())[len(fresh)]


def test_iteration_parity(trace):
    lazy = list(iter(unpack(trace.pack())))
    assert len(lazy) == len(trace)
    assert [i.pc for i in lazy] == [i.pc for i in trace.instructions]


def test_summary_helpers_match_interpreted_trace():
    program = build_program("brmiss")
    interpreted = execute(program)
    columnar = execute_compiled(program)
    assert columnar.class_histogram() == interpreted.class_histogram()
    assert columnar.branch_count() == interpreted.branch_count()
    assert (columnar.mispredictable_summary()
            == interpreted.mispredictable_summary())


def test_pickle_ships_packed_bytes(trace):
    payload = pickle.dumps(trace)
    # The wire format is the pack() codec, not a DynInst object graph.
    assert b"RTRC1" in payload
    assert b"DynInst" not in payload
    assert_traces_identical(trace, pickle.loads(payload))


def test_getitem_slice_has_list_semantics(trace):
    fresh = unpack(trace.pack())
    window = fresh[2:10]
    assert isinstance(window, list)
    assert fresh._materialized is None  # slicing stays lazy
    expect = trace.instructions[2:10]
    assert [i.index for i in window] == [i.index for i in expect]
    assert [i.pc for i in window] == [i.pc for i in expect]
    # Extended slices and the materialized path agree with list
    # semantics too.
    assert [i.pc for i in fresh[10:2:-2]] == \
        [i.pc for i in trace.instructions[10:2:-2]]
    assert [i.pc for i in fresh[-3:]] == \
        [i.pc for i in trace.instructions[-3:]]
    fresh.instructions  # materialize
    assert [i.pc for i in fresh[2:10]] == [i.pc for i in expect]


class _CycleCounter:
    def __init__(self):
        self.cycles = 0

    def on_cycle(self, cycle, signals):
        self.cycles += 1


@pytest.mark.parametrize("config_name", ["rocket", "small-boom"])
@pytest.mark.parametrize("observed", [False, True])
def test_cores_accept_columnar_traces(config_name, observed):
    """Both trace forms give one result, with or without an observer.

    Unobserved, a ``ColumnarTrace`` runs the columnar loop and a
    ``DynamicTrace`` the ``steps`` oracle; observed, both run ``steps``.
    """
    program = build_program("median")
    config = config_by_name(config_name)

    def run(trace):
        core = make_core(config)
        if observed:
            core.add_observer(_CycleCounter())
        return core.run(trace)

    baseline = run(execute(program))
    result = run(execute_compiled(program))
    assert result.cycles == baseline.cycles
    assert result.instret == baseline.instret
    assert result.events == baseline.events
