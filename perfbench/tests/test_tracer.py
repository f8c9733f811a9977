"""Self-time attribution and install/uninstall of the outside-in tracer."""

import pytest

from tracer import Span, Tracer


def test_self_times_split_concurrent_leaves_and_sum_to_covered_time():
    tracer = Tracer()
    tracer.spans = [
        Span("root", 1, 0.0, None, 10.0),
        Span("child", 1, 2.0, 0, 5.0),
        # Two threads adopted by the root, overlapping on [7, 9].
        Span("worker", 2, 6.0, 0, 9.0),
        Span("worker", 3, 7.0, 0, 9.0),
    ]
    assert tracer.self_times() == pytest.approx([4.0, 3.0, 2.0, 1.0])
    summary = tracer.summary()
    assert summary["worker"]["self_s"] == pytest.approx(3.0)
    assert summary["root"]["total_s"] == pytest.approx(10.0)
    assert tracer.inclusive_under("worker", "root") == pytest.approx(5.0)


def test_install_wraps_every_binding_and_uninstall_restores_them(
        tmp_path, monkeypatch):
    from repro.tools import tma_tool
    from repro.workloads import registry

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    registry.clear_caches()

    original = registry.build_trace
    tracer = Tracer()
    tracer.install()
    try:
        assert tma_tool.build_trace is registry.build_trace is not original
        registry.build_trace("towers", scale=0.05)
    finally:
        tracer.uninstall()
    assert tma_tool.build_trace is registry.build_trace is original
    layers = tracer.summary()
    assert layers["workloads.registry"]["calls"] == 1
    assert layers["isa.assembler"]["calls"] >= 1
    covered = sum(entry["self_s"] for entry in layers.values())
    assert covered == pytest.approx(layers["workloads.registry"]["total_s"])
