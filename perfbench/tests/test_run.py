"""End-to-end aggregation: scaling to the reference host."""

import pytest

import run


def rounds(calib, latencies):
    return [{"setup_s": 0.5, "calib_s": [calib, calib], "wall_s": 2.0,
             "instret": 4000, "peak_rss_kib": 2048,
             "latencies": latencies}]


def test_times_scale_by_the_calibration_next_to_them():
    slow = 2 * run.CALIB_REF_S
    fixed = rounds(slow, [["a", 1.0, slow], ["b", 1.0, run.CALIB_REF_S]])
    metrics = run.end_to_end(fixed, fixed_mix=True)
    assert metrics["sim_kinst_per_s"] == pytest.approx(4000 / 1.5 / 1e3)
    assert metrics["setup_s"] == pytest.approx(0.25)
    raw = run.end_to_end(fixed, fixed_mix=True, reference=None)
    assert raw["sim_kinst_per_s"] == pytest.approx(4000 / 2.0 / 1e3)
    assert raw["peak_rss_mb"] == metrics["peak_rss_mb"] == 2.0


def test_service_times_scale_by_the_calibration_around_the_burst():
    slow = 2 * run.CALIB_REF_S
    burst = rounds(slow, [["a@rocket", 0.2, None], ["b@rocket", 0.4, None]])
    metrics = run.end_to_end(burst, fixed_mix=False)
    assert metrics["jobs_per_s"] == pytest.approx(2 / 1.0)
    assert metrics["job_latency_p50_ms"] == pytest.approx(150.0)
