"""Grid fan-out through the analysis service.

A ``POST /grids`` submission expands one (workload, grid) request into
per-point jobs riding the normal scheduler/store/worker path, admitted
atomically (all points queued or the whole grid rejected).  These tests
pin the GridJob model and its canonical grid key, the all-or-nothing
``submit_many`` admission, per-point dedup across overlapping grids
from different clients, the aggregated grid status, the service metric
counters (``grid_points_*``, ``grid_dedup_hits``), and the HTTP
endpoints end to end — including the drain invariant: every accepted
point job completes, fails, or is durably persisted.
"""

import time

import pytest

from repro.service import ServiceClient, TMAService, serve_in_thread
from repro.service.job import (GridJob, JobRecord, JobValidationError,
                               TMAJob)
from repro.service.scheduler import JobScheduler


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    yield tmp_path


def make_service(**kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("executor", "thread")
    kwargs.setdefault("queue_capacity", 32)
    return TMAService(**kwargs)


def wait_grid_done(service, grid_id, timeout=120.0):
    deadline = time.time() + timeout
    while True:
        status = service.grid_status(grid_id)
        if status["state"] in ("done", "failed", "rejected"):
            return status
        if time.time() > deadline:
            raise TimeoutError(f"grid stuck in {status['state']!r}")
        time.sleep(0.02)


def assert_drain_invariant(report):
    assert report["completed"] + report["failed"] + report["persisted"] == \
        report["accepted"]


# ----------------------------------------------------------------------
# GridJob model


def test_grid_job_expands_to_point_jobs():
    grid = GridJob(workload="vvadd", grid="rocket,small-boom",
                   vary=("l1d=4,8",), scale=0.2)
    pairs = grid.expand()
    assert [point.key for point, _ in pairs] == [
        "rocket+l1d=4", "rocket+l1d=8",
        "small-boom+l1d=4", "small-boom+l1d=8",
    ]
    for point, job in pairs:
        assert job.config == point.key
        assert job.workload == "vvadd"
        assert job.scale == 0.2
        job.validate()  # point keys are valid job configs


def test_grid_job_payload_round_trip_and_rejections():
    grid = GridJob(workload="median", grid="rocket", vary=("l1d=8",),
                   scale=0.5)
    clone = GridJob.from_payload(grid.to_payload())
    assert clone == grid
    with pytest.raises(JobValidationError, match="unknown grid fields"):
        GridJob.from_payload({"workload": "vvadd", "points": "rocket"})
    with pytest.raises(JobValidationError):
        GridJob.from_payload({"workload": "vvadd", "vary": "l1d=8"})
    with pytest.raises(JobValidationError):
        GridJob(workload="vvadd", grid="warp-core").validate()
    with pytest.raises(JobValidationError):
        GridJob(workload="no-such-workload").validate()


def test_grid_key_is_order_independent_but_option_sensitive():
    a = GridJob(workload="vvadd", grid="rocket,small-boom", scale=0.2)
    b = GridJob(workload="vvadd", grid="small-boom,rocket", scale=0.2)
    assert a.grid_key() == b.grid_key()
    assert a.grid_key() != GridJob(workload="vvadd", grid="rocket,small-boom",
                                   scale=0.3).grid_key()
    assert a.grid_key() != GridJob(workload="vvadd", grid="rocket,small-boom",
                                   scale=0.2, mode="linux").grid_key()


def test_point_key_config_accepted_as_plain_job():
    job = TMAJob(workload="vvadd", config="rocket+l1d=4", scale=0.2)
    job.validate()
    with pytest.raises(JobValidationError):
        TMAJob(workload="vvadd", config="rocket+warp=9", scale=0.2).validate()


# ----------------------------------------------------------------------
# atomic batch admission


def make_record(suffix, workload="vvadd", config="rocket", scale=0.2):
    job = TMAJob(workload=workload, config=config, scale=scale)
    return JobRecord(id=f"job-{suffix}", job=job, client="c", priority=1)


def test_submit_many_rejects_whole_batch_when_over_capacity():
    scheduler = JobScheduler(capacity=2)
    records = [make_record(i, scale=0.1 * (i + 1)) for i in range(3)]
    receipts = scheduler.submit_many(records)
    assert all(not r.accepted for r in receipts)
    assert scheduler.queue_depth == 0
    for record in records:
        assert record.state == "rejected"
        assert "queue cannot hold" in record.error


def test_submit_many_coalesces_within_and_across_batches():
    scheduler = JobScheduler(capacity=2)
    first = make_record("a")
    assert scheduler.submit(first).accepted
    # One duplicate of the queued primary, one internal duplicate pair:
    # only `fresh` consumes the remaining slot.
    dup = make_record("dup")
    fresh = make_record("fresh", workload="median")
    fresh_dup = make_record("fresh-dup", workload="median")
    receipts = scheduler.submit_many([dup, fresh, fresh_dup])
    assert [r.accepted for r in receipts] == [True, True, True]
    assert [r.deduped for r in receipts] == [True, False, True]
    assert dup.coalesced_with == first.id
    assert fresh_dup.coalesced_with == fresh.id
    assert scheduler.queue_depth == 2


def test_submit_many_when_closed_rejects_everything():
    scheduler = JobScheduler(capacity=8)
    scheduler.close()
    receipts = scheduler.submit_many([make_record("x")])
    assert not receipts[0].accepted
    assert "draining" in receipts[0].record.error


# ----------------------------------------------------------------------
# service fan-out, dedup, metrics


def test_grid_submission_executes_full_matrix():
    service = make_service().start()
    try:
        record = service.submit_grid_payload({
            "workload": "vvadd", "grid": "rocket,small-boom",
            "scale": 0.2, "client": "alice"})
        assert record.accepted
        status = wait_grid_done(service, record.id)
        assert status["state"] == "done"
        assert set(status["points"]) == {"rocket", "small-boom"}
        for entry in status["points"].values():
            assert entry["state"] == "done"
            assert entry["result"]["cycles"] > 0
        snapshot = service.metrics_snapshot()
        assert snapshot["counters"]["grids_submitted"] == 1
        assert snapshot["counters"]["grid_points_total"] == 2
    finally:
        assert_drain_invariant(service.drain())


def test_overlapping_grids_from_two_clients_share_executions():
    service = make_service(workers=1).start()
    try:
        first = service.submit_grid_payload({
            "workload": "vvadd", "grid": "rocket,small-boom,medium-boom",
            "scale": 0.2, "client": "alice"})
        # Same canonical grid, different client and point order: every
        # point coalesces onto alice's in-flight primaries (or the
        # store, if a point already finished).
        second = service.submit_grid_payload({
            "workload": "vvadd", "grid": "medium-boom,rocket,small-boom",
            "scale": 0.2, "client": "bob"})
        assert second.accepted
        assert second.coalesced_with == first.id
        done_first = wait_grid_done(service, first.id)
        done_second = wait_grid_done(service, second.id)
        assert done_first["state"] == done_second["state"] == "done"
        for key, entry in done_first["points"].items():
            assert entry["result"]["cycles"] == \
                done_second["points"][key]["result"]["cycles"]
        counters = service.metrics_snapshot()["counters"]
        # One execution per unique point, no matter how many grids
        # asked for it.
        assert counters["jobs_executed"] == 3
        assert counters["grid_dedup_hits"] == 1
        assert (counters.get("grid_points_coalesced", 0)
                + counters.get("grid_points_cached", 0)) == 3
        gauges = service.metrics_snapshot()["gauges"]
        assert gauges["grid_share_rate"] == pytest.approx(0.5)
    finally:
        assert_drain_invariant(service.drain())


def test_partially_overlapping_grid_is_served_from_store():
    service = make_service().start()
    try:
        first = service.submit_grid_payload({
            "workload": "median", "grid": "rocket,small-boom",
            "scale": 0.2, "client": "alice"})
        wait_grid_done(service, first.id)
        # Two of three points already have stored results; only the
        # new one executes.
        second = service.submit_grid_payload({
            "workload": "median", "grid": "rocket,small-boom,medium-boom",
            "scale": 0.2, "client": "bob"})
        assert second.coalesced_with is None  # different grid key
        status = wait_grid_done(service, second.id)
        assert status["state"] == "done"
        counters = service.metrics_snapshot()["counters"]
        assert counters["grid_points_cached"] == 2
        assert counters["jobs_executed"] == 3  # 2 from first + 1 new
    finally:
        assert_drain_invariant(service.drain())


def test_grid_point_dedups_against_earlier_direct_submission():
    service = make_service().start()
    try:
        direct = service.submit_payload(
            {"workload": "vvadd", "config": "rocket", "scale": 0.2})
        deadline = time.time() + 120.0
        while service.status(direct.record.id)["state"] != "done":
            assert time.time() < deadline, "direct job never finished"
            time.sleep(0.02)
        # The grid's rocket point has the direct job's canonical key, so
        # it is served from the store; only small-boom executes.
        receipt = service.submit_grid_payload({
            "workload": "vvadd", "grid": "rocket,small-boom", "scale": 0.2})
        status = wait_grid_done(service, receipt.id)
        assert status["state"] == "done"
        assert status["points"]["rocket"]["result"]["cycles"] == \
            service.status(direct.record.id)["result"]["cycles"]
        counters = service.metrics_snapshot()["counters"]
        assert counters["jobs_executed"] == 2
        assert counters["grid_points_cached"] == 1
    finally:
        assert_drain_invariant(service.drain())


def test_grid_rejected_atomically_when_queue_cannot_hold_it():
    service = make_service(workers=1, queue_capacity=2,
                           executor="inline").start()
    try:
        service.scheduler.close()  # freeze admission deterministically
        record = service.submit_grid_payload({
            "workload": "vvadd", "grid": "rocket,small-boom,medium-boom",
            "scale": 0.2})
        assert not record.accepted
        status = service.grid_status(record.id)
        assert status["state"] == "rejected"
        counters = service.metrics_snapshot()["counters"]
        assert counters["grids_rejected"] == 1
        assert counters["jobs_rejected"] == 3
    finally:
        service.drain()


def test_grid_status_unknown_id_is_none():
    service = make_service()
    assert service.grid_status("grid-9999") is None


# ----------------------------------------------------------------------
# HTTP endpoints


def test_http_grid_endpoints_end_to_end():
    service = make_service().start()
    server, _thread = serve_in_thread(service)
    host, port = server.server_address
    client = ServiceClient(f"http://{host}:{port}")
    try:
        receipt = client.submit_grid("vvadd", grid="rocket,small-boom",
                                     scale=0.2, client="http")
        assert receipt["points"] == 2
        status = client.wait_grid(receipt["id"])
        assert status["state"] == "done"
        assert status["grid_key"] == receipt["grid_key"]
        for entry in status["points"].values():
            assert entry["result"]["cycles"] > 0
        # Unknown grid id -> 404; malformed grid -> 400.
        from repro.service import ServiceError
        with pytest.raises(ServiceError) as missing:
            client.grid_status("grid-9999")
        assert missing.value.status == 404
        with pytest.raises(ServiceError) as bad:
            client.submit_grid("vvadd", grid="warp-core")
        assert bad.value.status == 400
        metrics = client.metrics()
        # The malformed submission failed validation before admission,
        # so it never counts as submitted.
        assert metrics["counters"]["grids_submitted"] == 1
    finally:
        client.drain()
        server.shutdown()
