"""The batched grid engine must be bit-identical to per-config runs.

``repro.cores.batch.run_batch`` replays one shared trace through every
grid point while sharing only provably pure artifacts (the trace
columns, per-family descriptor tables, TAGE fold memos).  The oracle is
a standalone ``run_core`` of the same (workload, config, scale): these
tests pin the full ``CoreResult`` surface for the whole workload
registry across the default grid-of-4, the grid-spec parser and its
canonical point keys, fold-cache sharing safety, checkpoint restore,
and the end-to-end acceptance — SIGKILL a ``repro-tma sweep --grid``
run mid-grid, ``--resume`` it, and require the matrix to match an
uninterrupted oracle run exactly.

The whole file honours ``REPRO_TIMING_ENGINE``: the batch-equivalence
CI job runs it once on the default columnar engine and once with the
object-engine oracle forced.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cores import LARGE_BOOM, ROCKET, SMALL_BOOM
from repro.cores.batch import (DEFAULT_GRID, GridPoint, canonical_grid_key,
                               make_core, parse_grid, point_from_key,
                               resolve_config_spec, run_batch)
from repro.cores.boom import BoomCore
from repro.cores.rocket import RocketCore
from repro.tools.checkpoint import SweepCheckpoint, point_key
from repro.tools.tma_tool import run_core
from repro.uarch.branch import share_fold_caches
from repro.workloads import build_trace, workload_names

SCALE = 0.3

GRID = parse_grid(DEFAULT_GRID)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    yield tmp_path


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
def test_batch_matches_single_config_oracle(workload):
    batch = run_batch(workload, GRID, scale=SCALE, use_cache=False)
    assert batch.stats.executed == len(GRID)
    assert batch.stats.trace_fetches == 1
    for point in GRID:
        oracle = run_core(workload, point.config, scale=SCALE,
                          use_cache=False)
        assert result_digest(batch.result_for(point.key)) == \
            result_digest(oracle), point.key


def test_batch_shares_tables_and_folds_on_columnar():
    trace = build_trace("towers", scale=SCALE, engine="compiled")
    assert hasattr(trace, "timing_table")
    batch = run_batch("towers", GRID, scale=SCALE, use_cache=False,
                      engine="columnar", workers=1)
    stats = batch.stats
    assert stats.mode == "inline"
    # One rocket + three BOOM points: each family compiles its
    # descriptor table once on the shared trace, and the points beyond
    # the first reuse it.
    assert sorted(trace._timing_tables) == ["boom", "rocket"]
    # Three TAGE-predicting BOOMs x four same-geometry tables, minus
    # the four donor tables.
    assert stats.fold_caches_shared == 8


def test_variant_grid_matches_oracle():
    points = parse_grid("rocket,small-boom",
                        vary=("l1d=4,16", "bp=gshare"))
    keys = [p.key for p in points]
    # The bp axis applies to BOOM only; Rocket rides through un-crossed.
    assert keys == [
        "rocket+l1d=4",
        "rocket+l1d=16",
        "small-boom+bp=gshare+l1d=4",
        "small-boom+bp=gshare+l1d=16",
    ]
    batch = run_batch("vvadd", points, scale=SCALE, use_cache=False)
    for point in points:
        oracle = run_core("vvadd", point.config, scale=SCALE,
                          use_cache=False)
        assert result_digest(batch.result_for(point.key)) == \
            result_digest(oracle), point.key


def test_process_pool_matches_inline():
    inline = run_batch("median", GRID, scale=SCALE, use_cache=False,
                       workers=1)
    pooled = run_batch("median", GRID, scale=SCALE, use_cache=False,
                       workers=2)
    assert pooled.stats.mode == "process"
    assert pooled.stats.fallback_reason is None
    for point in GRID:
        assert result_digest(pooled.result_for(point.key)) == \
            result_digest(inline.result_for(point.key))


def test_pool_failure_falls_back_inline():
    def broken_factory(workers):
        raise OSError("no pool for you")

    batch = run_batch("vvadd", GRID, scale=SCALE, use_cache=False,
                      workers=2, executor_factory=broken_factory)
    assert batch.stats.fallback_reason is not None
    assert batch.stats.mode == "inline"
    oracle = run_core("vvadd", GRID[0].config, scale=SCALE,
                      use_cache=False)
    assert result_digest(batch.result_for(GRID[0].key)) == \
        result_digest(oracle)


# ----------------------------------------------------------------------
# grid specs and canonical keys


def test_parse_grid_dedups_and_canonicalizes():
    points = parse_grid("rocket, small-boom ,rocket")
    assert [p.key for p in points] == ["rocket", "small-boom"]
    # The bp axis never applies to Rocket; duplicates collapse.
    rocket_only = parse_grid("rocket", vary=("bp=gshare,tage",))
    assert [p.key for p in rocket_only] == ["rocket"]
    # --vary flag order does not matter: axes are alphabetical.
    a = parse_grid("small-boom", vary=("l1d=8", "bp=gshare"))
    b = parse_grid("small-boom", vary=("bp=gshare", "l1d=8"))
    assert [p.key for p in a] == [p.key for p in b] == \
        ["small-boom+bp=gshare+l1d=8"]


def test_point_from_key_round_trips_and_rejects():
    point = point_from_key("small-boom+bp=gshare+l1d=4")
    assert point.key == "small-boom+bp=gshare+l1d=4"
    assert point.config.branch_predictor == "gshare"
    assert point.config.l1d.size_bytes == 4 * 1024
    with pytest.raises(ValueError, match="canonical"):
        point_from_key("small-boom+l1d=4+bp=gshare")  # wrong axis order
    with pytest.raises(ValueError, match="canonical"):
        point_from_key("small-boom+l1d=4+l1d=8")  # repeated axis
    with pytest.raises(ValueError, match="does not apply"):
        point_from_key("rocket+bp=tage")
    with pytest.raises(ValueError, match="malformed"):
        point_from_key("rocket+l1d")
    with pytest.raises(KeyError):
        point_from_key("mystery-core")
    with pytest.raises(ValueError, match="names no configurations"):
        parse_grid("  ,  ")


def test_resolve_config_spec_widens_registry():
    assert resolve_config_spec("large-boom") is LARGE_BOOM
    variant = resolve_config_spec("large-boom+fetch=2")
    assert variant.fetch_width == 2
    # Variant names extend the config's display name, so result-cache
    # and job keys for variants can never collide with the base config.
    assert variant.name == f"{LARGE_BOOM.name}+fetch=2"


def test_canonical_grid_key_is_order_and_dup_independent():
    points = parse_grid("rocket,small-boom,medium-boom")
    shuffled = [points[2], points[0], points[1], points[0]]
    assert canonical_grid_key("mm", points, 1.0) == \
        canonical_grid_key("mm", shuffled, 1.0)
    assert canonical_grid_key("mm", points, 1.0) != \
        canonical_grid_key("mm", points, 0.5)
    assert canonical_grid_key("mm", points, 1.0) != \
        canonical_grid_key("spmv", points, 1.0)
    assert canonical_grid_key("mm", points[:2], 1.0) != \
        canonical_grid_key("mm", points, 1.0)


def test_run_batch_rejects_degenerate_grids():
    with pytest.raises(ValueError, match="empty grid"):
        run_batch("vvadd", [], scale=SCALE)
    dup = [GRID[0], GRID[0]]
    with pytest.raises(ValueError, match="duplicate grid point"):
        run_batch("vvadd", dup, scale=SCALE)


# ----------------------------------------------------------------------
# fold-cache sharing and per-run state


def test_share_fold_caches_adopts_same_geometry_only():
    donors = BoomCore(LARGE_BOOM)
    adopter = BoomCore(LARGE_BOOM)
    count = share_fold_caches([donors.predictor, adopter.predictor])
    tables = donors.predictor.direction.tables
    assert count == len(tables)
    for a, b in zip(tables, adopter.predictor.direction.tables):
        assert a._folds is b._folds
    # Rocket predictors have no pluggable direction predictor and are
    # skipped; None entries are tolerated (harness-less cores).
    rocket = RocketCore(ROCKET)
    assert share_fold_caches(
        [getattr(rocket, "predictor", None), None]) == 0


def test_shared_folds_do_not_change_results():
    trace = build_trace("qsort", scale=SCALE)
    pristine = BoomCore(SMALL_BOOM).run(trace)
    shared_a = BoomCore(SMALL_BOOM)
    shared_b = BoomCore(SMALL_BOOM)
    share_fold_caches([shared_a.predictor, shared_b.predictor])
    assert result_digest(shared_a.run(trace)) == result_digest(pristine)
    assert result_digest(shared_b.run(trace)) == result_digest(pristine)


def test_batch_rerun_and_cache_hits_are_bit_identical():
    first = run_batch("towers", GRID, scale=SCALE, use_cache=True)
    assert first.stats.executed == len(GRID)
    second = run_batch("towers", GRID, scale=SCALE, use_cache=True)
    assert second.stats.executed == 0
    assert second.stats.cache_hits == len(GRID)
    assert second.stats.share_rate() == 1.0
    for point in GRID:
        assert result_digest(first.result_for(point.key)) == \
            result_digest(second.result_for(point.key))


# ----------------------------------------------------------------------
# checkpoint restore


def test_checkpoint_restores_completed_points():
    checkpoint = SweepCheckpoint(tag="batch-test", signature="sig")
    partial = run_batch("median", GRID[:2], scale=SCALE, use_cache=False,
                        checkpoint=checkpoint)
    assert partial.stats.executed == 2
    resumed = run_batch("median", GRID, scale=SCALE, use_cache=False,
                        checkpoint=checkpoint)
    assert resumed.stats.restored == 2
    assert resumed.stats.executed == len(GRID) - 2
    oracle = run_batch("median", GRID, scale=SCALE, use_cache=False)
    for point in GRID:
        assert result_digest(resumed.result_for(point.key)) == \
            result_digest(oracle.result_for(point.key))


def test_checkpoint_keys_are_namespaced_by_workload():
    checkpoint = SweepCheckpoint(tag="batch-ns", signature="sig")
    run_batch("vvadd", GRID[:1], scale=SCALE, use_cache=False,
              checkpoint=checkpoint)
    assert checkpoint.get(point_key("vvadd", GRID[0].key)) is not None
    # A different workload over the same grid restores nothing.
    other = run_batch("towers", GRID[:1], scale=SCALE, use_cache=False,
                      checkpoint=checkpoint)
    assert other.stats.restored == 0
    assert other.stats.executed == 1


# ----------------------------------------------------------------------
# acceptance: SIGKILL mid-grid, then --resume
# ----------------------------------------------------------------------


def _run_sweep_cli(cache_dir, json_path, *extra, check=True):
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir),
               PYTHONPATH="src", PYTHONUNBUFFERED="1")
    process = subprocess.run(
        [sys.executable, "-m", "repro.tools.cli", "sweep",
         "--grid", "rocket,small-boom",
         "--workloads", "towers,vvadd,median", "--scale", "0.3",
         "--workers", "1", "--no-cache", "--json", str(json_path),
         *extra],
        capture_output=True, text=True, env=env, timeout=300)
    if check:
        assert process.returncode == 0, process.stderr
    return process


def _matrix(json_path):
    """The simulated quantities only (stats differ on a resumed run)."""
    with open(json_path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return {
        workload: section["points"]
        for workload, section in payload["workloads"].items()
    }


def test_sigkill_mid_grid_then_resume_is_bit_identical(tmp_path):
    oracle_dir = tmp_path / "oracle"
    victim_dir = tmp_path / "victim"
    oracle_dir.mkdir()
    victim_dir.mkdir()
    oracle_json = tmp_path / "oracle.json"
    victim_json = tmp_path / "victim.json"

    _run_sweep_cli(oracle_dir, oracle_json)

    env = dict(os.environ, REPRO_CACHE_DIR=str(victim_dir),
               PYTHONPATH="src", PYTHONUNBUFFERED="1")
    victim = subprocess.Popen(
        [sys.executable, "-m", "repro.tools.cli", "sweep",
         "--grid", "rocket,small-boom",
         "--workloads", "towers,vvadd,median", "--scale", "0.3",
         "--workers", "1", "--no-cache"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    # Give it long enough to checkpoint some grid points, then SIGKILL.
    deadline = time.time() + 30
    ckpt = victim_dir / "checkpoints"
    while time.time() < deadline and victim.poll() is None:
        if ckpt.is_dir() and any(ckpt.glob("*.ckpt")):
            break
        time.sleep(0.02)
    mid_flight = victim.poll() is None
    victim.kill()
    victim.wait(timeout=30)
    if not mid_flight:
        pytest.skip("sweep finished before SIGKILL landed")
    assert victim.returncode == -signal.SIGKILL

    resumed = _run_sweep_cli(victim_dir, victim_json, "--resume")
    assert "restored" in resumed.stdout
    assert _matrix(victim_json) == _matrix(oracle_json)
    # A clean finish clears the checkpoint.
    assert not any((victim_dir / "checkpoints").glob("*.ckpt"))
