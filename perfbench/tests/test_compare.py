"""Self-tests of the comparison rule and the correctness gate."""

import random
from types import SimpleNamespace

import compare
import digest

SPEC = compare.load_spec()
METRICS = SPEC["end_to_end"]
#: Run-to-run noise of the synthetic runs: a 2% standard deviation.
NOISE = 0.02


def synthetic_runs(rng, count=10, worse=None, factor=1.0, failed=0):
    """*count* runs around 100 per metric; *worse* is degraded by *factor*."""
    runs = []
    for _ in range(count):
        metrics = {}
        for metric in METRICS:
            value = 100.0 * rng.gauss(1.0, NOISE)
            if metric["name"] == worse:
                value *= factor if metric["better"] == "lower" else 1 / factor
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        runs.append({"correct": failed == 0, "attempted": 100,
                     "failed": failed, "metrics": metrics})
    return runs


def test_fifteen_percent_slower_is_flagged():
    for metric in METRICS:
        rng = random.Random(metric["name"])
        base = synthetic_runs(rng)
        slower = synthetic_runs(rng, worse=metric["name"], factor=1.15)
        flagged = compare.compare(base, slower, METRICS)
        assert len(flagged) == 1 and flagged[0].startswith(metric["name"])


def test_beyond_the_bound_is_flagged_even_when_noisy():
    metric = METRICS[0]
    rng = random.Random(1)
    base = synthetic_runs(rng)
    # Half the runs worse by more than the bound, half unchanged: the
    # pairs do not resolve a slowdown, but the median does.
    worse = synthetic_runs(rng, count=6, worse=metric["name"],
                           factor=1.5 + metric["bound"])
    flagged = compare.compare(base, worse + synthetic_runs(rng, count=4),
                              METRICS)
    assert [reason.split(":")[0] for reason in flagged] == [metric["name"]]
    assert "bound" in flagged[0]


def test_one_distribution_is_not_flagged():
    for seed in range(50):
        rng = random.Random(seed)
        assert compare.compare(synthetic_runs(rng), synthetic_runs(rng),
                               METRICS) == []


def test_digest_mismatch_raises_failed_frac():
    result = SimpleNamespace(cycles=100, instret=80,
                             events={"instr_retired": 80, "stall": 7})
    tma = SimpleNamespace(level1={"retiring": 0.8}, level2={}, metrics={})
    pinned = {"w@rocket": digest.core_digest(result, tma)}
    assert digest.mismatches(pinned, [("w@rocket",
                                       digest.core_digest(result, tma))]) == []

    result.events["stall"] = 8
    failed = len(digest.mismatches(pinned, [("w@rocket",
                                             digest.core_digest(result, tma))]))
    assert failed == 1

    rng = random.Random(0)
    base = synthetic_runs(rng)
    new = synthetic_runs(rng, failed=failed)
    assert compare.failed_frac(new) > compare.failed_frac(base) == 0
    assert any(reason.startswith("failed_frac")
               for reason in compare.compare(base, new, METRICS))


def test_job_digest_ignores_how_a_job_was_served():
    executed = {"status": "ok", "attempts": 1, "from_cache": False,
                "cycles": 10, "tma": {"level1": {"retiring": 0.5}}}
    served = dict(executed, attempts=0, from_cache=True)
    assert digest.job_digest(executed) == digest.job_digest(served)
    assert digest.job_digest(executed) != digest.job_digest(
        dict(executed, cycles=11))
