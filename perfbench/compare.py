"""The benchmark's comparison rule, and a command that applies it.

Two sets of runs of one workload (say, a parent commit and a change,
run in alternation) are compared metric by metric.  A metric is flagged
when the second set's median is worse than the first's by more than the
bound ``BENCHMARK.json`` fixes for it.  It is also flagged, below its
bound, when the slowdown is resolved: the second set loses at least nine
tenths of the run pairs, and its median is worse by more than the first
set's own quartile spread.  More failed operations per attempted
operation is always flagged.

Usage, on two files of run records (``.perfbench/runs.jsonl``)::

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def values(runs: Sequence[Mapping[str, Any]], name: str) -> List[float]:
    return [run["metrics"][name]["value"] for run in runs
            if name in run["metrics"]]


def spread(samples: Sequence[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / median


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse *new* is than *base*, as a share of *base*."""
    if better == "lower":
        return (new - base) / base
    return (base - new) / base


def failed_frac(runs: Sequence[Mapping[str, Any]]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted


#: Share of run pairs a side must lose for a slowdown to be resolved.
RESOLVED_LOSSES = 0.9


def compare(base: Sequence[Mapping[str, Any]],
            new: Sequence[Mapping[str, Any]],
            metrics: Sequence[Mapping[str, Any]]) -> List[str]:
    """Reasons the *new* runs regress on *base*; empty when none does.

    Runs pair up in order: ``base[i]`` with ``new[i]``.
    """
    flagged = []
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        base_values, new_values = values(base, name), values(new, name)
        base_median = statistics.median(base_values)
        new_median = statistics.median(new_values)
        worse = worse_by(base_median, new_median, better)
        pairs = list(zip(base_values, new_values))
        losses = sum(worse_by(b, n, better) > 0 for b, n in pairs)
        summary = (f"{name}: median {new_median:.6g} vs {base_median:.6g} "
                   f"{metric['unit']}, {worse:.1%} worse")
        if worse > metric["bound"]:
            flagged.append(f"{summary} (bound {metric['bound']:.0%})")
        elif (losses >= RESOLVED_LOSSES * len(pairs)
              and worse > spread(base_values)):
            flagged.append(f"{summary}, {losses}/{len(pairs)} pairs lost")
    if failed_frac(new) > failed_frac(base):
        flagged.append(f"failed_frac: {failed_frac(new):.4f} vs "
                       f"{failed_frac(base):.4f}")
    return flagged


def _by_workload(path: str) -> Dict[str, List[Dict[str, Any]]]:
    runs: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if not record["trace"]:
                runs[record["workload"]].append(record["result"])
    return runs


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (_by_workload(path) for path in argv)
    metrics = load_spec()["end_to_end"]
    regressed = False
    for workload in sorted(set(base) & set(new)):
        flagged = compare(base[workload], new[workload], metrics)
        regressed |= bool(flagged)
        print(f"{workload}: {len(base[workload])} vs {len(new[workload])} "
              f"runs: {'; '.join(flagged) or 'no regression'}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
