"""Result digests and the check against the pinned set.

Simulated cycles, instructions and event counts are deterministic, so
each simulated result reduces to one sha256 over a canonical JSON form.
``digests.json`` pins the digest of every result the workloads produce;
a run that disagrees with it counts the result as failed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Tuple

PINNED_PATH = Path(__file__).resolve().parent / "digests.json"

#: Fields of a service job result that describe how it was served, not
#: what was computed: a store hit and an execution must agree on the rest.
_SERVING_FIELDS = ("attempts", "from_cache")


def _hash(document: Any) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def core_digest(result, tma) -> str:
    """Cycles, instret, every event counter and every TMA fraction."""
    return _hash({
        "cycles": result.cycles,
        "instret": result.instret,
        "events": result.events,
        "level1": tma.level1,
        "level2": tma.level2,
        "metrics": tma.metrics,
    })


def multicore_digest(core) -> str:
    """One multicore core: its core digest plus the interference split."""
    return _hash({
        "core": core_digest(core.result, core.tma),
        "attribution": core.attribution.to_payload(),
        "uncore": core.uncore.to_payload(),
    })


def job_digest(result: Mapping[str, Any]) -> str:
    """A service job's returned result, less its serving metadata."""
    return _hash({key: value for key, value in result.items()
                  if key not in _SERVING_FIELDS})


def load_pinned() -> Dict[str, Dict[str, str]]:
    with open(PINNED_PATH) as handle:
        return json.load(handle)


def mismatches(pinned: Mapping[str, str],
               observed: Iterable[Tuple[str, str]]) -> List[str]:
    """Keys whose observed digest is missing from or differs from *pinned*."""
    return [key for key, digest in observed if pinned.get(key) != digest]
