"""Multicore interference TMA: shared-uncore scenarios with attribution.

Public surface:

- :func:`run_scenario` / :func:`run_scenario_payload` — execute a named
  (or ad-hoc) co-location scenario in cycle-lockstep over a shared
  uncore and return per-core TMA with the Memory-Bound slots split into
  self vs. neighbor-induced shares;
- :data:`SCENARIOS` / :func:`get_scenario` / :func:`scenario_names` —
  the named scenario registry (``noisy-neighbor``, ``symmetric``,
  ``latency-victim``);
- :class:`SharedUncore` — the shared L2 + DRAM-bus model itself, for
  callers composing custom topologies;
- :data:`ARBITRATIONS` — the within-cycle uncore arbitration orders.
"""

from .attribution import Attribution, attribute_mem_bound
from .harness import (
    CoreInterference,
    MulticoreError,
    MulticoreResult,
    multicore_fingerprint,
    run_scenario,
    run_scenario_payload,
    scenario_cache_key,
)
from .scenarios import (
    ARBITRATIONS,
    MAX_CORES,
    SCENARIOS,
    CoreSlot,
    Scenario,
    get_scenario,
    scenario_names,
)
from .uncore import COLOR_SHIFT, L2View, RequestorMetrics, SharedUncore

__all__ = [
    "ARBITRATIONS",
    "Attribution",
    "COLOR_SHIFT",
    "CoreInterference",
    "CoreSlot",
    "L2View",
    "MAX_CORES",
    "MulticoreError",
    "MulticoreResult",
    "RequestorMetrics",
    "SCENARIOS",
    "Scenario",
    "SharedUncore",
    "attribute_mem_bound",
    "get_scenario",
    "multicore_fingerprint",
    "run_scenario",
    "run_scenario_payload",
    "scenario_cache_key",
    "scenario_names",
]
