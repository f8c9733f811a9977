"""Workload registry: every benchmark the evaluation uses, by name.

A workload is a function from a *scale* factor to assembly source; the
registry assembles and functionally executes on demand, caching both per
process (the trace of a workload at a given scale never changes).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..isa import DynamicTrace, Program, assemble, execute, execute_compiled
from . import trace_cache

#: Engine selector: "compiled" (closure-compiled, memoized, columnar) is
#: the production default; "interpreted" keeps the original
#: FunctionalExecutor as the always-available reference oracle.
ENGINE_ENV = "REPRO_EXEC_ENGINE"
_ENGINES = ("compiled", "interpreted")


@dataclass(frozen=True)
class Workload:
    """One registered benchmark.

    Attributes:
        name: registry key (e.g. ``"mergesort"`` or ``"505.mcf_r"``).
        category: ``micro``, ``spec``, or ``case-study``.
        source_builder: callable producing assembly text for a scale.
        description: one-line summary shown in reports.
        expected_exit: callable producing the exit code the kernel must
            produce at a given scale (``None`` to skip the check).
    """

    name: str
    category: str
    source_builder: Callable[[float], str]
    description: str = ""
    expected_exit: Optional[Callable[[float], int]] = None


#: Reserved pseudo-workload name meaning "this core slot is unused".
#: Multicore scenarios accept it wherever a workload name is expected;
#: it never reaches :func:`build_trace` (an idle slot instantiates no
#: core at all), so it is deliberately *not* a registry entry.
IDLE_WORKLOAD = "idle"


def is_idle(name: str) -> bool:
    """True when *name* is the reserved idle pseudo-workload."""
    return name == IDLE_WORKLOAD


_REGISTRY: Dict[str, Workload] = {}
_PROGRAM_CACHE: Dict[Tuple[str, float], Program] = {}
_TRACE_CACHE: Dict[Tuple[str, float], DynamicTrace] = {}


def register(workload: Workload) -> Workload:
    """Add *workload* to the registry (name must be unique)."""
    if is_idle(workload.name):
        raise ValueError(
            f"workload name {IDLE_WORKLOAD!r} is reserved for idle "
            f"multicore slots")
    if workload.name in _REGISTRY:
        raise ValueError(f"workload {workload.name!r} already registered")
    _REGISTRY[workload.name] = workload
    return workload


def workload_names(category: Optional[str] = None) -> List[str]:
    """All registered names, optionally filtered by category."""
    _ensure_loaded()
    if category is None:
        return sorted(_REGISTRY)
    return sorted(name for name, w in _REGISTRY.items()
                  if w.category == category)


def get_workload(name: str) -> Workload:
    """Look up a workload; raises KeyError with suggestions."""
    _ensure_loaded()
    if name not in _REGISTRY:
        if is_idle(name):
            raise KeyError(
                f"{IDLE_WORKLOAD!r} is the reserved idle slot marker, "
                f"not a runnable workload")
        raise KeyError(
            f"unknown workload {name!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[name]


def build_program(name: str, scale: float = 1.0) -> Program:
    """Assemble the workload (cached per (name, scale))."""
    key = (name, scale)
    if key not in _PROGRAM_CACHE:
        workload = get_workload(name)
        source = workload.source_builder(scale)
        _PROGRAM_CACHE[key] = assemble(source, name=name)
    return _PROGRAM_CACHE[key]


def _engine(override: Optional[str] = None) -> str:
    engine = override or os.environ.get(ENGINE_ENV, "compiled") or "compiled"
    engine = engine.strip().lower()
    if engine not in _ENGINES:
        raise ValueError(
            f"unknown execution engine {engine!r}; known: {_ENGINES}")
    return engine


def _verify_exit(name: str, scale: float, trace) -> None:
    workload = get_workload(name)
    if workload.expected_exit is not None:
        expected = workload.expected_exit(scale)
        if trace.exit_code != expected:
            raise AssertionError(
                f"workload {name!r} exited with {trace.exit_code}, "
                f"expected {expected}")


def build_trace(name: str, scale: float = 1.0,
                engine: Optional[str] = None) -> DynamicTrace:
    """Assemble and functionally execute the workload (cached).

    The default ``compiled`` engine runs the closure-compiled executor
    and memoizes the columnar trace through
    :mod:`repro.workloads.trace_cache` (in-memory LRU + shared disk
    tier), so sweeps and service bursts execute each workload
    functionally once.  ``engine="interpreted"`` (or env
    ``REPRO_EXEC_ENGINE=interpreted``) forces the reference
    :class:`~repro.isa.executor.FunctionalExecutor` path.

    Either way the workload's ``expected_exit`` code is verified, so a
    broken kernel fails loudly instead of producing a meaningless
    characterization.
    """
    get_workload(name)  # fail fast on unknown names
    if _engine(engine) == "compiled":
        trace = trace_cache.get(
            name, scale,
            lambda: execute_compiled(build_program(name, scale)))
        _verify_exit(name, scale, trace)
        return trace
    key = (name, scale)
    if key not in _TRACE_CACHE:
        trace = execute(build_program(name, scale))
        _verify_exit(name, scale, trace)
        _TRACE_CACHE[key] = trace
    return _TRACE_CACHE[key]


def clear_caches() -> None:
    """Drop cached programs/traces (mostly for tests)."""
    _PROGRAM_CACHE.clear()
    _TRACE_CACHE.clear()
    trace_cache.clear_memory()


_LOADED = False


def _ensure_loaded() -> None:
    """Import the workload modules so their register() calls run."""
    global _LOADED
    if not _LOADED:
        from . import casestudy, micro, spec  # noqa: F401
        _LOADED = True
