"""Outside-in span tracer: times the calls into each layer's public API.

Nothing inside the program is instrumented.  :meth:`Tracer.install`
replaces each public function (or method) named in :data:`LAYERS` with
a wrapper that records one span per call, in every ``repro`` module
that binds it, and :meth:`Tracer.uninstall` puts the originals back.

Self time is attributed by a sweep over the recorded spans: at every
instant, the host time goes to the innermost open spans ("leaves"),
split evenly when several threads have one open at once (the
interpreter lock lets only one of them run).  A span opened on a thread
with no open span of its own is a child of the innermost span open on
the thread that installed the tracer, so the per-core threads of a
multicore scenario nest under ``run_scenario``.  The self times
therefore sum to the time covered by any span, never more than the
traced wall time; the remainder is work outside every listed layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, module, attribute, class or None) of every wrapped entry
#: point.  A function is replaced wherever a ``repro`` module binds it.
LAYERS: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    ("isa.assembler", "repro.workloads.registry", "build_program", None),
    ("isa.compiler", "repro.isa.compiler", "execute_compiled", None),
    ("workloads.registry", "repro.workloads.registry", "build_trace", None),
    ("workloads.trace_cache", "repro.workloads.trace_cache", "get", None),
    ("cores.descriptors", "repro.cores.descriptors", "build_rocket_table", None),
    ("cores.descriptors", "repro.cores.descriptors", "build_boom_table", None),
    ("cores.rocket", "repro.cores.rocket.core", "run", "RocketCore"),
    ("cores.boom", "repro.cores.boom.core", "run", "BoomCore"),
    ("core.tma", "repro.core.tma", "compute_tma", None),
    ("tools.cache.load", "repro.tools.cache", "load", None),
    ("tools.cache.store", "repro.tools.cache", "store", None),
    ("cores.batch", "repro.tools.tma_tool", "run_grid", None),
    ("multicore", "repro.multicore.harness", "run_scenario", None),
    ("service.submit", "repro.service.client", "submit", "ServiceClient"),
    ("service.stream", "repro.service.client", "stream", "ServiceClient"),
)

#: Modules whose import makes every lazily imported binding visible.
_PRELOAD = ("repro.cores.batch", "repro.multicore", "repro.service",
            "repro.tools.tma_tool", "repro.workloads")


@dataclass
class Span:
    layer: str
    thread: int
    start: float
    parent: Optional[int]
    end: float = 0.0
    #: Counts taken from the call's return value.
    notes: Dict[str, float] = field(default_factory=dict)


def _note(layer: str, value: Any) -> Dict[str, float]:
    if layer in ("cores.rocket", "cores.boom"):
        return {"cycles": value.cycles, "instret": value.instret}
    if layer == "isa.compiler":
        return {"instructions": len(value)}
    if layer == "tools.cache.load":
        return {"hit": 1}
    return {}


class Tracer:
    """Records spans around :data:`LAYERS` while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stacks: Dict[int, List[int]] = {}
        self._root = threading.get_ident()
        self._lock = threading.Lock()
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording

    def _open(self, layer: str) -> int:
        thread = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(thread, [])
            if stack:
                parent: Optional[int] = stack[-1]
            else:
                root = self._stacks.get(self._root)
                parent = root[-1] if root else None
            index = len(self.spans)
            self.spans.append(Span(layer, thread, time.perf_counter(), parent))
            stack.append(index)
        return index

    def _close(self, index: int, value: Any = None) -> None:
        end = time.perf_counter()
        with self._lock:
            span = self.spans[index]
            span.end = end
            self._stacks[span.thread].pop()
        # A call that returned None (a cache miss) has nothing to count.
        if value is not None:
            span.notes = _note(span.layer, value)

    def _wrap(self, layer: str, func: Callable) -> Callable:
        if inspect.isgeneratorfunction(func):
            @functools.wraps(func)
            def generator(*args, **kwargs):
                index = self._open(layer)
                try:
                    yield from func(*args, **kwargs)
                finally:
                    self._close(index)
            return generator

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = self._open(layer)
            value = None
            try:
                value = func(*args, **kwargs)
                return value
            finally:
                self._close(index, value)
        return wrapper

    def install(self) -> None:
        """Wrap every entry point of :data:`LAYERS` in every binding."""
        for name in _PRELOAD:
            importlib.import_module(name)
        for layer, module_name, attr, cls in LAYERS:
            module = importlib.import_module(module_name)
            if cls is not None:
                owner = getattr(module, cls)
                self._patch(owner, attr, self._wrap(layer, owner.__dict__[attr]))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(layer, original)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro."):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, key, wrapped)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # attribution

    def self_times(self) -> List[float]:
        """Per-span self time by the leaf-sharing sweep (see module doc)."""
        events = []
        for index, span in enumerate(self.spans):
            events.append((span.start, 1, index))
            events.append((span.end, 0, index))
        events.sort()
        selfs = [0.0] * len(self.spans)
        open_children = [0] * len(self.spans)
        active = [False] * len(self.spans)
        leaves: set = set()
        previous = events[0][0] if events else 0.0
        for moment, opening, index in events:
            if leaves:
                share = (moment - previous) / len(leaves)
                for leaf in leaves:
                    selfs[leaf] += share
            previous = moment
            parent = self.spans[index].parent
            if opening:
                active[index] = True
                leaves.add(index)
                if parent is not None and active[parent]:
                    open_children[parent] += 1
                    leaves.discard(parent)
            else:
                active[index] = False
                leaves.discard(index)
                if parent is not None and active[parent]:
                    open_children[parent] -= 1
                    if open_children[parent] == 0:
                        leaves.add(parent)
        return selfs

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, self and inclusive seconds, summed notes."""
        selfs = self.self_times()
        layers: Dict[str, Dict[str, float]] = {}
        for span, own in zip(self.spans, selfs):
            entry = layers.setdefault(span.layer, {"calls": 0, "self_s": 0.0,
                                                   "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += own
            entry["total_s"] += span.end - span.start
            for key, value in span.notes.items():
                entry[key] = entry.get(key, 0) + value
        return layers

    def inclusive_under(self, layer: str, ancestor: str) -> float:
        """Summed duration of *layer* spans nested under an *ancestor* span."""
        total = 0.0
        for span in self.spans:
            if span.layer != layer:
                continue
            parent = span.parent
            while parent is not None and self.spans[parent].layer != ancestor:
                parent = self.spans[parent].parent
            if parent is not None:
                total += span.end - span.start
        return total
