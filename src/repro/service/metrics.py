"""Live metrics for the analysis service: counters, gauges, histograms.

Deliberately stdlib-only and tiny — the service exposes one JSON
snapshot (``GET /metrics``), so the registry optimises for cheap
thread-safe updates and a self-describing snapshot rather than for a
wire-format ecosystem.

Histograms keep a bounded sample window with deterministic wraparound
replacement (sample ``n`` lands in slot ``n mod capacity``), which
gives exact quantiles until the window wraps and a sliding-window
approximation after — good enough for p50/p95/p99 latency reporting,
with strictly bounded memory no matter how long the service runs.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional


def _percentile(ordered: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted sample list."""
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1,
                      int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


class Histogram:
    """Bounded-window latency histogram with p50/p95/p99 snapshots."""

    def __init__(self, capacity: int = 2048) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._window: List[float] = []

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if len(self._window) < self.capacity:
            self._window.append(value)
        else:
            self._window[(self.count - 1) % self.capacity] = value

    def snapshot(self) -> Dict[str, Any]:
        ordered = sorted(self._window)
        return {
            "count": self.count,
            "mean": round(self.total / self.count, 6) if self.count else 0.0,
            "min": round(self.min, 6) if self.min is not None else 0.0,
            "max": round(self.max, 6) if self.max is not None else 0.0,
            "p50": round(_percentile(ordered, 0.50), 6),
            "p95": round(_percentile(ordered, 0.95), 6),
            "p99": round(_percentile(ordered, 0.99), 6),
        }


class MetricsRegistry:
    """Thread-safe named counters, gauges, and histograms."""

    def __init__(self, histogram_capacity: int = 2048) -> None:
        self._lock = threading.Lock()
        self._histogram_capacity = histogram_capacity
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def gauge(self, name: str) -> float:
        with self._lock:
            return self._gauges.get(name, 0.0)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = Histogram(self._histogram_capacity)
                self._histograms[name] = histogram
            histogram.observe(value)

    def histogram_mean(self, name: str) -> float:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None or not histogram.count:
                return 0.0
            return histogram.total / histogram.count

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "gauges": {k: round(v, 6)
                           for k, v in sorted(self._gauges.items())},
                "histograms": {name: histogram.snapshot()
                               for name, histogram
                               in sorted(self._histograms.items())},
            }

