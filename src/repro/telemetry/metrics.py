"""Counters, gauges and fixed-bucket histograms with an exact, order-free merge.

The registry is the single sink for every operational series in the stack:
ingest chunk throughput and residency, training rows-touched and
epoch timings, per-shard evaluation counts, serving queue delay and cache hit
ratios.  Three design constraints shape it:

* **cheap enough to leave on** — every operation is a dict lookup plus an
  integer (or float compare) update under a lock; histograms never store
  samples, only bucket counts, so p50/p95/p99 come from O(buckets) state;
* **picklable/mergeable** — evaluation pool workers snapshot their registry
  and ship the snapshot (a plain JSON-safe dict) back to the parent, which
  folds it in with :meth:`MetricsRegistry.merge_snapshot`;
* **deterministic merging** — folding per-worker snapshots in *any* order
  yields bit-identical state.  Integer counts, ``min``/``max`` and bucket
  tallies are trivially order-free; the one subtle case is a histogram's
  running *sum* of float observations, where IEEE addition is not
  associative.  The sum is therefore carried as an exact
  :class:`fractions.Fraction` (every binary64 float is exactly a fraction,
  and fraction addition is associative), serialized in snapshots as an
  ``[numerator, denominator]`` integer pair; the float ``sum`` in a snapshot
  is derived from the exact value at read time.

Like every ``repro.telemetry`` module this one is dependency-free (stdlib
only) so it can be imported from worker processes, benchmarks and the CLI
without dragging in numpy or the model zoo.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "OCCUPANCY_BUCKETS",
    "SIZE_BUCKETS",
]

#: Default upper bucket edges (seconds) for latency/duration histograms:
#: 100µs .. 60s in a coarse exponential ladder.  Durations above the last
#: edge land in the overflow bucket, whose percentile reports the observed max.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Upper edges for 0..1 ratios (batch occupancy, hit rates).
OCCUPANCY_BUCKETS: Tuple[float, ...] = (
    0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
)

#: Upper edges for cardinalities (batch sizes, queue depths, row counts).
SIZE_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0,
    1024.0, 4096.0, 16384.0, 65536.0,
)


class Counter:
    """A monotonically increasing integer count of events."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def add(self, amount: int = 1) -> None:
        amount = int(amount)
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def snapshot(self) -> int:
        return self.value

    def merge_snapshot(self, value: int) -> None:
        self.add(int(value))


class Gauge:
    """A point-in-time value with a running peak.

    Merging per-worker gauges cannot preserve "last set" (there is no global
    order between workers), so a merged gauge's ``value`` is defined as the
    max over the merged values — commutative and associative, hence
    order-free, and the natural reading for the gauges we export (peak
    residency).
    """

    __slots__ = ("name", "_value", "_max", "_updates", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._max = -math.inf
        self._updates = 0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._value = value
            if value > self._max:
                self._max = value
            self._updates += 1

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            return {
                "value": self._value,
                "max": self._max if self._updates else 0.0,
                "updates": self._updates,
            }

    def merge_snapshot(self, other: Dict[str, float]) -> None:
        with self._lock:
            incoming = int(other["updates"])
            if incoming:
                if self._updates:
                    self._value = max(self._value, float(other["value"]))
                else:
                    self._value = float(other["value"])
                self._max = max(self._max, float(other["max"]))
                self._updates += incoming


class Histogram:
    """Fixed-bucket histogram: percentiles without storing samples.

    ``bounds`` are ascending *upper* edges (inclusive); one implicit overflow
    bucket catches everything above the last edge.  A reported percentile is
    the upper edge of the bucket containing that rank (clamped to the
    observed ``[min, max]``), i.e. a guaranteed upper bound at bucket
    resolution — the standard fixed-bucket estimator.
    """

    __slots__ = ("name", "bounds", "_counts", "_count", "_min", "_max", "_sum", "_lock")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_TIME_BUCKETS) -> None:
        edges = tuple(float(edge) for edge in bounds)
        if not edges or any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError(f"histogram bounds must be non-empty and ascending: {bounds!r}")
        self.name = name
        self.bounds = edges
        self._counts = [0] * (len(edges) + 1)
        self._count = 0
        self._min = math.inf
        self._max = -math.inf
        self._sum = Fraction(0)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            self._sum += Fraction(value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def _percentile(self, quantile: float) -> Optional[float]:
        # Callers hold the lock.
        if self._count == 0:
            return None
        rank = max(1, math.ceil(quantile * self._count))
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            cumulative += bucket_count
            if cumulative >= rank:
                edge = self.bounds[index] if index < len(self.bounds) else self._max
                return min(max(edge, self._min), self._max)
        return self._max  # pragma: no cover - counts always sum to _count

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            exact = self._sum
            return {
                "bounds": list(self.bounds),
                "counts": list(self._counts),
                "count": self._count,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
                "sum": float(exact),
                "sum_exact": [exact.numerator, exact.denominator],
                "mean": float(exact / self._count) if self._count else None,
                "p50": self._percentile(0.50),
                "p95": self._percentile(0.95),
                "p99": self._percentile(0.99),
            }

    def merge_snapshot(self, other: Dict[str, Any]) -> None:
        edges = tuple(float(edge) for edge in other["bounds"])
        if edges != self.bounds:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bounds differ "
                f"({edges!r} != {self.bounds!r})"
            )
        with self._lock:
            for index, bucket_count in enumerate(other["counts"]):
                self._counts[index] += int(bucket_count)
            incoming = int(other["count"])
            self._count += incoming
            if incoming:
                self._min = min(self._min, float(other["min"]))
                self._max = max(self._max, float(other["max"]))
                numerator, denominator = other["sum_exact"]
                self._sum += Fraction(int(numerator), int(denominator))


class MetricsRegistry:
    """Name-keyed home of every live metric; snapshots are plain dicts.

    Metric creation is idempotent (``counter("x")`` twice returns the same
    object) and kind-checked (a name registered as a counter cannot come back
    as a gauge).  :meth:`snapshot` emits a JSON-safe dict;
    :meth:`merge_snapshot` folds such a dict back in, creating missing
    metrics on the fly — the parent side of the evaluation pool's
    per-worker merge.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, kind, factory):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise TypeError(
                    f"metric {name!r} is a {type(metric).__name__}, not a {kind.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str, bounds: Sequence[float] = DEFAULT_TIME_BUCKETS) -> Histogram:
        return self._get(name, Histogram, lambda: Histogram(name, bounds))

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """``{"counters": {...}, "gauges": {...}, "histograms": {...}}``, sorted."""
        with self._lock:
            metrics = dict(self._metrics)
        out: Dict[str, Dict[str, Any]] = {"counters": {}, "gauges": {}, "histograms": {}}
        for name in sorted(metrics):
            metric = metrics[name]
            if isinstance(metric, Counter):
                out["counters"][name] = metric.snapshot()
            elif isinstance(metric, Gauge):
                out["gauges"][name] = metric.snapshot()
            else:
                out["histograms"][name] = metric.snapshot()
        return out

    def merge_snapshot(self, snapshot: Dict[str, Dict[str, Any]]) -> None:
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).merge_snapshot(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).merge_snapshot(value)
        for name, value in snapshot.get("histograms", {}).items():
            self.histogram(name, bounds=value["bounds"]).merge_snapshot(value)

    # -- pickling -----------------------------------------------------------
    # The registry itself rarely crosses process boundaries (snapshots do),
    # but objects owning one must stay picklable; locks are recreated.
    def __getstate__(self) -> Dict[str, Any]:
        return {"snapshot": self.snapshot()}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self._metrics = {}
        self._lock = threading.Lock()
        self.merge_snapshot(state["snapshot"])
