"""The serving engine's bounded LRU cache of per-query score rows.

:class:`~repro.serve.engine.QueryEngine` keeps every score row it computes
in a :class:`ScoreCache`: a thread-safe LRU keyed by the query's
``(side, a, b)`` score key, with an eviction bound and hit/miss/eviction
counters so operators can size it from observed traffic.

The cache stores rows by reference; the engine treats them as immutable —
it slices and compares cached rows, it never writes into them.

The counters are mirrored into the global metrics registry as
``cache.serve.hits|misses|evictions|invalidations``.  The telemetry handle
is fetched at each operation (never captured at construction), so counts
land in whatever registry is current, surviving :func:`repro.telemetry.scoped`
swaps.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional

from ..telemetry import get_telemetry

#: Default bound: plenty for the evaluator-shaped workloads (hundreds of
#: unique queries) while capping worst-case residency at ``maxsize`` rows.
DEFAULT_CACHE_ENTRIES = 1024


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of a :class:`ScoreCache`'s counters."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup (0.0 on a cold cache)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "maxsize": self.maxsize,
            "hit_rate": self.hit_rate,
        }


class ScoreCache:
    """Thread-safe bounded LRU with hit/miss/eviction counters.

    ``maxsize=0`` disables storage entirely (every ``get`` is a miss, ``put``
    is a no-op) — callers never need to special-case "caching off".
    """

    def __init__(
        self,
        maxsize: int = DEFAULT_CACHE_ENTRIES,
        version: Optional[str] = None,
    ) -> None:
        self.maxsize = max(0, int(maxsize))
        #: Optional content-version token (e.g. the artifact or dataset
        #: snapshot fingerprint scores were computed against).  It is mixed
        #: into every storage key, so entries cached for one version can
        #: never answer lookups made under another — even through a shared
        #: handle that missed an :meth:`invalidate` call.
        self.version = version
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    def _key(self, key: Hashable) -> Hashable:
        return (self.version, key) if self.version is not None else key

    def invalidate(self, version: Optional[str] = None) -> int:
        """Drop every entry, optionally re-keying the cache to ``version``.

        Call when the scores' source of truth changed — a new model artifact
        was installed, or the served dataset advanced to a new delta
        snapshot.  Returns the number of entries dropped; lifetime counters
        are kept (they describe traffic, not validity).
        """
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            if version is not None:
                self.version = version
            self._invalidations += 1
        self._emit("invalidations")
        return dropped

    def _emit(self, outcome: str, amount: int = 1) -> None:
        """Mirror one counter tick into the current telemetry registry."""
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.counter(f"cache.serve.{outcome}").add(amount)

    # -- core operations ----------------------------------------------------
    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value, refreshed to most-recently-used; None on a miss."""
        key = self._key(key)
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self._misses += 1
                hit = False
            else:
                self._entries.move_to_end(key)
                self._hits += 1
                hit = True
        self._emit("hits" if hit else "misses")
        return value if hit else None

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) an entry, evicting least-recently-used overflow."""
        if self.maxsize == 0:
            return
        key = self._key(key)
        evicted = 0
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1
                evicted += 1
        if evicted:
            self._emit("evictions", evicted)

    # -- bookkeeping --------------------------------------------------------
    def clear(self) -> None:
        """Drop every entry (counters are kept; they describe lifetime traffic)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return self._key(key) in self._entries

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                maxsize=self.maxsize,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.stats
        return (
            f"ScoreCache(size={stats.size}/{stats.maxsize}, hits={stats.hits}, "
            f"misses={stats.misses}, evictions={stats.evictions})"
        )
