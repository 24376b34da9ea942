"""The serving engine's bounded LRU score cache: semantics, counters, versions."""

import threading

import numpy as np

from repro.serve import ScoreCache


def test_get_miss_then_put_then_hit_counts():
    cache = ScoreCache(maxsize=4)
    assert cache.get(("tail", 1, 2)) is None
    cache.put(("tail", 1, 2), np.arange(3))
    value = cache.get(("tail", 1, 2))
    assert np.array_equal(value, np.arange(3))
    stats = cache.stats
    assert (stats.hits, stats.misses, stats.evictions) == (1, 1, 0)
    assert stats.size == 1 and stats.maxsize == 4
    assert stats.lookups == 2 and stats.hit_rate == 0.5


def test_eviction_is_least_recently_used_and_counted():
    cache = ScoreCache(maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1          # refresh "a": "b" is now LRU
    cache.put("c", 3)
    assert "b" not in cache
    assert "a" in cache and "c" in cache
    assert cache.stats.evictions == 1
    assert len(cache) == 2


def test_put_refreshes_existing_key_without_eviction():
    cache = ScoreCache(maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)                  # refresh, not insert
    assert cache.stats.evictions == 0
    cache.put("c", 3)                   # evicts "b", the stale entry
    assert "a" in cache and cache.get("a") == 10
    assert "b" not in cache


def test_maxsize_zero_disables_storage_entirely():
    cache = ScoreCache(maxsize=0)
    cache.put("a", 1)
    assert cache.get("a") is None
    assert cache.get("a") is None       # every lookup stays a miss
    assert len(cache) == 0
    stats = cache.stats
    assert stats.misses == 2 and stats.hits == 0 and stats.evictions == 0


def test_clear_drops_entries_but_keeps_lifetime_counters():
    cache = ScoreCache(maxsize=4)
    cache.put("a", 1)
    cache.get("a")
    cache.clear()
    assert len(cache) == 0
    assert cache.stats.hits == 1


def test_concurrent_access_is_safe():
    cache = ScoreCache(maxsize=16)
    errors = []

    def worker(offset):
        try:
            for i in range(200):
                cache.put((offset, i % 20), i)
                cache.get((offset, (i + 3) % 20))
        except Exception as error:  # pragma: no cover - only on race bugs
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    stats = cache.stats
    assert stats.lookups == 4 * 200
    assert len(cache) <= 16


# ------------------------------------------------------------------ versioning
def test_version_partitions_the_key_space():
    cache = ScoreCache(maxsize=4, version="v1")
    cache.put(("tail", 1, 2), 1)
    assert cache.get(("tail", 1, 2)) == 1
    assert ("tail", 1, 2) in cache
    cache.version = "v2"  # the same handle after the source of truth moved
    assert cache.get(("tail", 1, 2)) is None
    assert ("tail", 1, 2) not in cache
    cache.version = "v1"
    assert cache.get(("tail", 1, 2)) == 1


def test_invalidate_drops_entries_and_rekeys():
    cache = ScoreCache(maxsize=4, version="v1")
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.invalidate("v2") == 2
    assert len(cache) == 0
    assert cache.version == "v2"
    cache.put("a", 3)
    assert cache.get("a") == 3
    # Invalidation without a new version just clears under the same key space.
    assert cache.invalidate() == 1
    assert cache.version == "v2" and len(cache) == 0
