"""Disk-cache tests: cold/warm bit-identity, invalidation hygiene, crash
safety (torn writes, corrupt payloads, stale locks), and concurrent sharing."""

import hashlib
import json
import pickle
import threading
import time

import pytest

from repro.api import DiskArtifactStore, ExperimentSpec, Runner, schema
from repro.api.artifacts import ENTRY_MANIFEST, default_cache_dir
from repro.api.pipeline import ensure_dataset, ensure_snapshot
from repro.core import deredundancy
from repro.kg import save_dataset
from repro.telemetry import scoped


def _tiny_spec():
    spec = ExperimentSpec(
        name="cache-tiny",
        datasets=["WN18RR-like"],
        models=["DistMult"],
        include_amie=False,
    )
    spec.model.dim = 8
    spec.training.epochs = 2
    return spec


def _entry_dirs(store):
    """Real entry directories under the store root (no dot-dirs, no temps)."""
    return sorted(
        child
        for child in store.root.iterdir()
        if child.is_dir() and not child.name.startswith(".")
    )


# ------------------------------------------------------------------ basics
def test_default_cache_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
    assert default_cache_dir() == tmp_path / "elsewhere"


def test_put_get_round_trip_survives_process_restart(tmp_path):
    store = DiskArtifactStore("feedface", cache_dir=tmp_path)
    store.put(("redundancy", "toy"), {"pairs": [1, 2, 3]})
    assert store.stats["write"] == 1

    # A "new process": fresh store over the same directory, empty memory.
    reborn = DiskArtifactStore("feedface", cache_dir=tmp_path)
    assert ("redundancy", "toy") in reborn
    assert reborn[("redundancy", "toy")] == {"pairs": [1, 2, 3]}
    assert reborn.stats == {"hit": 1, "miss": 0, "write": 0, "evict": 0}
    # The second read comes from the in-memory layer: no second hit.
    assert reborn[("redundancy", "toy")] == {"pairs": [1, 2, 3]}
    assert reborn.stats["hit"] == 1


def test_ensure_builds_once_across_store_instances(tmp_path):
    built = []

    def build():
        built.append(1)
        return "value"

    first = DiskArtifactStore("abc", cache_dir=tmp_path)
    assert first.ensure(("categories", "toy"), build) == "value"
    second = DiskArtifactStore("abc", cache_dir=tmp_path)
    assert second.ensure(("categories", "toy"), build) == "value"
    assert built == [1]
    assert second.stats["miss"] == 0


def test_fingerprints_partition_the_cache(tmp_path):
    a = DiskArtifactStore("aaaa", cache_dir=tmp_path)
    b = DiskArtifactStore("bbbb", cache_dir=tmp_path)
    a.put(("categories", "toy"), "A")
    assert ("categories", "toy") not in b
    assert a.root != b.root and a.root.parent == b.root.parent


def test_telemetry_kind_is_ephemeral(tmp_path):
    store = DiskArtifactStore("abc", cache_dir=tmp_path)
    store.put(("telemetry", "trace"), [{"name": "x"}])
    assert store.stats["write"] == 0
    assert _entry_dirs(store) == []
    # Still readable from memory, invisible to a sibling store.
    assert store[("telemetry", "trace")] == [{"name": "x"}]
    assert ("telemetry", "trace") not in DiskArtifactStore("abc", cache_dir=tmp_path)


def test_counters_reach_the_telemetry_facade(tmp_path):
    from repro.telemetry import configure, get_telemetry

    with scoped():
        configure(enabled=True)
        store = DiskArtifactStore("abc", cache_dir=tmp_path)
        store.get(("categories", "toy"))          # miss
        store.put(("categories", "toy"), "v")     # write
        DiskArtifactStore("abc", cache_dir=tmp_path).get(("categories", "toy"))  # hit
        store.drop_dataset("toy")                 # evict
        counters = get_telemetry().snapshot()["counters"]
    assert counters["cache.artifacts.miss"] == 1
    assert counters["cache.artifacts.write"] == 1
    assert counters["cache.artifacts.hit"] == 1
    assert counters["cache.artifacts.evict"] == 1


# ------------------------------------------------------------------ invalidation
def test_drop_dataset_returns_sorted_keys_and_leaves_no_orphans(tmp_path):
    store = DiskArtifactStore("abc", cache_dir=tmp_path)
    for key in [
        ("scorer", "m", "toy"), ("dataset", "toy"), ("redundancy", "toy"),
        ("evaluation", "m", "toy"), ("dataset", "other"), ("snapshot",),
    ]:
        store.put(key, f"payload-{key}")
    dropped = store.drop_dataset("toy")
    assert dropped == sorted(dropped)
    assert dropped == [
        ("dataset", "toy"), ("evaluation", "m", "toy"),
        ("redundancy", "toy"), ("scorer", "m", "toy"),
    ]
    # Only the surviving entries' directories remain on disk — the
    # invalidation left no orphaned directories behind.
    survivors = {store._entry_dir(("dataset", "other")), store._entry_dir(("snapshot",))}
    assert set(_entry_dirs(store)) == survivors
    assert store.keys() == [("dataset", "other"), ("snapshot",)]


def test_drop_dataset_invalidates_other_processes_entries(tmp_path):
    """The generation stamp invalidates entries this store never saw."""
    writer = DiskArtifactStore("abc", cache_dir=tmp_path)
    writer.put(("redundancy", "toy"), "old-analysis")

    invalidator = DiskArtifactStore("abc", cache_dir=tmp_path)
    invalidator.drop_dataset("toy")

    # The writer's memory copy is its own business, but a fresh reader
    # (any process probing the directory) must treat the entry as gone.
    reader = DiskArtifactStore("abc", cache_dir=tmp_path)
    assert ("redundancy", "toy") not in reader
    assert reader.get(("redundancy", "toy"), "rebuilt") == "rebuilt"
    assert reader.stats["miss"] >= 1
    # Re-writing under the new generation makes it servable again.
    reader.put(("redundancy", "toy"), "new-analysis")
    assert DiskArtifactStore("abc", cache_dir=tmp_path)[("redundancy", "toy")] == "new-analysis"


# ------------------------------------------------------------------ crash safety
def test_truncated_payload_is_quarantined_and_rebuilt(tmp_path):
    store = DiskArtifactStore("abc", cache_dir=tmp_path)
    store.put(("categories", "toy"), {"full": "payload"})
    entry = store._entry_dir(("categories", "toy"))
    payload = entry / "payload.pkl"
    payload.write_bytes(payload.read_bytes()[:-7])  # simulate a torn write

    victim = DiskArtifactStore("abc", cache_dir=tmp_path)
    rebuilt = victim.ensure(("categories", "toy"), lambda: {"full": "payload"})
    assert rebuilt == {"full": "payload"}
    assert victim.stats["miss"] == 1 and victim.stats["evict"] == 1
    # The corrupt entry moved to quarantine (evidence kept, never served).
    quarantined = list((victim.root / ".quarantine").iterdir())
    assert len(quarantined) == 1
    # And the rebuilt entry is healthy.
    assert DiskArtifactStore("abc", cache_dir=tmp_path)[("categories", "toy")] == {
        "full": "payload"
    }


def test_manifest_tamper_is_detected_by_sha256(tmp_path):
    store = DiskArtifactStore("abc", cache_dir=tmp_path)
    store.put(("categories", "toy"), "honest")
    entry = store._entry_dir(("categories", "toy"))
    (entry / "payload.pkl").write_bytes(pickle.dumps("tampered"))

    victim = DiskArtifactStore("abc", cache_dir=tmp_path)
    assert victim.get(("categories", "toy"), "fallback") == "fallback"
    assert victim.stats == {"hit": 0, "miss": 1, "write": 0, "evict": 1}


def test_entry_without_manifest_is_a_torn_write(tmp_path):
    store = DiskArtifactStore("abc", cache_dir=tmp_path)
    store.put(("categories", "toy"), "value")
    entry = store._entry_dir(("categories", "toy"))
    (entry / ENTRY_MANIFEST).unlink()

    victim = DiskArtifactStore("abc", cache_dir=tmp_path)
    assert ("categories", "toy") not in victim
    assert victim.get(("categories", "toy"), None) is None
    assert victim.stats["evict"] == 1  # quarantined on sight


def test_leftover_tmp_directories_are_ignored_everywhere(tmp_path):
    store = DiskArtifactStore("abc", cache_dir=tmp_path)
    store.put(("categories", "toy"), "value")
    # A writer killed mid-serialization leaves a .tmp- sibling behind.
    abandoned = store.root / f"{store._entry_name(('categories', 'toy'))}.tmp-999-dead"
    abandoned.mkdir()
    (abandoned / "payload.pkl").write_bytes(b"half a pickle")

    fresh = DiskArtifactStore("abc", cache_dir=tmp_path)
    assert fresh.keys() == [("categories", "toy")]
    assert fresh[("categories", "toy")] == "value"
    assert fresh.drop(lambda key: True) == [("categories", "toy")]


def test_stale_lock_file_does_not_block_anyone(tmp_path):
    """flock evaporates with its holder: a leftover lock file is inert."""
    store = DiskArtifactStore("abc", cache_dir=tmp_path)
    lock_path = store._locks_dir / (store._entry_name(("categories", "toy")) + ".lock")
    lock_path.touch()  # "stale" lock from a dead process
    assert store.ensure(("categories", "toy"), lambda: "built") == "built"
    assert DiskArtifactStore("abc", cache_dir=tmp_path)[("categories", "toy")] == "built"


def test_unknown_manifest_format_is_quarantined(tmp_path):
    store = DiskArtifactStore("abc", cache_dir=tmp_path)
    store.put(("categories", "toy"), "value")
    entry = store._entry_dir(("categories", "toy"))
    manifest = json.loads((entry / ENTRY_MANIFEST).read_text())
    manifest["format"] = "carrier-pigeon"
    (entry / ENTRY_MANIFEST).write_text(json.dumps(manifest))

    victim = DiskArtifactStore("abc", cache_dir=tmp_path)
    assert victim.get(("categories", "toy"), None) is None
    assert victim.stats["evict"] == 1


def test_corrupted_model_artifact_is_quarantined_and_rebuilt(tmp_path):
    """A scorer entry uses the ModelArtifact format; flipping bytes in a
    parameter file must trip its verification, not serve garbage ranks."""
    spec = _tiny_spec()
    runner = Runner(spec, cache_dir=tmp_path)
    runner.run(stages=["train"])
    store = runner.store
    key = ("scorer", "DistMult", "WN18RR-like")
    entry = store._entry_dir(key)
    manifest = json.loads((entry / ENTRY_MANIFEST).read_text())
    assert manifest["format"] == "model-artifact"
    weights = sorted((entry / "model").glob("*.npy"))[0]
    raw = bytearray(weights.read_bytes())
    raw[-64:] = b"\xff" * 64
    weights.write_bytes(bytes(raw))

    victim = Runner(spec, cache_dir=tmp_path)
    report = victim.run(stages=["train"])
    assert victim.store.stats["evict"] >= 1
    assert victim.store.stats["write"] >= 1  # recomputed and re-persisted
    # The rebuilt scorer is healthy and mmap-loadable.
    healthy = Runner(spec, cache_dir=tmp_path)
    healthy.run(stages=["train"])
    assert healthy.store.stats["evict"] == 0


def _source_spec(directory):
    spec = ExperimentSpec(
        name="cache-source",
        datasets=["toy"],
        models=["DistMult"],
        include_amie=False,
        stages=["ingest", "audit", "train", "evaluate", "report"],
    )
    spec.dataset.source = str(directory)
    spec.dataset.source_name = "toy"
    spec.model.dim = 8
    spec.training.epochs = 1
    return spec


def _flip_one_byte(store, key):
    payload = store._entry_dir(key) / "payload.pkl"
    raw = bytearray(payload.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    payload.write_bytes(bytes(raw))


def _name_the_removed_view(store, key):
    """Rewrite ``key`` as an intact entry whose pickle names a class that no
    longer exists, like a dataset cached by the removed fused ingest path."""
    entry = store._entry_dir(key)
    payload = b"crepro.kg.streaming\nArrayDatasetView\n)\x81."
    with pytest.raises(AttributeError, match="ArrayDatasetView"):
        pickle.loads(payload)
    (entry / "payload.pkl").write_bytes(payload)
    manifest = json.loads((entry / ENTRY_MANIFEST).read_text())
    manifest["sha256"] = hashlib.sha256(payload).hexdigest()
    (entry / ENTRY_MANIFEST).write_text(json.dumps(manifest))


@pytest.mark.parametrize(
    "dataset, damage",
    [
        ("source", _flip_one_byte),
        ("replica", _flip_one_byte),
        ("source", _name_the_removed_view),
    ],
    ids=["flipped-source", "flipped-replica", "removed-class-source"],
)
def test_a_dataset_entry_that_fails_to_load_is_rebuilt(tmp_path, toy_dataset, dataset, damage):
    """Membership means the entry loads: a dataset entry with a current
    manifest but a payload that cannot be loaded is quarantined when probed
    and rebuilt, instead of failing the run on ``store[key]``."""
    if dataset == "source":
        spec = _source_spec(save_dataset(toy_dataset, tmp_path / "toy"))
        key = ("dataset", "toy")
    else:
        spec = _tiny_spec()
        key = ("dataset", schema.WN18RR)
    cache = tmp_path / "cache"
    first = Runner(spec, cache_dir=cache).run()
    damage(Runner(spec, cache_dir=cache).store, key)

    victim = Runner(spec, cache_dir=cache)
    second = victim.run()
    assert victim.store.stats["evict"] >= 1
    assert len(list((victim.store.root / ".quarantine").iterdir())) == 1
    assert second.rows == first.rows and second.rows
    assert second.text == first.text
    # The rebuilt entry loads in a fresh process.
    assert key in DiskArtifactStore(victim.store.fingerprint, cache_dir=cache)


def test_a_snapshot_entry_that_fails_to_load_is_rebuilt(tmp_path):
    """The snapshot comes out of the FB15k pair's build; a corrupt snapshot
    entry next to healthy FB15k entries makes that build run again."""
    spec = _tiny_spec()
    original = ensure_snapshot(DiskArtifactStore("snap", cache_dir=tmp_path), spec)
    _flip_one_byte(DiskArtifactStore("snap", cache_dir=tmp_path), ("snapshot",))

    victim = DiskArtifactStore("snap", cache_dir=tmp_path)
    rebuilt = ensure_snapshot(victim, spec)
    assert victim.stats["evict"] == 1
    assert rebuilt.triples == original.triples
    assert rebuilt.reverse_property_pairs == original.reverse_property_pairs
    assert ("snapshot",) in DiskArtifactStore("snap", cache_dir=tmp_path)


def test_cached_ingest_report_does_not_hold_a_second_dataset(tmp_path, fb_tiny):
    from repro.kg import ingest_dataset

    directory = save_dataset(fb_tiny, tmp_path / "fb")
    spec = _source_spec(directory)
    spec.ingest.chunk_size = 64
    runner = Runner(spec, cache_dir=tmp_path / "cache")
    runner.run(stages=["ingest"])

    store = DiskArtifactStore(runner.store.fingerprint, cache_dir=tmp_path / "cache")
    cached = store[("ingest_report", "toy")]
    direct = ingest_dataset(directory, name="toy", chunk_size=64)
    assert cached.dataset is None
    assert cached.chunk_size == direct.chunk_size == 64
    assert cached.total_triples == direct.total_triples
    assert cached.total_chunks == direct.total_chunks
    assert cached.statistics == direct.statistics
    sizes = {
        kind: (store._entry_dir((kind, "toy")) / "payload.pkl").stat().st_size
        for kind in ("ingest_report", "dataset")
    }
    assert sizes["ingest_report"] < 0.05 * sizes["dataset"], sizes


def test_membership_of_an_absent_entry_counts_nothing(tmp_path):
    store = DiskArtifactStore("abc", cache_dir=tmp_path)
    assert ("dataset", "toy") not in store
    assert store.stats == {"hit": 0, "miss": 0, "write": 0, "evict": 0}


# ------------------------------------------------------------------ concurrency
def test_concurrent_ensure_builds_exactly_once(tmp_path):
    builds = []
    barrier = threading.Barrier(4)
    results = []

    def worker():
        store = DiskArtifactStore("abc", cache_dir=tmp_path)

        def build():
            builds.append(threading.get_ident())
            return {"expensive": True}

        barrier.wait()
        results.append(store.ensure(("categories", "toy"), build))

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(builds) == 1  # exactly one of four raced builders computed
    assert all(result == {"expensive": True} for result in results)


def test_runs_racing_on_one_replica_pair_do_not_deadlock(tmp_path, monkeypatch):
    """One run persists WN18-like and derives WN18RR-like while another run
    asks for WN18RR-like first.  Both members of the pair are persisted by
    whichever run builds them, so the two runs must queue behind one lock;
    each holding one member's lock while persisting the other deadlocks."""
    spec = _tiny_spec()
    derive = deredundancy.make_wn18rr_like
    deriving = threading.Event()

    def slow_derive(dataset):
        deriving.set()
        time.sleep(1.0)  # the second run reaches WN18RR-like meanwhile
        return derive(dataset)

    monkeypatch.setattr(deredundancy, "make_wn18rr_like", slow_derive)
    built = {}

    def run(name):
        built[name] = ensure_dataset(DiskArtifactStore("pair", cache_dir=tmp_path), spec, name)

    first = threading.Thread(target=run, args=(schema.WN18,), daemon=True)
    first.start()
    assert deriving.wait(timeout=60)
    second = threading.Thread(target=run, args=(schema.WN18RR,), daemon=True)
    second.start()
    for thread in (first, second):
        thread.join(timeout=30)
    assert not first.is_alive() and not second.is_alive()
    assert built[schema.WN18RR].name == schema.WN18RR


def test_concurrent_runs_share_one_cache_bit_identically(tmp_path):
    """Two full pipeline runs racing on one cache directory both finish,
    produce bit-identical rows, and at least one side reuses shared work."""
    spec = _tiny_spec()
    reports = {}
    errors = []

    def race(slot):
        try:
            with scoped():
                reports[slot] = Runner(spec, cache_dir=tmp_path).run()
        except Exception as error:  # pragma: no cover - failure reporting
            errors.append((slot, error))

    threads = [threading.Thread(target=race, args=(slot,)) for slot in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert reports[0].rows == reports[1].rows
    # A serial run over the same directory replays it all from cache.
    follow_up = Runner(spec, cache_dir=tmp_path)
    replay = follow_up.run()
    assert replay.rows == reports[0].rows
    assert follow_up.store.stats["miss"] == 0
    assert all(stage.produced == [] for stage in replay.stages)


# ------------------------------------------------------------------ pipeline acceptance
def test_cold_and_warm_runs_are_bit_identical_with_zero_recompute(tmp_path):
    spec = _tiny_spec()
    cold_runner = Runner(spec, cache_dir=tmp_path)
    cold = cold_runner.run()
    assert cold_runner.store.stats["write"] > 0

    warm_runner = Runner(spec, cache_dir=tmp_path)
    warm = warm_runner.run()
    # Zero recompute: nothing missed, nothing written, nothing produced.
    assert warm_runner.store.stats["miss"] == 0
    assert warm_runner.store.stats["write"] == 0
    assert all(stage.produced == [] for stage in warm.stages)
    # Bit-identical results, and the traffic is surfaced on the report.
    assert warm.rows == cold.rows
    assert warm.text == cold.text
    assert warm.telemetry["cache"]["miss"] == 0
    assert warm.telemetry["cache"]["hit"] > 0


def test_cache_span_and_counters_land_in_the_trace(tmp_path):
    from repro.telemetry import read_trace_jsonl

    spec = _tiny_spec()
    spec.telemetry.enabled = True
    spec.telemetry.trace_path = str(tmp_path / "run.trace.jsonl")
    with scoped():
        report = Runner(spec, cache_dir=tmp_path / "cache").run()
    assert report.telemetry["cache"]["write"] > 0
    records = read_trace_jsonl(tmp_path / "run.trace.jsonl")
    spans = {record["name"]: record for record in records}
    assert "pipeline.cache" in spans
    attributes = spans["pipeline.cache"]["attrs"]
    assert attributes["write"] == report.telemetry["cache"]["write"]
    assert attributes["miss"] == report.telemetry["cache"]["miss"]
    counters = report.telemetry["metrics"]["counters"]
    assert counters["cache.artifacts.write"] == report.telemetry["cache"]["write"]


def test_scorer_entries_reload_as_mmap_backed_models(tmp_path):
    spec = _tiny_spec()
    Runner(spec, cache_dir=tmp_path).run(stages=["train"])
    warm = Runner(spec, cache_dir=tmp_path)
    warm.run(stages=["train"])
    scorer = warm.store[("scorer", "DistMult", "WN18RR-like")]
    # Reloaded through ModelArtifact: read-only mmap parameters plus the
    # artifact directory pointer sharded evaluation ships to workers.
    assert getattr(scorer, "_artifact_dir", None) is not None
    parameter = next(iter(scorer.parameters().values()))
    assert parameter.data.flags.writeable is False
