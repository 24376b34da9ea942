"""The ``[deltas]`` spec section end to end: validation, fingerprinting,
snapshot pinning through the artifact cache, downstream invalidation,
size-bounded LRU eviction, and the ``repro-kgc delta`` CLI."""

import json

import pytest

from repro.api import DiskArtifactStore, ExperimentSpec, Runner
from repro.api.spec import SpecValidationError
from repro.cli import main
from repro.core.baselines import SimpleRuleModel
from repro.kg import DeltaBatch, DeltaLog
from repro.kg.io import write_triples_tsv
from repro.serve import QueryEngine


def _tiny_spec(**deltas):
    spec = ExperimentSpec(
        name="deltas-tiny",
        datasets=["WN18RR-like"],
        models=["DistMult"],
        include_amie=False,
    )
    spec.model.dim = 8
    spec.training.epochs = 2
    for key, value in deltas.items():
        setattr(spec.deltas, key, value)
    return spec


def _log_with(tmp_path, *batches):
    log = DeltaLog(tmp_path / "updates.jsonl")
    for batch in batches:
        log.append(batch)
    return log


# ------------------------------------------------------------------ spec layer
def test_as_of_without_log_is_rejected():
    spec = _tiny_spec(as_of=0)
    with pytest.raises(SpecValidationError, match="deltas.log"):
        Runner(spec)


def test_deltas_are_part_of_the_spec_fingerprint(tmp_path):
    base = _tiny_spec()
    logged = _tiny_spec(log=str(tmp_path / "updates.jsonl"))
    pinned = _tiny_spec(log=str(tmp_path / "updates.jsonl"), as_of=3)
    prints = {base.fingerprint(), logged.fingerprint(), pinned.fingerprint()}
    assert len(prints) == 3  # pinning a different state names different artifacts


def test_deltas_round_trip_through_to_dict():
    spec = _tiny_spec(log="updates.jsonl", as_of=2)
    data = spec.to_dict()
    assert data["deltas"] == {"log": "updates.jsonl", "as_of": 2}


# ------------------------------------------------------------------ pipeline
def test_runner_applies_log_and_pins_historical_states(tmp_path):
    log = _log_with(
        tmp_path,
        DeltaBatch(adds={"train": [("dx", "dr", "dy")]}),
        DeltaBatch(adds={"train": [("dy", "dr", "dz")]}),
    )
    full = Runner(_tiny_spec(log=str(log.path)))
    full.run(stages=["audit"])
    dataset = full.store[("dataset", "WN18RR-like")]
    assert dataset.metadata.notes["delta_seq"] == "1"
    assert "dx" in dataset.vocab.entities and "dz" in dataset.vocab.entities

    pinned = Runner(_tiny_spec(log=str(log.path), as_of=0))
    pinned.run(stages=["audit"])
    historical = pinned.store[("dataset", "WN18RR-like")]
    assert historical.metadata.notes["delta_seq"] == "0"
    assert "dx" in historical.vocab.entities
    assert "dz" not in historical.vocab.entities


def test_pinned_run_reproduces_from_disk_cache(tmp_path):
    log = _log_with(tmp_path, DeltaBatch(adds={"train": [("dx", "dr", "dy")]}))
    spec = _tiny_spec(log=str(log.path))
    cache_dir = tmp_path / "cache"
    first = Runner(spec, cache_dir=cache_dir)
    first.run(stages=["audit"])
    assert first.store.stats["write"] > 1

    second = Runner(spec, cache_dir=cache_dir)
    second.run(stages=["audit"])
    stats = second.store.stats
    assert stats["miss"] == 0 and stats["hit"] > 0
    # The only write a fully cached run performs is the delta-log summary.
    assert stats["write"] <= 1
    assert second.store[("dataset", "WN18RR-like")].metadata.notes["delta_seq"] == "0"


def test_log_growth_invalidates_downstream_audit_artifacts(tmp_path):
    forward = [("p1", "fwd", "q1"), ("p2", "fwd", "q2"), ("p3", "fwd", "q3")]
    log = _log_with(tmp_path, DeltaBatch(adds={"train": forward}))
    spec = _tiny_spec(log=str(log.path))
    cache_dir = tmp_path / "cache"
    first = Runner(spec, cache_dir=cache_dir)
    first.run(stages=["audit"])
    before = first.store[("redundancy", "WN18RR-like")]
    vocab = first.store[("dataset", "WN18RR-like")].vocab
    assert "bwd" not in vocab.relations

    # The log grows: a perfect reverse shadow of every "fwd" pair.
    log.append(DeltaBatch(adds={"train": [(t, "bwd", h) for h, _, t in forward]}))
    second = Runner(spec, cache_dir=cache_dir)
    second.run(stages=["audit"])
    dataset = second.store[("dataset", "WN18RR-like")]
    assert dataset.metadata.notes["delta_seq"] == "1"
    after = second.store[("redundancy", "WN18RR-like")]
    fwd = dataset.vocab.relation_id("fwd")
    bwd = dataset.vocab.relation_id("bwd")
    reversed_pairs = {
        tuple(sorted((o.relation_a, o.relation_b))) for o in after.reverse_pairs
    }
    assert tuple(sorted((fwd, bwd))) in reversed_pairs
    # The stale report (computed before the reverse shadows existed) was
    # dropped by the snapshot registration, not served from cache.
    old_pairs = {
        tuple(sorted((o.relation_a, o.relation_b))) for o in before.reverse_pairs
    }
    assert tuple(sorted((fwd, bwd))) not in old_pairs


# ------------------------------------------------------------------ LRU eviction
def test_disk_store_evicts_least_recently_used_partition(tmp_path):
    import os

    payload = "x" * 5000
    a = DiskArtifactStore("aaaa0000", cache_dir=tmp_path)
    a.put(("categories", "toy"), payload)
    b = DiskArtifactStore("bbbb0000", cache_dir=tmp_path)
    b.put(("categories", "toy"), payload)
    # The stamps decide the LRU order; same-instant touches can tie on
    # coarse-mtime filesystems, so pin them: B is clearly the least recent.
    now = os.stat(tmp_path / "aaaa0000" / ".last_used").st_mtime
    os.utime(tmp_path / "bbbb0000" / ".last_used", (now - 100, now - 100))

    c = DiskArtifactStore("cccc0000", cache_dir=tmp_path, max_bytes=13_000)
    c.put(("categories", "toy"), payload)
    assert not (tmp_path / "bbbb0000").exists()
    assert (tmp_path / "aaaa0000").exists()
    assert (tmp_path / "cccc0000").exists()
    assert c.stats["evict"] >= 1


def test_disk_store_never_evicts_its_own_partition(tmp_path):
    store = DiskArtifactStore("feedface", cache_dir=tmp_path, max_bytes=1)
    store.put(("categories", "toy"), "y" * 5000)
    # Budget of one byte: everything else would go, but the in-use partition
    # must survive its own writes.
    assert (tmp_path / "feedface").exists()
    assert store[("categories", "toy")] == "y" * 5000


def test_unbounded_store_never_evicts(tmp_path):
    for name in ("aaaa1111", "bbbb1111"):
        store = DiskArtifactStore(name, cache_dir=tmp_path)
        store.put(("categories", "toy"), "z" * 5000)
        assert store.stats["evict"] == 0
    assert (tmp_path / "aaaa1111").exists() and (tmp_path / "bbbb1111").exists()


# ------------------------------------------------------------------ serving
def test_engine_cache_keys_to_the_delta_snapshot():
    from repro.kg import LiveDatasetMaintainer
    from repro.kg.streaming import StreamingDatasetBuilder

    builder = StreamingDatasetBuilder("serve-deltas")
    builder.add_chunk("train", [("a", "r", "b"), ("b", "r", "c"), ("c", "r", "a")])
    builder.add_chunk("valid", [("a", "r", "c")])
    builder.add_chunk("test", [("b", "r", "a")])
    maintainer = LiveDatasetMaintainer.from_dataset(builder.build())
    maintainer.apply(DeltaBatch(adds={"train": [("c", "r", "b")]}))
    dataset = maintainer.canonical_dataset()
    scorer = SimpleRuleModel(dataset.train, dataset.num_entities, threshold=0.5)
    engine = QueryEngine.for_dataset(scorer, dataset, max_batch=4)
    assert engine.cache.version == dataset.metadata.notes["delta_state"]
    engine.cache.put("row", [1.0])
    assert engine.invalidate("advanced") == 1
    assert engine.cache.version == "advanced"
    assert engine.cache.get("row") is None


# ------------------------------------------------------------------ CLI
SOURCE_ROWS = {
    "train": [
        ("a", "likes", "b"),
        ("b", "likes", "c"),
        ("a", "knows", "c"),
        ("c", "likes", "a"),
        ("d", "knows", "a"),
    ],
    "valid": [("a", "likes", "c"), ("d", "likes", "b")],
    "test": [("b", "knows", "a"), ("c", "knows", "d")],
}


def _source_dir(tmp_path):
    directory = tmp_path / "source"
    for split, rows in SOURCE_ROWS.items():
        write_triples_tsv(directory / f"{split}.txt", rows)
    return directory


def test_cli_delta_apply_exports_the_resulting_state(tmp_path, capsys):
    source = _source_dir(tmp_path)
    log = _log_with(
        tmp_path,
        DeltaBatch(adds={"train": [("e", "likes", "a")]}),
        DeltaBatch(removes={"train": [("a", "likes", "b")]}),
    )
    output = tmp_path / "state"
    rc = main(
        [
            "delta", "apply",
            "--dataset", str(source),
            "--log", str(log.path),
            "--output", str(output),
        ]
    )
    assert rc == 0
    exported = (output / "train.txt").read_text().splitlines()
    assert "e\tlikes\ta" in exported
    assert "a\tlikes\tb" not in exported
    out = capsys.readouterr().out
    assert "last applied seq" in out and "1" in out

    # --as-of pins the historical state: the removal never happens.
    pinned = tmp_path / "state0"
    rc = main(
        [
            "delta", "apply",
            "--dataset", str(source),
            "--log", str(log.path),
            "--as-of", "0",
            "--output", str(pinned),
        ]
    )
    assert rc == 0
    assert "a\tlikes\tb" in (pinned / "train.txt").read_text().splitlines()


def test_cli_delta_log_summarizes_and_rejects_corruption(tmp_path, capsys):
    log = _log_with(tmp_path, DeltaBatch(adds={"train": [("x", "r", "y")]}))
    assert main(["delta", "log", str(log.path)]) == 0
    out = capsys.readouterr().out
    assert "batches" in out and "chain fingerprint" in out

    corrupt = tmp_path / "corrupt.jsonl"
    corrupt.write_text('{"seq": 3, "adds": {}}\n')
    with pytest.raises(SystemExit, match="expected sequence 0"):
        main(["delta", "log", str(corrupt)])


def test_cli_delta_audit_check_verifies_against_reingest(tmp_path):
    source = _source_dir(tmp_path)
    log = _log_with(
        tmp_path,
        DeltaBatch(
            adds={"train": [("e", "likes", "a"), ("a", "likes", "e")]},
            removes={"valid": [("d", "likes", "b")]},
        ),
    )
    report_path = tmp_path / "audit.json"
    rc = main(
        [
            "delta", "audit",
            "--dataset", str(source),
            "--log", str(log.path),
            "--check",
            "--json", str(report_path),
        ]
    )
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["last_seq"] == 0
    assert set(report) >= {"state", "statistics", "redundancy", "leakage", "filters"}


def test_cli_delta_apply_rejects_missing_log(tmp_path):
    with pytest.raises(SystemExit):
        main(
            [
                "delta", "apply",
                "--dataset", str(_source_dir(tmp_path)),
                "--log", str(tmp_path / "nope.jsonl"),
                "--as-of", "0",
            ]
        )
