"""Streamed ingestion must equal the in-memory loader bit-for-bit.

The contract under test: at *any* chunk size, gzipped or not, the
streaming pipeline crystallizes the exact dataset the materializing
loader produces — same vocabulary ids, same triple order, same metadata —
while its incremental statistics and redundancy index match their one-shot
counterparts, and malformed input fails with the same ``path:line`` position.
"""

from __future__ import annotations

import gzip
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    StreamingPairIndexBuilder,
    analyse_redundancy,
    analyse_redundancy_from_pair_sets,
    find_cartesian_relations,
)
from repro.core.redundancy import build_pair_sets
from repro.kg import (
    Dataset,
    DatasetIOError,
    dataset_statistics,
    ingest_dataset,
    load_dataset,
    save_dataset,
    stream_triple_chunks,
    write_triples_tsv,
)

LABELS = [f"n{i}" for i in range(12)]
label = st.sampled_from(LABELS)
labelled_triple = st.tuples(label, label, label)


def write_dataset_dir(directory: Path, train, valid, test, gzipped: bool = False) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    for split, rows in (("train", train), ("valid", valid), ("test", test)):
        plain = directory / f"{split}.txt"
        write_triples_tsv(plain, rows)
        if gzipped:
            data = plain.read_bytes()
            with gzip.open(directory / f"{split}.txt.gz", "wb") as handle:
                handle.write(data)
            plain.unlink()
    return directory


def assert_bit_identical(reference: Dataset, other: Dataset) -> None:
    assert reference.name == other.name
    assert reference.vocab.entities.labels() == other.vocab.entities.labels()
    assert reference.vocab.relations.labels() == other.vocab.relations.labels()
    for split_name, split in reference.splits().items():
        assert split.triples == other.splits()[split_name].triples
    assert reference.metadata == other.metadata


# ------------------------------------------------------------------ property tests
@settings(max_examples=30, deadline=None)
@given(
    train=st.lists(labelled_triple, min_size=1, max_size=40),
    valid=st.lists(labelled_triple, max_size=12),
    test=st.lists(labelled_triple, max_size=12),
    chunk_size=st.integers(min_value=1, max_value=17),
    gzipped=st.booleans(),
)
def test_streamed_dataset_is_bit_identical(train, valid, test, chunk_size, gzipped):
    with tempfile.TemporaryDirectory() as tmp:
        directory = write_dataset_dir(Path(tmp) / "ds", train, valid, test, gzipped=gzipped)
        reference = load_dataset(directory)
        streamed = ingest_dataset(directory, chunk_size=chunk_size).dataset
        assert_bit_identical(reference, streamed)


@settings(max_examples=20, deadline=None)
@given(
    train=st.lists(labelled_triple, min_size=1, max_size=40),
    valid=st.lists(labelled_triple, max_size=12),
    test=st.lists(labelled_triple, max_size=12),
    chunk_size=st.integers(min_value=1, max_value=17),
)
def test_streamed_statistics_and_audit_match_one_shot(train, valid, test, chunk_size):
    with tempfile.TemporaryDirectory() as tmp:
        directory = write_dataset_dir(Path(tmp) / "ds", train, valid, test)
        reference = load_dataset(directory)
        audit = StreamingPairIndexBuilder()
        report = ingest_dataset(directory, chunk_size=chunk_size, observers=(audit.observe,))
        assert report.statistics == dataset_statistics(reference)
        assert audit.report(0.8, 0.8) == analyse_redundancy(reference.all_triples(), 0.8, 0.8)
        assert find_cartesian_relations(pair_sets=audit.pair_sets) == find_cartesian_relations(
            reference.all_triples()
        )


def test_analyse_redundancy_from_pair_sets_matches_triple_path(toy_dataset):
    all_triples = toy_dataset.all_triples()
    pair_sets = build_pair_sets(all_triples)
    from_pairs = analyse_redundancy_from_pair_sets(pair_sets, 0.8, 0.8)
    assert from_pairs == analyse_redundancy(all_triples, 0.8, 0.8)
    assert from_pairs.reverse_pairs  # the toy dataset has a known reverse pair


# ------------------------------------------------------------------ pipeline mechanics
def test_chunk_stream_respects_chunk_size(tmp_path):
    path = tmp_path / "t.txt"
    write_triples_tsv(path, [("a", "r", f"b{i}") for i in range(10)])
    chunks = list(stream_triple_chunks(path, chunk_size=4))
    assert [len(chunk) for chunk in chunks] == [4, 4, 2]
    assert chunks[0][0] == ("a", "r", "b0")


def test_chunk_stream_rejects_degenerate_budget(tmp_path):
    path = tmp_path / "t.txt"
    write_triples_tsv(path, [("a", "r", "b")])
    with pytest.raises(ValueError):
        list(stream_triple_chunks(path, chunk_size=0))


def test_ingest_rejects_degenerate_progress_interval(tmp_path):
    directory = write_dataset_dir(tmp_path / "ds", [("a", "r", "b")], [], [])
    with pytest.raises(ValueError, match="progress_every_chunks"):
        ingest_dataset(directory, progress=lambda p: None, progress_every_chunks=0)


def test_peak_residency_is_bounded_even_with_slow_consumer(tmp_path):
    rows = [(f"h{i}", f"r{i % 3}", f"t{i}") for i in range(600)]
    directory = write_dataset_dir(tmp_path / "ds", rows, [], [])
    release = threading.Event()

    def slow_observer(split, added):
        release.wait(timeout=0.002)  # the parser must not read ahead meanwhile

    chunk_size = 16
    report = ingest_dataset(directory, chunk_size=chunk_size, observers=(slow_observer,))
    assert report.peak_resident_triples <= chunk_size
    assert report.peak_resident_triples < report.total_triples
    assert report.chunk_size == chunk_size
    assert report.total_triples == 600


def test_producer_error_propagates_with_position(tmp_path):
    directory = (tmp_path / "ds")
    directory.mkdir()
    (directory / "train.txt").write_text("a\tr\tb\nbad line\na\tr\tc\n", encoding="utf-8")
    with pytest.raises(DatasetIOError, match=r"train\.txt:2: expected 3 tab-separated fields"):
        ingest_dataset(directory, chunk_size=1)
    with pytest.raises(DatasetIOError, match=r"train\.txt:2: expected 3 tab-separated fields"):
        load_dataset(directory)


def test_gzipped_malformed_line_keeps_position(tmp_path):
    directory = tmp_path / "ds"
    directory.mkdir()
    with gzip.open(directory / "train.txt.gz", "wt", encoding="utf-8") as handle:
        handle.write("a\tr\tb\na\tr\tc\ntoo\tfew\n")
    with pytest.raises(DatasetIOError, match=r"train\.txt\.gz:3:"):
        ingest_dataset(directory)


def test_streaming_empty_train_raises_like_in_memory(tmp_path):
    directory = tmp_path / "ds"
    directory.mkdir()
    (directory / "test.txt").write_text("a\tr\tb\n", encoding="utf-8")
    with pytest.raises(DatasetIOError, match="no training triples"):
        ingest_dataset(directory)
    with pytest.raises(DatasetIOError, match="no training triples"):
        load_dataset(directory)


def test_streaming_missing_directory_raises(tmp_path):
    with pytest.raises(DatasetIOError, match="dataset directory not found"):
        ingest_dataset(tmp_path / "nope")


# ------------------------------------------------------------------ integration
def test_saved_dataset_roundtrips_through_streaming(tmp_path, toy_dataset):
    directory = save_dataset(toy_dataset, tmp_path / "toy")
    reference = load_dataset(directory)
    for chunk_size in (1, 3, 1000):
        assert_bit_identical(reference, ingest_dataset(directory, chunk_size=chunk_size).dataset)
    # metadata (provenance, reverse pairs) must survive the streamed path too
    streamed = ingest_dataset(directory).dataset
    assert streamed.metadata.reverse_property_pairs == [("directed_by", "films_directed")]
    assert streamed.metadata.provenance_of("married_to").symmetric is True

