"""Tests for dataset statistics, negative sampling and TSV dataset IO."""

import numpy as np
import pytest

from repro.core import find_cartesian_relations, relation_cardinality
from repro.kg import (
    BernoulliNegativeSampler,
    DatasetIOError,
    TripleSet,
    UniformNegativeSampler,
    dataset_statistics,
    load_dataset,
    read_triples_tsv,
    relation_frequency_share,
    save_dataset,
    write_triples_tsv,
)


# ---------------------------------------------------------------------------- statistics
def test_dataset_statistics_counts_present_entities(toy_dataset):
    stats = dataset_statistics(toy_dataset)
    assert stats.num_entities == 8
    assert stats.num_relations == 4
    assert stats.num_train == 12
    row = stats.as_row()
    assert row["Dataset"] == "toy"
    assert row["#test"] == 2


def test_relation_profile_density():
    ts = TripleSet([(0, 0, 10), (0, 0, 11), (1, 0, 10), (1, 0, 11)])
    assert relation_cardinality(ts, 0).tails_per_head == pytest.approx(2.0)
    [grid] = find_cartesian_relations(ts)
    assert grid.num_subjects == 2
    assert grid.num_objects == 2
    assert grid.density == pytest.approx(1.0)


def test_relation_frequency_share():
    ts = TripleSet([(0, 0, 1), (1, 0, 2), (2, 0, 3), (0, 1, 1)])
    assert relation_frequency_share(ts, top_k=1) == pytest.approx(0.75)
    assert relation_frequency_share(TripleSet()) == 0.0


# ---------------------------------------------------------------------------- sampling
@pytest.mark.parametrize("sampler_class", [UniformNegativeSampler, BernoulliNegativeSampler])
def test_negative_sampler_shapes_and_corruption(sampler_class, toy_dataset):
    sampler = sampler_class(
        toy_dataset.train, toy_dataset.num_entities, rng=np.random.default_rng(0)
    )
    positives = toy_dataset.train.to_array()
    negatives, positive_index = sampler.sample(positives, num_negatives=3)
    assert negatives.shape == (len(positives) * 3, 3)
    assert positive_index.shape == (len(positives) * 3,)
    # Each negative keeps the relation and alters at most one of head / tail
    # (the random replacement may coincidentally pick the original entity).
    for row, index in zip(negatives, positive_index):
        pos = positives[index]
        assert row[1] == pos[1]
        assert not (row[0] != pos[0] and row[2] != pos[2])


def test_filtered_sampler_avoids_training_triples(toy_dataset):
    sampler = UniformNegativeSampler(
        toy_dataset.train, toy_dataset.num_entities, rng=np.random.default_rng(1), filtered=True
    )
    positives = toy_dataset.train.to_array()
    negatives, _ = sampler.sample(positives, num_negatives=4)
    known = toy_dataset.train.as_set()
    clashes = sum(1 for row in negatives if tuple(row) in known)
    # Resampling is best-effort; with 8 entities the clash rate must still be tiny.
    assert clashes <= len(negatives) * 0.1


def test_bernoulli_probabilities_reflect_cardinality(toy_dataset):
    sampler = BernoulliNegativeSampler(
        toy_dataset.train, toy_dataset.num_entities, rng=np.random.default_rng(2)
    )
    born_in = toy_dataset.relation_id("born_in")
    # born_in is n-to-1: the Bernoulli scheme prefers corrupting the *tail*
    # (fewer false negatives), so the head-corruption probability is below 0.5.
    assert sampler._head_probability[born_in] < 0.5


def test_sampler_rejects_degenerate_entity_count(toy_dataset):
    with pytest.raises(ValueError):
        UniformNegativeSampler(toy_dataset.train, num_entities=1)


def test_sampler_rejects_bad_positive_shape(toy_dataset):
    sampler = UniformNegativeSampler(toy_dataset.train, toy_dataset.num_entities)
    with pytest.raises(ValueError):
        sampler.sample(np.zeros((3, 2), dtype=np.int64))


# ---------------------------------------------------------------------------- io
def test_tsv_roundtrip(tmp_path):
    rows = [("a", "r", "b"), ("b", "r", "c")]
    path = tmp_path / "triples.txt"
    assert write_triples_tsv(path, rows) == 2
    assert list(read_triples_tsv(path)) == rows


def test_read_missing_file_raises(tmp_path):
    with pytest.raises(DatasetIOError):
        list(read_triples_tsv(tmp_path / "missing.txt"))


def test_read_malformed_line_raises(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("a\tb\n", encoding="utf-8")
    with pytest.raises(DatasetIOError):
        list(read_triples_tsv(path))


def test_read_tolerates_crlf_line_endings(tmp_path):
    """Windows-edited TSVs must not leak a trailing ``\\r`` into the tail label."""
    path = tmp_path / "crlf.txt"
    path.write_bytes(b"a\tr\tb\r\nb\tr\tc\r\n\r\nc\tr\td")
    assert list(read_triples_tsv(path)) == [("a", "r", "b"), ("b", "r", "c"), ("c", "r", "d")]


def test_read_gzipped_tsv_auto_detects(tmp_path):
    import gzip

    path = tmp_path / "triples.txt.gz"
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        handle.write("a\tr\tb\nb\tr\tc\n")
    assert list(read_triples_tsv(path)) == [("a", "r", "b"), ("b", "r", "c")]


def test_save_and_load_dataset_roundtrip(tmp_path, toy_dataset):
    directory = save_dataset(toy_dataset, tmp_path / "toy")
    loaded = load_dataset(directory)
    assert loaded.name == "toy"
    assert dataset_statistics(loaded).as_row() == dataset_statistics(toy_dataset).as_row()
    # Metadata (provenance and reverse_property pairs) must survive the roundtrip.
    assert loaded.metadata.reverse_property_pairs == [("directed_by", "films_directed")]
    assert loaded.metadata.provenance_of("married_to").symmetric is True
    # Triple contents must match label-wise.
    original = {toy_dataset.vocab.decode_triple(t) for t in toy_dataset.train}
    reloaded = {loaded.vocab.decode_triple(t) for t in loaded.train}
    assert original == reloaded


def test_load_missing_directory_raises(tmp_path):
    with pytest.raises(DatasetIOError):
        load_dataset(tmp_path / "nope")


def test_load_requires_training_file(tmp_path):
    directory = tmp_path / "incomplete"
    directory.mkdir()
    (directory / "test.txt").write_text("a\tr\tb\n", encoding="utf-8")
    with pytest.raises(DatasetIOError):
        load_dataset(directory)
