"""Fused stream-to-shard ingestion must equal the materialized path bit-for-bit.

The contract: ``ingest_dataset(..., fused=True)`` yields an
:class:`~repro.kg.streaming.ArrayDatasetView` whose vocabulary, splits, audit
and filtered-evaluation indexes — and everything trained or evaluated on top
of them — are bit-identical to the plain :class:`~repro.kg.dataset.Dataset`
path, while the ingest never materializes the indexed triple sets.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core import (
    analyse_leakage,
    analyse_redundancy,
    dataset_relation_categories,
)
from repro.eval import LinkPredictionEvaluator, evaluate_model
from repro.kg import ingest_dataset, save_dataset
from repro.kg.known_index import KnownTripleIndex
from repro.kg.streaming import ArrayDatasetView, ArraySplitView
from repro.models import ModelConfig, TrainingConfig, TrainingRun, make_model


@pytest.fixture()
def toy_dir(tmp_path, toy_dataset):
    return save_dataset(toy_dataset, tmp_path / "toy")


@pytest.fixture()
def fused_report(toy_dir):
    return ingest_dataset(toy_dir, chunk_size=4, fused=True)


@pytest.fixture()
def plain_report(toy_dir):
    return ingest_dataset(toy_dir, chunk_size=4, fused=False)


# ------------------------------------------------------------------ structure
def test_fused_view_matches_materialized_dataset(fused_report, plain_report):
    fused, plain = fused_report.dataset, plain_report.dataset
    assert isinstance(fused, ArrayDatasetView)
    assert not isinstance(plain, ArrayDatasetView)
    assert fused.name == plain.name
    assert fused.num_entities == plain.num_entities
    assert fused.num_relations == plain.num_relations
    assert fused.vocab.entities.labels() == plain.vocab.entities.labels()
    assert fused.vocab.relations.labels() == plain.vocab.relations.labels()
    for split_name, split in plain.splits().items():
        view = fused.splits()[split_name]
        assert isinstance(view, ArraySplitView)
        assert len(view) == len(split)
        assert list(view) == list(split)           # same triples, same order
        assert view.as_set() == split.as_set()
        assert np.array_equal(view.to_array(), split.to_array())
        assert view.relations == split.relations
    assert fused.known_triples() == plain.known_triples()
    assert fused.test_relations() == plain.test_relations()
    assert list(fused.all_triples()) == list(plain.all_triples())
    assert fused_report.statistics.as_row() == plain_report.statistics.as_row()


def test_fused_split_views_answer_triple_set_queries(fused_report, plain_report):
    fused, plain = fused_report.dataset, plain_report.dataset
    some = next(iter(plain.train))
    assert some in fused.train
    assert (10**9, 0, 0) not in fused.train
    assert fused.train.pairs_of(some[1]) == plain.train.pairs_of(some[1])
    # Uncommon surfaces fall back to a lazily materialized TripleSet.
    assert fused.train.tails_of(some[0], some[1]) == plain.train.tails_of(
        some[0], some[1]
    )


def test_fused_view_pickle_round_trip(fused_report):
    fused = fused_report.dataset
    clone = pickle.loads(pickle.dumps(fused))
    assert list(clone.train) == list(fused.train)
    assert clone.vocab.entities.labels() == fused.vocab.entities.labels()


# ------------------------------------------------------------------ ride-along indexes
def _decoded_filters(table, swap=False):
    """A completion table as ``{query: completions}``; ``swap`` keys the
    head side ``(r, t)`` like the evaluator's former filter dicts."""
    radix = table.entity_radix
    filters = {}
    for row, key in enumerate(table.keys.tolist()):
        anchor, relation = key % radix, key // radix
        query = (relation, anchor) if swap else (anchor, relation)
        filters[query] = table.values[table.offsets[row]:table.offsets[row + 1]]
    return filters


def test_fused_ingest_grows_audit_and_known_indexes(fused_report, plain_report):
    """The stream grows the audit's pair index; the known-triple index built
    from the fused view's arrays equals the dict-of-set filter oracle."""
    fused, plain = fused_report.dataset, plain_report.dataset
    assert fused.audit_index is not None
    assert plain_report.dataset.__class__.__name__ == "Dataset"

    streamed = fused.audit_index.report(0.8, 0.8)
    one_shot = analyse_redundancy(plain.all_triples(), 0.8, 0.8)
    assert streamed.reverse_pairs == one_shot.reverse_pairs
    assert streamed.duplicate_pairs == one_shot.duplicate_pairs
    assert streamed.symmetric_relations == one_shot.symmetric_relations

    index = KnownTripleIndex.for_dataset(fused)
    tail_filters = _decoded_filters(index.tails)
    head_filters = _decoded_filters(index.heads, swap=True)
    known = plain.known_triples()
    expected_tails = {}
    expected_heads = {}
    for head, relation, tail in known:
        expected_tails.setdefault((head, relation), set()).add(tail)
        expected_heads.setdefault((relation, tail), set()).add(head)
    assert set(tail_filters) == set(expected_tails)
    for query, values in tail_filters.items():
        assert values.dtype == np.int64
        assert list(values) == sorted(expected_tails[query])
    assert {(r, t) for h, r, t in known} == set(head_filters)
    for query, values in head_filters.items():
        assert list(values) == sorted(expected_heads[query])


def test_downstream_analyses_are_bit_identical(fused_report, plain_report):
    fused, plain = fused_report.dataset, plain_report.dataset
    ours = analyse_leakage(fused, fused.audit_index.report(0.8, 0.8))
    theirs = analyse_leakage(plain, analyse_redundancy(plain.all_triples(), 0.8, 0.8))
    assert ours.per_triple == theirs.per_triple
    assert ours.training_reverse_share == theirs.training_reverse_share
    assert ours.bitmap_breakdown() == theirs.bitmap_breakdown()
    assert dataset_relation_categories(fused) == dataset_relation_categories(plain)


# ------------------------------------------------------------------ train/evaluate
def test_training_and_evaluation_are_bit_identical(fused_report, plain_report):
    fused, plain = fused_report.dataset, plain_report.dataset
    results = {}
    for label, dataset in (("fused", fused), ("plain", plain)):
        model = make_model(
            "TransE", dataset.num_entities, dataset.num_relations, ModelConfig(dim=8)
        )
        run = TrainingRun(model, dataset, TrainingConfig(epochs=2, verbose=False))
        outcome = run.train()
        evaluation = evaluate_model(model, dataset, model_name="TransE")
        results[label] = (outcome.final_loss, evaluation.as_row())
    assert results["fused"] == results["plain"]


def test_evaluator_uses_the_streamed_known_index(fused_report, plain_report):
    """The evaluator's known-triple index over the fused view equals the one
    over the materialized dataset, and so do its filtered ranks."""
    fused, plain = fused_report.dataset, plain_report.dataset
    model = make_model(
        "DistMult", plain.num_entities, plain.num_relations, ModelConfig(dim=8)
    )
    via_index = LinkPredictionEvaluator(fused)
    rebuilt = LinkPredictionEvaluator(plain)
    for side in ("tail", "head"):
        ours = via_index.known_index.table(side)
        theirs = rebuilt.known_index.table(side)
        assert _decoded_filters(ours).keys() == _decoded_filters(theirs).keys()
        for name in ("keys", "offsets", "values"):
            assert np.array_equal(getattr(ours, name), getattr(theirs, name)), (side, name)
    ours = via_index.evaluate(model, model_name="DistMult")
    theirs = rebuilt.evaluate(model, model_name="DistMult")
    assert ours.as_row() == theirs.as_row()
    # Explicit filters still win over the dataset's own triples.
    unfiltered = LinkPredictionEvaluator(fused, filter_triples=[])
    assert _decoded_filters(unfiltered.known_index.tails) == {}


# ------------------------------------------------------------------ residency
def test_fused_ingest_never_materializes_indexed_splits(toy_dir):
    """The fused path's whole point: no TripleSet exists after ingest unless
    a consumer explicitly asks for the all_triples() escape hatch."""
    report = ingest_dataset(toy_dir, chunk_size=4, fused=True)
    dataset = report.dataset
    assert dataset._all_triples is None
    for split in dataset.splits().values():
        assert split._materialized is None
        # Triples live as compact int64 blocks bounded by the chunk size.
        assert all(block.dtype == np.int64 for block in split._blocks)
        assert all(len(block) <= 4 for block in split._blocks)
    assert report.peak_resident_triples <= report.residency_bound


def test_fused_flag_defaults_off(toy_dir):
    report = ingest_dataset(toy_dir, chunk_size=4)
    assert not isinstance(report.dataset, ArrayDatasetView)


# ------------------------------------------------------------------ pipeline integration
def test_pipeline_fused_run_is_bit_identical_and_fingerprint_neutral(tmp_path, toy_dataset):
    from repro.api import ExperimentSpec, Runner

    directory = save_dataset(toy_dataset, tmp_path / "toy")

    def make_spec(fused):
        spec = ExperimentSpec(
            name="fused-parity",
            datasets=["toy"],
            models=["DistMult"],
            include_amie=False,
            stages=["ingest", "audit", "train", "evaluate", "report"],
        )
        spec.dataset.source = str(directory)
        spec.dataset.source_name = "toy"
        spec.model.dim = 8
        spec.training.epochs = 1
        spec.ingest.chunk_size = 4
        spec.ingest.fused = fused
        return spec

    fused_spec, plain_spec = make_spec(True), make_spec(False)
    # ingest.fused is an execution detail: same fingerprint, shared cache.
    assert fused_spec.fingerprint() == plain_spec.fingerprint()
    fused_run = Runner(fused_spec).run()
    plain_run = Runner(plain_spec).run()
    assert fused_run.rows == plain_run.rows
    assert fused_run.text == plain_run.text
