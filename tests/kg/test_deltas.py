"""Delta subsystem: batches, logs, live maintenance and the bit-identity bar.

The acceptance criterion under test throughout: applying any delta log is
bit-identical — vocabulary ids, triple order, statistics, audit reports,
filter index, evaluation ranks — to a full re-ingest of the final state.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.redundancy import redundancy_report
from repro.core import redundancy
from repro.core.baselines import SimpleRuleModel
from repro.core.redundancy import overlap_counts
from repro.eval.ranking import LinkPredictionEvaluator
from repro.kg import (
    ChurnProfile,
    DeltaBatch,
    DeltaError,
    DeltaLog,
    LiveDatasetMaintainer,
    append_delta,
    churn_stream,
    read_delta_log,
)
from repro.kg.streaming import SPLIT_ORDER, StreamingDatasetBuilder, ingest_dataset

SOURCE_ROWS = {
    "train": [
        ("a", "likes", "b"),
        ("b", "likes", "c"),
        ("a", "knows", "c"),
        ("c", "likes", "a"),
        ("d", "knows", "a"),
        ("b", "knows", "d"),
    ],
    "valid": [("a", "likes", "c"), ("d", "likes", "b")],
    "test": [("b", "knows", "a"), ("c", "knows", "d")],
}


def _source_dataset(name="delta-src"):
    builder = StreamingDatasetBuilder(name)
    for split, rows in SOURCE_ROWS.items():
        builder.add_chunk(split, rows)
    return builder.build()


def _maintainer():
    return LiveDatasetMaintainer.from_dataset(_source_dataset())


def _audit_without_seq(maintainer):
    report = maintainer.audit_report()
    report.pop("last_seq")
    return report


def _assert_matches_reingest(maintainer, tmp_path):
    """The full acceptance check: export, re-ingest, compare everything."""
    exported = maintainer.export(tmp_path / "exported")
    ingested = ingest_dataset(exported, name=maintainer.name).dataset
    canonical = maintainer.canonical_dataset()
    assert canonical.vocab == ingested.vocab
    for split in SPLIT_ORDER:
        assert list(canonical.splits()[split]) == list(ingested.splits()[split])
    reference = LiveDatasetMaintainer.from_dataset(ingested)
    assert _audit_without_seq(maintainer) == _audit_without_seq(reference)
    return canonical, ingested


# ---------------------------------------------------------------- DeltaBatch
def test_batch_normalizes_rows_and_drops_empty_splits():
    batch = DeltaBatch(adds={"train": [("x", "r", "y")], "valid": []})
    assert batch.adds == {"train": (("x", "r", "y"),)}
    assert batch.removes == {}
    assert batch.num_adds() == 1 and batch.num_removes() == 0
    assert not batch.is_empty()
    assert DeltaBatch().is_empty()


def test_batch_rejects_unknown_split():
    with pytest.raises(DeltaError, match="unknown split"):
        DeltaBatch(adds={"tran": [("x", "r", "y")]})


def test_batch_fingerprint_is_content_identity():
    one = DeltaBatch(adds={"train": [("x", "r", "y")]}, seq=0)
    two = DeltaBatch(adds={"train": [["x", "r", "y"]]}, seq=5)
    assert one.fingerprint() == two.fingerprint()  # seq is not content
    other = DeltaBatch(adds={"train": [("x", "r", "z")]})
    assert other.fingerprint() != one.fingerprint()
    # Row order is content: it determines canonical insertion order.
    swapped = DeltaBatch(adds={"train": [("x", "r", "z"), ("x", "r", "y")]})
    ordered = DeltaBatch(adds={"train": [("x", "r", "y"), ("x", "r", "z")]})
    assert swapped.fingerprint() != ordered.fingerprint()


def test_batch_line_roundtrip_and_tamper_detection():
    batch = DeltaBatch(
        adds={"train": [("x", "r", "y")]},
        removes={"test": [("a", "r", "b")]},
        seq=3,
    )
    line = batch.to_line()
    back = DeltaBatch.from_line(line)
    assert back.seq == 3
    assert back.adds == batch.adds and back.removes == batch.removes
    # An edited payload no longer matches the stored fingerprint.
    record = json.loads(line)
    record["adds"]["train"][0][2] = "EDITED"
    with pytest.raises(DeltaError, match="fingerprint mismatch"):
        DeltaBatch.from_line(json.dumps(record))
    with pytest.raises(DeltaError, match="no sequence number"):
        DeltaBatch(adds={"train": [("x", "r", "y")]}).to_line()
    with pytest.raises(DeltaError, match="invalid JSON"):
        DeltaBatch.from_line("{not json", line_number=7)


# ------------------------------------------------------------------ DeltaLog
def test_log_append_assigns_contiguous_sequences(tmp_path):
    path = tmp_path / "updates.jsonl"
    log = DeltaLog(path)
    first = log.append(DeltaBatch(adds={"train": [("x", "r", "y")]}))
    second = log.append(DeltaBatch(removes={"train": [("x", "r", "y")]}))
    assert (first.seq, second.seq) == (0, 1)
    assert len(log) == 2
    assert [b.seq for b in read_delta_log(path)] == [0, 1]
    assert [b.seq for b in log.batches(as_of=0)] == [0]
    with pytest.raises(DeltaError, match="beyond last sequence"):
        log.batches(as_of=2)
    with pytest.raises(DeltaError, match="cannot append sequence"):
        log.append(DeltaBatch(adds={"train": [("p", "q", "r")]}, seq=7))


def test_log_detects_sequence_gaps(tmp_path):
    path = tmp_path / "gap.jsonl"
    append_delta(path, DeltaBatch(adds={"train": [("x", "r", "y")]}))
    stray = DeltaBatch(adds={"train": [("p", "q", "r")]})
    stray.seq = 5  # bypass append's assignment to forge a gap
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(stray.to_line() + "\n")
    with pytest.raises(DeltaError, match="expected sequence 1"):
        read_delta_log(path)


def test_chain_fingerprint_names_each_prefix(tmp_path):
    path = tmp_path / "chain.jsonl"
    log = DeltaLog(path)
    log.append(DeltaBatch(adds={"train": [("x", "r", "y")]}))
    after_one = log.chain_fingerprint()
    log.append(DeltaBatch(adds={"train": [("x", "r", "z")]}))
    assert log.chain_fingerprint(0) == after_one
    assert log.chain_fingerprint() != after_one
    summary = log.summary()
    assert summary["batches"] == 2 and summary["last_seq"] == 1
    assert summary["adds"] == 2 and summary["removes"] == 0
    assert summary["per_split"]["train"] == {"adds": 2, "removes": 0}
    assert summary["chain_fingerprint"] == log.chain_fingerprint()


# ------------------------------------------------------- maintainer semantics
def test_duplicate_add_and_absent_remove_are_noops():
    maintainer = _maintainer()
    before = maintainer.split_sizes()
    report = maintainer.apply(
        DeltaBatch(
            adds={"train": [("a", "likes", "b")]},  # already present
            removes={"valid": [("a", "knows", "b")]},  # never existed
        )
    )
    assert report.noop_adds == 1 and report.noop_removes == 1
    assert report.added == {} and report.removed == {}
    assert maintainer.split_sizes() == before
    assert maintainer.last_seq == 0


def test_remove_of_unknown_label_never_interns():
    maintainer = _maintainer()
    entities_before = len(maintainer.vocab.entities)
    relations_before = len(maintainer.vocab.relations)
    report = maintainer.apply(
        DeltaBatch(removes={"train": [("ghost", "likes", "b"), ("a", "phantom", "b")]})
    )
    assert report.noop_removes == 2
    assert len(maintainer.vocab.entities) == entities_before
    assert len(maintainer.vocab.relations) == relations_before


def test_adds_intern_every_row_so_ids_are_batching_invariant():
    one_batch = _maintainer()
    one_batch.apply(
        DeltaBatch(adds={"train": [("p", "r1", "q")], "test": [("q", "r2", "p")]})
    )
    two_batches = _maintainer()
    two_batches.apply(DeltaBatch(adds={"train": [("p", "r1", "q")]}))
    two_batches.apply(DeltaBatch(adds={"test": [("q", "r2", "p")]}))
    assert one_batch.vocab == two_batches.vocab
    assert one_batch.state_fingerprint() == two_batches.state_fingerprint()


def test_out_of_order_batch_is_rejected():
    maintainer = _maintainer()
    with pytest.raises(DeltaError, match="out-of-order"):
        maintainer.apply(DeltaBatch(adds={"train": [("x", "r", "y")]}, seq=4))
    maintainer.apply(DeltaBatch(adds={"train": [("x", "r", "y")]}, seq=0))
    with pytest.raises(DeltaError, match="out-of-order"):
        maintainer.apply(DeltaBatch(adds={"train": [("x", "r", "z")]}, seq=0))


def test_pooled_indexes_forget_only_after_last_split_occurrence():
    maintainer = _maintainer()
    # ("b", "knows", "a") sits in test; put a copy in train too.
    maintainer.apply(DeltaBatch(adds={"train": [("b", "knows", "a")]}))
    b = maintainer.vocab.entity_id("b")
    a = maintainer.vocab.entity_id("a")
    knows = maintainer.vocab.relation_id("knows")
    assert a in maintainer.tail_filters()[(b, knows)]
    maintainer.apply(DeltaBatch(removes={"train": [("b", "knows", "a")]}))
    # Still known: the test-split occurrence survives.
    assert a in maintainer.tail_filters()[(b, knows)]
    maintainer.apply(DeltaBatch(removes={"test": [("b", "knows", "a")]}))
    filters = maintainer.tail_filters()
    assert (b, knows) not in filters or a not in filters[(b, knows)]


def test_readd_moves_triple_to_end_of_canonical_order():
    maintainer = _maintainer()
    maintainer.apply(
        DeltaBatch(
            removes={"train": [("a", "likes", "b")]},
            adds={"train": [("a", "likes", "b")]},
        )
    )
    rows = maintainer.labelled_rows("train")
    assert rows[-1] == ("a", "likes", "b")
    assert rows[:-1] == [r for r in SOURCE_ROWS["train"] if r != ("a", "likes", "b")]


# --------------------------------------------------------------- bit-identity
def test_applied_log_matches_full_reingest(tmp_path):
    maintainer = _maintainer()
    log = DeltaLog(tmp_path / "updates.jsonl")
    log.append(
        DeltaBatch(
            adds={
                "train": [("e", "likes", "a"), ("a", "likes", "e")],
                "test": [("e", "knows", "d")],
            }
        )
    )
    log.append(DeltaBatch(removes={"train": [("b", "likes", "c")]}))
    log.append(  # re-add: canonical position moves to the end of train
        DeltaBatch(
            removes={"train": [("a", "knows", "c")]},
            adds={"train": [("a", "knows", "c")]},
        )
    )
    reports = maintainer.apply_log(log)
    assert [r.seq for r in reports] == [0, 1, 2]
    _assert_matches_reingest(maintainer, tmp_path)


def test_evaluation_ranks_bit_identical_after_deltas(tmp_path):
    maintainer = _maintainer()
    maintainer.apply(
        DeltaBatch(
            adds={"train": [("d", "likes", "c"), ("e", "likes", "b")]},
            removes={"train": [("b", "knows", "d")]},
        )
    )
    canonical, ingested = _assert_matches_reingest(maintainer, tmp_path)
    results = []
    for dataset in (canonical, ingested):
        scorer = SimpleRuleModel(dataset.train, dataset.num_entities, threshold=0.5)
        result = LinkPredictionEvaluator(dataset).evaluate(scorer, model_name="rule")
        results.append(
            [
                (r.head, r.relation, r.tail, r.side, r.raw_rank, r.filtered_rank)
                for r in result.records
            ]
        )
    assert results[0] == results[1]
    assert results[0]  # non-vacuous: the test split produced records


def test_incremental_resume_matches_from_scratch_replay(tmp_path):
    log = DeltaLog(tmp_path / "updates.jsonl")
    log.append(DeltaBatch(adds={"train": [("e", "likes", "a")]}))
    log.append(DeltaBatch(removes={"train": [("a", "likes", "b")]}))
    partial = _maintainer()
    partial.apply_log(log, as_of=1)
    snapshot = partial.canonical_dataset()
    assert snapshot.metadata.notes["delta_seq"] == "1"

    log.append(DeltaBatch(adds={"test": [("e", "knows", "b")]}))
    # Resume from the frozen snapshot: only seq 2 is applied on top.
    resumed = LiveDatasetMaintainer.from_dataset(snapshot)
    assert resumed.last_seq == 1
    reports = resumed.apply_log(log)
    assert [r.seq for r in reports] == [2]

    scratch = _maintainer()
    scratch.apply_log(log)
    assert resumed.state_fingerprint() == scratch.state_fingerprint()
    assert resumed.canonical_dataset().vocab == scratch.canonical_dataset().vocab
    assert _audit_without_seq(resumed) == _audit_without_seq(scratch)


def test_from_log_replays_a_file(tmp_path):
    path = tmp_path / "updates.jsonl"
    append_delta(path, DeltaBatch(adds={"train": [("x", "r", "y"), ("y", "r", "z")]}))
    append_delta(path, DeltaBatch(adds={"test": [("x", "r", "z")]}))
    replayed = LiveDatasetMaintainer.from_log("fresh", path)
    by_hand = LiveDatasetMaintainer("fresh")
    for batch in read_delta_log(path):
        by_hand.apply(batch)
    assert replayed.last_seq == 1
    assert replayed.state_fingerprint() == by_hand.state_fingerprint()
    assert replayed.split_sizes() == {"train": 2, "valid": 0, "test": 1}


# -------------------------------------------------------------- churn stream
def test_churn_stream_is_deterministic(fb_tiny):
    profile = ChurnProfile(
        batches=4,
        add_rate=0.02,
        remove_rate=0.02,
        redundancy_rate=0.2,
        leakage_rate=0.1,
        readd_rate=0.2,
        cartesian_rate=0.5,
    )
    one = [b.fingerprint() for b in churn_stream(fb_tiny, profile, seed=7)]
    two = [b.fingerprint() for b in churn_stream(fb_tiny, profile, seed=7)]
    other = [b.fingerprint() for b in churn_stream(fb_tiny, profile, seed=8)]
    assert one == two
    assert one != other
    assert len(one) == 4


def test_churn_removals_always_target_present_triples(fb_tiny):
    profile = ChurnProfile(batches=5, add_rate=0.01, remove_rate=0.02, readd_rate=0.3)
    maintainer = LiveDatasetMaintainer.from_dataset(fb_tiny)
    reports = [maintainer.apply(b) for b in churn_stream(fb_tiny, profile, seed=3)]
    assert sum(r.noop_removes for r in reports) == 0
    assert sum(r.noop_adds for r in reports) == 0
    assert sum(len(r.removed) and sum(r.removed.values()) for r in reports) > 0


def test_churned_dataset_matches_reingest(fb_tiny, tmp_path):
    profile = ChurnProfile(
        batches=4,
        add_rate=0.02,
        remove_rate=0.01,
        redundancy_rate=0.25,
        leakage_rate=0.1,
        cartesian_rate=1.0,
    )
    maintainer = LiveDatasetMaintainer.from_dataset(fb_tiny)
    for batch in churn_stream(fb_tiny, profile, seed=11):
        maintainer.apply(batch)
    _assert_matches_reingest(maintainer, tmp_path)
    # The injected adversarial structure is visible to the maintained audit.
    report = maintainer.redundancy_report()
    assert report.reverse_pairs or report.reverse_duplicate_pairs


# ----------------------------------------------------------- property testing
_ENTITIES = st.sampled_from([f"e{i}" for i in range(6)])
_RELATIONS = st.sampled_from(["r0", "r1", "r2"])
_ROWS = st.tuples(_ENTITIES, _RELATIONS, _ENTITIES)
_SIDE = st.dictionaries(
    st.sampled_from(list(SPLIT_ORDER)), st.lists(_ROWS, max_size=4), max_size=3
)


@given(st.lists(st.tuples(_SIDE, _SIDE), max_size=6))
@settings(max_examples=40, deadline=None)
def test_arbitrary_interleavings_match_full_rebuild(batches):
    """Any add/remove interleaving — empty batches, re-adds, removes of
    never-seen labels — leaves the maintained state equal to an independent
    order-tracking oracle AND audit-identical to a rebuild of the final state.
    After every batch the maintained overlap counts equal a full sweep, and
    the §4.2 report equals the pairwise-scan oracle's."""
    maintainer = LiveDatasetMaintainer("prop")
    oracle = {split: {} for split in SPLIT_ORDER}
    for adds, removes in batches:
        maintainer.apply(DeltaBatch(adds=adds, removes=removes))
        for split in SPLIT_ORDER:
            for row in removes.get(split, []):
                oracle[split].pop(tuple(row), None)
            for row in adds.get(split, []):
                oracle[split].setdefault(tuple(row), None)
        pair_sets = maintainer.pair_sets
        assert maintainer.same_counts == overlap_counts(pair_sets)
        assert maintainer.reversed_counts == overlap_counts(
            pair_sets, reversed_b=True, include_self=True
        )
        for theta in (0.0, 0.5, 0.8):
            assert maintainer.redundancy_report(theta, theta) == redundancy_report(
                pair_sets, theta, theta
            )
    for split in SPLIT_ORDER:
        assert maintainer.labelled_rows(split) == list(oracle[split])
    # Full rebuild of the final state (fresh compact ids) must agree on every
    # label-space audit artifact, including the filter index.
    rebuilt = LiveDatasetMaintainer.from_dataset(
        maintainer.canonical_dataset(validate=False)
    )
    assert _audit_without_seq(maintainer) == _audit_without_seq(rebuilt)
    assert maintainer.state_fingerprint() == rebuilt.state_fingerprint()


def test_redundancy_refresh_reads_the_maintained_counts(monkeypatch):
    batch = DeltaBatch(
        adds={"train": [("b", "likes", "a"), ("c", "knows", "a"), ("e", "likes", "e")]},
        removes={"train": [("b", "knows", "d")]},
    )
    reference = _maintainer()
    reference.apply(batch)
    expected = {theta: reference.redundancy_report(theta, theta) for theta in (0.0, 0.8)}
    assert expected[0.0].reverse_duplicate_pairs  # non-vacuous

    def refuse(*args, **kwargs):
        raise AssertionError("the refresh swept the pairs")

    for name in ("overlap_counts", "build_pair_index"):
        monkeypatch.setattr(redundancy, name, refuse)
    maintainer = _maintainer()
    maintainer.apply(batch)
    for theta, report in expected.items():
        assert maintainer.redundancy_report(theta, theta) == report


def test_statistics_track_reference_counts():
    maintainer = _maintainer()
    maintainer.apply(DeltaBatch(adds={"train": [("z1", "likes", "z2")]}))
    # Removing the only triple naming an entity drops it from the counts.
    before = maintainer.statistics().as_row()["#entities"]
    maintainer.apply(DeltaBatch(removes={"train": [("z1", "likes", "z2")]}))
    after = maintainer.statistics().as_row()["#entities"]
    assert after == before - 2  # z1 and z2 are gone
    assert np.int64(after) == after  # plain int semantics survive
