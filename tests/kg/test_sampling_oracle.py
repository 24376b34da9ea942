"""The negative samplers against a per-row set-lookup reference.

The reference below is the original sampler: known-positive rejection tests
``tuple(row) in train.as_set()`` row by row, and the Bernoulli head
probabilities are counted from per-relation ``pairs_of`` sets.  The
production samplers reject with ``searchsorted`` over packed ``int64`` keys
and count the probabilities with ``np.unique``; they must return the same
negatives and ``positive_index``, consume the rng identically, and produce
bitwise-equal probabilities.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kg import BernoulliNegativeSampler, TripleSet, UniformNegativeSampler


# ---------------------------------------------------------------------------- reference
class _ReferenceSampler:
    def __init__(
        self,
        train,
        num_entities: int,
        rng: Optional[np.random.Generator] = None,
        filtered: bool = True,
        max_resample_rounds: int = 10,
    ) -> None:
        self.train = train
        self.num_entities = num_entities
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.filtered = filtered
        self.max_resample_rounds = max_resample_rounds
        self._known = train.as_set()

    def sample(self, positives: np.ndarray, num_negatives: int = 1) -> Tuple[np.ndarray, np.ndarray]:
        positives = np.asarray(positives, dtype=np.int64)
        repeated = np.repeat(positives, num_negatives, axis=0)
        positive_index = np.repeat(np.arange(len(positives)), num_negatives)
        corrupt_head = self.corrupt_side(repeated)
        negatives = repeated.copy()
        random_entities = self.rng.integers(0, self.num_entities, size=len(repeated))
        negatives[corrupt_head, 0] = random_entities[corrupt_head]
        negatives[~corrupt_head, 2] = random_entities[~corrupt_head]
        if self.filtered:
            for _ in range(self.max_resample_rounds):
                clashes = np.array(
                    [tuple(row) in self._known for row in negatives], dtype=bool
                )
                if not clashes.any():
                    break
                fresh = self.rng.integers(0, self.num_entities, size=int(clashes.sum()))
                rows = np.flatnonzero(clashes)
                head_rows = rows[corrupt_head[rows]]
                tail_rows = rows[~corrupt_head[rows]]
                negatives[head_rows, 0] = fresh[: len(head_rows)]
                negatives[tail_rows, 2] = fresh[len(head_rows):]
        return negatives, positive_index


class _ReferenceUniform(_ReferenceSampler):
    def corrupt_side(self, positives: np.ndarray) -> np.ndarray:
        return self.rng.random(len(positives)) < 0.5


class _ReferenceBernoulli(_ReferenceSampler):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.head_probability = reference_head_probabilities(self.train)

    def corrupt_side(self, positives: np.ndarray) -> np.ndarray:
        probs = np.array(
            [self.head_probability.get(int(r), 0.5) for r in positives[:, 1]]
        )
        return self.rng.random(len(positives)) < probs


def reference_head_probabilities(train) -> Dict[int, float]:
    probabilities: Dict[int, float] = {}
    for relation in train.relations:
        pairs = train.pairs_of(relation)
        heads = {h for h, _ in pairs}
        tails = {t for _, t in pairs}
        tails_per_head = len(pairs) / len(heads) if heads else 0.0
        heads_per_tail = len(pairs) / len(tails) if tails else 0.0
        total = tails_per_head + heads_per_tail
        probabilities[relation] = tails_per_head / total if total else 0.5
    return probabilities


PAIRS = (
    (UniformNegativeSampler, _ReferenceUniform),
    (BernoulliNegativeSampler, _ReferenceBernoulli),
)


# ---------------------------------------------------------------------------- helpers
#: The train split containers the samplers are built from, by test id.
CONTAINERS = {"tripleset": TripleSet}


def _make_train(kind: str, triples):
    return CONTAINERS[kind](triples)


def _assert_same_sampling(
    pair, train, num_entities, positives, num_negatives, seed,
    filtered=True, max_resample_rounds=10,
):
    production_class, reference_class = pair
    production = production_class(
        train, num_entities, rng=np.random.default_rng(seed),
        filtered=filtered, max_resample_rounds=max_resample_rounds,
    )
    reference = reference_class(
        train, num_entities, rng=np.random.default_rng(seed),
        filtered=filtered, max_resample_rounds=max_resample_rounds,
    )
    negatives, positive_index = production.sample(positives, num_negatives)
    expected, expected_index = reference.sample(positives, num_negatives)
    assert negatives.dtype == expected.dtype == np.int64
    np.testing.assert_array_equal(negatives, expected)
    np.testing.assert_array_equal(positive_index, expected_index)
    assert production.rng.bit_generator.state == reference.rng.bit_generator.state
    if production_class is BernoulliNegativeSampler:
        _assert_same_probabilities(production, train)
    return negatives


def _assert_same_probabilities(sampler, train) -> None:
    expected = reference_head_probabilities(train)
    table = sampler._head_probability
    assert set(expected) <= set(range(len(table) - 1))
    for relation in range(len(table) - 1):
        assert table[relation] == expected.get(relation, 0.5), relation
    assert table[-1] == 0.5  # the slot of every relation absent from train


# ---------------------------------------------------------------------------- property
triples_strategy = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 4), st.integers(0, 11)),
    max_size=60,
)
positives_strategy = st.lists(
    # Ids beyond the train and entity ranges, and relations absent from train.
    st.tuples(st.integers(0, 14), st.integers(0, 6), st.integers(0, 14)),
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(
    triples=triples_strategy,
    positives=positives_strategy,
    pair_index=st.integers(0, 1),
    num_entities=st.integers(2, 12),
    num_negatives=st.integers(1, 4),
    max_resample_rounds=st.integers(0, 4),
    filtered=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_sampling_matches_set_reference(
    triples, positives, pair_index, num_entities, num_negatives,
    max_resample_rounds, filtered, seed,
):
    train = TripleSet(triples)
    _assert_same_sampling(
        PAIRS[pair_index], train, num_entities,
        np.asarray(positives, dtype=np.int64).reshape(-1, 3),
        num_negatives, seed, filtered=filtered, max_resample_rounds=max_resample_rounds,
    )


# ---------------------------------------------------------------------------- cases
@pytest.fixture(params=tuple(CONTAINERS))
def kind(request):
    return request.param


@pytest.fixture(params=PAIRS, ids=("uniform", "bernoulli"))
def pair(request):
    return request.param


def test_dense_relation_exhausts_resample_rounds(pair, kind):
    # Every (h, t) over three entities is known for relation 0, so every
    # corruption clashes and every round redraws.
    triples = [(h, 0, t) for h in range(3) for t in range(3)] + [(0, 1, 2)]
    train = _make_train(kind, triples)
    positives = np.asarray([(0, 0, 1), (2, 0, 2), (1, 0, 0)], dtype=np.int64)
    negatives = _assert_same_sampling(
        pair, train, 3, positives, 3, seed=5, max_resample_rounds=4
    )
    assert all(tuple(row) in train for row in negatives)


def test_positives_with_relations_absent_from_train(pair, kind):
    train = _make_train(kind, [(0, 0, 1), (1, 0, 2), (2, 2, 3)])
    positives = np.asarray([(0, 1, 1), (3, 7, 2), (1, 0, 2)], dtype=np.int64)
    _assert_same_sampling(pair, train, 5, positives, 4, seed=11)


def test_huge_relation_ids_never_alias_known_keys(pair, kind):
    # With two entities, a packed key of relation 2**62 wraps around int64
    # onto relation 0's keys; the range check must keep such rows unknown.
    train = _make_train(kind, [(h, 0, t) for h in range(2) for t in range(2)])
    positives = np.asarray([(0, 2**62, 1), (1, 2**62, 0)], dtype=np.int64)
    negatives = _assert_same_sampling(pair, train, 2, positives, 3, seed=4)
    assert (negatives[:, 1] == 2**62).all()


def test_positives_with_ids_beyond_num_entities(pair, kind):
    # Train mentions entity 9 although only 4 entities are drawable.
    train = _make_train(kind, [(0, 0, 1), (9, 0, 1), (1, 1, 9), (2, 0, 3)])
    positives = np.asarray([(9, 0, 1), (1, 1, 9), (12, 0, 3), (2, 0, 30)], dtype=np.int64)
    _assert_same_sampling(pair, train, 4, positives, 3, seed=3)


def test_empty_batch(pair, kind):
    train = _make_train(kind, [(0, 0, 1), (1, 1, 2)])
    negatives = _assert_same_sampling(
        pair, train, 3, np.empty((0, 3), dtype=np.int64), 2, seed=0
    )
    assert negatives.shape == (0, 3)


def test_empty_train(pair, kind):
    train = _make_train(kind, [])
    positives = np.asarray([(0, 0, 1), (1, 2, 0)], dtype=np.int64)
    _assert_same_sampling(pair, train, 3, positives, 2, seed=9)


def test_bernoulli_probabilities_on_a_generated_dataset(fb_tiny):
    sampler = BernoulliNegativeSampler(fb_tiny.train, fb_tiny.num_entities)
    _assert_same_probabilities(sampler, fb_tiny.train)


def test_key_overflow_is_refused():
    train = TripleSet([(0, 5, 1)])
    with pytest.raises(ValueError, match="2147483648 entities x 6 relations"):
        UniformNegativeSampler(train, num_entities=2**31)


def test_negative_train_ids_are_refused():
    with pytest.raises(ValueError, match="non-negative"):
        UniformNegativeSampler(TripleSet([(0, 0, -1)]), num_entities=3)
