"""Negative sampling for embedding-model training.

The paper's models are trained with the corruption protocol of Bordes et al.:
each positive triple ``(h, r, t)`` is paired with negatives obtained by
replacing the head or the tail with a random entity.  Two samplers are
provided:

* :class:`UniformNegativeSampler` — the plain protocol (corrupt head or tail
  with equal probability, uniformly over entities).
* :class:`BernoulliNegativeSampler` — the TransH variant that corrupts the
  side chosen by the relation's head/tail cardinality ratio, reducing false
  negatives on 1-to-n / n-to-1 relations.

Both can *filter* negatives, i.e. resample corruptions that happen to be known
positive triples.  The known triples are held as one sorted array of packed
``int64`` keys ``(r * E + h) * E + t`` (``E`` the entity radix), so each
resample round is a single ``np.searchsorted`` over the batch instead of a
per-row set lookup; the rng draws are the same either way, so the negatives
are too.  The Bernoulli head probabilities are counted from the same keys and
stored as a table indexed by relation id.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .triples import TripleSet

_INT64_MAX = int(np.iinfo(np.int64).max)


def packed_key_radices(triples: np.ndarray, num_entities: int) -> Tuple[int, int]:
    """Entity and relation radix of the packed key ``(r * E + h) * E + t``.

    The entity radix ``E`` covers ``num_entities`` and every entity id in
    ``triples``; the relation radix is the largest relation id plus one.
    Raises ``ValueError`` on a negative id, or when the largest key of the
    radices would overflow int64.
    """
    if len(triples) and int(triples.min()) < 0:
        raise ValueError("triples must have non-negative ids to pack into keys")
    entity_radix = max(
        int(num_entities), int(triples[:, (0, 2)].max()) + 1 if len(triples) else 0
    )
    relation_radix = int(triples[:, 1].max()) + 1 if len(triples) else 0
    if relation_radix * entity_radix * entity_radix - 1 > _INT64_MAX:
        raise ValueError(
            f"cannot pack triple keys into int64: {entity_radix} entities "
            f"x {relation_radix} relations overflows"
        )
    return entity_radix, relation_radix


def pack_triple_keys(triples: np.ndarray, entity_radix: int) -> np.ndarray:
    """``(r * E + h) * E + t`` per row; rows must be inside the radices."""
    return (triples[:, 1] * entity_radix + triples[:, 0]) * entity_radix + triples[:, 2]


class NegativeSampler:
    """Base class: corrupt a batch of positive triples into negatives."""

    def __init__(
        self,
        train: TripleSet,
        num_entities: int,
        rng: Optional[np.random.Generator] = None,
        filtered: bool = True,
        max_resample_rounds: int = 10,
    ) -> None:
        if num_entities <= 1:
            raise ValueError("negative sampling needs at least two entities")
        self.train = train
        self.num_entities = num_entities
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.filtered = filtered
        self.max_resample_rounds = max_resample_rounds
        triples = np.asarray(train.to_array(), dtype=np.int64).reshape(-1, 3)
        # Every train id and every drawable entity fits the radices, so a
        # row with an id outside them cannot be a training triple.
        self._entity_radix, self._relation_radix = packed_key_radices(triples, num_entities)
        #: Sorted, unique packed keys of the training triples.
        self._known_keys = np.unique(pack_triple_keys(triples, self._entity_radix))

    def _is_known(self, triples: np.ndarray) -> np.ndarray:
        """Boolean mask: which rows of ``triples`` are training triples."""
        known = np.zeros(len(triples), dtype=bool)
        if not len(self._known_keys):
            return known
        heads, relations, tails = triples[:, 0], triples[:, 1], triples[:, 2]
        inside = (
            (heads >= 0) & (heads < self._entity_radix)
            & (tails >= 0) & (tails < self._entity_radix)
            & (relations >= 0) & (relations < self._relation_radix)
        )
        rows = np.flatnonzero(inside)
        keys = pack_triple_keys(triples[rows], self._entity_radix)
        slots = np.searchsorted(self._known_keys, keys)
        slots[slots == len(self._known_keys)] = 0
        known[rows] = self._known_keys[slots] == keys
        return known

    # -- protocol ------------------------------------------------------------
    def corrupt_side(self, positives: np.ndarray) -> np.ndarray:
        """Return a boolean array: True where the *head* should be corrupted."""
        raise NotImplementedError

    def sample(
        self, positives: np.ndarray, num_negatives: int = 1
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Generate ``num_negatives`` corruptions of each positive.

        Parameters
        ----------
        positives:
            ``(n, 3)`` array of positive triples.
        num_negatives:
            Number of negatives per positive.

        Returns
        -------
        negatives:
            ``(n * num_negatives, 3)`` array of corrupted triples.
        positive_index:
            ``(n * num_negatives,)`` array mapping each negative back to the
            row of the positive it corrupts.
        """
        positives = np.asarray(positives, dtype=np.int64)
        if positives.ndim != 2 or positives.shape[1] != 3:
            raise ValueError("positives must be an (n, 3) array")
        repeated = np.repeat(positives, num_negatives, axis=0)
        positive_index = np.repeat(np.arange(len(positives)), num_negatives)
        corrupt_head = self.corrupt_side(repeated)
        negatives = repeated.copy()
        random_entities = self.rng.integers(0, self.num_entities, size=len(repeated))
        negatives[corrupt_head, 0] = random_entities[corrupt_head]
        negatives[~corrupt_head, 2] = random_entities[~corrupt_head]
        if self.filtered:
            negatives = self._resample_known_positives(negatives, corrupt_head)
        return negatives, positive_index

    # -- helpers -----------------------------------------------------------------
    def _resample_known_positives(
        self, negatives: np.ndarray, corrupt_head: np.ndarray
    ) -> np.ndarray:
        """Resample any corruption that is a known training triple.

        Only rows redrawn in one round can clash in the next (the others are
        unchanged), so each round after the first re-tests just those rows.
        """
        candidates = np.arange(len(negatives))
        for _ in range(self.max_resample_rounds):
            rows = candidates[self._is_known(negatives[candidates])]
            if not len(rows):
                break
            fresh = self.rng.integers(0, self.num_entities, size=len(rows))
            head_rows = rows[corrupt_head[rows]]
            tail_rows = rows[~corrupt_head[rows]]
            negatives[head_rows, 0] = fresh[: len(head_rows)]
            negatives[tail_rows, 2] = fresh[len(head_rows):]
            candidates = rows
        return negatives


class UniformNegativeSampler(NegativeSampler):
    """Corrupt head or tail with probability 0.5, uniformly over entities."""

    def corrupt_side(self, positives: np.ndarray) -> np.ndarray:
        return self.rng.random(len(positives)) < 0.5


class BernoulliNegativeSampler(NegativeSampler):
    """TransH's relation-aware corruption-side selection.

    For each relation the probability of corrupting the head is
    ``tph / (tph + hpt)`` where ``tph`` is the average number of tails per
    head and ``hpt`` the average number of heads per tail, both measured on
    the training set.  ``_head_probability[r]`` holds it for every relation
    id below the relation radix, plus one trailing ``0.5`` slot that every
    relation absent from train (or out of range) reads.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._head_probability = self._relation_head_probabilities()

    def _relation_head_probabilities(self) -> np.ndarray:
        radix, relations = self._entity_radix, self._relation_radix
        keys = self._known_keys
        # Keys sort by (r, h, t): ``keys // E`` is the (r, h) pair key and
        # ``keys // E**2`` the relation; (r, t) pairs are re-packed.
        pair_relations = keys // radix // radix
        head_keys = np.unique(keys // radix)
        tail_keys = np.unique(pair_relations * radix + keys % radix)
        pairs = np.bincount(pair_relations, minlength=relations).astype(np.float64)
        heads = np.bincount(head_keys // radix, minlength=relations).astype(np.float64)
        tails = np.bincount(tail_keys // radix, minlength=relations).astype(np.float64)
        probabilities = np.full(relations + 1, 0.5)
        present = pairs > 0
        tails_per_head = pairs[present] / heads[present]
        heads_per_tail = pairs[present] / tails[present]
        probabilities[:relations][present] = tails_per_head / (tails_per_head + heads_per_tail)
        return probabilities

    def corrupt_side(self, positives: np.ndarray) -> np.ndarray:
        relations = positives[:, 1]
        absent = len(self._head_probability) - 1
        slots = np.where((relations >= 0) & (relations < absent), relations, absent)
        return self.rng.random(len(positives)) < self._head_probability[slots]
