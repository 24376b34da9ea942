"""Cartesian product relations: detection and the rule-based predictor (§4.3).

A relation r is a *Cartesian product relation* when its instance pairs cover
(nearly) the whole product of its subject set ``S_r`` and object set ``O_r``:
``|r| / (|S_r| × |O_r|)`` above a threshold (0.8 in the paper).  Link
prediction on such relations is trivial — predict (h, r, t) valid for every
h ∈ S_r and t ∈ O_r — and :class:`CartesianProductPredictor` implements
exactly that simple method, which the paper shows can beat TransE on these
relations (Table 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

import numpy as np

from ..backend import ScoreComputeMixin
from ..kg.triples import TripleSet

#: The paper's density threshold for calling a relation a Cartesian product.
DEFAULT_DENSITY_THRESHOLD = 0.8


@dataclass(frozen=True)
class CartesianRelation:
    """One detected Cartesian product relation and its coverage statistics."""

    relation: int
    num_triples: int
    num_subjects: int
    num_objects: int

    @property
    def density(self) -> float:
        cells = self.num_subjects * self.num_objects
        return self.num_triples / cells if cells else 0.0


def find_cartesian_relations(
    triples: Optional[TripleSet] = None,
    density_threshold: float = DEFAULT_DENSITY_THRESHOLD,
    pair_sets: Optional[Dict[int, Set[tuple]]] = None,
) -> List[CartesianRelation]:
    """Detect Cartesian product relations in a triple set.

    A relation needs at least 2 subjects and 2 objects, so at least 2 triples
    and a product of at least 4 cells.

    The detector only ever looks at per-relation (subject, object) pair sets,
    so instead of a :class:`TripleSet` it also accepts ``pair_sets`` directly —
    e.g. the index grown incrementally by the streaming ingestion audit
    (:class:`repro.core.redundancy.StreamingPairIndexBuilder`), giving
    identical results without a materialized triple container.
    """
    if pair_sets is not None:
        relations, pairs_of = sorted(pair_sets), pair_sets.__getitem__
    elif triples is not None:
        relations, pairs_of = triples.relations, triples.pairs_of
    else:
        raise ValueError("find_cartesian_relations needs triples or pair_sets")
    found: List[CartesianRelation] = []
    for relation in relations:
        pairs = pairs_of(relation)
        subjects = {h for h, _ in pairs}
        objects = {t for _, t in pairs}
        if len(subjects) < 2 or len(objects) < 2:
            # A relation with a single subject or object trivially "covers" its
            # product; the paper's Cartesian relations are grids, not stars.
            continue
        density = len(pairs) / (len(subjects) * len(objects))
        if density > density_threshold:
            found.append(
                CartesianRelation(
                    relation=relation,
                    num_triples=len(pairs),
                    num_subjects=len(subjects),
                    num_objects=len(objects),
                )
            )
    return found


class CartesianProductPredictor(ScoreComputeMixin):
    """The paper's simple predictor exploiting the Cartesian product property.

    For a relation detected as a Cartesian product over the training set, the
    predictor scores every object in ``O_r`` (resp. subject in ``S_r``) as a
    valid completion; other entities receive score zero.  For relations not
    detected as Cartesian products it falls back to the same subject/object
    membership heuristic with a lower score, so that it still produces a full
    ranking (needed by the shared evaluation protocol).
    """

    CARTESIAN_SCORE = 1.0
    FALLBACK_SCORE = 0.25

    def __init__(
        self,
        train: TripleSet,
        num_entities: int,
        density_threshold: float = DEFAULT_DENSITY_THRESHOLD,
        frequency_tie_break: bool = True,
    ) -> None:
        self.num_entities = num_entities
        self.train = train
        self.density_threshold = density_threshold
        detected = find_cartesian_relations(train, density_threshold)
        self.cartesian_relations: Set[int] = {item.relation for item in detected}
        self._subjects: Dict[int, Set[int]] = {}
        self._objects: Dict[int, Set[int]] = {}
        self._object_frequency: Dict[int, np.ndarray] = {}
        self._subject_frequency: Dict[int, np.ndarray] = {}
        for relation in train.relations:
            pairs = train.pairs_of(relation)
            self._subjects[relation] = {h for h, _ in pairs}
            self._objects[relation] = {t for _, t in pairs}
            if frequency_tie_break:
                object_counts = np.zeros(num_entities)
                subject_counts = np.zeros(num_entities)
                for h, t in pairs:
                    object_counts[t] += 1
                    subject_counts[h] += 1
                total = max(1.0, len(pairs))
                self._object_frequency[relation] = object_counts / (total * 1e3)
                self._subject_frequency[relation] = subject_counts / (total * 1e3)

    # -- detection helpers ----------------------------------------------------------
    def is_cartesian(self, relation: int) -> bool:
        return relation in self.cartesian_relations

    # -- scoring interface (mirrors KGEModel) ------------------------------------------
    # The candidate scores depend only on the relation (never on the anchor
    # entity), so within one batched call each relation's row is built once
    # and shared by every query on it.  Rows are not retained across calls:
    # a dense float64 row per relation per side would pin hundreds of MB on
    # FB15k-scale relation counts for no recurring benefit.
    def _relation_row(self, relation: int, side: str) -> np.ndarray:
        members = (self._objects if side == "tail" else self._subjects).get(relation, set())
        frequency = self._object_frequency if side == "tail" else self._subject_frequency
        row = np.zeros(self.num_entities)
        base = self.CARTESIAN_SCORE if self.is_cartesian(relation) else self.FALLBACK_SCORE
        if members:
            row[list(members)] = base
        if relation in frequency:
            row += frequency[relation]
        return row

    def score_all_tails(self, head: int, relation: int) -> np.ndarray:
        return self._relation_row(relation, "tail")

    def score_all_heads(self, relation: int, tail: int) -> np.ndarray:
        return self._relation_row(relation, "head")

    def _score_batch(self, relations: np.ndarray, side: str) -> np.ndarray:
        relations = np.asarray(relations, dtype=np.int64).reshape(-1)
        scores = np.empty((len(relations), self.num_entities))
        rows: Dict[int, np.ndarray] = {}
        for index, relation in enumerate(relations):
            relation = int(relation)
            row = rows.get(relation)
            if row is None:
                rows[relation] = row = self._relation_row(relation, side)
            scores[index] = row
        return self.score_compute.export(scores)

    def score_tails_batch(self, heads: np.ndarray, relations: np.ndarray) -> np.ndarray:
        return self._score_batch(relations, "tail")

    def score_heads_batch(self, relations: np.ndarray, tails: np.ndarray) -> np.ndarray:
        return self._score_batch(relations, "head")

    @property
    def name(self) -> str:
        return "CartesianProduct"
