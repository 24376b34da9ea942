"""Dataset statistics: Table 1 of the paper and relation frequency shares."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

from .dataset import Dataset
from .triples import Triple, TripleSet


@dataclass(frozen=True)
class DatasetStatistics:
    """One row of the paper's Table 1."""

    name: str
    num_entities: int
    num_relations: int
    num_train: int
    num_valid: int
    num_test: int

    def as_row(self) -> Dict[str, int | str]:
        return {
            "Dataset": self.name,
            "#entities": self.num_entities,
            "#relations": self.num_relations,
            "#train": self.num_train,
            "#valid": self.num_valid,
            "#test": self.num_test,
        }


def dataset_statistics(dataset: Dataset) -> DatasetStatistics:
    """Compute the Table-1 row for ``dataset``.

    Entities and relations are counted as *present in any split* (rather than
    vocabulary size) so that derived datasets sharing a vocabulary with their
    source (FB15k-237-like, WN18RR-like, ...) report their reduced inventory,
    exactly as the paper's Table 1 does.
    """
    all_triples = dataset.all_triples()
    return DatasetStatistics(
        name=dataset.name,
        num_entities=len(all_triples.entities),
        num_relations=all_triples.num_relations,
        num_train=len(dataset.train),
        num_valid=len(dataset.valid),
        num_test=len(dataset.test),
    )


class StreamingStatisticsBuilder:
    """Incremental Table-1 row over a stream of newly-added encoded triples.

    The streaming ingestion pipeline feeds it, chunk by chunk, the triples
    that were *actually inserted* into each split (duplicates already
    dropped), so the finalized row equals
    :func:`dataset_statistics` of the crystallized dataset exactly: split
    sizes are deduplicated sizes, and entities/relations are counted as
    *present in any split*, never as vocabulary size.

    Entity and relation presence is reference-counted per split occurrence
    (a triple in two splits contributes two references, a reflexive triple
    contributes two entity references), so the delta-maintenance path
    (:mod:`repro.kg.deltas`) can :meth:`retract` triples and the counts
    stay exact: an id leaves the inventory precisely when its last
    surviving occurrence is removed.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._split_counts: Dict[str, int] = {"train": 0, "valid": 0, "test": 0}
        self._entities: Dict[int, int] = {}
        self._relations: Dict[int, int] = {}

    def observe(self, split: str, added_triples: Iterable[Triple]) -> None:
        """Fold one chunk's newly-added encoded triples into the counters."""
        entities = self._entities
        relations = self._relations
        count = 0
        for head, relation, tail in added_triples:
            entities[head] = entities.get(head, 0) + 1
            entities[tail] = entities.get(tail, 0) + 1
            relations[relation] = relations.get(relation, 0) + 1
            count += 1
        self._split_counts[split] += count

    def retract(self, split: str, removed_triples: Iterable[Triple]) -> None:
        """Unfold triples that were *actually removed* from ``split``.

        The caller must pass only triples previously observed for this
        split (the delta maintainer guarantees that by checking split
        membership before retracting).
        """
        entities = self._entities
        relations = self._relations
        count = 0
        for head, relation, tail in removed_triples:
            for entity in (head, tail):
                remaining = entities[entity] - 1
                if remaining:
                    entities[entity] = remaining
                else:
                    del entities[entity]
            remaining = relations[relation] - 1
            if remaining:
                relations[relation] = remaining
            else:
                del relations[relation]
            count += 1
        self._split_counts[split] -= count

    def statistics(self) -> DatasetStatistics:
        """Finalize the Table-1 row seen so far."""
        return DatasetStatistics(
            name=self.name,
            num_entities=len(self._entities),
            num_relations=len(self._relations),
            num_train=self._split_counts["train"],
            num_valid=self._split_counts["valid"],
            num_test=self._split_counts["test"],
        )


def relation_frequency_share(triples: TripleSet, top_k: int = 2) -> float:
    """Fraction of triples covered by the ``top_k`` most populated relations.

    Used to reproduce the YAGO3-10 observation that ``isAffiliatedTo`` and
    ``playsFor`` alone account for roughly 65 % of the training triples.
    """
    if len(triples) == 0:
        return 0.0
    sizes = sorted(
        (triples.relation_size(r) for r in triples.relations), reverse=True
    )
    return sum(sizes[:top_k]) / len(triples)
