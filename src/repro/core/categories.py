"""Relation cardinality categories: 1-to-1, 1-to-n, n-to-1, n-to-m.

Following Bordes et al. (and Section 5.3 point (5) of the paper), a relation
is classified by the average number of heads per tail and tails per head; an
average below 1.5 counts as "1", otherwise "n".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from ..kg.dataset import Dataset
from ..kg.triples import TripleSet

#: The classification threshold from the original TransE evaluation protocol.
CARDINALITY_THRESHOLD = 1.5

CATEGORIES = ("1-1", "1-n", "n-1", "n-m")


@dataclass(frozen=True)
class RelationCardinality:
    """Cardinality statistics and category of one relation."""

    relation: int
    heads_per_tail: float
    tails_per_head: float

    @property
    def category(self) -> str:
        many_tails = self.tails_per_head >= CARDINALITY_THRESHOLD
        many_heads = self.heads_per_tail >= CARDINALITY_THRESHOLD
        if not many_heads and not many_tails:
            return "1-1"
        if not many_heads and many_tails:
            return "1-n"
        if many_heads and not many_tails:
            return "n-1"
        return "n-m"


def relation_cardinality(triples: TripleSet, relation: int) -> RelationCardinality:
    """Average heads-per-tail and tails-per-head of one relation."""
    pairs = triples.pairs_of(relation)
    heads = {h for h, _ in pairs}
    tails = {t for _, t in pairs}
    return RelationCardinality(
        relation=relation,
        heads_per_tail=len(pairs) / len(tails) if tails else 0.0,
        tails_per_head=len(pairs) / len(heads) if heads else 0.0,
    )


def categorize_relations(
    triples: TripleSet, relations: Optional[Iterable[int]] = None
) -> Dict[int, str]:
    """Category of each relation (default: every relation in ``triples``)."""
    relations = list(relations) if relations is not None else triples.relations
    return {
        relation: relation_cardinality(triples, relation).category
        for relation in relations
    }


def dataset_relation_categories(dataset: Dataset) -> Dict[int, str]:
    """Relation categories of a dataset's test relations, over all its splits.

    The paper categorizes the relations appearing in the test set; the
    statistics are computed over the full dataset so that sparse test
    relations are classified by their overall shape.
    """
    return categorize_relations(dataset.all_triples(), dataset.test_relations())


def category_distribution(categories: Dict[int, str]) -> Dict[str, int]:
    """Number of relations in each category (the §5.3(5) distribution)."""
    counts = {category: 0 for category in CATEGORIES}
    for category in categories.values():
        counts[category] = counts.get(category, 0) + 1
    return counts
