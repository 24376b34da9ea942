"""The paper's "simple model": rule-of-thumb prediction from data statistics.

Section 4.2.1: *"one may aim at deriving simple rules of the form
(h, r1, t) ⇒ (t, r2, h) using statistics about the triples in the dataset …
We generated a similar model by finding the relations that have more than 80 %
intersections."*  The resulting model attains FHits@1 of 71.6 % on FB15k and
96.4 % on WN18 — on par with the best embedding models — and collapses on the
de-redundant variants (Table 13's "Simple Model" row).

:class:`SimpleRuleModel` implements exactly that baseline: it finds relation
pairs whose pair sets intersect by more than the threshold (in the same
direction → duplicate rule, reversed → reverse rule, a relation with itself
reversed → symmetric rule) on the training set, and answers a query
``(h, r, ?)`` with the entities connected to ``h`` through any paired
relation.  It exposes the evaluator's scorer interface.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

import numpy as np

from ..backend import ScoreComputeMixin
from ..kg.triples import TripleSet
from .redundancy import build_pair_index, build_pair_sets, overlap_counts

#: The intersection threshold quoted in the paper ("more than 80%").
DEFAULT_INTERSECTION_THRESHOLD = 0.8


@dataclass
class SimpleRulePair:
    """One detected rule ``(h, r_source, t) ⇒ (t, r_target, h)`` or its same-direction variant."""

    source: int
    target: int
    reversed: bool
    intersection_share: float


@dataclass
class SimpleRuleModel(ScoreComputeMixin):
    """The statistics-derived rule baseline of Sections 1 and 4.2.1."""

    train: TripleSet
    num_entities: int
    threshold: float = DEFAULT_INTERSECTION_THRESHOLD
    rules: List[SimpleRulePair] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        self._outgoing: Dict[Tuple[int, int], Set[int]] = defaultdict(set)
        self._incoming: Dict[Tuple[int, int], Set[int]] = defaultdict(set)
        for h, r, t in self.train:
            self._outgoing[(r, h)].add(t)
            self._incoming[(r, t)].add(h)
        self.rules = self._find_rules()
        self._rules_by_target: Dict[int, List[SimpleRulePair]] = defaultdict(list)
        for rule in self.rules:
            self._rules_by_target[rule.target].append(rule)

    # -- rule discovery --------------------------------------------------------------
    def _find_rules(self) -> List[SimpleRulePair]:
        """Detect rule pairs through the shared inverted-index candidate generator.

        Only relation pairs that share at least one (subject, object) pair are
        ever considered; both overlap notions are symmetric, so the unordered
        intersection counts serve the (source, target) and (target, source)
        directions with their respective denominators.
        """
        relations = self.train.relations
        pair_sets = build_pair_sets(self.train, relations)
        pair_index = build_pair_index(pair_sets)
        same_counts = overlap_counts(pair_sets, reversed_b=False, index=pair_index)
        reverse_counts = overlap_counts(
            pair_sets, reversed_b=True, include_self=True, index=pair_index
        )
        same_partners: Dict[int, Dict[int, int]] = defaultdict(dict)
        for (a, b), count in same_counts.items():
            same_partners[a][b] = count
            same_partners[b][a] = count
        reverse_partners: Dict[int, Dict[int, int]] = defaultdict(dict)
        for (a, b), count in reverse_counts.items():
            reverse_partners[a][b] = count
            reverse_partners[b][a] = count
        rules: List[SimpleRulePair] = []
        for target in relations:
            target_size = len(pair_sets[target])
            if not target_size:
                continue
            candidates = sorted(set(same_partners[target]) | set(reverse_partners[target]))
            for source in candidates:
                same_overlap = same_partners[target].get(source, 0)
                if source != target and same_overlap:
                    same_share = same_overlap / target_size
                    if same_share > self.threshold:
                        rules.append(SimpleRulePair(source, target, False, same_share))
                reverse_overlap = reverse_partners[target].get(source, 0)
                if reverse_overlap:
                    reverse_share = reverse_overlap / target_size
                    if reverse_share > self.threshold:
                        rules.append(SimpleRulePair(source, target, True, reverse_share))
        return rules

    # -- prediction -------------------------------------------------------------------
    def predicted_tails(self, head: int, relation: int) -> Set[int]:
        """Entities predicted as tails of ``(head, relation, ?)`` by the rules."""
        predictions: Set[int] = set()
        for rule in self._rules_by_target.get(relation, ()):
            if rule.reversed:
                predictions |= self._incoming.get((rule.source, head), set())
            else:
                predictions |= self._outgoing.get((rule.source, head), set())
        return predictions

    def predicted_heads(self, relation: int, tail: int) -> Set[int]:
        """Entities predicted as heads of ``(?, relation, tail)`` by the rules."""
        predictions: Set[int] = set()
        for rule in self._rules_by_target.get(relation, ()):
            if rule.reversed:
                predictions |= self._outgoing.get((rule.source, tail), set())
            else:
                predictions |= self._incoming.get((rule.source, tail), set())
        return predictions

    # -- scorer interface for the shared evaluator ----------------------------------------
    def score_tails_batch(self, heads: np.ndarray, relations: np.ndarray) -> np.ndarray:
        """(B, E) indicator scores, built in one preallocated matrix."""
        heads = np.asarray(heads, dtype=np.int64).reshape(-1)
        relations = np.asarray(relations, dtype=np.int64).reshape(-1)
        scores = np.zeros((len(heads), self.num_entities))
        for row, (head, relation) in enumerate(zip(heads, relations)):
            predictions = self.predicted_tails(int(head), int(relation))
            if predictions:
                scores[row, list(predictions)] = 1.0
        return self.score_compute.export(scores)

    def score_heads_batch(self, relations: np.ndarray, tails: np.ndarray) -> np.ndarray:
        relations = np.asarray(relations, dtype=np.int64).reshape(-1)
        tails = np.asarray(tails, dtype=np.int64).reshape(-1)
        scores = np.zeros((len(relations), self.num_entities))
        for row, (relation, tail) in enumerate(zip(relations, tails)):
            predictions = self.predicted_heads(int(relation), int(tail))
            if predictions:
                scores[row, list(predictions)] = 1.0
        return self.score_compute.export(scores)

    @property
    def name(self) -> str:
        return "SimpleModel"

    def num_rules(self) -> int:
        return len(self.rules)
