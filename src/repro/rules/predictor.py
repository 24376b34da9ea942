"""Link prediction with mined rules (the paper's AMIE protocol).

Section 5.2: *"For any link prediction task (h, r, ?) or (?, r, t), all the
rules that have relation r in the rule head are employed.  The instantiations
of these rules are used to generate the ranked list of results. … We ranked
the answer entities by the maximum confidence of the rules instantiating them
and broke ties by the number of applicable rules."*

:class:`RuleBasedPredictor` implements exactly that behind the same batched
scorer contract as the embedding models (``score_tails_batch`` /
``score_heads_batch``), so the shared evaluator produces AMIE's rows of
Tables 5, 6, 11 and 13 without any special casing.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Tuple

import numpy as np

from ..backend import ScoreComputeMixin
from ..kg.triples import TripleSet
from .rule import Rule, X, Y


class RuleBasedPredictor(ScoreComputeMixin):
    """Scores link-prediction candidates with a mined rule set."""

    #: Weight of the tie-breaking term (number of applicable rules); kept far
    #: below the confidence resolution so it only ever breaks exact ties.
    TIE_BREAK_WEIGHT = 1e-6

    def __init__(self, rules: Iterable[Rule], train: TripleSet, num_entities: int) -> None:
        self.num_entities = num_entities
        self.train = train
        self.rules_by_head: Dict[int, List[Rule]] = defaultdict(list)
        for rule in rules:
            self.rules_by_head[rule.head.relation].append(rule)
        # Indexes for fast instantiation.
        self._outgoing: Dict[Tuple[int, int], set[int]] = defaultdict(set)   # (r, x) -> {y}
        self._incoming: Dict[Tuple[int, int], set[int]] = defaultdict(set)   # (r, y) -> {x}
        for h, r, t in train:
            self._outgoing[(r, h)].add(t)
            self._incoming[(r, t)].add(h)

    # -- rule instantiation ---------------------------------------------------
    def _candidates_for_tail(self, rule: Rule, head_entity: int) -> set[int]:
        """Entities y such that the body holds with x = ``head_entity``."""
        if rule.length == 1:
            atom = rule.body[0]
            if atom.subject == X and atom.object == Y:
                return self._outgoing.get((atom.relation, head_entity), set())
            if atom.subject == Y and atom.object == X:
                return self._incoming.get((atom.relation, head_entity), set())
            return set()
        # Path rule r1(x, z) ∧ r2(z, y).
        first, second = rule.body
        candidates: set[int] = set()
        for z in self._outgoing.get((first.relation, head_entity), set()):
            candidates |= self._outgoing.get((second.relation, z), set())
        return candidates

    def _candidates_for_head(self, rule: Rule, tail_entity: int) -> set[int]:
        """Entities x such that the body holds with y = ``tail_entity``."""
        if rule.length == 1:
            atom = rule.body[0]
            if atom.subject == X and atom.object == Y:
                return self._incoming.get((atom.relation, tail_entity), set())
            if atom.subject == Y and atom.object == X:
                return self._outgoing.get((atom.relation, tail_entity), set())
            return set()
        first, second = rule.body
        candidates: set[int] = set()
        for z in self._incoming.get((second.relation, tail_entity), set()):
            candidates |= self._incoming.get((first.relation, z), set())
        return candidates

    # -- scoring interface (mirrors KGEModel) -----------------------------------------
    def score_tails_batch(self, heads: np.ndarray, relations: np.ndarray) -> np.ndarray:
        """(B, E) rule scores of ``(h_i, r_i, ?)``, exported in the eval dtype."""
        return self._score_batch(relations, heads, self._candidates_for_tail)

    def score_heads_batch(self, relations: np.ndarray, tails: np.ndarray) -> np.ndarray:
        """(B, E) rule scores of ``(?, r_i, t_i)``, exported in the eval dtype."""
        return self._score_batch(relations, tails, self._candidates_for_head)

    def _score_batch(
        self,
        relations: np.ndarray,
        anchors: np.ndarray,
        candidates_of: Callable[[Rule, int], set[int]],
    ) -> np.ndarray:
        """Fill each query's row of a zeroed ``(B, E)`` matrix in place.

        A row first collects each candidate's best rule confidence, then
        gains ``TIE_BREAK_WEIGHT`` per applicable rule.
        """
        relations = np.asarray(relations, dtype=np.int64).reshape(-1)
        anchors = np.asarray(anchors, dtype=np.int64).reshape(-1)
        scores = np.zeros((len(relations), self.num_entities))
        for row, relation, anchor in zip(scores, relations.tolist(), anchors.tolist()):
            applicable_rules = np.zeros(self.num_entities)
            for rule in self.rules_by_head.get(relation, ()):
                for candidate in candidates_of(rule, anchor):
                    applicable_rules[candidate] += 1
                    if rule.pca_confidence > row[candidate]:
                        row[candidate] = rule.pca_confidence
            row += self.TIE_BREAK_WEIGHT * applicable_rules
        return self.score_compute.export(scores)

    # -- reporting --------------------------------------------------------------
    @property
    def name(self) -> str:
        return "AMIE"

    def num_rules(self) -> int:
        return sum(len(rules) for rules in self.rules_by_head.values())
