"""Link prediction with mined rules (the paper's AMIE protocol).

Section 5.2: *"For any link prediction task (h, r, ?) or (?, r, t), all the
rules that have relation r in the rule head are employed.  The instantiations
of these rules are used to generate the ranked list of results. … We ranked
the answer entities by the maximum confidence of the rules instantiating them
and broke ties by the number of applicable rules."*

:class:`RuleBasedPredictor` implements exactly that and exposes the same
``score_all_tails`` / ``score_all_heads`` interface as the embedding models,
so the shared evaluator produces AMIE's rows of Tables 5, 6, 11 and 13 without
any special casing.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

import numpy as np

from ..backend import ScoreComputeMixin
from ..kg.triples import TripleSet
from ..serve.cache import ScoreCache
from .rule import Rule, X, Y


class RuleBasedPredictor(ScoreComputeMixin):
    """Scores link-prediction candidates with a mined rule set."""

    #: Weight of the tie-breaking term (number of applicable rules); kept far
    #: below the confidence resolution so it only ever breaks exact ties.
    TIE_BREAK_WEIGHT = 1e-6

    #: Bound of the persistent score-vector cache shared by every scoring
    #: entry point (see :class:`repro.serve.ScoreCache`).  Keys are
    #: namespaced ``("tail", h, r)`` / ``("head", r, t)`` so the two query
    #: sides never collide.
    CACHE_ENTRIES = 512

    def __init__(self, rules: Iterable[Rule], train: TripleSet, num_entities: int) -> None:
        self.num_entities = num_entities
        # Shared bounded LRU instead of the old unbounded per-call dict:
        # repeated analysis passes over the same relations now hit across
        # calls, and worst-case residency is CACHE_ENTRIES rows.  The name
        # mirrors hit/miss/eviction counts into the telemetry registry as
        # ``cache.rules.*``, next to the serving engine's ``cache.serve.*``.
        self._score_cache = ScoreCache(self.CACHE_ENTRIES, name="rules")
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

    # -- cached score vectors --------------------------------------------------
    def _tail_vector(self, head: int, relation: int) -> np.ndarray:
        """Score vector for ``(head, relation, ?)`` through the bounded LRU."""
        vector, _ = self._score_cache.get_or_put(
            ("tail", head, relation),
            lambda: self.score_all_tails(head, relation),
        )
        return vector

    def _head_vector(self, relation: int, tail: int) -> np.ndarray:
        """Score vector for ``(?, relation, tail)`` through the bounded LRU."""
        vector, _ = self._score_cache.get_or_put(
            ("head", relation, tail),
            lambda: self.score_all_heads(relation, tail),
        )
        return vector

    # -- scoring interface (mirrors KGEModel) -----------------------------------------
    def score_all_tails(self, head: int, relation: int) -> np.ndarray:
        """Max-confidence score of every entity as the tail of ``(head, relation, ?)``."""
        best_confidence = np.zeros(self.num_entities)
        applicable_rules = np.zeros(self.num_entities)
        for rule in self.rules_by_head.get(relation, ()):
            for candidate in self._candidates_for_tail(rule, head):
                applicable_rules[candidate] += 1
                if rule.pca_confidence > best_confidence[candidate]:
                    best_confidence[candidate] = rule.pca_confidence
        return best_confidence + self.TIE_BREAK_WEIGHT * applicable_rules

    def score_all_heads(self, relation: int, tail: int) -> np.ndarray:
        """Max-confidence score of every entity as the head of ``(?, relation, tail)``."""
        best_confidence = np.zeros(self.num_entities)
        applicable_rules = np.zeros(self.num_entities)
        for rule in self.rules_by_head.get(relation, ()):
            for candidate in self._candidates_for_head(rule, tail):
                applicable_rules[candidate] += 1
                if rule.pca_confidence > best_confidence[candidate]:
                    best_confidence[candidate] = rule.pca_confidence
        return best_confidence + self.TIE_BREAK_WEIGHT * applicable_rules

    def score_tails_batch(self, heads: np.ndarray, relations: np.ndarray) -> np.ndarray:
        """(B, E) rule scores in one preallocated matrix.

        Rule instantiation is inherently per-query set algebra (host-side),
        so each row is answered from the predictor-lifetime score-vector
        cache: repeated queries — across evaluation sides, analysis passes,
        or serving requests — reuse the instantiated vector instead of
        re-walking the rule bodies.  The finished matrix is exported in the
        configured eval dtype (itself at the default fp64).
        """
        heads = np.asarray(heads, dtype=np.int64).reshape(-1)
        relations = np.asarray(relations, dtype=np.int64).reshape(-1)
        scores = np.empty((len(heads), self.num_entities))
        for row, (h, r) in enumerate(zip(heads, relations)):
            scores[row] = self._tail_vector(int(h), int(r))
        return self.score_compute.export(scores)

    def score_heads_batch(self, relations: np.ndarray, tails: np.ndarray) -> np.ndarray:
        """(B, E) rule scores in one preallocated matrix (see ``score_tails_batch``)."""
        relations = np.asarray(relations, dtype=np.int64).reshape(-1)
        tails = np.asarray(tails, dtype=np.int64).reshape(-1)
        scores = np.empty((len(relations), self.num_entities))
        for row, (r, t) in enumerate(zip(relations, tails)):
            scores[row] = self._head_vector(int(r), int(t))
        return self.score_compute.export(scores)

    def score_triples_np(
        self, heads: np.ndarray, relations: np.ndarray, tails: np.ndarray
    ) -> np.ndarray:
        """Pointwise scores (used by analysis code, not by training).

        Triples sharing an ``(h, r)`` query are answered from one cached score
        vector; the cache is the predictor-lifetime bounded LRU, so repeated
        analysis passes reuse rows across calls instead of re-instantiating
        the rules each time.
        """
        scores = np.zeros(len(heads))
        for index, (h, r, t) in enumerate(zip(heads, relations, tails)):
            scores[index] = self._tail_vector(int(h), int(r))[int(t)]
        return scores

    # -- reporting --------------------------------------------------------------
    @property
    def name(self) -> str:
        return "AMIE"

    def num_rules(self) -> int:
        return sum(len(rules) for rules in self.rules_by_head.values())

    @property
    def cache_stats(self):
        """Hit/miss/eviction counters of the score-vector cache."""
        return self._score_cache.stats
