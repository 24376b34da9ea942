"""An AMIE-style rule miner over the training split of a benchmark.

The paper uses AMIE+ (Galárraga et al., 2015) as its observed-feature
baseline: rules are mined from the training set and employed for link
prediction by instantiating every rule whose head relation matches the query
(Section 5.2).  This module mines the same class of rules — closed, connected
Horn rules with one or two body atoms — using the same quality statistics
(support, head coverage, standard confidence, PCA confidence) and the same
default thresholds AMIE uses (head coverage ≥ 0.01, PCA confidence ≥ 0.1,
support ≥ 2), which is what [21] and the paper apply to every dataset.

The mining strategy is specialized to the three rule shapes rather than being
a generic refinement search, which keeps it fast enough to run inside the
test-suite while producing the same rule set a generic miner would for body
length ≤ 2.  Single-atom rules intersect the pair sets of every two
relations.  Path rules ``r1(x, z) ∧ r2(z, y) ⇒ r3(x, y)`` are mined per head
relation ``r3`` with array joins over CSR adjacency of the training triples,
in two phases:

1. **Support.**  Each head pair ``(x, y)`` joins the out-edges of ``x`` with
   the in-edges of ``y`` on the middle entity ``z``; the distinct
   ``(r1, r2, pair)`` rows count each body's support.  Support and head
   coverage are final here, so a body that misses either threshold is
   dropped before anything is walked.
2. **Bindings.**  Only the surviving bodies are walked two hops from the
   head subjects.  Their distinct ``(x, y)`` bindings are the PCA body size,
   because the walk starts only from subjects with a head fact.  The same
   walk from every subject gives the full body size.

The candidate order is the order in which a walk over the head subjects
first reaches each body: subjects in the iteration order of the head
relation's pair set, then each subject's out-edges, then its neighbour's
out-edges, both in training order.  Candidates are then stably sorted by
PCA confidence and cut at ``max_path_rules_per_head``, so the first-reach
order decides ties, and with them which rules the cut keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

import numpy as np

from ..kg.triples import TripleSet
from .rule import Atom, Rule, X, Y, Z

_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass
class AmieConfig:
    """Mining thresholds (AMIE+ defaults as used by the paper's protocol)."""

    min_support: int = 2
    min_head_coverage: float = 0.01
    min_pca_confidence: float = 0.1
    max_body_atoms: int = 2
    max_path_rules_per_head: int = 50

    def __post_init__(self) -> None:
        # A rule without a supporting binding explains nothing, and the path
        # miner only ever sees bodies that have one.
        if self.min_support < 1:
            raise ValueError(f"AmieConfig.min_support must be at least 1, got {self.min_support}")


@dataclass
class MiningReport:
    """What the miner found, with per-shape counts for inspection."""

    rules: List[Rule] = field(default_factory=list)
    num_same_direction: int = 0
    num_inverse: int = 0
    num_path: int = 0

    def __len__(self) -> int:
        return len(self.rules)


def _expand_ranges(begin: np.ndarray, count: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The ranges ``[begin[i], begin[i] + count[i])`` concatenated, and each element's ``i``."""
    owner = np.repeat(np.arange(len(begin)), count)
    offsets = np.cumsum(count) - count
    return owner, np.arange(len(owner)) - offsets[owner] + begin[owner]


def _offsets(groups: np.ndarray, size: int) -> np.ndarray:
    """CSR offsets of the ids ``groups`` in ``[0, size)``, once sorted."""
    start = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(groups, minlength=size), out=start[1:])
    return start


def _check_packing(*radices: int) -> None:
    """Refuse a packed key whose radices would overflow int64."""
    if math.prod(radices) - 1 > _INT64_MAX:
        raise ValueError(f"cannot pack AMIE join keys into int64: radices {radices} overflow")


class _Adjacency:
    """The training triples as CSR arrays, built once per path-mining pass.

    Out-edges are grouped by head with a stable sort, so each subject's edges
    keep their training order; a relation's edges are out-edge positions.
    """

    def __init__(self, triples: np.ndarray) -> None:
        if int(triples.min()) < 0:
            raise ValueError("AMIE path mining needs non-negative entity and relation ids")
        heads, relations, tails = triples[:, 0], triples[:, 1], triples[:, 2]
        self.num_entities = int(max(heads.max(), tails.max())) + 1
        self.num_relations = int(relations.max()) + 1
        self.num_edges = len(triples)
        # Pair-and-z join keys, body-and-pair keys, first-reach keys and
        # binding keys, with a pair count and a subject rank bounded by the
        # edge and entity counts.
        _check_packing(self.num_edges, self.num_entities)
        _check_packing(self.num_relations, self.num_relations, self.num_edges)
        _check_packing(self.num_entities, self.num_edges, self.num_edges)
        _check_packing(self.num_relations, self.num_entities, self.num_entities)
        out_order = np.argsort(heads, kind="stable")
        self.out_start = _offsets(heads, self.num_entities)
        self.out_head = heads[out_order]
        self.out_relation = relations[out_order]
        self.out_tail = tails[out_order]
        # In-edges by the key ``tail * E + head``: the edges from ``z`` into
        # ``y`` are the range of the key ``y * E + z``.
        in_keys = tails * self.num_entities + heads
        in_order = np.argsort(in_keys)
        self.in_keys = in_keys[in_order]
        self.in_relation = relations[in_order]
        self._by_relation = np.argsort(self.out_relation, kind="stable")
        self._relation_start = _offsets(self.out_relation, self.num_relations)

    def out_edges(self, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(i, position)`` for every out-edge of every ``nodes[i]``, in CSR order."""
        begin = self.out_start[nodes]
        return _expand_ranges(begin, self.out_start[nodes + 1] - begin)

    def edges_of(self, relation: int) -> np.ndarray:
        """Out-edge positions of ``relation``'s edges, in CSR order."""
        return self._by_relation[self._relation_start[relation] : self._relation_start[relation + 1]]

    def two_hops(self, positions: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(first, second)``: each edge of ``positions``, then each out-edge of its tail."""
        owner, second = self.out_edges(self.out_tail[positions])
        return positions[owner], second

    def bindings_per_relation(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        """Distinct ``(x, y)`` of the two-hop rows ``(first, second)``, per ``r2``."""
        radix = self.num_entities
        keys = (self.out_relation[second] * radix + self.out_head[first]) * radix + self.out_tail[second]
        return np.bincount(np.unique(keys) // (radix * radix), minlength=self.num_relations)


class AmieMiner:
    """Mines Horn rules of body length ≤ 2 from a training triple set."""

    def __init__(self, train: TripleSet, config: AmieConfig | None = None) -> None:
        self.train = train
        self.config = config or AmieConfig()
        self._pairs: Dict[int, Set[Tuple[int, int]]] = {
            r: train.pairs_of(r) for r in train.relations
        }
        self._subjects: Dict[int, Set[int]] = {
            r: {h for h, _ in pairs} for r, pairs in self._pairs.items()
        }
        #: Full path body sizes per ``r1``, indexed by ``r2``: several head
        #: relations propose bodies with the same first atom.
        self._path_body_sizes: Dict[int, np.ndarray] = {}

    # -- public API ----------------------------------------------------------
    def mine(self) -> MiningReport:
        """Mine all rule shapes and return the filtered rule list."""
        report = MiningReport()
        for rule in self._mine_single_atom_rules():
            report.rules.append(rule)
            if rule.is_inverse_rule:
                report.num_inverse += 1
            else:
                report.num_same_direction += 1
        if self.config.max_body_atoms >= 2:
            path_rules = self._mine_path_rules()
            report.rules.extend(path_rules)
            report.num_path = len(path_rules)
        return report

    # -- single-atom rules -------------------------------------------------------
    def _mine_single_atom_rules(self) -> List[Rule]:
        rules: List[Rule] = []
        relations = self.train.relations
        for body_relation in relations:
            body_pairs = self._pairs[body_relation]
            if not body_pairs:
                continue
            reversed_pairs = {(t, h) for h, t in body_pairs}
            for head_relation in relations:
                if head_relation == body_relation:
                    # r(x, y) ⇒ r(x, y) is trivially true; the symmetric
                    # pattern r(y, x) ⇒ r(x, y) is meaningful and kept.
                    head_pairs = self._pairs[head_relation]
                    rule = self._build_single_rule(
                        Atom(body_relation, Y, X), Atom(head_relation, X, Y),
                        reversed_pairs, head_pairs,
                    )
                    if rule is not None:
                        rules.append(rule)
                    continue
                head_pairs = self._pairs[head_relation]
                same = self._build_single_rule(
                    Atom(body_relation, X, Y), Atom(head_relation, X, Y),
                    body_pairs, head_pairs,
                )
                if same is not None:
                    rules.append(same)
                inverse = self._build_single_rule(
                    Atom(body_relation, Y, X), Atom(head_relation, X, Y),
                    reversed_pairs, head_pairs,
                )
                if inverse is not None:
                    rules.append(inverse)
        return rules

    def _build_single_rule(
        self,
        body_atom: Atom,
        head_atom: Atom,
        body_bindings: Set[Tuple[int, int]],
        head_pairs: Set[Tuple[int, int]],
    ) -> Rule | None:
        """Score one candidate single-atom rule against the thresholds."""
        if not head_pairs:
            return None
        support = len(body_bindings & head_pairs)
        if support < self.config.min_support:
            return None
        head_subjects = self._subjects[head_atom.relation]
        pca_body_size = sum(1 for x, _ in body_bindings if x in head_subjects)
        rule = Rule(
            body=(body_atom,),
            head=head_atom,
            support=support,
            body_size=len(body_bindings),
            pca_body_size=pca_body_size,
            head_size=len(head_pairs),
        )
        return rule if self._passes_thresholds(rule) else None

    # -- path rules ------------------------------------------------------------------
    def _mine_path_rules(self) -> List[Rule]:
        """Mine ``r1(x, z) ∧ r2(z, y) ⇒ r3(x, y)`` rules, per head relation ``r3``.

        Phase 1 (:meth:`_supported_bodies`) keeps the bodies that pass the
        support and head-coverage thresholds; phase 2 (:meth:`_walk_bodies`)
        counts their PCA body sizes and first-reach order.  A body passing
        the PCA-confidence threshold becomes a rule with its full body size
        (:meth:`_full_path_body_size`).  Each mask below is the expression of
        the matching :class:`Rule` property, so the rules are those that
        :meth:`_passes_thresholds` keeps.
        """
        if not len(self.train):
            return []
        adjacency = _Adjacency(self.train.to_array())
        num_relations = adjacency.num_relations
        rules: List[Rule] = []
        for head_relation in self.train.relations:
            head_pairs = self._pairs[head_relation]
            head_size = len(head_pairs)
            if head_size < self.config.min_support:
                continue
            bodies, support = self._supported_bodies(adjacency, head_relation)
            if not len(bodies):
                continue
            pca_body_size, first_reach = self._walk_bodies(adjacency, head_pairs, bodies)
            passing = support / pca_body_size >= self.config.min_pca_confidence
            candidates: List[Rule] = []
            for index in np.flatnonzero(passing)[np.argsort(first_reach[passing])]:
                r1, r2 = divmod(int(bodies[index]), num_relations)
                candidates.append(
                    Rule(
                        body=(Atom(r1, X, Z), Atom(r2, Z, Y)),
                        head=Atom(head_relation, X, Y),
                        support=int(support[index]),
                        body_size=self._full_path_body_size(adjacency, r1, r2),
                        pca_body_size=int(pca_body_size[index]),
                        head_size=head_size,
                    )
                )
            candidates.sort(key=lambda rule: rule.pca_confidence, reverse=True)
            rules.extend(candidates[: self.config.max_path_rules_per_head])
        return rules

    def _supported_bodies(self, adjacency: _Adjacency, head_relation: int) -> Tuple[np.ndarray, np.ndarray]:
        """Phase 1: the bodies ``r1 * R + r2`` passing support and head coverage.

        The out-edges ``(x, r1, z)`` of every head pair ``(x, y)`` are joined
        with the in-edges ``(z, r2, y)`` on ``(z, y)``; a body's support is
        the number of distinct pairs it joins.  Returns the sorted bodies and
        their supports.
        """
        pairs = adjacency.edges_of(head_relation)
        pair, first = adjacency.out_edges(adjacency.out_head[pairs])
        num_entities = adjacency.num_entities
        keys = adjacency.out_tail[pairs][pair] * num_entities + adjacency.out_tail[first]
        begin = np.searchsorted(adjacency.in_keys, keys, side="left")
        end = np.searchsorted(adjacency.in_keys, keys, side="right")
        row, second = _expand_ranges(begin, end - begin)
        bodies = (
            adjacency.out_relation[first[row]] * adjacency.num_relations
            + adjacency.in_relation[second]
        )
        supported = np.unique(bodies * len(pairs) + pair[row]) // len(pairs)
        bodies, support = np.unique(supported, return_counts=True)
        keep = (support >= self.config.min_support) & (
            support / len(pairs) >= self.config.min_head_coverage
        )
        return bodies[keep], support[keep]

    def _walk_bodies(
        self, adjacency: _Adjacency, head_pairs: Set[Tuple[int, int]], bodies: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Phase 2: each body's distinct ``(x, y)`` bindings from the head subjects.

        Walks ``r1``'s edges whose head is a head subject, then the
        neighbour's out-edges of each wanted ``r2``.  Also returns each body's
        first-reach key, the smallest over its rows of: the rank of ``x``
        among the subjects in the order iterating ``head_pairs`` meets them,
        then the CSR positions of the ``r1`` and ``r2`` edges, packed into
        one int64.
        """
        num_edges = adjacency.num_edges
        xs = np.fromiter((x for x, _ in head_pairs), dtype=np.int64, count=len(head_pairs))
        subjects, first_seen = np.unique(xs, return_index=True)
        rank = np.full(adjacency.num_entities, -1, dtype=np.int64)
        rank[subjects[np.argsort(first_seen)]] = np.arange(len(subjects))
        bindings = np.zeros(len(bodies), dtype=np.int64)
        first_reach = np.full(len(bodies), _INT64_MAX, dtype=np.int64)
        first_atoms, second_atoms = np.divmod(bodies, adjacency.num_relations)
        for r1 in np.unique(first_atoms):
            group = np.flatnonzero(first_atoms == r1)
            slot_of = np.full(adjacency.num_relations, -1, dtype=np.int64)
            slot_of[second_atoms[group]] = group
            positions = adjacency.edges_of(int(r1))
            first, second = adjacency.two_hops(positions[rank[adjacency.out_head[positions]] >= 0])
            slot = slot_of[adjacency.out_relation[second]]
            wanted = slot >= 0
            first, second, slot = first[wanted], second[wanted], slot[wanted]
            bindings[group] = adjacency.bindings_per_relation(first, second)[second_atoms[group]]
            order_keys = (rank[adjacency.out_head[first]] * num_edges + first) * num_edges + second
            np.minimum.at(first_reach, slot, order_keys)
        return bindings, first_reach

    def _full_path_body_size(self, adjacency: _Adjacency, r1: int, r2: int) -> int:
        """Number of (x, y) bindings of ``r1(x, z) ∧ r2(z, y)`` over the whole graph.

        The walk of phase 2 without the subject restriction, cached per
        ``r1`` for every ``r2`` at once.
        """
        sizes = self._path_body_sizes.get(r1)
        if sizes is None:
            first, second = adjacency.two_hops(adjacency.edges_of(r1))
            sizes = self._path_body_sizes[r1] = adjacency.bindings_per_relation(first, second)
        return int(sizes[r2])

    def _passes_thresholds(self, rule: Rule) -> bool:
        return (
            rule.support >= self.config.min_support
            and rule.head_coverage >= self.config.min_head_coverage
            and rule.pca_confidence >= self.config.min_pca_confidence
        )
