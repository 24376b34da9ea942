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
length ≤ 2.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..kg.triples import TripleSet
from .rule import Atom, Rule, X, Y, Z


@dataclass
class AmieConfig:
    """Mining thresholds (AMIE+ defaults as used by the paper's protocol)."""

    min_support: int = 2
    min_head_coverage: float = 0.01
    min_pca_confidence: float = 0.1
    max_body_atoms: int = 2
    max_path_rules_per_head: int = 50


@dataclass
class MiningReport:
    """What the miner found, with per-shape counts for inspection."""

    rules: List[Rule] = field(default_factory=list)
    num_same_direction: int = 0
    num_inverse: int = 0
    num_path: int = 0

    def __len__(self) -> int:
        return len(self.rules)


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
        #: ``_full_path_body_size`` per ``(r1, r2)``: several head relations
        #: propose the same body.
        self._path_body_sizes: Dict[Tuple[int, int], int] = {}

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
        """Mine ``r1(x, z) ∧ r2(z, y) ⇒ r3(x, y)`` rules.

        The candidate bodies are generated per head relation by walking two
        hops from the head relation's subjects, so the complexity stays close
        to the size of the graph rather than cubic in the relation count.
        """
        # Adjacency by subject for the join on the shared variable z.
        outgoing: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        for h, r, t in self.train:
            outgoing[h].append((r, t))

        rules: List[Rule] = []
        for head_relation in self.train.relations:
            head_pairs = self._pairs[head_relation]
            if len(head_pairs) < self.config.min_support:
                continue
            head_subjects = self._subjects[head_relation]
            # body support per (r1, r2): bindings of (x, y) reachable via 2 hops.
            body_bindings: Dict[Tuple[int, int], Set[Tuple[int, int]]] = defaultdict(set)
            # A subject's walk does not depend on its object: walk each
            # subject once, in first-seen order (which fixes the order of
            # the candidate bodies).
            for x in dict.fromkeys(x for x, _ in head_pairs):
                for r1, z in outgoing.get(x, ()):
                    for r2, y in outgoing.get(z, ()):
                        body_bindings[(r1, r2)].add((x, y))
            candidates: List[Rule] = []
            for (r1, r2), bindings in body_bindings.items():
                support = len(bindings & head_pairs)
                if support < self.config.min_support:
                    continue
                # The restriction of the body walk to head subjects means the
                # binding set is already the PCA denominator's neighbourhood;
                # recompute the true body size over all subjects cheaply only
                # when the rule looks promising.
                pca_body_size = sum(1 for x, _ in bindings if x in head_subjects)
                full_body_size = self._full_path_body_size(r1, r2, outgoing)
                rule = Rule(
                    body=(Atom(r1, X, Z), Atom(r2, Z, Y)),
                    head=Atom(head_relation, X, Y),
                    support=support,
                    body_size=max(full_body_size, len(bindings)),
                    pca_body_size=max(pca_body_size, 1),
                    head_size=len(head_pairs),
                )
                if self._passes_thresholds(rule):
                    candidates.append(rule)
            candidates.sort(key=lambda rule: rule.pca_confidence, reverse=True)
            rules.extend(candidates[: self.config.max_path_rules_per_head])
        return rules

    def _full_path_body_size(
        self, r1: int, r2: int, outgoing: Dict[int, List[Tuple[int, int]]]
    ) -> int:
        """Number of (x, y) bindings of ``r1(x, z) ∧ r2(z, y)`` over the whole graph."""
        size = self._path_body_sizes.get((r1, r2))
        if size is None:
            bindings: Set[Tuple[int, int]] = set()
            for x, z in self._pairs[r1]:
                for r, y in outgoing.get(z, ()):
                    if r == r2:
                        bindings.add((x, y))
            size = self._path_body_sizes[(r1, r2)] = len(bindings)
        return size

    def _passes_thresholds(self, rule: Rule) -> bool:
        return (
            rule.support >= self.config.min_support
            and rule.head_coverage >= self.config.min_head_coverage
            and rule.pca_confidence >= self.config.min_pca_confidence
        )
