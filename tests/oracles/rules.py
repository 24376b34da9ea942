"""AMIE path-rule mining as a per-pair walk through Python sets.

This is the form the array joins of :mod:`repro.rules.amie` replaced: for
every head pair, a two-hop walk from its subject collects each body's
``(x, y)`` bindings in a set, and every supported body's full bindings are
walked again.  The rule tests compare :class:`repro.rules.AmieMiner`'s rule
lists against it: the same rules, in the same order, with the same
statistics.
"""

from __future__ import annotations

from collections import defaultdict

from repro.rules import AmieMiner, Atom, Rule, X, Y, Z


class SeedLoopMiner(AmieMiner):
    """The path-rule loop before subjects were walked once and body sizes cached."""

    def _mine_path_rules(self):
        outgoing = defaultdict(list)
        for h, r, t in self.train:
            outgoing[h].append((r, t))
        rules = []
        for head_relation in self.train.relations:
            head_pairs = self._pairs[head_relation]
            if len(head_pairs) < self.config.min_support:
                continue
            head_subjects = self._subjects[head_relation]
            body_bindings = defaultdict(set)
            for x, _ in head_pairs:
                for r1, z in outgoing.get(x, ()):
                    for r2, y in outgoing.get(z, ()):
                        body_bindings[(r1, r2)].add((x, y))
            candidates = []
            for (r1, r2), bindings in body_bindings.items():
                support = len(bindings & head_pairs)
                if support < self.config.min_support:
                    continue
                pca_body_size = sum(1 for x, _ in bindings if x in head_subjects)
                full_body = set()
                for x, z in self._pairs[r1]:
                    for r, y in outgoing.get(z, ()):
                        if r == r2:
                            full_body.add((x, y))
                rule = Rule(
                    body=(Atom(r1, X, Z), Atom(r2, Z, Y)),
                    head=Atom(head_relation, X, Y),
                    support=support,
                    body_size=max(len(full_body), len(bindings)),
                    pca_body_size=max(pca_body_size, 1),
                    head_size=len(head_pairs),
                )
                if self._passes_thresholds(rule):
                    candidates.append(rule)
            candidates.sort(key=lambda rule: rule.pca_confidence, reverse=True)
            rules.extend(candidates[: self.config.max_path_rules_per_head])
        return rules
