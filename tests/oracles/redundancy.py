"""The §4.2 redundancy audit as the O(R²) pairwise scan over pair sets.

This is the form the inverted-index sweep of :mod:`repro.core.redundancy`
replaced: every pair of relations has its pair sets intersected directly,
in both directions.  It shares no counting code with the production
audit, so ``analyse_redundancy``, ``analyse_redundancy_from_pair_sets`` and
``StreamingPairIndexBuilder.report`` are each compared against
:func:`redundancy_report` as a whole report: the same four buckets, in the
same order.
"""

from __future__ import annotations

from repro.core.redundancy import PairSets, RedundancyReport, RelationOverlap


def relation_overlap(
    pair_sets: PairSets, relation_a: int, relation_b: int, reversed_b: bool = False
) -> RelationOverlap:
    """``|T_a ∩ T_b|``, or ``|T_a ∩ reverse(T_b)|`` when ``reversed_b``."""
    pairs_a = pair_sets.get(relation_a, set())
    pairs_b = pair_sets.get(relation_b, set())
    if reversed_b:
        pairs_b = {(t, h) for h, t in pairs_b}
    return RelationOverlap(
        relation_a=relation_a,
        relation_b=relation_b,
        overlap=len(pairs_a & pairs_b),
        size_a=len(pairs_a),
        size_b=len(pairs_b),
        reversed_b=reversed_b,
    )


def redundancy_report(
    pair_sets: PairSets, theta_1: float, theta_2: float
) -> RedundancyReport:
    """Every bucket of the report from a nested loop over the relation pairs.

    Relations are the non-empty ones, in sorted order.  A relation is
    symmetric when ``|T_r ∩ reverse(T_r)| / |T_r| > θ1``.  Each pair ``a < b``
    keeps its same-direction and its reversed overlap when the overlap is
    non-zero and exceeds θ1 on ``a``'s side and θ2 on ``b``'s.  A reversed
    overlap above 0.95 on both sides is a reverse pair, any other a reverse
    duplicate.
    """
    relations = sorted(relation for relation, pairs in pair_sets.items() if pairs)
    report = RedundancyReport()
    for relation in relations:
        overlap = relation_overlap(pair_sets, relation, relation, reversed_b=True)
        if overlap.share_of_a > theta_1:
            report.symmetric_relations.append(relation)
    for index, relation_a in enumerate(relations):
        for relation_b in relations[index + 1:]:
            same = relation_overlap(pair_sets, relation_a, relation_b)
            if same.overlap and same.exceeds(theta_1, theta_2):
                report.duplicate_pairs.append(same)
            reverse = relation_overlap(pair_sets, relation_a, relation_b, reversed_b=True)
            if reverse.overlap and reverse.exceeds(theta_1, theta_2):
                if reverse.share_of_a > 0.95 and reverse.share_of_b > 0.95:
                    report.reverse_pairs.append(reverse)
                else:
                    report.reverse_duplicate_pairs.append(reverse)
    return report
