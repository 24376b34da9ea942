"""Detection of redundant relations (Section 4.2 of the paper).

Three kinds of relation-level redundancy are detected from the triples alone
(no generator metadata is consulted):

* **reverse / symmetric relations** — relation pairs (r1, r2) whose pair sets
  satisfy the overlap condition on *reversed* pairs; a relation that is the
  reverse of itself is symmetric (self-reciprocal);
* **duplicate relations** — pairs whose subject-object pair sets overlap
  beyond the thresholds θ1, θ2 (|T_r1 ∩ T_r2| / |r1| > θ1 and / |r2| > θ2);
* **reverse duplicate relations** — the same condition against the reversed
  pair set of the second relation.

The paper sets θ1 = θ2 = 0.8 on FB15k; the same defaults are used here and the
thresholds are explicit parameters so the ablation experiment can sweep them.

The report thresholds two overlap-count maps: the same-direction counts
``|T_a ∩ T_b|`` and the reversed counts ``|T_a ∩ reverse(T_b)|``, whose
``(r, r)`` entry is the symmetry numerator.  The bulk audit
(:func:`analyse_redundancy`) sweeps an **inverted-index candidate-pair
generator** (:func:`overlap_counts`): an index from each (subject, object)
pair to the relations containing it yields the exact intersection size of
every relation pair that shares at least one pair, without O(R²) set
intersections.  The streaming and live audit
(:class:`StreamingPairIndexBuilder`) instead keeps both maps current inside
``observe``/``retract``, so a refresh only thresholds them.  Both paths share
one finalization, so their reports are identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..kg.triples import Triple, TripleSet

#: A relation's pair set, keyed by relation id (built once, shared by both sweeps).
PairSets = Dict[int, Set[Tuple[int, int]]]

#: The inverted index behind the candidate-pair generator: each (subject,
#: object) pair maps to the relations containing it.
PairIndex = Dict[Tuple[int, int], List[int]]

#: Pair-set intersection sizes keyed by relation pair ``(a, b)``, ``a < b``
#: (``a <= b`` for reversed counts, whose ``(r, r)`` entry is the symmetry
#: numerator ``|T_r ∩ reverse(T_r)|``).  Only non-zero counts have keys.
OverlapCounts = Dict[Tuple[int, int], int]

#: The paper's overlap thresholds (Section 4.2.2).
DEFAULT_THETA_1 = 0.8
DEFAULT_THETA_2 = 0.8


@dataclass(frozen=True)
class RelationOverlap:
    """Overlap statistics between two relations' pair sets."""

    relation_a: int
    relation_b: int
    overlap: int
    size_a: int
    size_b: int
    reversed_b: bool

    @property
    def share_of_a(self) -> float:
        return self.overlap / self.size_a if self.size_a else 0.0

    @property
    def share_of_b(self) -> float:
        return self.overlap / self.size_b if self.size_b else 0.0

    def exceeds(self, theta_1: float, theta_2: float) -> bool:
        return self.share_of_a > theta_1 and self.share_of_b > theta_2


@dataclass
class RedundancyReport:
    """Everything the duplicate/reverse detection found on one triple set."""

    duplicate_pairs: List[RelationOverlap] = field(default_factory=list)
    reverse_duplicate_pairs: List[RelationOverlap] = field(default_factory=list)
    reverse_pairs: List[RelationOverlap] = field(default_factory=list)
    symmetric_relations: List[int] = field(default_factory=list)

    # -- convenience views ---------------------------------------------------------
    def duplicate_partners(self) -> Dict[int, Set[int]]:
        """relation -> set of relations it duplicates (same direction)."""
        partners: Dict[int, Set[int]] = {}
        for overlap in self.duplicate_pairs:
            partners.setdefault(overlap.relation_a, set()).add(overlap.relation_b)
            partners.setdefault(overlap.relation_b, set()).add(overlap.relation_a)
        return partners

    def reverse_partners(self) -> Dict[int, Set[int]]:
        """relation -> set of relations that are its reverse (including reverse duplicates)."""
        partners: Dict[int, Set[int]] = {}
        for overlap in [*self.reverse_pairs, *self.reverse_duplicate_pairs]:
            partners.setdefault(overlap.relation_a, set()).add(overlap.relation_b)
            partners.setdefault(overlap.relation_b, set()).add(overlap.relation_a)
        for relation in self.symmetric_relations:
            partners.setdefault(relation, set()).add(relation)
        return partners

    def redundant_relations(self) -> Set[int]:
        """Every relation involved in any detected redundancy."""
        found: Set[int] = set(self.symmetric_relations)
        for overlap in (
            self.duplicate_pairs + self.reverse_duplicate_pairs + self.reverse_pairs
        ):
            found.add(overlap.relation_a)
            found.add(overlap.relation_b)
        return found


def build_pair_sets(
    triples: TripleSet, relations: Optional[Sequence[int]] = None
) -> PairSets:
    """Each relation's (subject, object) pair set, built once for both sweeps."""
    relations = list(relations) if relations is not None else triples.relations
    return {relation: triples.pairs_of(relation) for relation in relations}


def build_pair_index(pair_sets: PairSets) -> PairIndex:
    """The (subject, object) → relations inverted index, built in one sweep."""
    index: PairIndex = {}
    for relation, pairs in pair_sets.items():
        for pair in pairs:
            index.setdefault(pair, []).append(relation)
    return index


def overlap_counts(
    pair_sets: PairSets,
    reversed_b: bool = False,
    include_self: bool = False,
    index: Optional[PairIndex] = None,
) -> OverlapCounts:
    """Exact pair-set intersection sizes via an inverted index.

    Returns ``{(a, b): |T_a ∩ T_b|}`` (or ``|T_a ∩ reverse(T_b)|`` when
    ``reversed_b``) for every relation pair with a non-empty intersection,
    keyed with ``a < b``.  ``include_self`` additionally emits ``(r, r)``
    entries counting ``|T_r ∩ reverse(T_r)|`` — the symmetry numerator — and
    is only meaningful together with ``reversed_b``.  Both overlap notions are
    symmetric in (a, b), so one unordered count serves both directions.

    ``index`` lets callers running several count sweeps over the same pair
    sets (same-direction and reversed) build the inverted index once; when
    provided it must have been built from exactly ``pair_sets``.
    """
    if index is None:
        index = build_pair_index(pair_sets)
    counts: OverlapCounts = {}
    if not reversed_b:
        for relations_sharing in index.values():
            if len(relations_sharing) < 2:
                continue
            ordered = sorted(relations_sharing)
            for position, relation_a in enumerate(ordered):
                for relation_b in ordered[position + 1:]:
                    key = (relation_a, relation_b)
                    counts[key] = counts.get(key, 0) + 1
    else:
        # Count, for every shared pair (h, t), the relations holding (h, t)
        # against the relations holding (t, h).  Each qualifying pair of A is
        # visited exactly once (at its own key), so no double counting.
        for (head, tail), relations_a in index.items():
            relations_b = index.get((tail, head))
            if not relations_b:
                continue
            for relation_a in relations_a:
                for relation_b in relations_b:
                    if relation_a < relation_b or (
                        include_self and relation_a == relation_b
                    ):
                        key = (relation_a, relation_b)
                        counts[key] = counts.get(key, 0) + 1
    return counts


def _exceeding_overlaps(
    counts: OverlapCounts,
    pair_sets: PairSets,
    relations: Sequence[int],
    theta_1: float,
    theta_2: float,
    reversed_b: bool,
) -> List[RelationOverlap]:
    """The counted relation pairs whose overlap exceeds θ1 and θ2.

    Each pair is oriented and the result ordered by position in
    ``relations``: ``relation_a`` is the one listed earlier, matching the
    nested-loop order of the original O(R²) scan (θ1 applies to it, θ2 to
    its partner).  ``(r, r)`` symmetry entries are not pairs and are skipped.
    """
    position = {relation: index for index, relation in enumerate(relations)}
    found: List[RelationOverlap] = []
    for (relation_a, relation_b), count in counts.items():
        if relation_a == relation_b:
            continue
        if position[relation_a] > position[relation_b]:
            relation_a, relation_b = relation_b, relation_a
        size_a, size_b = len(pair_sets[relation_a]), len(pair_sets[relation_b])
        # Counted relations share a pair, so both sizes are non-zero and these
        # are the shares RelationOverlap.exceeds tests; only reported pairs
        # become objects.
        if count / size_a > theta_1 and count / size_b > theta_2:
            found.append(
                RelationOverlap(relation_a, relation_b, count, size_a, size_b, reversed_b)
            )
    found.sort(key=lambda o: (position[o.relation_a], position[o.relation_b]))
    return found


def _report_from_counts(
    pair_sets: PairSets,
    same: OverlapCounts,
    reversed_counts: OverlapCounts,
    theta_1: float,
    theta_2: float,
) -> RedundancyReport:
    """Threshold the two overlap-count maps into a :class:`RedundancyReport`.

    The maps hold what :func:`overlap_counts` returns over ``pair_sets``,
    same-direction and reversed with ``include_self``.  A relation is
    symmetric when its ``(r, r)`` count over ``|T_r|``, the share
    ``|T_r ∩ reverse(T_r)| / |T_r|``, exceeds θ1.  Costs O(counted relation
    pairs + relations); no pair is visited.
    """
    relations = sorted(pair_sets)
    report = RedundancyReport()
    report.symmetric_relations = [
        relation
        for relation in relations
        if pair_sets[relation]
        and reversed_counts.get((relation, relation), 0) / len(pair_sets[relation]) > theta_1
    ]
    report.duplicate_pairs = _exceeding_overlaps(
        same, pair_sets, relations, theta_1, theta_2, reversed_b=False
    )
    for overlap in _exceeding_overlaps(
        reversed_counts, pair_sets, relations, theta_1, theta_2, reversed_b=True
    ):
        if overlap.share_of_a > 0.95 and overlap.share_of_b > 0.95:
            report.reverse_pairs.append(overlap)
        else:
            report.reverse_duplicate_pairs.append(overlap)
    return report


def analyse_redundancy_from_pair_sets(
    pair_sets: PairSets,
    theta_1: float = DEFAULT_THETA_1,
    theta_2: float = DEFAULT_THETA_2,
) -> RedundancyReport:
    """:func:`analyse_redundancy` on pre-built pair sets (no triple container).

    Both overlap-count maps come from one sweep each over one inverted index.
    """
    pair_index = build_pair_index(pair_sets)
    return _report_from_counts(
        pair_sets,
        overlap_counts(pair_sets, index=pair_index),
        overlap_counts(pair_sets, reversed_b=True, include_self=True, index=pair_index),
        theta_1,
        theta_2,
    )


def analyse_redundancy(
    triples: TripleSet,
    theta_1: float = DEFAULT_THETA_1,
    theta_2: float = DEFAULT_THETA_2,
) -> RedundancyReport:
    """Detect every relation-level redundancy and classify the overlapping pairs.

    Every relation's pair set and the inverted index are built once and
    shared by the two overlap-count sweeps.  Reverse-duplicate
    pairs where the overlap is (almost) total on both sides are reported as
    *reverse pairs* (semantically reverse relations); the rest stay in the
    reverse-duplicate bucket, mirroring the paper's distinction between the
    reverse relations annotated by ``reverse_property`` and the looser reverse
    duplicates found by the overlap test.
    """
    return analyse_redundancy_from_pair_sets(build_pair_sets(triples), theta_1, theta_2)


class StreamingPairIndexBuilder:
    """The §4.2 audit index grown chunk-by-chunk from an ingest stream.

    A :data:`~repro.kg.streaming.ChunkObserver`: hook :meth:`observe` into
    :func:`repro.kg.streaming.ingest_dataset` and every chunk's newly-added
    encoded triples extend the per-relation pair sets, the (subject, object)
    → relations inverted index, and the two overlap-count maps the report
    thresholds.  The audit runs on the union of all splits, and the
    per-relation pair dedupe makes cross-split duplicates harmless, so
    :meth:`report` is bit-identical to
    ``analyse_redundancy(dataset.all_triples(), ...)``.

    The counts are maintained, not swept: a pair ``(h, t)`` joining or
    leaving relation ``r`` shifts the same-direction count of ``r`` against
    every other relation holding ``(h, t)``, and the reversed count of ``r``
    against every relation holding ``(t, h)``, so one changed triple costs
    O(|posting(h, t)| + |posting(t, h)|).  :meth:`report` then costs
    O(relation pairs sharing a pair + relations), however many pairs exist.

    The index also supports **removal** (:meth:`retract`) so the delta
    maintainer (:mod:`repro.kg.deltas`) can keep the §4.2 audit current
    under triple deletions in cost proportional to the delta, not the
    dataset.
    """

    def __init__(self) -> None:
        self._pair_sets: PairSets = {}
        self._pair_index: PairIndex = {}
        self._same: OverlapCounts = {}
        self._reversed: OverlapCounts = {}

    def observe(self, split: str, added_triples: Iterable[Triple]) -> None:
        """Fold one chunk's newly-added encoded triples into the index."""
        del split  # the audit pools every split, as dataset.all_triples() does
        for head, relation, tail in added_triples:
            pairs = self._pair_sets.setdefault(relation, set())
            pair = (head, tail)
            if pair in pairs:
                continue
            pairs.add(pair)
            posting = self._pair_index.setdefault(pair, [])
            self._shift_counts(head, relation, tail, posting, 1)
            posting.append(relation)

    def retract(self, removed_triples: Iterable[Triple]) -> None:
        """Remove triples that no longer exist in **any** split.

        The audit pools every split, so the caller (the delta maintainer,
        which tracks split membership) must only retract a triple once its
        last split occurrence is gone — retracting while a copy survives in
        another split would corrupt the pooled pair sets.  Emptied pair
        sets, inverted-index postings and zero counts are deleted so the
        structures stay equal to a from-scratch build over the surviving
        triples (postings keep relations in first-insertion order; every
        derived report is invariant to that order).
        """
        for head, relation, tail in removed_triples:
            pair = (head, tail)
            pairs = self._pair_sets.get(relation)
            if pairs is None or pair not in pairs:
                continue
            pairs.remove(pair)
            if not pairs:
                del self._pair_sets[relation]
            posting = self._pair_index[pair]
            posting.remove(relation)
            self._shift_counts(head, relation, tail, posting, -1)
            if not posting:
                del self._pair_index[pair]

    def _shift_counts(
        self, head: int, relation: int, tail: int, others: List[int], step: int
    ) -> None:
        """Shift by ``step`` every count ``(head, tail)`` adds to as a pair of ``relation``.

        ``others`` are the other relations holding ``(head, tail)``.
        """
        same = self._same
        reversed_counts = self._reversed
        for other in others:
            key = (other, relation) if other < relation else (relation, other)
            _add_count(same, key, step)
            if head == tail:
                _add_count(reversed_counts, key, step)
        if head == tail:
            # A self-loop is its own reverse: it joins T_r ∩ reverse(T_r) once.
            _add_count(reversed_counts, (relation, relation), step)
            return
        for other in self._pair_index.get((tail, head), ()):
            if other == relation:
                # Both (h, t) and (t, h) join (or leave) T_r ∩ reverse(T_r).
                _add_count(reversed_counts, (relation, relation), 2 * step)
            else:
                key = (other, relation) if other < relation else (relation, other)
                _add_count(reversed_counts, key, step)

    @property
    def pair_sets(self) -> PairSets:
        return self._pair_sets

    @property
    def pair_index(self) -> PairIndex:
        return self._pair_index

    @property
    def same_counts(self) -> OverlapCounts:
        """The maintained ``overlap_counts(pair_sets)``."""
        return self._same

    @property
    def reversed_counts(self) -> OverlapCounts:
        """The maintained ``overlap_counts(pair_sets, reversed_b=True, include_self=True)``."""
        return self._reversed

    def report(
        self, theta_1: float = DEFAULT_THETA_1, theta_2: float = DEFAULT_THETA_2
    ) -> RedundancyReport:
        """Threshold the maintained counts into a :class:`RedundancyReport`."""
        return _report_from_counts(
            self._pair_sets, self._same, self._reversed, theta_1, theta_2
        )


def _add_count(counts: OverlapCounts, key: Tuple[int, int], step: int) -> None:
    """Shift one overlap count, deleting it when it reaches zero."""
    count = counts.get(key, 0) + step
    if count:
        counts[key] = count
    else:
        del counts[key]
