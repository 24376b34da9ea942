"""Triple containers and the indexes the rest of the library relies on.

A :class:`TripleSet` is an ordered collection of integer triples ``(h, r, t)``
with the look-up indexes needed by rule mining and the redundancy analysis:

* ``pairs_of(r)`` — the set of (subject, object) pairs of a relation,
* ``by_relation`` grouping,
* set membership of a triple.

Per-query completions (``(h, r) → tails``, ``(r, t) → heads``) live in
:class:`~repro.kg.known_index.KnownTripleIndex`.

The container is append-only: experiments never mutate triples in place, they
derive new :class:`TripleSet` objects (e.g. the de-redundancy transforms in
:mod:`repro.core.deredundancy`).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

import numpy as np

Triple = Tuple[int, int, int]


class TripleSet:
    """An indexed, append-only collection of ``(head, relation, tail)`` triples."""

    def __init__(self, triples: Iterable[Triple] = ()) -> None:
        self._triples: List[Triple] = []
        self._triple_set: Set[Triple] = set()
        self._by_relation: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        for triple in triples:
            self.add(triple)

    # -- mutation ----------------------------------------------------------
    def add(self, triple: Triple) -> bool:
        """Add ``triple``; return ``True`` if it was not already present."""
        h, r, t = int(triple[0]), int(triple[1]), int(triple[2])
        triple = (h, r, t)
        if triple in self._triple_set:
            return False
        self._triples.append(triple)
        self._triple_set.add(triple)
        self._by_relation[r].append((h, t))
        return True

    def update(self, triples: Iterable[Triple]) -> int:
        """Add many triples; return the number actually added."""
        return sum(1 for triple in triples if self.add(triple))

    # -- container protocol --------------------------------------------------
    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, triple: object) -> bool:
        return triple in self._triple_set

    def __getitem__(self, index: int) -> Triple:
        return self._triples[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TripleSet):
            return NotImplemented
        return self._triple_set == other._triple_set

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TripleSet(n={len(self)}, relations={self.num_relations})"

    # -- views --------------------------------------------------------------
    @property
    def triples(self) -> Sequence[Triple]:
        return tuple(self._triples)

    def as_set(self) -> Set[Triple]:
        return set(self._triple_set)

    def to_array(self) -> np.ndarray:
        """Return an ``(n, 3)`` int64 array of the triples."""
        if not self._triples:
            return np.empty((0, 3), dtype=np.int64)
        return np.asarray(self._triples, dtype=np.int64)

    @classmethod
    def from_array(cls, array: np.ndarray) -> "TripleSet":
        return cls(map(tuple, np.asarray(array, dtype=np.int64)))

    # -- indexes --------------------------------------------------------------
    def pairs_of(self, relation: int) -> Set[Tuple[int, int]]:
        """The set of distinct (subject, object) pairs of ``relation``."""
        return set(self._by_relation.get(relation, ()))

    def triples_of(self, relation: int) -> List[Triple]:
        """All triples of ``relation`` in insertion order."""
        return [(h, relation, t) for h, t in self._by_relation.get(relation, ())]

    def relation_size(self, relation: int) -> int:
        """Number of instance triples of ``relation`` (``|r|`` in the paper)."""
        return len(self._by_relation.get(relation, ()))

    @property
    def relations(self) -> List[int]:
        """Distinct relation ids present, sorted."""
        return sorted(self._by_relation)

    @property
    def num_relations(self) -> int:
        return len(self._by_relation)

    @property
    def entities(self) -> Set[int]:
        """Distinct entity ids appearing as head or tail."""
        found: Set[int] = set()
        for h, _, t in self._triples:
            found.add(h)
            found.add(t)
        return found

    def subjects_of(self, relation: int) -> Set[int]:
        """``S_r`` in the paper: the distinct subjects of ``relation``."""
        return {h for h, _ in self._by_relation.get(relation, ())}

    def objects_of(self, relation: int) -> Set[int]:
        """``O_r`` in the paper: the distinct objects of ``relation``."""
        return {t for _, t in self._by_relation.get(relation, ())}

    # -- derivation ------------------------------------------------------------
    def filter_relations(self, keep: Iterable[int]) -> "TripleSet":
        """Return a new set containing only triples of the ``keep`` relations."""
        keep_set = set(keep)
        return TripleSet(t for t in self._triples if t[1] in keep_set)

    def filter(self, predicate) -> "TripleSet":
        """Return a new set containing the triples satisfying ``predicate``."""
        return TripleSet(t for t in self._triples if predicate(t))

    def merged_with(self, *others: "TripleSet") -> "TripleSet":
        """Union of this set and ``others`` (duplicates removed)."""
        merged = TripleSet(self._triples)
        for other in others:
            merged.update(other)
        return merged

    def sample(self, count: int, rng: np.random.Generator) -> "TripleSet":
        """Uniformly sample ``count`` triples without replacement."""
        count = min(count, len(self._triples))
        idx = rng.choice(len(self._triples), size=count, replace=False)
        return TripleSet(self._triples[i] for i in idx)


def merge(*triple_sets: TripleSet) -> TripleSet:
    """Union of several :class:`TripleSet` objects."""
    merged = TripleSet()
    for ts in triple_sets:
        merged.update(ts)
    return merged
