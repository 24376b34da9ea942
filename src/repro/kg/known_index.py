"""The known-triple index behind filtered link prediction.

Filtered ranking (Section 3.2 of the paper) removes every *known* completion
of a query — a triple of train, valid or test, or of an alternate ground
truth — from its candidate list.  :class:`KnownTripleIndex` holds those
completions once per dataset, columnar:

* the triples are packed into the negative sampler's ``int64`` keys
  ``(r * E + h) * E + t`` (same radices, same overflow check — see
  :func:`repro.kg.sampling.packed_key_radices`) and deduplicated with
  ``np.unique``, so the keys sort by ``(r, h, t)``;
* two :class:`CompletionTable` s in CSR (offset-array) form answer
  ``(h, r) → tails`` and ``(r, t) → heads``: one sorted array of query keys
  ``r * E + anchor``, one offset array, and the completions, ascending within
  each query.

Lookups are ``np.searchsorted`` over the query keys, so a whole block of
queries resolves to CSR ranges in one call.  The pipeline caches one index
per dataset in the artifact store (``("known_index", name)``); serving
filters single queries through the same index (:meth:`KnownTripleIndex.get`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .sampling import pack_triple_keys, packed_key_radices

_EMPTY = np.empty(0, dtype=np.int64)


def as_triple_array(triples) -> np.ndarray:
    """An ``(n, 3)`` int64 array of a split, a triple array or any triple iterable."""
    if hasattr(triples, "to_array"):
        triples = triples.to_array()
    elif not isinstance(triples, np.ndarray):
        triples = list(triples)
    return np.asarray(triples, dtype=np.int64).reshape(-1, 3)


@dataclass(frozen=True, eq=False)
class CompletionTable:
    """Known completions of one prediction side, as a CSR table.

    A query is ``(anchor, relation)``: the head of ``(h, r, ?)`` on the tail
    side, the tail of ``(?, r, t)`` on the head side.  Query ``i`` has key
    ``keys[i] = relation * entity_radix + anchor`` and completions
    ``values[offsets[i]:offsets[i + 1]]``, in ascending order.
    """

    entity_radix: int
    relation_radix: int
    keys: np.ndarray
    offsets: np.ndarray
    values: np.ndarray

    @classmethod
    def from_sorted_keys(cls, keys: np.ndarray, entity_radix: int, relation_radix: int):
        """The table of packed ``(r, anchor, completion)`` keys sorted ascending."""
        if not len(keys):
            return cls(entity_radix, relation_radix, _EMPTY, np.zeros(1, dtype=np.int64), _EMPTY)
        queries = keys // entity_radix
        starts = np.flatnonzero(np.r_[True, queries[1:] != queries[:-1]])
        return cls(
            entity_radix=entity_radix,
            relation_radix=relation_radix,
            keys=queries[starts],
            offsets=np.append(starts, len(keys)),
            values=keys % entity_radix,
        )

    def __len__(self) -> int:
        return len(self.keys)

    def ranges(self, anchors: np.ndarray, relations: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``[start, stop)`` of each query's completions in :attr:`values`.

        Queries the table does not hold (ids outside its radices included)
        get an empty range.
        """
        anchors = np.asarray(anchors, dtype=np.int64)
        relations = np.asarray(relations, dtype=np.int64)
        starts = np.zeros(len(anchors), dtype=np.int64)
        stops = np.zeros(len(anchors), dtype=np.int64)
        if not len(self.keys):
            return starts, stops
        inside = np.flatnonzero(
            (anchors >= 0) & (anchors < self.entity_radix)
            & (relations >= 0) & (relations < self.relation_radix)
        )
        keys = relations[inside] * self.entity_radix + anchors[inside]
        slots = np.searchsorted(self.keys, keys)
        slots[slots == len(self.keys)] = 0
        hit = self.keys[slots] == keys
        found, slots = inside[hit], slots[hit]
        starts[found] = self.offsets[slots]
        stops[found] = self.offsets[slots + 1]
        return starts, stops

    def completions(self, anchor: int, relation: int) -> np.ndarray:
        """The sorted known completions of one query (empty when unknown)."""
        if 0 <= anchor < self.entity_radix and 0 <= relation < self.relation_radix:
            key = relation * self.entity_radix + anchor
            slot = int(np.searchsorted(self.keys, key))
            if slot < len(self.keys) and self.keys[slot] == key:
                return self.values[self.offsets[slot]:self.offsets[slot + 1]]
        return _EMPTY


@dataclass(frozen=True, eq=False)
class KnownTripleIndex:
    """Every known triple of a dataset, as tail-side and head-side CSR tables."""

    #: ``(h, r) → tails``, keyed ``r * E + h``.
    tails: CompletionTable
    #: ``(r, t) → heads``, keyed ``r * E + t``.
    heads: CompletionTable

    @classmethod
    def from_triples(cls, *sources, num_entities: int = 0) -> "KnownTripleIndex":
        """The index of the union of ``sources`` (triple arrays, sets or splits)."""
        arrays = [as_triple_array(source) for source in sources]
        triples = np.concatenate(arrays) if arrays else np.empty((0, 3), dtype=np.int64)
        entity_radix, relation_radix = packed_key_radices(triples, num_entities)
        keys = np.unique(pack_triple_keys(triples, entity_radix))
        # Re-pack as (r, t, h) for the head side: same radices, same range.
        relations = keys // entity_radix // entity_radix
        heads = keys // entity_radix % entity_radix
        tails = keys % entity_radix
        head_keys = np.sort((relations * entity_radix + tails) * entity_radix + heads)
        return cls(
            tails=CompletionTable.from_sorted_keys(keys, entity_radix, relation_radix),
            heads=CompletionTable.from_sorted_keys(head_keys, entity_radix, relation_radix),
        )

    @classmethod
    def for_dataset(cls, dataset, extra=None) -> "KnownTripleIndex":
        """The filter of ``dataset``: its train, valid and test triples, plus ``extra``."""
        sources = [dataset.train, dataset.valid, dataset.test]
        if extra is not None:
            sources.append(extra)
        return cls.from_triples(*sources, num_entities=dataset.num_entities)

    def table(self, side: str) -> CompletionTable:
        """The completion table that filters ``side`` (``"tail"`` or ``"head"``)."""
        return self.tails if side == "tail" else self.heads

    def get(self, score_key: Tuple[str, int, int]) -> np.ndarray:
        """Completions of a serving ``("tail", h, r)`` / ``("head", r, t)`` score key."""
        side, first, second = score_key
        if side == "tail":
            return self.tails.completions(first, second)
        return self.heads.completions(second, first)
