"""The :class:`Dataset` abstraction: a benchmark with train/valid/test splits.

A dataset bundles a :class:`~repro.kg.vocabulary.Vocabulary`, the three triple
splits used by the link-prediction protocol, and optional *provenance
metadata* that the synthetic generators attach (which relations are reverse
pairs, duplicates, Cartesian products, concatenated, …).  The metadata plays
the role of the May-2013 Freebase snapshot annotations in the paper (e.g. the
``reverse_property`` relation): analysis code may use it as an oracle, while
the detection algorithms in :mod:`repro.core` never look at it — they have to
rediscover the structure from the triples alone, exactly as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .triples import Triple, TripleSet, merge
from .vocabulary import Vocabulary


@dataclass
class RelationProvenance:
    """Ground-truth structure of a synthetic relation (generator metadata)."""

    name: str
    kind: str = "normal"
    reverse_of: Optional[str] = None
    duplicate_of: Optional[str] = None
    reverse_duplicate_of: Optional[str] = None
    symmetric: bool = False
    concatenated: bool = False
    cartesian: bool = False

    def describes_redundancy(self) -> bool:
        """True if the generator marked this relation as redundant in any way."""
        return bool(
            self.reverse_of
            or self.duplicate_of
            or self.reverse_duplicate_of
            or self.symmetric
            or self.cartesian
        )


@dataclass
class DatasetMetadata:
    """Optional generator-provided ground truth about a dataset's relations."""

    source: str = "unknown"
    relation_provenance: Dict[str, RelationProvenance] = field(default_factory=dict)
    reverse_property_pairs: List[Tuple[str, str]] = field(default_factory=list)
    notes: Dict[str, str] = field(default_factory=dict)

    def provenance_of(self, relation_name: str) -> RelationProvenance:
        return self.relation_provenance.get(
            relation_name, RelationProvenance(name=relation_name)
        )


class DatasetError(ValueError):
    """Raised for malformed datasets (e.g. empty splits, id out of range)."""


@dataclass
class Dataset:
    """A link-prediction benchmark: vocabulary plus train/valid/test splits."""

    name: str
    vocab: Vocabulary
    train: TripleSet
    valid: TripleSet
    test: TripleSet
    metadata: DatasetMetadata = field(default_factory=DatasetMetadata)

    def __post_init__(self) -> None:
        self._all: Optional[TripleSet] = None

    # -- validation ---------------------------------------------------------
    def validate(self) -> None:
        """Check id ranges and non-empty training split; raise :class:`DatasetError`."""
        if len(self.train) == 0:
            raise DatasetError(f"dataset {self.name!r} has an empty training set")
        num_e = self.vocab.num_entities
        num_r = self.vocab.num_relations
        for split_name, split in self.splits().items():
            for h, r, t in split:
                if not (0 <= h < num_e and 0 <= t < num_e):
                    raise DatasetError(
                        f"{self.name}/{split_name}: entity id out of range in {(h, r, t)}"
                    )
                if not (0 <= r < num_r):
                    raise DatasetError(
                        f"{self.name}/{split_name}: relation id out of range in {(h, r, t)}"
                    )

    # -- basic accessors ------------------------------------------------------
    @property
    def num_entities(self) -> int:
        return self.vocab.num_entities

    @property
    def num_relations(self) -> int:
        return self.vocab.num_relations

    def splits(self) -> Dict[str, TripleSet]:
        return {"train": self.train, "valid": self.valid, "test": self.test}

    def all_triples(self) -> TripleSet:
        """Union of train, valid and test (cached)."""
        if self._all is None:
            self._all = merge(self.train, self.valid, self.test)
        return self._all

    def known_triples(self) -> Set[Triple]:
        """Set of every triple in any split (filters use :class:`KnownTripleIndex`)."""
        return self.all_triples().as_set()

    def test_relations(self) -> List[int]:
        """Distinct relation ids appearing in the test split."""
        return self.test.relations

    def relation_name(self, relation_id: int) -> str:
        return self.vocab.relation_label(relation_id)

    def relation_id(self, relation_name: str) -> int:
        return self.vocab.relation_id(relation_name)

    def provenance_of(self, relation_id: int) -> RelationProvenance:
        return self.metadata.provenance_of(self.relation_name(relation_id))

    # -- derivation -------------------------------------------------------------
    def with_splits(
        self,
        name: str,
        train: TripleSet,
        valid: TripleSet,
        test: TripleSet,
        notes: Optional[Dict[str, str]] = None,
    ) -> "Dataset":
        """Return a new dataset sharing this vocabulary but with new splits.

        Used by the de-redundancy transforms (FB15k → FB15k-237-like, etc.).
        """
        metadata = DatasetMetadata(
            source=self.metadata.source,
            relation_provenance=dict(self.metadata.relation_provenance),
            reverse_property_pairs=list(self.metadata.reverse_property_pairs),
            notes={**self.metadata.notes, **(notes or {})},
        )
        return Dataset(
            name=name,
            vocab=self.vocab,
            train=train,
            valid=valid,
            test=test,
            metadata=metadata,
        )

    def restricted_to_relations(self, relation_ids: Iterable[int], name: str) -> "Dataset":
        """Keep only the given relations in every split."""
        keep = set(relation_ids)
        return self.with_splits(
            name,
            self.train.filter_relations(keep),
            self.valid.filter_relations(keep),
            self.test.filter_relations(keep),
            notes={"restricted_to": f"{len(keep)} relations"},
        )

    # -- presentation ------------------------------------------------------------
    def summary(self) -> Dict[str, int]:
        """Row of the paper's Table 1 for this dataset."""
        return {
            "entities": self.num_entities,
            "relations": self.num_relations,
            "train": len(self.train),
            "valid": len(self.valid),
            "test": len(self.test),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.summary()
        return (
            f"Dataset({self.name!r}, entities={s['entities']}, relations={s['relations']}, "
            f"train={s['train']}, valid={s['valid']}, test={s['test']})"
        )


def build_dataset_from_labelled_triples(
    name: str,
    train: Iterable[Tuple[str, str, str]],
    valid: Iterable[Tuple[str, str, str]],
    test: Iterable[Tuple[str, str, str]],
    metadata: Optional[DatasetMetadata] = None,
) -> Dataset:
    """Construct a dataset from labelled triples, building the vocabulary.

    The vocabulary is built from the training split first so that entity and
    relation ids are dense and stable regardless of the validation/test
    content, mirroring the common convention of the public benchmark loaders.
    """
    vocab = Vocabulary()
    encoded: Dict[str, TripleSet] = {}
    for split_name, rows in (("train", train), ("valid", valid), ("test", test)):
        split = TripleSet()
        for head, relation, tail in rows:
            split.add(vocab.encode_triple(head, relation, tail))
        encoded[split_name] = split
    dataset = Dataset(
        name=name,
        vocab=vocab,
        train=encoded["train"],
        valid=encoded["valid"],
        test=encoded["test"],
        metadata=metadata or DatasetMetadata(),
    )
    dataset.validate()
    return dataset
