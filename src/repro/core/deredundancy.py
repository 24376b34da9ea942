"""Dataset de-redundancy transforms: FB15k-237-, WN18RR- and YAGO3-10-DR-style.

Section 5.1 describes how the de-redundant variants of the three benchmarks
were constructed:

* **FB15k-237** (Toutanova & Chen): detect (reverse-)duplicate relation pairs,
  keep only one relation of each pair, and additionally drop every test/valid
  triple whose entity pair is directly linked in the training set through any
  relation.
* **WN18RR** (Dettmers et al.): keep one relation from each reverse pair;
  symmetric relations are retained (which the paper criticizes — over a third
  of WN18RR's training triples still belong to them).
* **YAGO3-10-DR** (the paper's own contribution): drop ``playsFor`` (the
  duplicate of ``isAffiliatedTo``), keep one triple of each symmetric training
  pair, and drop symmetric test/valid triples whose entity pair is linked in
  training.

The same three procedures are implemented here against the *detected*
redundancy (never the generator metadata), so they apply to any dataset.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from ..kg.dataset import Dataset
from ..kg.triples import Triple, TripleSet
from .redundancy import RedundancyReport, analyse_redundancy


def _linked_pairs(train: TripleSet) -> Set[Tuple[int, int]]:
    """Unordered entity pairs directly linked in the training set by any relation."""
    linked: Set[Tuple[int, int]] = set()
    for h, _, t in train:
        linked.add((h, t))
        linked.add((t, h))
    return linked


def _relations_to_drop(report: RedundancyReport) -> Set[int]:
    """Pick one relation to drop from each detected redundant pair.

    The smaller relation of a pair is dropped (ties broken by id), mirroring
    the "keep the most frequent relation" convention of FB15k-237.
    """
    drop: Set[int] = set()
    for overlap in (
        report.duplicate_pairs + report.reverse_duplicate_pairs + report.reverse_pairs
    ):
        a, b = overlap.relation_a, overlap.relation_b
        if a in drop or b in drop:
            continue
        if overlap.size_a >= overlap.size_b:
            drop.add(b)
        else:
            drop.add(a)
    return drop


def _dedupe_symmetric(
    triples: TripleSet, symmetric_relations: Set[int]
) -> TripleSet:
    """Keep only one direction of each symmetric pair within ``triples``."""
    kept = TripleSet()
    seen_pairs: Set[Tuple[int, int, int]] = set()
    for h, r, t in triples:
        if r in symmetric_relations:
            canonical = (min(h, t), r, max(h, t))
            if canonical in seen_pairs:
                continue
            seen_pairs.add(canonical)
        kept.add((h, r, t))
    return kept


def remove_redundant_relations(
    dataset: Dataset,
    name: Optional[str] = None,
    theta_1: float = 0.8,
    theta_2: float = 0.8,
    drop_linked_test_pairs: bool = True,
    dedupe_symmetric_train: bool = False,
    report: Optional[RedundancyReport] = None,
) -> Dataset:
    """Generic de-redundancy transform underlying all three dataset variants."""
    report = report or analyse_redundancy(dataset.all_triples(), theta_1, theta_2)
    drop = _relations_to_drop(report)
    keep_relations = [r for r in range(dataset.num_relations) if r not in drop]
    symmetric = set(report.symmetric_relations)

    train = dataset.train.filter_relations(keep_relations)
    valid = dataset.valid.filter_relations(keep_relations)
    test = dataset.test.filter_relations(keep_relations)

    if dedupe_symmetric_train:
        train = _dedupe_symmetric(train, symmetric)

    if drop_linked_test_pairs:
        linked = _linked_pairs(train)

        def not_leaked(triple: Triple) -> bool:
            h, r, t = triple
            if dedupe_symmetric_train and r not in symmetric:
                # YAGO3-10-DR only prunes symmetric-relation test triples.
                return True
            return (h, t) not in linked

        valid = valid.filter(not_leaked)
        test = test.filter(not_leaked)

    return dataset.with_splits(
        name or f"{dataset.name}-deredundant",
        train,
        valid,
        test,
        notes={
            "deredundancy": (
                f"dropped {len(drop)} redundant relations; "
                f"symmetric dedup={dedupe_symmetric_train}; "
                f"linked-pair pruning={drop_linked_test_pairs}"
            ),
        },
    )


def make_fb15k237_like(dataset: Dataset, report: Optional[RedundancyReport] = None) -> Dataset:
    """FB15k → FB15k-237-style transform (Toutanova & Chen's procedure)."""
    return remove_redundant_relations(
        dataset,
        name=dataset.name.replace("FB15k", "FB15k-237") if "FB15k" in dataset.name
        else f"{dataset.name}-237",
        drop_linked_test_pairs=True,
        dedupe_symmetric_train=False,
        report=report,
    )


def make_wn18rr_like(dataset: Dataset, report: Optional[RedundancyReport] = None) -> Dataset:
    """WN18 → WN18RR-style transform (reverse pairs collapsed, symmetric kept)."""
    return remove_redundant_relations(
        dataset,
        name=dataset.name.replace("WN18", "WN18RR") if "WN18" in dataset.name
        else f"{dataset.name}-RR",
        drop_linked_test_pairs=True,
        dedupe_symmetric_train=False,
        report=report,
    )


def make_yago_dr_like(
    dataset: Dataset,
    report: Optional[RedundancyReport] = None,
    theta_1: float = 0.7,
    theta_2: float = 0.7,
) -> Dataset:
    """YAGO3-10 → YAGO3-10-DR-style transform (the paper's own procedure).

    The default thresholds are slightly lower than FB15k's 0.8 because the
    paper itself treats ``isAffiliatedTo`` / ``playsFor`` as duplicates even
    though their overlap shares are 0.75 / 0.87.
    """
    return remove_redundant_relations(
        dataset,
        name=f"{dataset.name}-DR" if not dataset.name.endswith("-DR") else dataset.name,
        theta_1=theta_1,
        theta_2=theta_2,
        drop_linked_test_pairs=True,
        dedupe_symmetric_train=True,
        report=report,
    )
