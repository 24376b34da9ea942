"""The link-prediction ranking protocol (Section 3.2 of the paper), batched.

For every test triple ``(h, r, t)`` the evaluator ranks ``t`` against every
entity as a candidate tail of ``(h, r, ?)`` and ``h`` against every entity as
a candidate head of ``(?, r, t)``.  Two ranks are produced per side:

* the **raw** rank over all candidates, and
* the **filtered** rank, where candidates that are known positive triples
  (in train, valid or test — or in an *alternate ground truth* such as the
  simulated Freebase snapshot for Table 3) are removed before ranking.

Ties are resolved with the *mean* convention (the true triple is placed in
the middle of the candidates sharing its score).  This matters for the
rule-based and Cartesian-product predictors, which assign identical scores to
many candidates; optimistic tie-breaking would inflate their accuracy and
pessimistic tie-breaking would unfairly punish them.

The evaluator runs the protocol **batched**, over arrays:

* the known triples are one :class:`~repro.kg.known_index.KnownTripleIndex`
  — CSR tables ``(h, r) → tails`` and ``(r, t) → heads`` — built once per
  dataset (the pipeline caches it in its artifact store);
* test queries are deduplicated by ``(h, r)`` (tail side) / ``(r, t)`` (head
  side) with ``np.unique`` over packed query keys, so each unique query is
  scored exactly once per run, however many test triples share it;
* unique queries are streamed through the scorer's
  ``score_tails_batch`` / ``score_heads_batch`` contract in configurable
  chunks (``EvalOptions.batch_size``), keeping the ``(B, E)`` score matrices
  memory-bounded on FB15k-scale runs;
* each scored block is ranked whole by
  :func:`~repro.eval.sharding.rank_block`: raw and filtered mean-tie ranks
  from vectorized comparison counts, the filter's counts from a CSR gather
  of the block's known completions, and ranks scatter back to triple
  positions through index arrays.

Rank extraction is exact integer comparison counting, so given equal score
vectors the batched path agrees bit-for-bit with the per-triple protocol;
the regression suite keeps that protocol as a test oracle and asserts rank
identity against it for every scorer family.

Because unique queries are fully independent, the batched path also runs
**sharded across worker processes** (``EvalOptions.workers >= 2``): the
unique-query order is partitioned into contiguous shards, workers rank each
shard with the very same kernel the in-process path uses, and the per-shard
rank arrays are merged back deterministically — see
:mod:`repro.eval.sharding`.  Metrics are bit-identical to the single-process
batched path at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Protocol, Sequence, Tuple, Union

import numpy as np

from ..api.options import EvalOptions
from ..api.schema import EVALUATION_DEFAULTS
from ..kg.dataset import Dataset
from ..kg.known_index import KnownTripleIndex, as_triple_array
from ..kg.sampling import packed_key_radices
from ..kg.triples import Triple, TripleSet
from ..telemetry import get_telemetry
from .metrics import MetricPair, RankingMetrics, metrics_from_rank_pairs
from .sharding import QueryWork, evaluate_shards, gather_runs

#: The prediction sides the protocol ranks.
SIDES = ("head", "tail")

#: Unique queries scored per batched scorer call; bounds the (B, E) score
#: matrix so large-scale evaluations stay memory-bounded.  The canonical
#: value lives in the knob schema (``evaluation.batch_size``).
DEFAULT_EVAL_BATCH_SIZE = EVALUATION_DEFAULTS["batch_size"]


class CandidateScorer(Protocol):
    """What the evaluator needs from a model (embedding, rule-based or baseline).

    Each kernel returns a ``(B, E)`` matrix of candidate scores for ``B``
    queries; nothing else is called.
    """

    def score_tails_batch(self, heads: np.ndarray, relations: np.ndarray) -> np.ndarray: ...

    def score_heads_batch(self, relations: np.ndarray, tails: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class RankRecord:
    """The ranks of one test triple on one prediction side."""

    head: int
    relation: int
    tail: int
    side: str                  # "head" or "tail"
    raw_rank: float
    filtered_rank: float

    @property
    def triple(self) -> Triple:
        return (self.head, self.relation, self.tail)


@dataclass
class EvaluationResult:
    """All rank records of one (model, dataset) evaluation plus aggregations."""

    model_name: str
    dataset_name: str
    records: List[RankRecord] = field(default_factory=list)

    # -- aggregation -------------------------------------------------------------
    def metrics(self) -> MetricPair:
        return metrics_from_rank_pairs(
            (record.raw_rank for record in self.records),
            (record.filtered_rank for record in self.records),
        )

    def filtered_metrics(self) -> RankingMetrics:
        return RankingMetrics.from_ranks([record.filtered_rank for record in self.records])

    def raw_metrics(self) -> RankingMetrics:
        return RankingMetrics.from_ranks([record.raw_rank for record in self.records])

    def metrics_for(self, predicate) -> MetricPair:
        """Metrics restricted to the records satisfying ``predicate(record)``."""
        selected = [record for record in self.records if predicate(record)]
        return metrics_from_rank_pairs(
            (record.raw_rank for record in selected),
            (record.filtered_rank for record in selected),
        )

    def metrics_by_relation(self) -> Dict[int, MetricPair]:
        """Per-relation metric pairs (used by Table 8 and Figures 5-8)."""
        by_relation: Dict[int, List[RankRecord]] = {}
        for record in self.records:
            by_relation.setdefault(record.relation, []).append(record)
        return {
            relation: metrics_from_rank_pairs(
                (record.raw_rank for record in records),
                (record.filtered_rank for record in records),
            )
            for relation, records in by_relation.items()
        }

    def metrics_by_side(self) -> Dict[str, MetricPair]:
        """Separate head-prediction and tail-prediction metrics (Tables 9/10/12)."""
        return {
            side: self.metrics_for(lambda record, side=side: record.side == side)
            for side in ("head", "tail")
        }

    def records_by_triple(self) -> Dict[Tuple[Triple, str], RankRecord]:
        """Index records by (triple, side) for cross-model comparisons (Table 7)."""
        return {(record.triple, record.side): record for record in self.records}

    def as_row(self) -> Dict[str, float]:
        """One row of a paper table: raw and filtered measures side by side."""
        with get_telemetry().span("eval.assemble", model=self.model_name):
            row: Dict[str, float] = {"model": self.model_name, "dataset": self.dataset_name}
            row.update(self.metrics().as_dict())
        return row


class LinkPredictionEvaluator:
    """Runs the (batched) ranking protocol for any scorer on a dataset's test split."""

    def __init__(
        self,
        dataset: Dataset,
        filter_triples: Optional[Iterable[Triple]] = None,
        extra_ground_truth: Optional[TripleSet] = None,
        options: Optional[EvalOptions] = None,
        known_index: Union[KnownTripleIndex, Callable[[], KnownTripleIndex], None] = None,
    ) -> None:
        """Evaluate on ``dataset``, filtering against its known triples.

        ``filter_triples`` replaces the dataset's triples as the filter and
        ``extra_ground_truth`` extends it.  Without either, ``known_index``
        supplies the dataset's :class:`KnownTripleIndex` — prebuilt, or as a
        zero-argument callable (the pipeline passes its per-dataset cache
        lookup, so the index is built on first use and shared by every
        scorer evaluated on the dataset).
        """
        #: How this evaluation runs — the schema-derived option object.  Its
        #: eval dtype is applied to scorers exposing ``set_eval_dtype`` at
        #: ``evaluate()`` time.
        self.options = (options or EvalOptions()).normalized()
        self.dataset = dataset
        with get_telemetry().span("eval.filter_index", dataset=dataset.name):
            if filter_triples is not None:
                extra = () if extra_ground_truth is None else (extra_ground_truth,)
                known_index = KnownTripleIndex.from_triples(
                    filter_triples, *extra, num_entities=dataset.num_entities
                )
            elif extra_ground_truth is not None:
                known_index = KnownTripleIndex.for_dataset(dataset, extra=extra_ground_truth)
            elif known_index is None:
                known_index = KnownTripleIndex.for_dataset(dataset)
            elif callable(known_index):
                known_index = known_index()
        #: The filter: every known completion of a query, on both sides.
        self.known_index: KnownTripleIndex = known_index

    # -- batched ranking internals ----------------------------------------------------
    def _configure_scorer(self, scorer: CandidateScorer) -> None:
        """Apply the evaluator's eval dtype to the scorer.

        The dtype is applied on every call, the default included, so no dtype
        carries over from an earlier evaluation of the same scorer.  Scorers
        without the knob are left untouched.
        """
        configure = getattr(scorer, "set_eval_dtype", None)
        if configure is not None:
            configure(self.options.eval_dtype)

    def _side_work(self, triples: np.ndarray, side: str) -> Tuple[QueryWork, np.ndarray]:
        """One side's deduplicated queries plus the triple position of each target.

        Returns ``(work, positions)``: ``work`` has one row per unique query,
        with its targets and its known completions from :attr:`known_index`;
        ``positions[j]`` is the triple position that the rank of
        ``work.targets[j]`` scatters back to.
        """
        heads, relations, tails = triples[:, 0], triples[:, 1], triples[:, 2]
        entity_radix, relation_radix = packed_key_radices(triples, self.dataset.num_entities)
        if side == "tail":
            first, second, targets = heads, relations, tails
            keys = heads * relation_radix + relations
        else:
            first, second, targets = relations, tails, heads
            keys = relations * entity_radix + tails
        # Score unique queries in sorted order: ranks are written back by
        # triple position, so the order is unobservable, but sorting clusters
        # the head side by relation — letting scorers whose cost is dominated
        # by a per-relation precomputation (ConvE's all-entity convolution)
        # reuse it across a whole chunk instead of once per interleaved query.
        _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
        positions = np.argsort(inverse, kind="stable")
        target_offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=target_offsets[1:])
        lead = positions[target_offsets[:-1]]
        table = self.known_index.table(side)
        anchors = heads if side == "tail" else tails
        known, known_offsets = gather_runs(
            table.values, *table.ranges(anchors[lead], relations[lead])
        )
        work = QueryWork(
            side=side,
            queries=np.stack([first[lead], second[lead]], axis=1),
            targets=targets[positions],
            target_offsets=target_offsets,
            known=known,
            known_offsets=known_offsets,
        )
        return work, positions

    # -- evaluation ----------------------------------------------------------------
    def evaluate(
        self,
        scorer: CandidateScorer,
        test_triples: Optional[Sequence[Triple]] = None,
        model_name: Optional[str] = None,
        sides: Tuple[str, ...] = SIDES,
    ) -> EvaluationResult:
        """Rank every test triple on the requested sides, as :attr:`options` say.

        ``options.workers >= 2`` shards the unique-query order across worker
        processes with a deterministic merge (bit-identical ranks at any
        worker count), and ``options.batch_size`` bounds each resident score
        block (bit-identical ranks at any size).  Other knobs take another
        evaluator; pass it this one's :attr:`known_index` to share the
        filter.
        """
        unknown = [side for side in sides if side not in SIDES]
        if unknown:
            raise ValueError(
                f"unknown side(s) {unknown}; sides must be \"head\" and/or \"tail\""
            )
        source = self.dataset.test if test_triples is None else test_triples
        name = model_name or getattr(scorer, "name", type(scorer).__name__)
        result = EvaluationResult(model_name=name, dataset_name=self.dataset.name)
        self._configure_scorer(scorer)
        options = self.options
        telemetry = get_telemetry()
        work: List[QueryWork] = []
        positions: Dict[str, np.ndarray] = {}
        with telemetry.span("eval.dedup") as span:
            triples = as_triple_array(source)
            span.set(triples=len(triples))
            for side in ("tail", "head"):
                if side in sides:
                    side_work, positions[side] = self._side_work(triples, side)
                    work.append(side_work)
        # ``workers <= 1`` takes the exact in-process path inside
        # evaluate_shards (no pool is ever created), so both worker counts
        # share one instrumented entry point.
        side_ranks = evaluate_shards(
            scorer, work, options.workers, options.shard_size, options.batch_size,
            options.mp_start_method,
        )
        with telemetry.span("eval.assemble", triples=len(triples)):
            ranks: Dict[str, Tuple[List[float], List[float]]] = {}
            for side, (raw, filtered) in side_ranks.items():
                # Ranks come back in query order; scatter them to triple positions.
                by_triple = np.empty((2, len(triples)))
                by_triple[0, positions[side]] = raw
                by_triple[1, positions[side]] = filtered
                ranks[side] = (by_triple[0].tolist(), by_triple[1].tolist())
            tail_ranks = ranks.get("tail")
            head_ranks = ranks.get("head")
            records = result.records
            columns = (triples[:, 0].tolist(), triples[:, 1].tolist(), triples[:, 2].tolist())
            for position, (h, r, t) in enumerate(zip(*columns)):
                if tail_ranks is not None:
                    records.append(RankRecord(
                        h, r, t, "tail", tail_ranks[0][position], tail_ranks[1][position]
                    ))
                if head_ranks is not None:
                    records.append(RankRecord(
                        h, r, t, "head", head_ranks[0][position], head_ranks[1][position]
                    ))
        return result


def evaluate_model(
    scorer: CandidateScorer,
    dataset: Dataset,
    test_triples: Optional[Sequence[Triple]] = None,
    extra_ground_truth: Optional[TripleSet] = None,
    model_name: Optional[str] = None,
    options: Optional[EvalOptions] = None,
) -> EvaluationResult:
    """Convenience wrapper constructing the evaluator with default filtering."""
    evaluator = LinkPredictionEvaluator(
        dataset,
        extra_ground_truth=extra_ground_truth,
        options=options,
    )
    return evaluator.evaluate(scorer, test_triples=test_triples, model_name=model_name)
