"""The async micro-batching query engine behind the serving API.

A :class:`QueryEngine` turns the repository's *batched scoring contract*
(``score_tails_batch`` / ``score_heads_batch``, the same kernels the
evaluator streams) into a long-lived answering service for
:class:`repro.api.Query` requests:

* **Micro-batching.**  Concurrent ``submit()`` calls park on futures in a
  pending list; the list is flushed into one batched kernel call per side
  on the event loop's next turn, or at once when ``max_batch`` requests
  have coalesced.  A flush takes every request parked in the same loop
  turn, and no request waits on a timer: the batch is whatever arrived
  while the loop was busy, so it grows with the load.  Batching is where
  embedding models get their throughput — a ``(B, E)`` kernel call
  amortizes the per-call overhead B ways — so under concurrent load the
  engine approaches the evaluator's bulk throughput, while a lone query is
  scored as soon as the loop is free.
* **Caching.**  Score rows are cached by the query's ``score_key`` in a
  bounded :class:`repro.serve.cache.ScoreCache` LRU, so repeated and
  overlapping queries (the common case for a completion service: many
  ``k``/``filtered`` variants of the same ``(h, r)``) skip scoring entirely.
  Cached rows are immutable: answering only reads them.
* **Exactness.**  Top-k selection is a deterministic partial sort —
  ``np.partition`` for the boundary score, boundary ties resolved toward the
  smallest entity id — so the answer order is the total order
  ``(score desc, id asc)`` without ever fully sorting the ``|E|``-wide row.
  Filtered answers drop the completions held by the evaluator's
  :class:`~repro.kg.known_index.KnownTripleIndex`.  Requested ranks are
  exact mean-tie ranks read off the selection (:func:`selection_ranks`):
  every pool score above the last selected one is selected, so only the
  ties at that boundary score need one count over the pool.  They equal
  :func:`repro.eval.sharding.mean_tie_ranks` (the one-row form of the
  evaluator's :func:`~repro.eval.sharding.rank_block`), so engine answers
  are bit-identical to evaluator ranks — asserted for the whole model zoo
  in the test suite.

The engine is deliberately single-loop: flushes run inline on the event
loop (scoring a micro-batch IS the unit of work; interleaving partial
batches would only shrink B).  A synchronous facade for threads and for the
evaluator lives in :class:`EngineClient`.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..api.serving import BatchResult, Query, QueryBatch, TopKResult
from ..kg.known_index import KnownTripleIndex
from ..telemetry import OCCUPANCY_BUCKETS, get_telemetry
from .cache import DEFAULT_CACHE_ENTRIES, CacheStats, ScoreCache


def known_completion_index(*sources: Any, num_entities: int = 0) -> KnownTripleIndex:
    """The filtered-serving index: the evaluator's :class:`KnownTripleIndex`
    over the union of ``sources``, so filtered answers match filtered ranks."""
    return KnownTripleIndex.from_triples(*sources, num_entities=num_entities)


def topk_row(
    row: np.ndarray, k: int, candidates: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic top-k of one score row: ids and scores by ``(score desc, id asc)``.

    ``candidates`` (sorted ascending ids) restricts the pool — the filtered
    path passes all entities minus the known completions.  Selection is a
    partial sort: ``np.partition`` finds the k-th score, everything strictly
    above it is in, and boundary ties are admitted smallest-id-first, which
    is exactly the prefix of the total order ``lexsort((ids, -row))`` —
    without the ``O(E log E)`` full sort.
    """
    pool = row if candidates is None else row[candidates]
    n = int(pool.shape[0])
    k = min(int(k), n)
    if k <= 0:
        return np.empty(0, dtype=np.int64), np.empty(0)
    if k < n:
        boundary = np.partition(pool, n - k)[n - k]
        picked = np.flatnonzero(pool > boundary)
        ties = np.flatnonzero(pool == boundary)[: k - picked.size]
        picked = np.concatenate([picked, ties])
    else:
        picked = np.arange(n)
    # Within the pool, position order == id order (candidates are sorted),
    # so sorting by (-score, position) realizes (score desc, id asc).
    picked = picked[np.lexsort((picked, -pool[picked]))]
    ids = picked if candidates is None else candidates[picked]
    return ids.astype(np.int64), np.asarray(pool[picked], dtype=np.float64)


def selection_ranks(scores: np.ndarray, boundary_ties: int) -> np.ndarray:
    """Mean-tie ranks of a top-k selection within its pool, read off the selection.

    ``scores`` are the selected scores in :func:`topk_row` order (descending).
    Every pool score above the last selected one (the boundary) is selected,
    so for each score the selection alone holds every pool score greater
    than it, and every pool score equal to it unless it is the boundary.
    ``boundary_ties`` counts the pool scores equal to the boundary.  The
    ranks ``1 + #{greater} + max(#{equal} - 1, 0) / 2`` equal
    :func:`repro.eval.sharding.mean_tie_ranks` over the pool, bit for bit.
    """
    ascending = -scores
    greater = np.searchsorted(ascending, ascending, side="left")
    equal = np.searchsorted(ascending, ascending, side="right") - greater
    equal[scores == scores[-1]] = boundary_ties
    return 1.0 + greater + np.maximum(equal - 1, 0) / 2.0


@dataclass(frozen=True)
class EngineStats:
    """A point-in-time snapshot of a :class:`QueryEngine`'s counters."""

    queries: int            #: requests answered (including cache hits)
    flushes: int            #: micro-batches dispatched to the scorer
    scored_rows: int        #: unique score rows computed by the kernels
    largest_batch: int      #: most requests coalesced into one flush
    cache: CacheStats

    def as_dict(self) -> Dict[str, Any]:
        return {
            "queries": self.queries,
            "flushes": self.flushes,
            "scored_rows": self.scored_rows,
            "largest_batch": self.largest_batch,
            "cache": self.cache.as_dict(),
        }


class QueryEngine:
    """Answers link-prediction queries against one scorer, coalescing load.

    ``known`` enables ``filtered=True`` queries (usually
    :func:`known_completion_index` over the dataset's splits; an engine
    without it treats every query as raw).  Its entity ids must fit the
    scorer's entities (``ValueError`` otherwise).  All ``submit`` calls must
    come from one event loop — threads go through :class:`EngineClient`.
    """

    def __init__(
        self,
        scorer: Any,
        num_entities: Optional[int] = None,
        known: Optional[KnownTripleIndex] = None,
        max_batch: int = 64,
        cache_entries: int = DEFAULT_CACHE_ENTRIES,
        version: Optional[str] = None,
    ) -> None:
        if num_entities is None:
            num_entities = getattr(scorer, "num_entities", None)
        if num_entities is None:
            raise ValueError(
                "num_entities is required for scorers that do not expose it"
            )
        self.scorer = scorer
        self.num_entities = int(num_entities)
        self.known = known if known is not None else KnownTripleIndex.from_triples()
        if self.known.tails.entity_radix > self.num_entities:
            raise ValueError(
                f"the known-triple index covers {self.known.tails.entity_radix} entities "
                f"but the scorer has {self.num_entities}"
            )
        self.max_batch = max(1, int(max_batch))
        self.cache = ScoreCache(cache_entries, version=version)
        #: Parked requests: (query, future, enqueue perf_counter timestamp).
        self._pending: List[
            Tuple[Query, "asyncio.Future[Tuple[np.ndarray, int]]", float]
        ] = []
        self._flush_handle: Optional[asyncio.Handle] = None
        self._queries = 0
        self._flushes = 0
        self._scored_rows = 0
        self._largest_batch = 0

    # -- dataset plumbing ----------------------------------------------------
    @classmethod
    def for_dataset(cls, scorer: Any, dataset: Any, **kwargs: Any) -> "QueryEngine":
        """An engine whose filtered queries exclude the dataset's known triples.

        ``dataset`` must be the one the scorer was trained on: equal entity and
        relation counts where the scorer exposes them (``ValueError`` otherwise).
        The score cache is keyed to the dataset's delta-snapshot fingerprint
        (after ``version``, if given), so no cached score outlives its snapshot.
        """
        for kind in ("entities", "relations"):
            ours, theirs = getattr(scorer, f"num_{kind}", None), getattr(dataset, f"num_{kind}")
            if ours is not None and int(ours) != int(theirs):
                raise ValueError(
                    f"the scorer has {ours} {kind} but dataset {dataset.name!r} has "
                    f"{theirs}: serve the dataset the model was trained on"
                )
        kwargs.setdefault("num_entities", dataset.num_entities)
        if "known" not in kwargs:
            splits = (dataset.train, dataset.valid, dataset.test)
            kwargs["known"] = known_completion_index(*splits, num_entities=dataset.num_entities)
        metadata = getattr(dataset, "metadata", None)
        state = (getattr(metadata, "notes", None) or {}).get("delta_state")
        if state:
            version = kwargs.get("version")
            kwargs["version"] = f"{version}:{state}" if version else state
        return cls(scorer, **kwargs)

    def invalidate(self, version: Optional[str] = None) -> int:
        """Drop cached score rows (the served artifact or snapshot changed)."""
        return self.cache.invalidate(version)

    # -- request path --------------------------------------------------------
    async def submit(self, query: Query) -> TopKResult:
        """Answer one query (awaits its micro-batch unless the row is cached)."""
        telemetry = get_telemetry()
        started = time.perf_counter() if telemetry.enabled else 0.0
        telemetry.counter("serve.requests").add(1)
        self._validate(query)
        self._queries += 1
        row = self.cache.get(query.score_key)
        if row is not None:
            result = self._answer(query, row, cache_hit=True, batch_size=1)
        else:
            loop = asyncio.get_running_loop()
            future: "asyncio.Future[Tuple[np.ndarray, int]]" = loop.create_future()
            self._pending.append((query, future, time.perf_counter()))
            if len(self._pending) >= self.max_batch:
                self._flush()
            elif self._flush_handle is None:
                self._flush_handle = loop.call_soon(self._flush)
            row, batch_size = await future
            result = self._answer(query, row, cache_hit=False, batch_size=batch_size)
        if telemetry.enabled:
            telemetry.histogram("serve.request_seconds").observe(
                time.perf_counter() - started
            )
        return result

    async def submit_batch(self, batch: QueryBatch) -> BatchResult:
        """Answer a request envelope; results align with the query order."""
        results = await asyncio.gather(*(self.submit(query) for query in batch.queries))
        return BatchResult(tuple(results))

    def _validate(self, query: Query) -> None:
        # The anchor is an entity on both sides (head of a tail query, tail
        # of a head query).
        if not 0 <= query.anchor < self.num_entities:
            raise ValueError(
                f"query anchor {query.anchor} out of range for {self.num_entities} entities"
            )
        num_relations = getattr(self.scorer, "num_relations", None)
        if num_relations is not None and not 0 <= query.relation < num_relations:
            raise ValueError(
                f"query relation {query.relation} out of range for {num_relations} relations"
            )

    # -- micro-batch dispatch ------------------------------------------------
    def _flush(self) -> None:
        """Score every parked request in one batched kernel call per side."""
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        pending, self._pending = self._pending, []
        if not pending:
            return
        self._flushes += 1
        self._largest_batch = max(self._largest_batch, len(pending))
        telemetry = get_telemetry()
        telemetry.counter("serve.flushes").add(1)
        if telemetry.enabled:
            now = time.perf_counter()
            queue_delay = telemetry.histogram("serve.queue_delay_seconds")
            for _, _, enqueued_at in pending:
                queue_delay.observe(max(0.0, now - enqueued_at))
            telemetry.histogram(
                "serve.flush_occupancy", bounds=OCCUPANCY_BUCKETS
            ).observe(len(pending) / self.max_batch)
        # Requests sharing a score key are scored once (the evaluator's
        # deduplication, applied to concurrent traffic).
        order: List[Tuple[str, int, int]] = []
        seen: Dict[Tuple[str, int, int], None] = {}
        for query, _, _ in pending:
            if query.score_key not in seen:
                seen[query.score_key] = None
                order.append(query.score_key)
        try:
            rows = self._score_keys(order)
        except Exception as error:  # pragma: no cover - scorer failure path
            for _, future, _ in pending:
                if not future.done():
                    future.set_exception(error)
            return
        batch_size = len(pending)
        for query, future, _ in pending:
            if not future.done():
                future.set_result((rows[query.score_key], batch_size))

    def _score_keys(
        self, order: Sequence[Tuple[str, int, int]]
    ) -> Dict[Tuple[str, int, int], np.ndarray]:
        # Late import: eval.ranking pulls in the dataset layer; the engine
        # only needs the two pure kernels.
        from ..eval.sharding import score_query_chunk

        rows: Dict[Tuple[str, int, int], np.ndarray] = {}
        for side in ("tail", "head"):
            keys = [key for key in order if key[0] == side]
            if not keys:
                continue
            matrix = score_query_chunk(
                self.scorer, np.array([(a, b) for _, a, b in keys], dtype=np.int64), side
            )
            self._scored_rows += len(keys)
            get_telemetry().counter("serve.scored_rows").add(len(keys))
            for key, row in zip(keys, matrix):
                row = np.ascontiguousarray(row, dtype=np.float64)
                row.setflags(write=False)
                self.cache.put(key, row)
                rows[key] = row
        return rows

    # -- answering -----------------------------------------------------------
    def _answer(
        self, query: Query, row: np.ndarray, cache_hit: bool, batch_size: int
    ) -> TopKResult:
        known = self.known.get(query.score_key) if query.filtered else None
        candidates = None
        if known is not None and len(known):
            keep = np.ones(self.num_entities, dtype=bool)
            keep[known] = False
            candidates = np.flatnonzero(keep)
        ids, scores = topk_row(row, query.k, candidates)
        ranks: Tuple[float, ...] = ()
        if query.with_ranks and ids.size:
            # A filtered pool holds no known completion, so these are the
            # filtered ranks of a filtered query and the raw ranks otherwise.
            boundary_ties = int(np.count_nonzero(row == scores[-1]))
            if candidates is not None:
                boundary_ties -= int(np.count_nonzero(row[known] == scores[-1]))
            ranks = tuple(selection_ranks(scores, boundary_ties).tolist())
        return TopKResult(
            side=query.side,
            anchor=query.anchor,
            relation=query.relation,
            entities=tuple(ids.tolist()),
            scores=tuple(scores.tolist()),
            ranks=ranks,
            filtered=query.filtered,
            cache_hit=cache_hit,
            batch_size=batch_size,
        )

    @property
    def stats(self) -> EngineStats:
        return EngineStats(
            queries=self._queries,
            flushes=self._flushes,
            scored_rows=self._scored_rows,
            largest_batch=self._largest_batch,
            cache=self.cache.stats,
        )


# --------------------------------------------------------------------------- sync facade
class EngineClient:
    """A synchronous client of a :class:`QueryEngine` — and a scorer.

    The client owns a daemon thread running the engine's event loop, so
    ordinary synchronous code (tests, the CLI, the evaluator) can issue
    queries with plain calls; concurrent calls from many threads coalesce in
    the engine exactly like concurrent coroutines.

    It also implements the evaluator's :class:`CandidateScorer` contract —
    the batched kernels ``score_tails_batch`` / ``score_heads_batch`` — by
    reconstructing full score rows from ``k = |E|`` engine answers.  That
    makes ``evaluate_model(EngineClient(engine), ...)`` a *client of the
    serving protocol*: the regression suite runs the full evaluation through
    it and asserts bit-identical metrics, which is the strongest statement
    that serving answers and evaluation ranks can never drift.
    """

    def __init__(self, engine: QueryEngine) -> None:
        self.engine = engine
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-query-engine", daemon=True
        )
        self._thread.start()

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join()
            self._loop.close()

    def __enter__(self) -> "EngineClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- query surface -------------------------------------------------------
    def query(self, query: Query) -> TopKResult:
        return asyncio.run_coroutine_threadsafe(
            self.engine.submit(query), self._loop
        ).result()

    def query_batch(self, batch: QueryBatch) -> BatchResult:
        """Submit every query concurrently (they coalesce into micro-batches)."""
        return asyncio.run_coroutine_threadsafe(
            self.engine.submit_batch(batch), self._loop
        ).result()

    # -- CandidateScorer protocol -------------------------------------------
    @property
    def name(self) -> str:
        return getattr(self.engine.scorer, "name", type(self.engine.scorer).__name__)

    @property
    def num_entities(self) -> int:
        return self.engine.num_entities

    @property
    def num_relations(self) -> Optional[int]:
        return getattr(self.engine.scorer, "num_relations", None)

    def _full_row(self, result: TopKResult) -> np.ndarray:
        row = np.empty(self.engine.num_entities, dtype=np.float64)
        row[np.asarray(result.entities, dtype=np.int64)] = result.scores
        return row

    def _row_query(self, side: str, a: int, b: int) -> Query:
        # k = |E| with ranks off: the answer enumerates the whole row.
        if side == "tail":
            return Query.tail(a, b, k=self.engine.num_entities, with_ranks=False)
        return Query.head(a, b, k=self.engine.num_entities, with_ranks=False)

    def _score_batch(self, side: str, first: Any, second: Any) -> np.ndarray:
        queries = [
            self._row_query(side, int(a), int(b)) for a, b in zip(first, second)
        ]
        batch = self.query_batch(QueryBatch.of(*queries))
        return np.stack([self._full_row(result) for result in batch.results])

    def score_tails_batch(self, heads: Any, relations: Any) -> np.ndarray:
        return self._score_batch("tail", heads, relations)

    def score_heads_batch(self, relations: Any, tails: Any) -> np.ndarray:
        return self._score_batch("head", relations, tails)
