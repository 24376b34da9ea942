"""Sharded multi-process link-prediction evaluation over columnar query blocks.

The batched ranking protocol reduces evaluation to scoring a stream of
deduplicated ``(h, r)`` / ``(r, t)`` queries, and every query's raw and
filtered mean-tie ranks depend only on its own ``(E,)`` score row, its target
entities and its known completions — queries are fully independent
subproblems.  One side's queries travel as a :class:`QueryWork`: a sorted
``(Q, 2)`` query array plus CSR (offset-array) runs of targets and known
completions, so a contiguous slice of queries is a handful of array views.

This module exploits that independence: the query order is partitioned into
contiguous **shards**, each shard is ranked in a worker process, and the
per-shard rank arrays are concatenated back in shard order, so the merged
result is bit-identical to ranking the whole order in-process.

Design constraints, in decreasing order of importance:

* **Determinism.** ``plan_shards`` depends only on its arguments, workers are
  mapped over shards with ``Pool.map`` (which preserves submission order), and
  the merge is a plain concatenation — no completion-order nondeterminism can
  leak into the ranks.
* **Bit-identity.** Workers run :func:`rank_shard`, the *same* function the
  in-process path uses, with the same ``eval_batch_size`` chunking; rank
  extraction is exact comparison counting, so shard boundaries are
  unobservable in the output.
* **Spawn safety.** The worker entry points are module-level functions, the
  scorer is shipped exactly once per worker through the pool initializer
  (not once per shard), each shard carries its own targets and known
  completions, and :mod:`repro.autodiff` tensors drop their autodiff graph on
  pickling, so the subsystem works under ``fork``, ``forkserver`` and
  ``spawn`` alike.
* **Graceful fallback.** ``n_workers=1`` (or an empty workload, or a platform
  without multiprocessing start methods) never creates a pool — it is the
  exact in-process batched path.

Every scored block — the ``(eval_batch_size, E)`` scores of one chunk of
queries, freed before the next chunk is scored — is ranked by one kernel,
:func:`rank_block`: one comparison pass over the block counts, for every
(row, target) pair, the candidates scoring above and level with the target,
and the filtered counts subtract the same comparisons over the row's known
completions (a CSR gather plus segment sums).  Counts are integers, so the
ranks are bit-identical at any batch size; ``eval_batch_size`` is the one
knob that bounds the resident score block.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..telemetry import Telemetry, get_telemetry, scoped

#: A deduplicated link-prediction query: ``(head, relation)`` on the tail
#: side, ``(relation, tail)`` on the head side.
Query = Tuple[int, int]

#: Per-worker state installed by :func:`_init_worker`; lives in the worker
#: process only.
_WORKER_STATE: Optional[Tuple[Any, ...]] = None

#: Most scores :func:`rank_block` copies at once when it gathers the rows of
#: further targets (8 MB at float64), so the working set beside a block stays
#: the same however many targets its rows have.
_GATHER_BUDGET = 1 << 20


@dataclass(frozen=True, eq=False)
class QueryWork:
    """One side's deduplicated queries with their targets and known completions.

    Row ``i`` is the query ``queries[i]`` in the batched scorers' argument
    order — ``(head, relation)`` on the tail side, ``(relation, tail)`` on the
    head side.  Its targets (the entities whose ranks the test split needs)
    are ``targets[target_offsets[i]:target_offsets[i + 1]]``, at least one per
    query; its known completions (which the filtered rank removes) are
    ``known[known_offsets[i]:known_offsets[i + 1]]``.
    """

    side: str
    queries: np.ndarray
    targets: np.ndarray
    target_offsets: np.ndarray
    known: np.ndarray
    known_offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.queries)

    def __getitem__(self, rows: slice) -> "QueryWork":
        """The contiguous queries ``rows`` with their runs, offsets re-based to 0."""
        start, stop, _ = rows.indices(len(self))
        stop = max(start, stop)
        first_target, last_target = self.target_offsets[start], self.target_offsets[stop]
        first_known, last_known = self.known_offsets[start], self.known_offsets[stop]
        return QueryWork(
            side=self.side,
            queries=self.queries[start:stop],
            targets=self.targets[first_target:last_target],
            target_offsets=self.target_offsets[start:stop + 1] - first_target,
            known=self.known[first_known:last_known],
            known_offsets=self.known_offsets[start:stop + 1] - first_known,
        )


class StreamingKnownIndexBuilder:
    """A known-completion index that takes single-triple writes and retractions.

    A :data:`~repro.kg.streaming.ChunkObserver`: hook :meth:`observe` into a
    triple stream and every chunk's newly-added encoded triples extend the
    per-query candidate sets — the same ``(h, r) → {t}`` / ``(r, t) → {h}``
    grouping as :class:`repro.kg.known_index.KnownTripleIndex`.  The live
    delta maintainer (:mod:`repro.kg.deltas`) keeps one, because a delta
    can retract a triple in O(1) here; the evaluator ranks against the
    columnar index instead.
    """

    def __init__(self) -> None:
        self._tails: Dict[Query, set] = {}
        self._heads: Dict[Query, set] = {}

    def observe(self, split: str, added_triples: Sequence[Tuple[int, int, int]]) -> None:
        """Fold one chunk's newly-added encoded triples into the index."""
        del split  # the filter pools every split, as dataset.known_triples() does
        for head, relation, tail in added_triples:
            self._tails.setdefault((head, relation), set()).add(tail)
            self._heads.setdefault((relation, tail), set()).add(head)

    def retract(self, removed_triples: Sequence[Tuple[int, int, int]]) -> None:
        """Remove triples that no longer exist in **any** split.

        The filter pools every split, so the caller (the delta maintainer)
        must only retract a triple once its last split occurrence is gone.
        Emptied candidate sets are deleted, keeping the index equal to a
        from-scratch build over the surviving triples.
        """
        for head, relation, tail in removed_triples:
            tails = self._tails.get((head, relation))
            if tails is None or tail not in tails:
                continue
            tails.remove(tail)
            if not tails:
                del self._tails[(head, relation)]
            heads = self._heads[(relation, tail)]
            heads.remove(head)
            if not heads:
                del self._heads[(relation, tail)]

    def tail_filters(self) -> Dict[Query, np.ndarray]:
        """Sorted candidate arrays per ``(h, r)`` query (tail prediction)."""
        return {
            query: np.fromiter(sorted(values), dtype=np.int64, count=len(values))
            for query, values in self._tails.items()
        }

    def head_filters(self) -> Dict[Query, np.ndarray]:
        """Sorted candidate arrays per ``(r, t)`` query (head prediction)."""
        return {
            query: np.fromiter(sorted(values), dtype=np.int64, count=len(values))
            for query, values in self._heads.items()
        }


# ---------------------------------------------------------------------------- planning
def resolve_start_method(preferred: Optional[str] = None) -> str:
    """The multiprocessing start method the evaluator should use.

    ``fork`` is preferred where available (no re-import, the scorer ships by
    page sharing); otherwise the platform's first supported method is used.
    An explicit ``preferred`` must be supported on this platform.
    """
    available = multiprocessing.get_all_start_methods()
    if preferred is not None:
        if preferred not in available:
            raise ValueError(
                f"start method {preferred!r} not supported here; available: {available}"
            )
        return preferred
    if not available:  # pragma: no cover - no known platform hits this
        raise RuntimeError("platform supports no multiprocessing start method")
    return "fork" if "fork" in available else available[0]


def multiprocessing_available() -> bool:
    """Whether any process start method exists on this platform."""
    return bool(multiprocessing.get_all_start_methods())


def plan_shards(
    num_queries: int, n_workers: int, shard_size: Optional[int] = None
) -> List[Tuple[int, int]]:
    """Contiguous, deterministic ``[start, stop)`` bounds covering the query order.

    With ``shard_size=None`` the order is split into one balanced shard per
    worker (the remainder spread over the leading shards); an explicit
    ``shard_size`` yields ``ceil(num_queries / shard_size)`` shards for
    finer-grained load balancing across heterogeneous queries.  Empty shards
    are never produced, so ``n_workers > num_queries`` simply yields
    ``num_queries`` singleton shards.
    """
    if num_queries <= 0:
        return []
    n_workers = max(1, int(n_workers))
    if shard_size is not None:
        step = max(1, int(shard_size))
        return [
            (start, min(start + step, num_queries))
            for start in range(0, num_queries, step)
        ]
    shards: List[Tuple[int, int]] = []
    base, remainder = divmod(num_queries, n_workers)
    start = 0
    for index in range(min(n_workers, num_queries)):
        stop = start + base + (1 if index < remainder else 0)
        if stop > start:
            shards.append((start, stop))
        start = stop
    return shards


# ---------------------------------------------------------------------------- ranking kernels
def score_query_chunk(scorer, queries: np.ndarray, side: str) -> np.ndarray:
    """``(len(queries), E)`` float64 score matrix from the side's batched kernel.

    ``queries`` is an ``(n, 2)`` integer array in the kernels' argument
    order: ``(head, relation)`` rows for ``score_tails_batch``,
    ``(relation, tail)`` rows for ``score_heads_batch``.
    """
    kernel = scorer.score_tails_batch if side == "tail" else scorer.score_heads_batch
    scores = kernel(np.ascontiguousarray(queries[:, 0]), np.ascontiguousarray(queries[:, 1]))
    return np.asarray(scores, dtype=np.float64)


def gather_runs(
    values: np.ndarray, starts: np.ndarray, stops: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The runs ``values[starts[i]:stops[i]]`` concatenated, with their CSR offsets."""
    lengths = stops - starts
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    index = np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], lengths)
    return values[index], offsets


def _check_entities(entities: np.ndarray, width: int) -> None:
    if len(entities) and (entities.min() < 0 or entities.max() >= width):
        raise IndexError(f"entity ids must lie in [0, {width}) to index a score row")


def compare_counts(
    scores: np.ndarray, thresholds: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-threshold counts of ``scores`` strictly greater / exactly equal.

    ``scores`` is one ``(E,)`` row compared against every threshold, or a
    ``(M, E)`` block whose row ``i`` is compared against threshold ``i``.
    Returns two int64 arrays of shape ``thresholds.shape``.
    """
    rows = scores if scores.ndim == 2 else scores[None, :]
    column = thresholds[:, None]
    # A row holds fewer than 2**31 candidates; the int32 reduction of the
    # boolean mask is about twice as fast as the default int64 one.
    greater = np.add.reduce(rows > column, axis=1, dtype=np.int32)
    equal = np.add.reduce(rows == column, axis=1, dtype=np.int32)
    return greater.astype(np.int64), equal.astype(np.int64)


def rank_block(
    block: np.ndarray,
    targets: np.ndarray,
    target_offsets: np.ndarray,
    known: np.ndarray,
    known_offsets: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Raw and filtered mean-tie ranks of every (row, target) pair of a scored block.

    ``block`` is a ``(B, E)`` score array; row ``i`` ranks
    ``targets[target_offsets[i]:target_offsets[i + 1]]`` (at least one) with
    known completions ``known[known_offsets[i]:known_offsets[i + 1]]``.
    Ranks come back in pair order, as float64 arrays.

    One :func:`compare_counts` pass over the block counts, for each row's first
    target, the candidates scoring above and level with it; only the further
    targets of multi-target rows compare their rows again, gathered in slabs
    of at most :data:`_GATHER_BUDGET` scores.  The
    filtered counts subtract the same comparisons over each pair's known
    completions — a CSR gather plus segment sums — and add back the target's
    own equality hit when it is itself known.  Every count is an exact
    integer and the rank arithmetic is that of :func:`mean_tie_ranks`, so the
    ranks are bit-identical to it, row by row.
    """
    num_rows, width = block.shape
    per_row = np.diff(target_offsets)
    if num_rows and per_row.min() < 1:
        raise ValueError("every row of a ranked block needs at least one target")
    num_pairs = len(targets)
    # Flat gathers below would silently read a neighbouring row: range-check.
    _check_entities(targets, width)
    pair_rows = np.repeat(np.arange(num_rows), per_row)
    flat = block.reshape(-1)
    target_scores = flat[pair_rows * width + targets]
    lead = target_offsets[:-1]
    greater = np.empty(num_pairs, dtype=np.int64)
    equal = np.empty(num_pairs, dtype=np.int64)
    greater[lead], equal[lead] = compare_counts(block, target_scores[lead])
    rest = np.ones(num_pairs, dtype=bool)
    rest[lead] = False
    rest = np.flatnonzero(rest)
    step = max(1, _GATHER_BUDGET // max(width, 1))
    for begin in range(0, len(rest), step):
        pairs = rest[begin:begin + step]
        greater[pairs], equal[pairs] = compare_counts(
            block[pair_rows[pairs]], target_scores[pairs]
        )
    raw = 1.0 + greater + np.maximum(equal - 1, 0) / 2.0
    # Every pair compares against its row's whole run of known completions.
    candidates, runs = gather_runs(known, known_offsets[pair_rows], known_offsets[pair_rows + 1])
    if not len(candidates):
        return raw, raw.copy()
    _check_entities(candidates, width)
    owner = np.repeat(np.arange(num_pairs), np.diff(runs))
    candidate_scores = flat[pair_rows[owner] * width + candidates]
    thresholds = target_scores[owner]
    known_greater = np.bincount(owner[candidate_scores > thresholds], minlength=num_pairs)
    known_equal = np.bincount(owner[candidate_scores == thresholds], minlength=num_pairs)
    contains_target = np.bincount(owner[candidates == targets[owner]], minlength=num_pairs)
    # Removing known\{target} cannot remove the target itself: its own
    # equality hit is added back before re-deriving the tie count.
    filtered_greater = greater - known_greater
    filtered_equal = equal - (known_equal - contains_target)
    filtered = 1.0 + filtered_greater + np.maximum(filtered_equal - 1, 0) / 2.0
    return raw, filtered


def mean_tie_ranks(
    scores: np.ndarray, targets: np.ndarray, known: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Raw and filtered mean-tie ranks of ``targets`` within one score row.

    The one-row form of :func:`rank_block`, kept as the tests' rank oracle.
    All quantities are exact comparison counts, so the result is
    bit-identical to the per-triple masked computation regardless of
    batching or sharding.
    """
    target_scores = scores[targets]                                    # (M,)
    greater = (scores[None, :] > target_scores[:, None]).sum(axis=1).astype(np.float64)
    equal = (scores[None, :] == target_scores[:, None]).sum(axis=1).astype(np.float64)
    tied_others = np.maximum(equal - 1.0, 0.0)
    raw = 1.0 + greater + tied_others / 2.0
    if known is None or not len(known):
        return raw, raw.copy()
    known_scores = scores[known]                                       # (K,)
    known_greater = (known_scores[None, :] > target_scores[:, None]).sum(axis=1)
    known_equal = (known_scores[None, :] == target_scores[:, None]).sum(axis=1)
    contains_target = (known[None, :] == targets[:, None]).sum(axis=1)
    # Removing known\{target} cannot remove the target itself: its own
    # equality hit is added back before re-deriving the tie count.
    filtered_greater = greater - known_greater
    filtered_equal = equal - (known_equal - contains_target)
    filtered_tied_others = np.maximum(filtered_equal - 1.0, 0.0)
    filtered = 1.0 + filtered_greater + filtered_tied_others / 2.0
    return raw, filtered


def rank_shard(
    scorer, work: QueryWork, eval_batch_size: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Raw/filtered ranks of one shard, concatenated in query order.

    Each query contributes one rank per target, in target order.  This is the
    single ranking implementation: the in-process path runs it on the whole
    query order, workers run it on their shard.  Each block of
    ``eval_batch_size`` queries is scored by :func:`score_query_chunk`,
    ranked by :func:`rank_block` and freed before the next block is scored,
    so at most one ``(eval_batch_size, E)`` score block is resident.

    Each block opens one ``eval.score`` and one ``eval.rank`` span.
    """
    eval_batch_size = max(1, int(eval_batch_size))
    telemetry = get_telemetry()
    raw_parts: List[np.ndarray] = []
    filtered_parts: List[np.ndarray] = []
    for start in range(0, len(work), eval_batch_size):
        block = work[start:start + eval_batch_size]
        with telemetry.span("eval.score", rows=len(block)):
            scores = score_query_chunk(scorer, block.queries, work.side)
        with telemetry.span("eval.rank", targets=len(block.targets)):
            raw, filtered = rank_block(
                scores, block.targets, block.target_offsets,
                block.known, block.known_offsets,
            )
        del scores
        raw_parts.append(raw)
        filtered_parts.append(filtered)
    if not raw_parts:
        return np.empty(0), np.empty(0)
    return np.concatenate(raw_parts), np.concatenate(filtered_parts)


# ---------------------------------------------------------------------------- worker plumbing
def _shippable_scorer(scorer):
    """What the pool initializer should pickle for ``scorer``.

    A scorer carrying a saved model artifact (:mod:`repro.serve.artifact`)
    ships as its :class:`ArtifactScorerRef` — a few strings — instead of its
    full parameter tables; each worker re-opens the artifact's ``.npy``
    files memory-mapped, so all workers share one physical copy of the
    tables through the page cache.  Scorers without an artifact ship as
    before (whole-object pickle).
    """
    from ..serve.artifact import artifact_ref_for

    return artifact_ref_for(scorer) or scorer


def _init_worker(scorer, eval_batch_size: int, telemetry_enabled: bool = False) -> None:
    """Pool initializer: install the scorer once per worker."""
    global _WORKER_STATE
    from ..serve.artifact import ArtifactScorerRef

    if isinstance(scorer, ArtifactScorerRef):
        scorer = scorer.resolve()
    _WORKER_STATE = (scorer, eval_batch_size, telemetry_enabled)


def _rank_one_shard(
    telemetry: Telemetry,
    scorer,
    shard_index: int,
    work: QueryWork,
    eval_batch_size: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """One shard's ranks, wrapped in the shared span/counter instrumentation.

    :func:`rank_shard` records only its per-block spans, so both the
    in-process path and the pool workers record their shards here instead.
    """
    with telemetry.span(
        "eval.rank_shard", side=work.side, shard=shard_index, entries=len(work)
    ):
        raw, filtered = rank_shard(scorer, work, eval_batch_size)
    telemetry.counter("eval.shards").add(1)
    telemetry.counter("eval.entries").add(len(work))
    telemetry.counter("eval.ranked_targets").add(len(raw))
    return raw, filtered


def _rank_shard_task(
    task: Tuple[int, QueryWork],
) -> Tuple[np.ndarray, np.ndarray, Optional[Dict[str, Any]]]:
    """Worker entry point: rank one shard against the installed state.

    Returns the shard's rank arrays plus a telemetry payload (``None`` when
    telemetry is off).  Each task runs under its own fresh scoped
    :class:`Telemetry` — workers persist across tasks, so reusing one
    worker-global registry would double-count a shard's metrics into every
    later payload from the same worker.
    """
    assert _WORKER_STATE is not None, "worker used before initialization"
    scorer, eval_batch_size, telemetry_enabled = _WORKER_STATE
    shard_index, work = task
    with scoped(Telemetry(enabled=telemetry_enabled)) as telemetry:
        raw, filtered = _rank_one_shard(
            telemetry, scorer, shard_index, work, eval_batch_size
        )
        payload = telemetry.worker_payload() if telemetry_enabled else None
    return raw, filtered, payload


def evaluate_shards(
    scorer,
    work: Sequence[QueryWork],
    n_workers: int,
    shard_size: Optional[int],
    eval_batch_size: int,
    start_method: Optional[str] = None,
) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """Rank every side's query order, sharded across worker processes.

    ``work`` holds one :class:`QueryWork` per side; the returned arrays, keyed
    by side, are concatenated in query order, so the caller scatters them
    back to triple positions exactly as it would the in-process result.
    ``n_workers <= 1``, an empty workload, or a platform without
    multiprocessing support all take the exact in-process path.
    """
    n_workers = max(1, int(n_workers))
    telemetry = get_telemetry()
    total_entries = sum(len(side_work) for side_work in work)
    if n_workers == 1 or total_entries == 0 or not multiprocessing_available():
        return {
            side_work.side: _rank_one_shard(telemetry, scorer, 0, side_work, eval_batch_size)
            for side_work in work
        }
    tasks: List[Tuple[int, QueryWork]] = []
    for side_work in work:
        for index, (start, stop) in enumerate(
            plan_shards(len(side_work), n_workers, shard_size)
        ):
            tasks.append((index, side_work[start:stop]))
    context = multiprocessing.get_context(resolve_start_method(start_method))
    processes = min(n_workers, len(tasks))
    with context.Pool(
        processes=processes,
        initializer=_init_worker,
        initargs=(_shippable_scorer(scorer), eval_batch_size, telemetry.enabled),
    ) as pool:
        # Pool.map preserves task submission order: the merge below is a
        # deterministic concatenation, independent of completion order.
        shard_results = pool.map(_rank_shard_task, tasks)
    raw_parts: Dict[str, List[np.ndarray]] = {side_work.side: [] for side_work in work}
    filtered_parts: Dict[str, List[np.ndarray]] = {side_work.side: [] for side_work in work}
    for (_, shard), (raw, filtered, payload) in zip(tasks, shard_results):
        raw_parts[shard.side].append(raw)
        filtered_parts[shard.side].append(filtered)
        # Metric merges are exact (integer counts, rational sums) and
        # order-independent; absorbing in submission order keeps the span
        # stream deterministic too.
        telemetry.absorb_worker_payload(payload)
    return {
        side: (
            np.concatenate(raw_parts[side]) if raw_parts[side] else np.empty(0),
            np.concatenate(filtered_parts[side]) if filtered_parts[side] else np.empty(0),
        )
        for side in raw_parts
    }
