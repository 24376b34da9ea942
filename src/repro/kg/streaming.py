"""Streaming dataset ingestion: a bounded-memory TSV → :class:`Dataset` pipeline.

The materializing loader (:func:`repro.kg.io.load_dataset`) reads every split
into a Python list before the first triple is usable, so its peak memory is
proportional to the dump size.  This module streams the same files through a
producer/consumer pipeline instead:

``reader thread`` → ``bounded chunk queue`` → ``consumer stages``

* the **producer** parses the (possibly gzipped) TSV into chunks of at most
  ``chunk_size`` labelled triples and pushes them into a queue holding at most
  ``max_queue_chunks`` chunks — when the consumer falls behind, the bounded
  queue blocks the reader (backpressure) instead of buffering the file;
* the **consumer** interns labels into the vocabulary in a single pass,
  inserts the encoded triples into the split's :class:`~repro.kg.triples.TripleSet`,
  and forwards each chunk's *newly added* encoded triples to observers — the
  incremental statistics builder
  (:class:`repro.kg.statistics.StreamingStatisticsBuilder`), the incremental
  redundancy index (:class:`repro.core.redundancy.StreamingPairIndexBuilder`),
  or any callable with the same shape.

At no point does a full split exist as labelled Python tuples: peak
labelled-triple residency is bounded by
``chunk_size * (max_queue_chunks + PIPELINE_SLACK_CHUNKS)`` — the queue plus
the chunk in the producer's hand and the chunk being consumed — regardless of
dataset size (``benchmarks/bench_ingest_throughput.py`` gates this in CI).

Splits are consumed in ``train → valid → test`` order with chunk-order
preserved, so the crystallized dataset is **bit-identical** to the in-memory
loader's: same vocabulary ids, same triple order, same metadata.

**Fused stream-to-shard execution** (``ingest_dataset(..., fused=True)``)
skips the :class:`~repro.kg.dataset.Dataset` materialization entirely: each
chunk's newly-added triples land as packed ``int64`` array blocks in an
:class:`ArraySplitView`, and the resulting :class:`ArrayDatasetView`
duck-types every surface the trainer, the negative samplers, the sharded
evaluator and the audit analyses consume — ``to_array`` hands training and
the evaluator's known-triple index the concatenated blocks, iteration feeds
shard planning, and the redundancy pair index is grown *during* the stream
by an observer (:class:`repro.core.redundancy.StreamingPairIndexBuilder`)
instead of from a materialized triple set afterwards.  Results are
bit-identical to the materialized path; only the peak residency differs.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from queue import Empty, Full, Queue
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from .dataset import Dataset, DatasetMetadata
from .io import (
    DatasetIOError,
    open_triples_text,
    parse_triple_line,
    read_directory_metadata,
    split_file,
)
from .statistics import DatasetStatistics, StreamingStatisticsBuilder
from .triples import Triple, TripleSet
from .vocabulary import Vocabulary

from ..api.schema import INGEST_DEFAULTS
from ..telemetry import SIZE_BUCKETS, get_telemetry

#: Labelled triples per pipeline chunk (the unit of parsing, queueing, interning).
#: The canonical value lives in the knob schema (``ingest.chunk_size``).
DEFAULT_CHUNK_SIZE = INGEST_DEFAULTS["chunk_size"]

#: Chunks the bounded queue may hold before the reader thread blocks
#: (``ingest.max_queue_chunks`` in the knob schema).
DEFAULT_MAX_QUEUE_CHUNKS = INGEST_DEFAULTS["max_queue_chunks"]

#: One chunk in the producer's hand plus one being consumed sit outside the
#: queue, so the pipeline's hard residency bound is ``max_queue_chunks + 2``
#: chunks of labelled triples.
PIPELINE_SLACK_CHUNKS = 2

#: The split consumption order that makes streamed vocabulary ids bit-identical
#: to :func:`repro.kg.dataset.build_dataset_from_labelled_triples`.
SPLIT_ORDER = ("train", "valid", "test")

LabelledTriple = Tuple[str, str, str]
Chunk = List[LabelledTriple]

#: Consumer-side hook: called once per chunk with the split name and the
#: encoded triples *newly added* to that split (duplicates already removed).
ChunkObserver = Callable[[str, Sequence[Triple]], None]


def residency_bound(chunk_size: int, max_queue_chunks: int) -> int:
    """The pipeline's peak labelled-triple residency guarantee."""
    return chunk_size * (max_queue_chunks + PIPELINE_SLACK_CHUNKS)


class PipelineMonitor:
    """Thread-safe accounting of labelled triples buffered in the pipeline."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.resident_triples = 0
        self.peak_resident_triples = 0
        self.total_triples = 0
        self.total_chunks = 0

    def produced(self, count: int) -> None:
        """A chunk of ``count`` labelled triples now exists (producer side)."""
        with self._lock:
            self.resident_triples += count
            if self.resident_triples > self.peak_resident_triples:
                self.peak_resident_triples = self.resident_triples

    def consumed(self, count: int) -> None:
        """A chunk of ``count`` labelled triples was fully processed and dropped."""
        with self._lock:
            self.resident_triples -= count
            self.total_triples += count
            self.total_chunks += 1


@dataclass(frozen=True)
class IngestProgress:
    """Cumulative pipeline counters, emitted to the progress callback per chunk."""

    split: str
    chunks: int
    triples: int
    resident_triples: int
    peak_resident_triples: int


ProgressCallback = Callable[[IngestProgress], None]


def stream_triple_chunks(
    path: Path,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    gzipped: Optional[bool] = None,
    monitor: Optional[PipelineMonitor] = None,
) -> Iterator[Chunk]:
    """Parse a TSV file into chunks of at most ``chunk_size`` labelled triples.

    A plain synchronous generator — the producer thread runs it behind the
    bounded queue, but it is equally usable standalone.  Malformed lines raise
    :class:`DatasetIOError` with the exact ``path:line_number`` position.
    """
    path = Path(path)
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if not path.exists():
        raise DatasetIOError(f"triple file not found: {path}")
    chunk: Chunk = []
    with open_triples_text(path, gzipped) as handle:
        for line_number, line in enumerate(handle, start=1):
            row = parse_triple_line(line, path, line_number)
            if row is None:
                continue
            chunk.append(row)
            if len(chunk) >= chunk_size:
                if monitor is not None:
                    monitor.produced(len(chunk))
                yield chunk
                chunk = []
    if chunk:
        if monitor is not None:
            monitor.produced(len(chunk))
        yield chunk


class _Failure:
    """Wraps a producer-side exception for re-raising on the consumer side."""

    def __init__(self, error: BaseException) -> None:
        self.error = error


_END = object()


def bounded_chunk_pipeline(
    chunks: Iterable[Chunk], max_queue_chunks: int = DEFAULT_MAX_QUEUE_CHUNKS
) -> Iterator[Chunk]:
    """Drive ``chunks`` from a producer thread through a bounded queue.

    The queue holds at most ``max_queue_chunks`` chunks; a full queue blocks
    the producer (backpressure), a producer exception is re-raised at the
    consumer with its original traceback position intact, and abandoning the
    iterator (e.g. a downstream error) stops the producer promptly.
    """
    if max_queue_chunks < 1:
        raise ValueError(f"max_queue_chunks must be >= 1, got {max_queue_chunks}")
    queue: Queue = Queue(maxsize=max_queue_chunks)
    stop = threading.Event()
    telemetry = get_telemetry()
    stalls = telemetry.counter("ingest.backpressure_stalls")
    queue_depth = telemetry.gauge("ingest.queue_depth_chunks")

    def put(item: object) -> bool:
        """Blocking put that gives up when the consumer went away."""
        while not stop.is_set():
            try:
                queue.put(item, timeout=0.05)
                return True
            except Full:
                # One stall tick per 50ms the bounded queue held the reader.
                stalls.add(1)
                continue
        return False

    def produce() -> None:
        try:
            for chunk in chunks:
                if not put(chunk):
                    return
        except BaseException as error:  # noqa: BLE001 - re-raised on the consumer side
            put(_Failure(error))
        else:
            put(_END)

    producer = threading.Thread(target=produce, name="repro-ingest-producer", daemon=True)
    producer.start()
    try:
        while True:
            try:
                item = queue.get(timeout=0.05)
            except Empty:
                if not producer.is_alive() and queue.empty():
                    break
                continue
            if item is _END:
                break
            if isinstance(item, _Failure):
                raise item.error
            queue_depth.set(queue.qsize())
            yield item
    finally:
        stop.set()
        producer.join(timeout=5.0)


class StreamingDatasetBuilder:
    """Single-pass vocabulary interning and split accumulation for a stream.

    Chunks must arrive split by split in :data:`SPLIT_ORDER` with file order
    preserved inside each split; the crystallized dataset is then bit-identical
    to :func:`repro.kg.dataset.build_dataset_from_labelled_triples` on the same
    rows — identical vocabulary ids, triple order and metadata.
    """

    def __init__(self, name: str, metadata: Optional[DatasetMetadata] = None) -> None:
        self.name = name
        self.metadata = metadata or DatasetMetadata()
        self.vocab = Vocabulary()
        self._splits: Dict[str, TripleSet] = {split: TripleSet() for split in SPLIT_ORDER}

    def split_size(self, split: str) -> int:
        return len(self._splits[split])

    def add_chunk(self, split: str, chunk: Iterable[LabelledTriple]) -> List[Triple]:
        """Encode and insert one chunk; return the newly added encoded triples.

        Every row interns its labels (exactly like the in-memory path) even
        when the encoded triple is a duplicate, so vocabulary ids never depend
        on chunking.
        """
        target = self._splits[split]
        encode = self.vocab.encode_triple
        added: List[Triple] = []
        for head, relation, tail in chunk:
            encoded = encode(head, relation, tail)
            if target.add(encoded):
                added.append(encoded)
        return added

    def build(self, validate: bool = True) -> Dataset:
        """Crystallize the stream into a (by default validated) :class:`Dataset`.

        ``validate=False`` is for the delta maintainer
        (:mod:`repro.kg.deltas`), whose canonically re-interned states may
        transiently have an empty training split — every other caller wants
        the id-range and non-empty-train checks.
        """
        dataset = Dataset(
            name=self.name,
            vocab=self.vocab,
            train=self._splits["train"],
            valid=self._splits["valid"],
            test=self._splits["test"],
            metadata=self.metadata,
        )
        if validate:
            dataset.validate()
        return dataset


class ArraySplitView:
    """One split of a fused-ingest dataset: packed ``int64`` chunk blocks.

    Duck-types the :class:`~repro.kg.triples.TripleSet` surfaces the trainer,
    the negative samplers, the evaluator and the leakage audit actually touch
    — iteration in insertion order, membership, ``as_set``, ``to_array``,
    ``relations`` and ``pairs_of`` — while storing triples as numpy blocks
    instead of a Python tuple list.  Anything rarer (``relation_size``,
    ``filter_relations``, ...) transparently falls back to a lazily
    materialized :class:`~repro.kg.triples.TripleSet`; that escape hatch
    trades the residency advantage for full compatibility, never correctness.
    """

    def __init__(self) -> None:
        self._blocks: List[np.ndarray] = []
        self._seen: Set[Triple] = set()
        self._array: Optional[np.ndarray] = None
        self._materialized: Optional[TripleSet] = None

    def extend(self, added: Sequence[Triple]) -> None:
        """Append one chunk's newly-added (already deduplicated) triples."""
        if added:
            self._blocks.append(np.asarray(added, dtype=np.int64))
            self._seen.update(added)
            self._array = None
            self._materialized = None

    # -- hot TripleSet surfaces ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._seen)

    def __iter__(self) -> Iterator[Triple]:
        for block in self._blocks:
            for row in block:
                yield (int(row[0]), int(row[1]), int(row[2]))

    def __contains__(self, triple: Triple) -> bool:
        return tuple(triple) in self._seen

    def as_set(self) -> Set[Triple]:
        return set(self._seen)

    def to_array(self) -> np.ndarray:
        """The ``(n, 3)`` int64 array — a straight concatenation of the blocks."""
        if self._array is None:
            if not self._blocks:
                self._array = np.empty((0, 3), dtype=np.int64)
            else:
                self._array = np.concatenate(self._blocks, axis=0)
        return self._array

    @property
    def relations(self) -> List[int]:
        """Distinct relation ids present, sorted."""
        return [int(r) for r in np.unique(self.to_array()[:, 1])]

    def pairs_of(self, relation: int) -> Set[Tuple[int, int]]:
        """The set of distinct (subject, object) pairs of ``relation``."""
        array = self.to_array()
        rows = array[array[:, 1] == relation]
        return {(int(h), int(t)) for h, t in rows[:, (0, 2)]}

    # -- cold surfaces: delegate to a materialized TripleSet ----------------------
    def _triple_set(self) -> TripleSet:
        if self._materialized is None:
            self._materialized = TripleSet(self)
        return self._materialized

    def __getattr__(self, name: str):
        if name.startswith("_"):
            # Never resolve dunder/private lookups (pickling, copy protocols)
            # through the materialization fallback.
            raise AttributeError(name)
        return getattr(self._triple_set(), name)

    # -- pickling (the disk cache stores fused datasets too) ----------------------
    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state["_array"] = None
        state["_materialized"] = None
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)


class ArrayDatasetView:
    """A fused-ingest dataset: split array views instead of indexed TripleSets.

    Provides every :class:`~repro.kg.dataset.Dataset` surface the pipeline
    consumes (``name``, ``vocab``, split accessors, ``num_entities``,
    ``known_triples``, ``test_relations``, ...).  The redundancy pair index
    built *during* the ingest stream rides along as :attr:`audit_index`, so
    the audit never re-scans the triples.
    ``all_triples()`` remains available as a documented escape hatch that
    materializes the merged :class:`~repro.kg.triples.TripleSet` on first use.
    """

    def __init__(
        self,
        name: str,
        vocab: Vocabulary,
        train: ArraySplitView,
        valid: ArraySplitView,
        test: ArraySplitView,
        metadata: Optional[DatasetMetadata] = None,
    ) -> None:
        self.name = name
        self.vocab = vocab
        self.train = train
        self.valid = valid
        self.test = test
        self.metadata = metadata or DatasetMetadata()
        #: Redundancy pair index grown during the stream (``None`` when the
        #: ingest ran without the audit observer).
        self.audit_index = None
        self._all_triples: Optional[TripleSet] = None

    @property
    def num_entities(self) -> int:
        return self.vocab.num_entities

    @property
    def num_relations(self) -> int:
        return self.vocab.num_relations

    def splits(self) -> Dict[str, ArraySplitView]:
        return {"train": self.train, "valid": self.valid, "test": self.test}

    def known_triples(self) -> Set[Triple]:
        """Union of every split (filters use :class:`KnownTripleIndex`)."""
        return self.train.as_set() | self.valid.as_set() | self.test.as_set()

    def test_relations(self) -> List[int]:
        return self.test.relations

    def all_triples(self) -> TripleSet:
        """Merged triple set (escape hatch: materializes on first use)."""
        if self._all_triples is None:
            merged = TripleSet(self.train)
            for triple in self.valid:
                merged.add(triple)
            for triple in self.test:
                merged.add(triple)
            self._all_triples = merged
        return self._all_triples

    def with_splits(
        self,
        name: str,
        train: TripleSet,
        valid: TripleSet,
        test: TripleSet,
        notes: Optional[Dict[str, str]] = None,
    ) -> Dataset:
        """Rebind new splits under this vocabulary, as a plain :class:`Dataset`.

        Transform boundaries (de-redundancy, relation restriction) hand over
        fully materialized :class:`~repro.kg.triples.TripleSet` splits, so the
        result leaves the fused array representation behind by construction.
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

    def validate(self) -> None:
        """Same invariants as :meth:`repro.kg.dataset.Dataset.validate`."""
        if len(self.train) == 0:
            raise ValueError(f"dataset {self.name!r} has an empty training split")
        for split_name, split in self.splits().items():
            array = split.to_array()
            if len(array) == 0:
                continue
            if int(array[:, (0, 2)].max()) >= self.num_entities or int(array[:, (0, 2)].min()) < 0:
                raise ValueError(
                    f"dataset {self.name!r} split {split_name!r} has entity ids "
                    f"outside [0, {self.num_entities})"
                )
            if int(array[:, 1].max()) >= self.num_relations or int(array[:, 1].min()) < 0:
                raise ValueError(
                    f"dataset {self.name!r} split {split_name!r} has relation ids "
                    f"outside [0, {self.num_relations})"
                )

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state["_all_triples"] = None
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)


class StreamingArrayBuilder:
    """The fused twin of :class:`StreamingDatasetBuilder`.

    Interns labels through the same single pass (vocabulary ids never depend
    on chunking or on the fused/materialized choice) but accumulates each
    chunk's newly-added triples as packed array blocks, so no split ever
    exists as a Python tuple list.
    """

    def __init__(self, name: str, metadata: Optional[DatasetMetadata] = None) -> None:
        self.name = name
        self.metadata = metadata or DatasetMetadata()
        self.vocab = Vocabulary()
        self._splits: Dict[str, ArraySplitView] = {
            split: ArraySplitView() for split in SPLIT_ORDER
        }

    def split_size(self, split: str) -> int:
        return len(self._splits[split])

    def add_chunk(self, split: str, chunk: Iterable[LabelledTriple]) -> List[Triple]:
        """Encode and insert one chunk; return the newly added encoded triples.

        Interning and per-split deduplication are identical to the
        materializing builder, so the view is bit-identical to the
        :class:`Dataset` the other path would have produced.
        """
        target = self._splits[split]
        seen = target._seen
        encode = self.vocab.encode_triple
        added: List[Triple] = []
        for head, relation, tail in chunk:
            encoded = encode(head, relation, tail)
            if encoded not in seen:
                seen.add(encoded)
                added.append(encoded)
        self._splits[split].extend(added)
        return added

    def build(self) -> ArrayDatasetView:
        """Finalize the stream into a validated :class:`ArrayDatasetView`."""
        view = ArrayDatasetView(
            name=self.name,
            vocab=self.vocab,
            train=self._splits["train"],
            valid=self._splits["valid"],
            test=self._splits["test"],
            metadata=self.metadata,
        )
        view.validate()
        return view


@dataclass
class IngestReport:
    """What one streamed ingestion produced and what it cost.

    ``dataset`` is a :class:`~repro.kg.dataset.Dataset` on the materializing
    path and an :class:`ArrayDatasetView` on the fused path.
    """

    dataset: Dataset
    statistics: DatasetStatistics
    total_triples: int
    total_chunks: int
    peak_resident_triples: int
    residency_bound: int
    chunk_size: int
    max_queue_chunks: int
    seconds: float

    @property
    def triples_per_second(self) -> float:
        return self.total_triples / self.seconds if self.seconds > 0 else 0.0


def ingest_dataset(
    directory: Path,
    name: Optional[str] = None,
    chunk_size: Optional[int] = None,
    max_queue_chunks: Optional[int] = None,
    gzipped: Optional[bool] = None,
    observers: Sequence[ChunkObserver] = (),
    progress: Optional[ProgressCallback] = None,
    progress_every_chunks: int = 50,
    fused: bool = False,
) -> IngestReport:
    """Stream a TSV dataset directory into a :class:`Dataset` under a memory budget.

    The orchestrator behind :func:`load_dataset_streaming` and the CLI's
    ``ingest`` subcommand: one producer/consumer pipeline per split (train,
    valid, test in order), single-pass vocabulary interning, incremental
    statistics, and observer fan-out for audit indexes.  ``observers`` are
    called per chunk with ``(split, newly_added_encoded_triples)``.

    ``fused=True`` selects the stream-to-shard path: the report's dataset is
    an :class:`ArrayDatasetView` whose splits stay packed array blocks, with
    the redundancy pair index grown during the stream and attached as
    ``audit_index``.  Everything downstream is bit-identical.
    """
    from ..core.redundancy import StreamingPairIndexBuilder

    directory = Path(directory)
    chunk_size = DEFAULT_CHUNK_SIZE if chunk_size is None else chunk_size
    max_queue_chunks = (
        DEFAULT_MAX_QUEUE_CHUNKS if max_queue_chunks is None else max_queue_chunks
    )
    if progress_every_chunks < 1:
        raise ValueError(
            f"progress_every_chunks must be >= 1, got {progress_every_chunks}"
        )
    if not directory.is_dir():
        raise DatasetIOError(f"dataset directory not found: {directory}")
    dataset_name, metadata = read_directory_metadata(directory, name)
    audit_index = None
    if fused:
        builder = StreamingArrayBuilder(dataset_name, metadata)
        # The fused path's pair index is grown here, during the stream — the
        # audit never re-scans the triples.
        audit_index = StreamingPairIndexBuilder()
        observers = tuple(observers) + (audit_index.observe,)
    else:
        builder = StreamingDatasetBuilder(dataset_name, metadata)
    stats = StreamingStatisticsBuilder(dataset_name)
    monitor = PipelineMonitor()
    telemetry = get_telemetry()
    chunk_counter = telemetry.counter("ingest.chunks")
    triple_counter = telemetry.counter("ingest.triples")
    residency_gauge = telemetry.gauge("ingest.resident_triples")
    chunk_sizes = telemetry.histogram("ingest.chunk_triples", bounds=SIZE_BUCKETS)
    chunk_seconds = telemetry.histogram("ingest.chunk_seconds")

    start = time.perf_counter()
    for split in SPLIT_ORDER:
        path = split_file(directory, split, gzipped)
        if path is None:
            continue
        with telemetry.span("ingest.split", dataset=dataset_name, split=split):
            source = stream_triple_chunks(path, chunk_size, gzipped, monitor)
            for chunk in bounded_chunk_pipeline(source, max_queue_chunks):
                chunk_started = time.perf_counter() if telemetry.enabled else 0.0
                added = builder.add_chunk(split, chunk)
                stats.observe(split, added)
                for observe in observers:
                    observe(split, added)
                monitor.consumed(len(chunk))
                chunk_counter.add(1)
                triple_counter.add(len(chunk))
                residency_gauge.set(monitor.resident_triples)
                if telemetry.enabled:
                    chunk_sizes.observe(len(chunk))
                    chunk_seconds.observe(time.perf_counter() - chunk_started)
                if progress is not None and monitor.total_chunks % progress_every_chunks == 0:
                    progress(
                        IngestProgress(
                            split=split,
                            chunks=monitor.total_chunks,
                            triples=monitor.total_triples,
                            resident_triples=monitor.resident_triples,
                            peak_resident_triples=monitor.peak_resident_triples,
                        )
                    )
    if builder.split_size("train") == 0:
        raise DatasetIOError(f"no training triples found under {directory}")
    dataset = builder.build()
    if fused:
        dataset.audit_index = audit_index
    seconds = time.perf_counter() - start

    return IngestReport(
        dataset=dataset,
        statistics=stats.statistics(),
        total_triples=monitor.total_triples,
        total_chunks=monitor.total_chunks,
        peak_resident_triples=monitor.peak_resident_triples,
        residency_bound=residency_bound(chunk_size, max_queue_chunks),
        chunk_size=chunk_size,
        max_queue_chunks=max_queue_chunks,
        seconds=seconds,
    )


def load_dataset_streaming(
    directory: Path,
    name: Optional[str] = None,
    chunk_size: Optional[int] = None,
    max_queue_chunks: Optional[int] = None,
    gzipped: Optional[bool] = None,
) -> Dataset:
    """Bounded-memory drop-in for :func:`repro.kg.io.load_dataset`.

    Produces a dataset bit-identical to the materializing loader at any chunk
    size and queue depth.
    """
    return ingest_dataset(
        directory,
        name=name,
        chunk_size=chunk_size,
        max_queue_chunks=max_queue_chunks,
        gzipped=gzipped,
    ).dataset
