"""Streaming dataset ingestion: a bounded-memory TSV → :class:`Dataset` pipeline.

The materializing loader (:func:`repro.kg.io.load_dataset`) reads every split
into a Python list before the first triple is usable, so its peak memory is
proportional to the dump size.  This module streams the same files chunk by
chunk instead, all in the caller's thread:

``parse a chunk`` → ``intern and insert it`` → ``observers`` → ``drop it``

* :func:`stream_triple_chunks` parses the (possibly gzipped) TSV into chunks
  of at most ``chunk_size`` labelled triples;
* :class:`StreamingDatasetBuilder` interns each chunk's labels into the
  vocabulary in a single pass, inserts the encoded triples into the split's
  :class:`~repro.kg.triples.TripleSet`, and :func:`ingest_dataset` forwards
  the chunk's *newly added* encoded triples to observers — the incremental
  statistics builder
  (:class:`repro.kg.statistics.StreamingStatisticsBuilder`), the incremental
  redundancy index (:class:`repro.core.redundancy.StreamingPairIndexBuilder`),
  or any callable with the same shape.

A chunk is consumed before the next one is parsed, so at no point does a full
split exist as labelled Python tuples: peak labelled-triple residency is one
chunk, at most ``chunk_size`` triples, regardless of dataset size
(``benchmarks/bench_ingest_throughput.py`` gates this in CI).

Splits are consumed in ``train → valid → test`` order with chunk-order
preserved, so the crystallized dataset is **bit-identical** to the in-memory
loader's: same vocabulary ids, same triple order, same metadata.  Every
ingest — the pipeline's, the CLI's, the delta maintainer's — builds that one
:class:`~repro.kg.dataset.Dataset` through :class:`StreamingDatasetBuilder`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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

#: Labelled triples per pipeline chunk (the unit of parsing and interning).
#: The canonical value lives in the knob schema (``ingest.chunk_size``).
DEFAULT_CHUNK_SIZE = INGEST_DEFAULTS["chunk_size"]

#: The split consumption order that makes streamed vocabulary ids bit-identical
#: to :func:`repro.kg.dataset.build_dataset_from_labelled_triples`.
SPLIT_ORDER = ("train", "valid", "test")

LabelledTriple = Tuple[str, str, str]
Chunk = List[LabelledTriple]

#: Consumer-side hook: called once per chunk with the split name and the
#: encoded triples *newly added* to that split (duplicates already removed).
ChunkObserver = Callable[[str, Sequence[Triple]], None]


@dataclass(frozen=True)
class IngestProgress:
    """Cumulative pipeline counters, emitted to the progress callback per chunk."""

    split: str
    chunks: int
    triples: int
    #: Labelled triples of the chunk just consumed, and the largest chunk so far.
    resident_triples: int
    peak_resident_triples: int


ProgressCallback = Callable[[IngestProgress], None]


def stream_triple_chunks(
    path: Path,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    gzipped: Optional[bool] = None,
) -> Iterator[Chunk]:
    """Parse a TSV file into chunks of at most ``chunk_size`` labelled triples.

    A plain synchronous generator: the file is read only as far as the
    consumer has pulled chunks.  Malformed lines raise
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
                yield chunk
                chunk = []
    if chunk:
        yield chunk


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


@dataclass
class IngestReport:
    """What one streamed ingestion produced and what it cost.

    ``dataset`` is the ingested :class:`~repro.kg.dataset.Dataset`.  The
    pipeline caches the report under ``("ingest_report", name)`` with
    ``dataset=None``, because the dataset is already cached under
    ``("dataset", name)``.
    """

    dataset: Optional[Dataset]
    statistics: DatasetStatistics
    total_triples: int
    total_chunks: int
    #: The largest chunk consumed: at most ``chunk_size``.
    peak_resident_triples: int
    chunk_size: int
    seconds: float

    @property
    def triples_per_second(self) -> float:
        return self.total_triples / self.seconds if self.seconds > 0 else 0.0


def ingest_dataset(
    directory: Path,
    name: Optional[str] = None,
    chunk_size: Optional[int] = None,
    gzipped: Optional[bool] = None,
    observers: Sequence[ChunkObserver] = (),
    progress: Optional[ProgressCallback] = None,
    progress_every_chunks: int = 50,
) -> IngestReport:
    """Stream a TSV dataset directory into a :class:`Dataset` under a memory budget.

    The orchestrator behind the pipeline's source ingest and the CLI's
    ``ingest`` subcommand: each split (train, valid, test in order) is parsed
    chunk by chunk in the caller's thread, with single-pass vocabulary
    interning, incremental statistics, and observer fan-out for audit
    indexes.  ``observers`` are called per chunk with
    ``(split, newly_added_encoded_triples)``.  At most one chunk of labelled
    triples is held at a time.
    """
    directory = Path(directory)
    chunk_size = DEFAULT_CHUNK_SIZE if chunk_size is None else chunk_size
    if progress_every_chunks < 1:
        raise ValueError(
            f"progress_every_chunks must be >= 1, got {progress_every_chunks}"
        )
    if not directory.is_dir():
        raise DatasetIOError(f"dataset directory not found: {directory}")
    dataset_name, metadata = read_directory_metadata(directory, name)
    builder = StreamingDatasetBuilder(dataset_name, metadata)
    stats = StreamingStatisticsBuilder(dataset_name)
    telemetry = get_telemetry()
    chunk_counter = telemetry.counter("ingest.chunks")
    triple_counter = telemetry.counter("ingest.triples")
    residency_gauge = telemetry.gauge("ingest.resident_triples")
    chunk_sizes = telemetry.histogram("ingest.chunk_triples", bounds=SIZE_BUCKETS)
    chunk_seconds = telemetry.histogram("ingest.chunk_seconds")
    total_chunks = total_triples = peak_resident = 0

    start = time.perf_counter()
    for split in SPLIT_ORDER:
        path = split_file(directory, split, gzipped)
        if path is None:
            continue
        with telemetry.span("ingest.split", dataset=dataset_name, split=split):
            for chunk in stream_triple_chunks(path, chunk_size, gzipped):
                chunk_started = time.perf_counter() if telemetry.enabled else 0.0
                added = builder.add_chunk(split, chunk)
                stats.observe(split, added)
                for observe in observers:
                    observe(split, added)
                total_chunks += 1
                total_triples += len(chunk)
                peak_resident = max(peak_resident, len(chunk))
                chunk_counter.add(1)
                triple_counter.add(len(chunk))
                residency_gauge.set(len(chunk))
                if telemetry.enabled:
                    chunk_sizes.observe(len(chunk))
                    chunk_seconds.observe(time.perf_counter() - chunk_started)
                if progress is not None and total_chunks % progress_every_chunks == 0:
                    progress(
                        IngestProgress(
                            split=split,
                            chunks=total_chunks,
                            triples=total_triples,
                            resident_triples=len(chunk),
                            peak_resident_triples=peak_resident,
                        )
                    )
    if builder.split_size("train") == 0:
        raise DatasetIOError(f"no training triples found under {directory}")
    dataset = builder.build()
    seconds = time.perf_counter() - start

    return IngestReport(
        dataset=dataset,
        statistics=stats.statistics(),
        total_triples=total_triples,
        total_chunks=total_chunks,
        peak_resident_triples=peak_resident,
        chunk_size=chunk_size,
        seconds=seconds,
    )
