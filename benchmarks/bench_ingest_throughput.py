"""Streaming ingestion: bounded-memory guarantee and throughput vs the materializing loader.

Two measurements on a synthetic FB15k-shaped TSV dump written to a temporary
directory (train/valid/test splits, Zipf-skewed relation frequencies):

1. **Peak residency** — the streaming pipeline
   (:func:`repro.kg.streaming.ingest_dataset`) is run at several chunk sizes
   and its peak labelled-triple residency (the chunk being consumed) is
   recorded.  The defining property of the subsystem is that this peak is
   bounded by ``chunk_size`` — the memory budget knob, **not** the dataset
   size.
2. **Throughput** — triples-per-second through the streaming pipeline versus
   the materializing loader (:func:`repro.kg.io.load_dataset`), which reads
   every split into Python lists first.  Every streamed run is asserted
   **bit-identical** to the in-memory dataset (vocabulary label order, triple
   order per split, metadata) before its throughput is reported; a gzipped
   copy of the dump is also ingested and checked, recorded for information.

The script is part of CI's **benchmark regression gate**: it always writes a
machine-readable report (``BENCH_ingest_throughput.json`` by default,
``--json PATH`` to override) and exits non-zero when an enforced gate fails:

- every streamed run's peak residency must stay within one chunk,
  ``chunk_size`` labelled triples — always enforced;
- the default chunk size (the largest tested, ``DEFAULT_CHUNK_SIZE``) must
  keep peak residency under ``BENCH_MAX_RESIDENT_FRACTION`` (default 25 %)
  of the parsed triples, demonstrating sub-dataset memory — always enforced;
- streaming throughput at the default chunk size must stay above
  ``BENCH_MIN_INGEST_RELATIVE_THROUGHPUT`` (default 0.3×) of the
  materializing loader — always enforced (the pipeline does the same
  parsing and interning work chunk by chunk, so it sits near 1×; the
  conservative floor absorbs noisy shared runners).

Run standalone (``python benchmarks/bench_ingest_throughput.py``, which is
what CI does) or via ``pytest benchmarks/bench_ingest_throughput.py``.
"""

from __future__ import annotations

import gzip
import shutil
import sys
import tempfile
import time
from os import environ
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.kg import (
    DEFAULT_CHUNK_SIZE,
    Dataset,
    ingest_dataset,
    load_dataset,
    write_triples_tsv,
)
from repro.telemetry.bench import bench_main

NUM_ENTITIES = 4000
NUM_RELATIONS = 36
NUM_TRAIN = 120000
NUM_VALID = 4000
NUM_TEST = 4000

#: Chunk sizes swept for the residency measurement.  The last entry is the
#: shipped default, so the dataset-fraction and throughput gates cover the
#: configuration users actually get; the small first entry exercises the
#: bound accounting over many chunks.
CHUNK_SIZES = (512, DEFAULT_CHUNK_SIZE)

MAX_RESIDENT_FRACTION = float(environ.get("BENCH_MAX_RESIDENT_FRACTION", "0.25"))
MIN_RELATIVE_THROUGHPUT = float(environ.get("BENCH_MIN_INGEST_RELATIVE_THROUGHPUT", "0.3"))
DEFAULT_JSON_PATH = "BENCH_ingest_throughput.json"


def _random_rows(rng: np.random.Generator, count: int, weights: np.ndarray):
    heads = rng.integers(0, NUM_ENTITIES, count)
    relations = rng.choice(NUM_RELATIONS, count, p=weights)
    tails = rng.integers(0, NUM_ENTITIES, count)
    return [
        (f"e{h}", f"r{r}", f"e{t}") for h, r, t in zip(heads, relations, tails)
    ]


def write_workload(directory: Path, seed: int = 37) -> int:
    """Write the FB15k-shaped TSV dump; return the number of rows written."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, NUM_RELATIONS + 1)
    weights /= weights.sum()
    total = 0
    for split, count in (("train", NUM_TRAIN), ("valid", NUM_VALID), ("test", NUM_TEST)):
        total += write_triples_tsv(
            directory / f"{split}.txt", _random_rows(rng, count, weights)
        )
    return total


def gzip_workload(source: Path, target: Path) -> None:
    """A gzipped copy of the dump (``train.txt.gz``, ...)."""
    target.mkdir(parents=True, exist_ok=True)
    for path in source.iterdir():
        if path.suffix == ".txt":
            with path.open("rb") as plain, gzip.open(target / (path.name + ".gz"), "wb") as packed:
                shutil.copyfileobj(plain, packed)


def assert_bit_identical(reference: Dataset, other: Dataset, context: str) -> None:
    assert reference.name == other.name, context
    assert reference.vocab.entities.labels() == other.vocab.entities.labels(), context
    assert reference.vocab.relations.labels() == other.vocab.relations.labels(), context
    for split_name, split in reference.splits().items():
        assert split.triples == other.splits()[split_name].triples, (context, split_name)
    assert reference.metadata == other.metadata, context


def measure_ingest(
    directory: Path, reference: Dataset, chunk_size: int, gzipped=None, name=None
) -> dict:
    """One streamed run: bit-identity asserted, residency and throughput recorded."""
    report = ingest_dataset(directory, name=name, chunk_size=chunk_size, gzipped=gzipped)
    assert_bit_identical(reference, report.dataset, f"chunk_size={chunk_size}")
    return {
        "chunk_size": chunk_size,
        "total_triples": report.total_triples,
        "total_chunks": report.total_chunks,
        "peak_resident_triples": report.peak_resident_triples,
        "resident_fraction_of_dataset": report.peak_resident_triples / report.total_triples,
        "seconds": report.seconds,
        "triples_per_second": report.triples_per_second,
    }


def build_report() -> Tuple[dict, bool]:
    """All measurements plus gate verdicts; returns ``(report, all_gates_ok)``."""
    workdir = Path(tempfile.mkdtemp(prefix="bench_ingest_"))
    try:
        plain_dir = workdir / "plain"
        plain_dir.mkdir()
        total_rows = write_workload(plain_dir)

        start = time.perf_counter()
        reference = load_dataset(plain_dir)
        in_memory_seconds = time.perf_counter() - start
        in_memory = {
            "total_triples": total_rows,
            "seconds": in_memory_seconds,
            "triples_per_second": total_rows / in_memory_seconds,
        }

        streaming_runs = [
            measure_ingest(plain_dir, reference, chunk_size) for chunk_size in CHUNK_SIZES
        ]

        gzip_dir = workdir / "gzipped"
        gzip_workload(plain_dir, gzip_dir)
        gzip_run = measure_ingest(
            gzip_dir, reference, CHUNK_SIZES[-1], gzipped=True, name=reference.name
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    bounded_runs = streaming_runs + [gzip_run]
    bound_gate = {
        "name": "peak_residency_within_one_chunk",
        "threshold": 1.0,
        "value": max(
            run["peak_resident_triples"] / run["chunk_size"] for run in bounded_runs
        ),
        "enforced": True,
        "passed": all(
            run["peak_resident_triples"] <= run["chunk_size"] for run in bounded_runs
        ),
    }
    largest = streaming_runs[-1]
    fraction_gate = {
        "name": "peak_residency_fraction_of_dataset",
        "threshold": MAX_RESIDENT_FRACTION,
        "value": largest["resident_fraction_of_dataset"],
        "enforced": True,
        "passed": largest["resident_fraction_of_dataset"] <= MAX_RESIDENT_FRACTION,
    }
    relative = largest["triples_per_second"] / in_memory["triples_per_second"]
    throughput_gate = {
        "name": "streaming_vs_in_memory_throughput",
        "threshold": MIN_RELATIVE_THROUGHPUT,
        "value": relative,
        "enforced": True,
        "passed": relative >= MIN_RELATIVE_THROUGHPUT,
    }
    report = {
        "benchmark": "ingest_throughput",
        "workload": {
            "entities": NUM_ENTITIES,
            "relations": NUM_RELATIONS,
            "rows": total_rows,
        },
        "in_memory": in_memory,
        "streaming_runs": streaming_runs,
        "gzip_run": gzip_run,
        "gates": [bound_gate, fraction_gate, throughput_gate],
    }
    return report, all(gate["passed"] for gate in report["gates"])


def _print_report(report: dict) -> None:
    in_memory = report["in_memory"]
    print(
        f"{'in-memory loader':>28}: {in_memory['triples_per_second']:,.0f} triples/s "
        f"({in_memory['total_triples']} rows in {in_memory['seconds']:.2f}s)"
    )
    for run in report["streaming_runs"] + [report["gzip_run"]]:
        label = f"streaming chunk={run['chunk_size']}"
        if run is report["gzip_run"]:
            label += " gz"
        print(
            f"{label:>28}: {run['triples_per_second']:,.0f} triples/s, "
            f"peak resident {run['peak_resident_triples']} "
            f"(bound {run['chunk_size']}, "
            f"{run['resident_fraction_of_dataset']:.1%} of dataset)"
        )
    print()
    for gate in report["gates"]:
        status = "PASS" if gate["passed"] else "FAIL"
        print(
            f"{gate['name']:>40}: {gate['value']:.3f} "
            f"(threshold {gate['threshold']:.3f}) {status}"
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the measurements, write the JSON report, enforce the gates."""
    return bench_main(
        build_report, _print_report, DEFAULT_JSON_PATH, __doc__.splitlines()[0], argv
    )


def test_streaming_ingest_gates_pass():
    report, passed = build_report()
    assert passed, [gate for gate in report["gates"] if not gate["passed"]]


if __name__ == "__main__":
    sys.exit(main())
