"""Delta maintenance: small-churn apply must beat a full re-ingest, bit for bit.

The incremental-maintenance claim behind :mod:`repro.kg.deltas`, measured on
a synthetic ~32k-triple workload:

1. **Base ingest** — the synthetic TSV dump is ingested once and a
   :class:`~repro.kg.deltas.LiveDatasetMaintainer` is bootstrapped from it
   (the standing live dataset; one-time cost, untimed).
2. **Delta apply** — a churn stream touching at most
   ``BENCH_MAX_DELTA_CHURN`` (default 1%) of the triples — with reverse
   shadows, test-split leakage and re-adds injected — is written to a
   JSON-lines delta log and applied to the maintainer.  This is the timed
   incremental path, log verification included.
3. **Full re-ingest** — the maintained final state is exported and re-ingested
   from scratch, *including* the bootstrap of a fresh maintainer (statistics,
   redundancy index and filter index rebuilt), so both sides end audit-ready.
   This is the timed baseline the deltas replace.

Gates: the apply must be at least ``BENCH_MIN_DELTA_SPEEDUP`` (default 5×)
faster than the re-ingest, and the two label-space audit reports —
statistics, redundancy, leakage, filter index — must match bit for bit.
Both maintainers read their redundancy reports from overlap counts kept
under ``observe``/``retract``, so a further exact gate compares the churned
maintainer's report with a full sweep over its pair sets
(``analyse_redundancy_from_pair_sets``).

The script is part of CI's **benchmark regression gate**: it always writes a
machine-readable report (``BENCH_delta_ingest.json`` by default, ``--json
PATH`` to override) and exits non-zero when an enforced gate fails.

Run standalone (``python benchmarks/bench_delta_ingest.py``, which is what
CI does) or via ``pytest benchmarks/bench_delta_ingest.py``.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import time
from os import environ
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core import analyse_redundancy_from_pair_sets
from repro.kg import (
    ChurnProfile,
    DeltaLog,
    LiveDatasetMaintainer,
    churn_stream,
    ingest_dataset,
    write_triples_tsv,
)

MIN_DELTA_SPEEDUP = float(environ.get("BENCH_MIN_DELTA_SPEEDUP", "5.0"))
MAX_CHURN_FRACTION = float(environ.get("BENCH_MAX_DELTA_CHURN", "0.01"))
DEFAULT_JSON_PATH = "BENCH_delta_ingest.json"

#: Synthetic workload shape.
NUM_ENTITIES = 2000
NUM_RELATIONS = 24
NUM_TRAIN = 30000
NUM_VALID = 1000
NUM_TEST = 1000

#: Churn stream: 8 batches at 0.06% adds + removes each stays within the
#: 1% budget while still exercising every injection path.
CHURN_PROFILE = ChurnProfile(
    batches=8,
    add_rate=0.0006,
    remove_rate=0.0006,
    redundancy_rate=0.2,
    leakage_rate=0.1,
    readd_rate=0.2,
    fresh_entity_rate=0.2,
)


def _write_workload(directory: Path, seed: int = 43) -> None:
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, NUM_RELATIONS + 1)
    weights /= weights.sum()

    def rows(count: int):
        heads = rng.integers(0, NUM_ENTITIES, count)
        relations = rng.choice(NUM_RELATIONS, count, p=weights)
        tails = rng.integers(0, NUM_ENTITIES, count)
        return [(f"e{h}", f"r{r}", f"e{t}") for h, r, t in zip(heads, relations, tails)]

    for split, count in (("train", NUM_TRAIN), ("valid", NUM_VALID), ("test", NUM_TEST)):
        write_triples_tsv(directory / f"{split}.txt", rows(count))


def _audit_without_seq(maintainer: LiveDatasetMaintainer) -> dict:
    report = maintainer.audit_report()
    report.pop("last_seq")
    return report


def build_report() -> Tuple[dict, bool]:
    """All measurements plus gate verdicts; returns ``(report, all_gates_ok)``."""
    workdir = Path(tempfile.mkdtemp(prefix="bench_delta_ingest_"))
    try:
        source_dir = workdir / "source"
        _write_workload(source_dir)
        base = ingest_dataset(source_dir, name="bench-delta").dataset
        maintainer = LiveDatasetMaintainer.from_dataset(base)
        base_rows = sum(maintainer.split_sizes().values())

        log = DeltaLog(workdir / "updates.jsonl")
        for batch in churn_stream(base, CHURN_PROFILE, seed=17):
            log.append(batch)
        summary = log.summary()
        churn_fraction = (summary["adds"] + summary["removes"]) / base_rows

        start = time.perf_counter()
        reports = maintainer.apply_log(log)
        apply_seconds = time.perf_counter() - start
        equals_sweep = maintainer.redundancy_report() == analyse_redundancy_from_pair_sets(
            maintainer.pair_sets
        )

        final_dir = workdir / "final"
        maintainer.export(final_dir)
        start = time.perf_counter()
        reingested = LiveDatasetMaintainer.from_dataset(
            ingest_dataset(final_dir, name="bench-delta").dataset
        )
        reingest_seconds = time.perf_counter() - start

        identical = _audit_without_seq(maintainer) == _audit_without_seq(reingested)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    speedup = reingest_seconds / apply_seconds if apply_seconds else float("inf")
    speedup_gate = {
        "name": "delta_apply_speedup_over_reingest",
        "threshold": MIN_DELTA_SPEEDUP,
        "value": speedup,
        "enforced": True,
        "passed": speedup >= MIN_DELTA_SPEEDUP,
    }
    identity_gate = {
        "name": "audit_reports_bit_identical",
        "threshold": 1.0,
        "value": float(identical),
        "enforced": True,
        "passed": identical,
    }
    sweep_gate = {
        "name": "maintained_redundancy_equals_full_sweep",
        "threshold": 1.0,
        "value": float(equals_sweep),
        "enforced": True,
        "passed": equals_sweep,
    }
    churn_gate = {
        "name": "churn_fraction_within_budget",
        "threshold": MAX_CHURN_FRACTION,
        "value": churn_fraction,
        "enforced": True,
        "passed": churn_fraction <= MAX_CHURN_FRACTION,
    }
    report = {
        "benchmark": "delta_ingest",
        "workload": {
            "rows": base_rows,
            "entities": NUM_ENTITIES,
            "relations": NUM_RELATIONS,
        },
        "churn": {
            "batches": summary["batches"],
            "adds": summary["adds"],
            "removes": summary["removes"],
            "fraction": churn_fraction,
            "applied_batches": len(reports),
        },
        "delta_apply": {"seconds": apply_seconds},
        "full_reingest": {"seconds": reingest_seconds},
        "speedup": speedup,
        "audit_bit_identical": identical,
        "redundancy_equals_full_sweep": equals_sweep,
        "gates": [speedup_gate, identity_gate, sweep_gate, churn_gate],
    }
    return report, all(gate["passed"] for gate in report["gates"])


def _print_report(report: dict) -> None:
    churn = report["churn"]
    print(
        f"{'workload':>18}: {report['workload']['rows']} triples, "
        f"{churn['batches']} delta batch(es), +{churn['adds']}/-{churn['removes']} "
        f"({churn['fraction']:.3%} churn)"
    )
    print(f"{'delta apply':>18}: {report['delta_apply']['seconds'] * 1000:.1f} ms")
    print(f"{'full re-ingest':>18}: {report['full_reingest']['seconds'] * 1000:.1f} ms")
    print(
        f"{'speedup':>18}: {report['speedup']:.1f}x, "
        f"audit bit-identical={report['audit_bit_identical']}, "
        f"redundancy equals full sweep={report['redundancy_equals_full_sweep']}"
    )
    print()
    for gate in report["gates"]:
        status = "PASS" if gate["passed"] else "FAIL"
        print(
            f"{gate['name']:>42}: {gate['value']:.3f} "
            f"(threshold {gate['threshold']:.3f}) {status}"
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the measurements, write the JSON report, enforce the gates."""
    from repro.telemetry.bench import bench_main

    return bench_main(
        build_report, _print_report, DEFAULT_JSON_PATH, __doc__.splitlines()[0], argv
    )


def test_delta_ingest_gates_pass():
    report, passed = build_report()
    assert passed, [gate for gate in report["gates"] if not gate["passed"]]


if __name__ == "__main__":
    sys.exit(main())
