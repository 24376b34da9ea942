"""Disk artifact cache: warm-run speedup, zero recompute, and concurrent runs.

Three measurements around the content-addressed cache
(:class:`repro.api.artifacts.DiskArtifactStore`), all on the shipped
headline spec (``examples/specs/headline_tiny.toml``):

1. **Cold run** — the spec executed through a fresh cache directory; every
   artifact is computed and persisted.
2. **Warm run** — the same spec through the same directory: every artifact
   must load from disk (zero cache misses, zero artifacts produced by any
   stage) with bit-identical evaluation rows, and finish at least
   ``BENCH_MIN_CACHE_WARM_SPEEDUP`` (default 3×) faster than the cold run.
3. **Concurrent runs** — two runs of the spec race on one fresh cache
   directory; the advisory per-entry locks must let both finish with rows
   bit-identical to the serial run (shared work, no corruption).

The script is part of CI's **benchmark regression gate**: it always writes a
machine-readable report (``BENCH_artifact_cache.json`` by default, ``--json
PATH`` to override) and exits non-zero when an enforced gate fails.

Run standalone (``python benchmarks/bench_artifact_cache.py``, which is what
CI does) or via ``pytest benchmarks/bench_artifact_cache.py``.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import threading
import time
from os import environ
from pathlib import Path
from typing import Optional, Sequence, Tuple

from repro.api import ExperimentSpec, Runner

HEADLINE_SPEC = Path(__file__).resolve().parent.parent / "examples" / "specs" / "headline_tiny.toml"

MIN_WARM_SPEEDUP = float(environ.get("BENCH_MIN_CACHE_WARM_SPEEDUP", "3.0"))
DEFAULT_JSON_PATH = "BENCH_artifact_cache.json"


def _timed_run(spec: ExperimentSpec, cache_dir: Path) -> Tuple[dict, object]:
    runner = Runner(spec, cache_dir=cache_dir)
    start = time.perf_counter()
    report = runner.run()
    seconds = time.perf_counter() - start
    produced = sum(len(stage.produced) for stage in report.stages)
    return (
        {
            "seconds": seconds,
            "artifacts_produced": produced,
            "cache": dict(runner.store.stats),
        },
        report,
    )


def build_report() -> Tuple[dict, bool]:
    """All measurements plus gate verdicts; returns ``(report, all_gates_ok)``."""
    spec = ExperimentSpec.load(HEADLINE_SPEC)
    workdir = Path(tempfile.mkdtemp(prefix="bench_artifact_cache_"))
    try:
        cache_dir = workdir / "cache"
        cold, cold_report = _timed_run(spec, cache_dir)
        warm, warm_report = _timed_run(spec, cache_dir)

        # Two racing runs on a *fresh* directory: both must finish and agree.
        race_dir = workdir / "race"
        race_rows: dict = {}
        race_errors: list = []

        def race(slot: int) -> None:
            try:
                _, report = _timed_run(spec, race_dir)
                race_rows[slot] = report.rows
            except Exception as error:  # pragma: no cover - failure reporting
                race_errors.append(f"{type(error).__name__}: {error}")

        threads = [threading.Thread(target=race, args=(slot,)) for slot in range(2)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        concurrent = {
            "seconds": time.perf_counter() - start,
            "completed": len(race_rows),
            "errors": race_errors,
            "rows_bit_identical": (
                len(race_rows) == 2
                and race_rows[0] == race_rows[1]
                and race_rows[0] == cold_report.rows
            ),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    speedup = cold["seconds"] / warm["seconds"] if warm["seconds"] else float("inf")
    speedup_gate = {
        "name": "warm_run_speedup_over_cold",
        "threshold": MIN_WARM_SPEEDUP,
        "value": speedup,
        "enforced": True,
        "passed": speedup >= MIN_WARM_SPEEDUP,
    }
    recompute_gate = {
        "name": "warm_run_zero_recompute",
        "threshold": 0.0,
        "value": float(warm["artifacts_produced"] + warm["cache"]["miss"]),
        "enforced": True,
        "passed": warm["artifacts_produced"] == 0 and warm["cache"]["miss"] == 0,
    }
    identity_gate = {
        "name": "warm_rows_bit_identical_to_cold",
        "threshold": 1.0,
        "value": float(warm_report.rows == cold_report.rows),
        "enforced": True,
        "passed": warm_report.rows == cold_report.rows,
    }
    concurrency_gate = {
        "name": "concurrent_runs_complete_bit_identically",
        "threshold": 1.0,
        "value": float(concurrent["rows_bit_identical"]),
        "enforced": True,
        "passed": bool(concurrent["rows_bit_identical"]) and not concurrent["errors"],
    }
    report = {
        "benchmark": "artifact_cache",
        "spec": str(HEADLINE_SPEC.name),
        "cold_run": cold,
        "warm_run": warm,
        "concurrent_runs": concurrent,
        "gates": [speedup_gate, recompute_gate, identity_gate, concurrency_gate],
    }
    return report, all(gate["passed"] for gate in report["gates"])


def _print_report(report: dict) -> None:
    cold, warm = report["cold_run"], report["warm_run"]
    print(
        f"{'cold run':>18}: {cold['seconds']:.2f}s, "
        f"{cold['artifacts_produced']} artifact(s) computed, "
        f"{cold['cache']['write']} write(s)"
    )
    print(
        f"{'warm run':>18}: {warm['seconds']:.2f}s, "
        f"{warm['cache']['hit']} hit(s), {warm['cache']['miss']} miss(es), "
        f"{warm['artifacts_produced']} artifact(s) recomputed"
    )
    concurrent = report["concurrent_runs"]
    print(
        f"{'concurrent runs':>18}: {concurrent['completed']}/2 completed in "
        f"{concurrent['seconds']:.2f}s, bit-identical={concurrent['rows_bit_identical']}"
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


def test_artifact_cache_gates_pass():
    report, passed = build_report()
    assert passed, [gate for gate in report["gates"] if not gate["passed"]]


if __name__ == "__main__":
    sys.exit(main())
