"""Serving latency: warm micro-batching engine vs cold start, top-k vs full sort.

The persistent serving path exists to amortize model loading: a cold start
pays artifact load + verification + model construction + the first query,
while a warm long-lived :class:`QueryEngine` answers from an already-mapped
model in one batched scorer call.  On an FB15k-shaped model this measures:

1. **Warm vs cold** — p50 of single-query latency against a live engine
   (distinct, cache-missing queries: the honest path) vs p50 of full
   cold starts (``load_model`` + engine + first query).  Gated: warm must
   beat cold by >= ``BENCH_MIN_COLD_WARM_RATIO`` (default 5x) — if it does
   not, a long-lived serving process is pointless.
2. **Concurrent load** — p50/p99 per-query latency and aggregate QPS with
   hundreds of in-flight queries coalescing into micro-batches, recorded so
   the batching win is visible next to the sequential numbers.
3. **Top-k vs full sort** — the engine's partial-sort answer path
   (``topk_row``, ``np.partition``-based) vs the materializing evaluator's
   full ``np.lexsort`` ranking of the same score rows.  Gated: the partial
   sort must not lose to the full sort (>= ``BENCH_MIN_TOPK_SPEEDUP``,
   default 1.0x) — both produce bit-identical top-k ids by construction,
   which is asserted before timing.

Always writes ``BENCH_serving_latency.json`` (``--json PATH`` to override)
and exits non-zero when an enforced gate fails.  Pin BLAS threads
(``OMP_NUM_THREADS=1`` etc.) when gating, as CI does.

Run standalone (``python benchmarks/bench_serving_latency.py``) or via
``pytest benchmarks/bench_serving_latency.py``.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import sys
import tempfile
import time
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.api.serving import Query
from repro.models import ModelConfig, make_model
from repro.serve import ModelArtifact, QueryEngine, load_model, topk_row
from repro.telemetry.bench import bench_main

NUM_ENTITIES = 20_000
NUM_RELATIONS = 30
DIM = 64
TOP_K = 10

COLD_STARTS = 5
WARM_QUERIES = 300
CONCURRENT_QUERIES = 600
SORT_ROWS = 32
SORT_REPEATS = 20

MIN_COLD_WARM_RATIO = float(os.environ.get("BENCH_MIN_COLD_WARM_RATIO", "5.0"))
MIN_TOPK_SPEEDUP = float(os.environ.get("BENCH_MIN_TOPK_SPEEDUP", "1.0"))
DEFAULT_JSON_PATH = "BENCH_serving_latency.json"


def build_artifact(directory: str, seed: int = 43) -> ModelArtifact:
    """An FB15k-shaped DistMult artifact on disk (the serving input)."""
    model = make_model(
        "DistMult", NUM_ENTITIES, NUM_RELATIONS, ModelConfig(dim=DIM, seed=seed)
    )
    model.train_mode(False)
    return ModelArtifact.save(model, directory, overwrite=True)


def query_stream(count: int, seed: int = 7) -> list:
    """Distinct (anchor, relation) queries — every one misses the row cache."""
    rng = np.random.default_rng(seed)
    pairs = set()
    while len(pairs) < count:
        pairs.add(
            (int(rng.integers(0, NUM_ENTITIES)), int(rng.integers(0, NUM_RELATIONS)))
        )
    return [Query.tail(head, relation, k=TOP_K) for head, relation in sorted(pairs)]


def percentile(samples: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples), q))


# ------------------------------------------------------------------ cold starts
def measure_cold_start(artifact_dir: str) -> dict:
    """Full cold starts: verified load + model + engine + the first answer."""
    samples = []
    for _ in range(COLD_STARTS):
        start = time.perf_counter()
        scorer = load_model(artifact_dir)  # verify=True: the trust-establishing load
        engine = QueryEngine(scorer)
        asyncio.run(engine.submit(Query.tail(0, 0, k=TOP_K)))
        samples.append(time.perf_counter() - start)
    return {
        "starts": COLD_STARTS,
        "p50_seconds": statistics.median(samples),
        "min_seconds": min(samples),
    }


# ------------------------------------------------------------------ warm engine
def measure_warm_engine(artifact_dir: str) -> dict:
    """Per-query latency and QPS against one long-lived engine."""
    scorer = load_model(artifact_dir, verify=False)
    engine = QueryEngine(scorer)

    async def sequential() -> list:
        latencies = []
        for query in query_stream(WARM_QUERIES, seed=7):
            start = time.perf_counter()
            await engine.submit(query)
            latencies.append(time.perf_counter() - start)
        return latencies

    async def concurrent() -> Tuple[list, float]:
        queries = query_stream(CONCURRENT_QUERIES, seed=11)

        async def timed(query):
            start = time.perf_counter()
            await engine.submit(query)
            return time.perf_counter() - start

        start = time.perf_counter()
        latencies = await asyncio.gather(*(timed(query) for query in queries))
        return list(latencies), time.perf_counter() - start

    for query in query_stream(8, seed=3):  # warm allocator/caches outside timing
        asyncio.run(engine.submit(query))

    sequential_latencies = asyncio.run(sequential())
    concurrent_latencies, wall = asyncio.run(concurrent())
    stats = engine.stats
    return {
        "sequential": {
            "queries": WARM_QUERIES,
            "p50_seconds": percentile(sequential_latencies, 50),
            "p99_seconds": percentile(sequential_latencies, 99),
        },
        "concurrent": {
            "queries": CONCURRENT_QUERIES,
            "p50_seconds": percentile(concurrent_latencies, 50),
            "p99_seconds": percentile(concurrent_latencies, 99),
            "wall_seconds": wall,
            "qps": CONCURRENT_QUERIES / wall,
        },
        "engine": stats.as_dict(),
    }


# ------------------------------------------------------------------ top-k vs sort
def measure_topk_vs_full_sort(artifact_dir: str) -> dict:
    """Partial-sort answer extraction vs the evaluator's full lexsort."""
    scorer = load_model(artifact_dir, verify=False)
    rng = np.random.default_rng(13)
    rows = [
        np.ascontiguousarray(
            np.asarray(
                scorer.score_all_tails(
                    int(rng.integers(0, NUM_ENTITIES)),
                    int(rng.integers(0, NUM_RELATIONS)),
                ),
                dtype=np.float64,
            )
        )
        for _ in range(SORT_ROWS)
    ]
    entity_ids = np.arange(NUM_ENTITIES)

    # Bit-identity of the two extraction paths before any timing.
    for row in rows:
        reference = np.lexsort((entity_ids, -row))[:TOP_K]
        ids, scores = topk_row(row, TOP_K)
        assert np.array_equal(ids, reference)
        assert np.array_equal(scores, row[reference])

    def time_path(fn) -> float:
        best = float("inf")
        for _ in range(SORT_REPEATS):
            start = time.perf_counter()
            for row in rows:
                fn(row)
            best = min(best, time.perf_counter() - start)
        return best

    topk_seconds = time_path(lambda row: topk_row(row, TOP_K))
    full_sort_seconds = time_path(lambda row: np.lexsort((entity_ids, -row))[:TOP_K])
    return {
        "rows": SORT_ROWS,
        "entities": NUM_ENTITIES,
        "k": TOP_K,
        "topk_seconds": topk_seconds,
        "full_sort_seconds": full_sort_seconds,
        "topk_speedup": full_sort_seconds / topk_seconds,
    }


# ------------------------------------------------------------------ report
def build_report() -> Tuple[dict, bool]:
    """All measurements plus gate verdicts; returns ``(report, all_gates_ok)``."""
    with tempfile.TemporaryDirectory(prefix="repro-serving-bench-") as workdir:
        artifact_dir = os.path.join(workdir, "artifact")
        artifact = build_artifact(artifact_dir)
        cold = measure_cold_start(artifact_dir)
        warm = measure_warm_engine(artifact_dir)
        topk = measure_topk_vs_full_sort(artifact_dir)

    cold_warm_ratio = cold["p50_seconds"] / warm["sequential"]["p50_seconds"]
    gates = [
        {
            "name": "warm_vs_cold_p50_ratio",
            "threshold": MIN_COLD_WARM_RATIO,
            "value": cold_warm_ratio,
            "enforced": True,
            "passed": cold_warm_ratio >= MIN_COLD_WARM_RATIO,
        },
        {
            "name": "topk_vs_full_sort_speedup",
            "threshold": MIN_TOPK_SPEEDUP,
            "value": topk["topk_speedup"],
            "enforced": True,
            "passed": topk["topk_speedup"] >= MIN_TOPK_SPEEDUP,
        },
    ]
    report = {
        "benchmark": "serving_latency",
        "cpu_count": os.cpu_count() or 1,
        "model": {
            "name": "DistMult",
            "entities": NUM_ENTITIES,
            "relations": NUM_RELATIONS,
            "dim": DIM,
            "artifact_bytes": artifact.nbytes,
        },
        "cold_start": cold,
        "warm_engine": warm,
        "topk_vs_full_sort": topk,
        "gates": gates,
    }
    return report, all(gate["passed"] for gate in gates)


def _print_report(report: dict) -> None:
    cold = report["cold_start"]
    warm = report["warm_engine"]
    topk = report["topk_vs_full_sort"]
    print(f"{'cold start p50':>36}: {cold['p50_seconds'] * 1e3:,.2f} ms")
    print(f"{'warm p50 (sequential)':>36}: {warm['sequential']['p50_seconds'] * 1e3:,.3f} ms")
    print(f"{'warm p99 (sequential)':>36}: {warm['sequential']['p99_seconds'] * 1e3:,.3f} ms")
    print(f"{'concurrent p50':>36}: {warm['concurrent']['p50_seconds'] * 1e3:,.3f} ms")
    print(f"{'concurrent p99':>36}: {warm['concurrent']['p99_seconds'] * 1e3:,.3f} ms")
    print(f"{'concurrent QPS':>36}: {warm['concurrent']['qps']:,.0f}")
    print(f"{'top-k partial sort':>36}: {topk['topk_speedup']:.2f}x vs full lexsort")
    print()
    for gate in report["gates"]:
        status = "PASS" if gate["passed"] else "FAIL"
        print(
            f"{gate['name']:>36}: {gate['value']:.2f}x "
            f"(threshold {gate['threshold']:.2f}x) {status}"
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run all measurements, write the JSON report, enforce the gates."""
    return bench_main(
        build_report, _print_report, DEFAULT_JSON_PATH, __doc__.splitlines()[0], argv
    )


def test_warm_engine_beats_cold_start():
    print()
    with tempfile.TemporaryDirectory(prefix="repro-serving-bench-") as workdir:
        artifact_dir = os.path.join(workdir, "artifact")
        build_artifact(artifact_dir)
        cold = measure_cold_start(artifact_dir)
        warm = measure_warm_engine(artifact_dir)
    ratio = cold["p50_seconds"] / warm["sequential"]["p50_seconds"]
    # 0.85 slack vs the standalone gate: pytest runs share the machine with
    # the rest of the suite, so allow mild scheduling noise.
    assert ratio >= MIN_COLD_WARM_RATIO * 0.85, (cold, warm)


def test_topk_partial_sort_is_not_slower_than_full_sort():
    with tempfile.TemporaryDirectory(prefix="repro-serving-bench-") as workdir:
        artifact_dir = os.path.join(workdir, "artifact")
        build_artifact(artifact_dir)
        result = measure_topk_vs_full_sort(artifact_dir)
    assert result["topk_speedup"] >= MIN_TOPK_SPEEDUP * 0.85, result


if __name__ == "__main__":
    sys.exit(main())
