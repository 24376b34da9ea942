"""Fused score+rank kernels vs the materializing evaluation path.

The fused path streams candidate blocks through ``compare_counts`` and keeps
only integer rank counts on the host, instead of materializing the full
``(B, |E|)`` score matrix.  On an FB15k-shaped workload (thousands of
entities, hundreds of redundant test queries) this measures:

1. **Fused vs materializing** — wall-clock through two
   :class:`LinkPredictionEvaluator` instances sharing one filter, with and
   without a ``score_block_budget``, bit-identity of every rank record
   asserted first.  The fused path must not be slower than materializing on
   CPU (>= ``BENCH_MIN_FUSED_SPEEDUP``, default 1.0x): it does the same
   comparisons, block-sized for cache, so any regression is pure overhead in
   the streaming loop.
2. **Block-budget sweep** — fused wall-clock across budgets spanning
   row-at-a-time to effectively-materializing, recorded (not gated) to expose
   the budget/latency curve.

The script is CI's benchmark regression gate for the compute layer: it always
writes ``BENCH_score_kernels.json`` (``--json PATH`` to override) and exits
non-zero when an enforced gate fails.  Pin BLAS threads
(``OMP_NUM_THREADS=1`` etc.) when gating, as CI does.

Run standalone (``python benchmarks/bench_score_kernels.py``) or via
``pytest benchmarks/bench_score_kernels.py``.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.api.options import EvalOptions
from repro.eval import LinkPredictionEvaluator
from repro.kg import Dataset, TripleSet, Vocabulary
from repro.models import ModelConfig, make_model
from repro.telemetry.bench import bench_main

NUM_ENTITIES = 6000
NUM_RELATIONS = 30
NUM_TRAIN = 20_000
NUM_QUERIES = 256          # unique (h, r) test queries ...
TAILS_PER_QUERY = 4        # ... each answered by several test triples
DIM = 64
REPEATS = 5

#: Default fused block budget: ~166 rows of 6000 entities per block — small
#: enough to stream, large enough to keep the BLAS kernels batched.
FUSED_BUDGET = 1_000_000
SWEEP_BUDGETS = (6_000, 100_000, 1_000_000, 4_000_000)

MIN_FUSED_SPEEDUP = float(os.environ.get("BENCH_MIN_FUSED_SPEEDUP", "1.0"))
DEFAULT_JSON_PATH = "BENCH_score_kernels.json"


def fb15k_shaped_dataset(seed: int = 41) -> Dataset:
    """Synthetic FB15k-shaped workload with redundant test queries."""
    rng = np.random.default_rng(seed)
    vocab = Vocabulary.from_labels(
        [f"e{i}" for i in range(NUM_ENTITIES)],
        [f"r{i}" for i in range(NUM_RELATIONS)],
    )
    relation_weights = 1.0 / np.arange(1, NUM_RELATIONS + 1)
    relation_weights /= relation_weights.sum()
    train = TripleSet(
        zip(
            rng.integers(0, NUM_ENTITIES, NUM_TRAIN),
            rng.choice(NUM_RELATIONS, NUM_TRAIN, p=relation_weights),
            rng.integers(0, NUM_ENTITIES, NUM_TRAIN),
        )
    )
    test = TripleSet()
    for _ in range(NUM_QUERIES):
        head = int(rng.integers(0, NUM_ENTITIES))
        relation = int(rng.choice(NUM_RELATIONS, p=relation_weights))
        for tail in rng.integers(0, NUM_ENTITIES, TAILS_PER_QUERY):
            test.add((head, relation, int(tail)))
    return Dataset("fb15k-shaped-kernels", vocab, train, TripleSet(), test)


def build_workload(seed: int = 41):
    dataset = fb15k_shaped_dataset(seed)
    model = make_model(
        "DistMult",
        dataset.num_entities,
        dataset.num_relations,
        ModelConfig(dim=DIM, seed=seed),
    )
    model.train_mode(False)
    return dataset, model


def _assert_identical(reference, other, context: str) -> None:
    assert len(reference.records) == len(other.records), context
    for expected, actual in zip(reference.records, other.records):
        assert (expected.triple, expected.side) == (actual.triple, actual.side), context
        assert (expected.raw_rank, expected.filtered_rank) == (
            actual.raw_rank,
            actual.filtered_rank,
        ), (context, expected, actual)


def _with_budget(evaluator: LinkPredictionEvaluator, budget: int) -> LinkPredictionEvaluator:
    """A fused evaluator over ``evaluator``'s dataset that shares its filter."""
    return LinkPredictionEvaluator(
        evaluator.dataset,
        options=EvalOptions(score_block_budget=budget),
        known_index=evaluator.known_index,
    )


def _best_of(fn, repeats: int = REPEATS) -> Tuple[float, object]:
    """Min-of-repeats wall clock plus the last result (for identity checks)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def measure_fused_vs_materializing(seed: int = 41) -> dict:
    """Fused vs materializing wall-clock, identity asserted first."""
    dataset, model = build_workload(seed)
    evaluator = LinkPredictionEvaluator(dataset)
    fusing = _with_budget(evaluator, FUSED_BUDGET)
    num_test = len(dataset.test)

    evaluator.evaluate(model)  # warm caches/allocator outside the timed runs
    materializing_seconds, reference = _best_of(lambda: evaluator.evaluate(model))
    fused_seconds, fused = _best_of(lambda: fusing.evaluate(model))
    _assert_identical(reference, fused, "fused vs materializing")

    return {
        "test_triples": num_test,
        "entities": dataset.num_entities,
        "dim": DIM,
        "fused_block_budget": FUSED_BUDGET,
        "materializing_seconds": materializing_seconds,
        "fused_seconds": fused_seconds,
        "materializing_triples_per_second": num_test / materializing_seconds,
        "fused_triples_per_second": num_test / fused_seconds,
        "fused_speedup": materializing_seconds / fused_seconds,
    }


def measure_budget_sweep(
    budgets: Sequence[int] = SWEEP_BUDGETS, seed: int = 41
) -> dict:
    """Fused wall-clock across block budgets; every run is rank-identical."""
    dataset, model = build_workload(seed)
    evaluator = LinkPredictionEvaluator(dataset)
    num_test = len(dataset.test)
    reference = evaluator.evaluate(model)

    results = []
    for budget in budgets:
        fusing = _with_budget(evaluator, budget)
        seconds, outcome = _best_of(lambda: fusing.evaluate(model), repeats=1)
        _assert_identical(reference, outcome, f"budget={budget}")
        results.append(
            {
                "score_block_budget": budget,
                "rows_per_block": max(1, budget // dataset.num_entities),
                "seconds": seconds,
                "triples_per_second": num_test / seconds,
            }
        )
    return {"results": results}


def build_report() -> Tuple[dict, bool]:
    """All measurements plus gate verdicts; returns ``(report, all_gates_ok)``."""
    comparison = measure_fused_vs_materializing()
    sweep = measure_budget_sweep()

    fused_gate = {
        "name": "fused_vs_materializing_speedup",
        "threshold": MIN_FUSED_SPEEDUP,
        "value": comparison["fused_speedup"],
        "enforced": True,
        "passed": comparison["fused_speedup"] >= MIN_FUSED_SPEEDUP,
    }
    report = {
        "benchmark": "score_kernels",
        "cpu_count": os.cpu_count() or 1,
        "fused_vs_materializing": comparison,
        "budget_sweep": sweep,
        "gates": [fused_gate],
    }
    return report, all(gate["passed"] for gate in report["gates"])


def _print_report(report: dict) -> None:
    comparison = report["fused_vs_materializing"]
    for key, value in comparison.items():
        print(f"{key:>36}: {value:,.2f}" if isinstance(value, float) else f"{key:>36}: {value}")
    print()
    for entry in report["budget_sweep"]["results"]:
        print(
            f"{'budget=' + str(entry['score_block_budget']):>36}: "
            f"{entry['triples_per_second']:,.0f} triples/s "
            f"({entry['rows_per_block']} rows/block)"
        )
    print()
    for gate in report["gates"]:
        status = "PASS" if gate["passed"] else "FAIL"
        print(
            f"{gate['name']:>36}: {gate['value']:.2f}x "
            f"(threshold {gate['threshold']:.2f}x) {status}"
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run all measurements, write the JSON report, enforce the gate."""
    return bench_main(
        build_report, _print_report, DEFAULT_JSON_PATH, __doc__.splitlines()[0], argv
    )


def test_fused_path_is_not_slower():
    print()
    result = measure_fused_vs_materializing()
    # 0.85 slack vs the standalone gate: pytest runs share the machine with
    # the rest of the suite, so allow mild scheduling noise without letting a
    # real regression through.
    assert result["fused_speedup"] >= MIN_FUSED_SPEEDUP * 0.85, result


def test_budget_sweep_is_rank_identical():
    sweep = measure_budget_sweep(budgets=(6_000, 400_000))
    assert len(sweep["results"]) == 2


if __name__ == "__main__":
    sys.exit(main())
