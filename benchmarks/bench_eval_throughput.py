"""Link-prediction evaluation throughput: batched protocol and sharded workers.

Three measurements on synthetic FB15k-shaped workloads (a few thousand entities,
a skewed relation distribution and a test split where many triples share their
``(h, r)`` / ``(r, t)`` query — exactly the redundancy the batched evaluator
exploits):

1. **Batched vs per-triple** — triples-ranked-per-second through a
   :class:`LinkPredictionEvaluator` and through the per-triple protocol the
   tests keep as an oracle (``tests/oracles/evaluation.py``) on the same
   filter.  Both produce bit-identical rank records (asserted), so the
   comparison is pure protocol overhead: query deduplication + vectorized
   rank extraction versus one scoring call and one mask copy per triple.
2. **Workers sweep** — the batched path at ``workers`` in {1, 2, 4} on a
   larger workload, with bit-identity between the sharded and single-process
   results asserted at every worker count.
3. **Peak memory by batch size and by model** — evaluation's allocation peak
   at a small ``batch_size`` against the default, ranks asserted identical:
   the batch size bounds the resident ``(batch_size, |E|)`` score block.  At
   the default batch, a TransE evaluation must peak within the DistMult
   peak plus four score tiles (``repro.models.translational.TILE_ELEMENTS``
   float64 elements each), its ranks asserted identical to those of the
   row-sliced kernels the tests keep as an oracle
   (``tests/oracles/scoring.py``).

The script is CI's **benchmark regression gate**: it always writes a
machine-readable report (``BENCH_eval_throughput.json`` by default,
``--json PATH`` to override) and exits non-zero when an enforced gate fails.
The batched-vs-per-triple gate (>= ``BENCH_MIN_BATCHED_SPEEDUP``, default
1.2x) and the two peak-memory gates (small batch below the default batch's
peak; TransE within DistMult plus four tiles) are always enforced; the
4-worker gate (>= ``BENCH_MIN_WORKER_SPEEDUP``, default 1.5x over 1 worker)
is enforced only when the machine has at least 4 CPUs — on fewer cores the
sweep still runs and is recorded, but parallel speedup is physically
unavailable, so the gate reports itself as skipped.
Pin BLAS threads (``OMP_NUM_THREADS=1`` etc.) when gating, as CI does, so the
single-process baseline is not silently multi-threaded.

Run standalone (``python benchmarks/bench_eval_throughput.py``, which is what
CI does) or via ``pytest benchmarks/bench_eval_throughput.py``; neither
requires pytest-benchmark.
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.eval import EvalOptions, LinkPredictionEvaluator, multiprocessing_available
from repro.kg import Dataset, TripleSet, Vocabulary
from repro.models import ModelConfig, make_model
from repro.models.translational import TILE_ELEMENTS
from repro.telemetry.bench import bench_main

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))
from oracles.evaluation import evaluate_per_triple  # noqa: E402
from oracles.scoring import OracleScorer  # noqa: E402

NUM_ENTITIES = 1500
NUM_RELATIONS = 40
NUM_TRAIN = 8000
NUM_QUERIES = 300          # unique (h, r) test queries ...
TAILS_PER_QUERY = 5        # ... each answered by several test triples

#: The workers sweep runs on a larger replica of the same shape so that
#: per-shard compute dominates pool start-up and payload shipping.
SWEEP_SCALE = 8
WORKER_COUNTS = (1, 2, 4)

MIN_BATCHED_SPEEDUP = float(os.environ.get("BENCH_MIN_BATCHED_SPEEDUP", "1.2"))
MIN_WORKER_SPEEDUP = float(os.environ.get("BENCH_MIN_WORKER_SPEEDUP", "1.5"))
DEFAULT_JSON_PATH = "BENCH_eval_throughput.json"


def fb15k_shaped_dataset(seed: int = 29, scale: int = 1) -> Dataset:
    """A synthetic dataset with FB15k-style query redundancy in its test split."""
    rng = np.random.default_rng(seed)
    num_entities = NUM_ENTITIES * scale
    num_train = NUM_TRAIN * scale
    num_queries = NUM_QUERIES * scale
    vocab = Vocabulary.from_labels(
        [f"e{i}" for i in range(num_entities)], [f"r{i}" for i in range(NUM_RELATIONS)]
    )
    # Zipf-ish relation frequencies, like Freebase's skewed relation sizes.
    relation_weights = 1.0 / np.arange(1, NUM_RELATIONS + 1)
    relation_weights /= relation_weights.sum()
    train = TripleSet(
        zip(
            rng.integers(0, num_entities, num_train),
            rng.choice(NUM_RELATIONS, num_train, p=relation_weights),
            rng.integers(0, num_entities, num_train),
        )
    )
    test = TripleSet()
    for _ in range(num_queries):
        head = int(rng.integers(0, num_entities))
        relation = int(rng.choice(NUM_RELATIONS, p=relation_weights))
        for tail in rng.integers(0, num_entities, TAILS_PER_QUERY):
            test.add((head, relation, int(tail)))
    return Dataset(f"fb15k-shaped-x{scale}", vocab, train, TripleSet(), test)


def _assert_identical(reference, other, context: str) -> None:
    assert len(reference.records) == len(other.records), context
    for expected, actual in zip(reference.records, other.records):
        assert (expected.triple, expected.side) == (actual.triple, actual.side), context
        assert (expected.raw_rank, expected.filtered_rank) == (
            actual.raw_rank,
            actual.filtered_rank,
        ), (context, expected, actual)


def measure_throughput(seed: int = 29, dim: int = 64) -> dict:
    """Batched vs per-triple triples-per-second on the base workload."""
    dataset = fb15k_shaped_dataset(seed)
    model = make_model(
        "DistMult", dataset.num_entities, dataset.num_relations, ModelConfig(dim=dim, seed=seed)
    )
    model.train_mode(False)
    evaluator = LinkPredictionEvaluator(dataset)
    num_test = len(dataset.test)

    start = time.perf_counter()
    per_triple = evaluate_per_triple(evaluator, model)
    per_triple_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batched = evaluator.evaluate(model)
    batched_seconds = time.perf_counter() - start

    _assert_identical(per_triple, batched, "batched vs per-triple")

    return {
        "test_triples": num_test,
        "per_triple_seconds": per_triple_seconds,
        "batched_seconds": batched_seconds,
        "per_triple_triples_per_second": num_test / per_triple_seconds,
        "batched_triples_per_second": num_test / batched_seconds,
        "speedup": per_triple_seconds / batched_seconds,
    }


def measure_worker_sweep(
    workers: Sequence[int] = WORKER_COUNTS, seed: int = 29, dim: int = 64
) -> dict:
    """The sharded batched path at several worker counts on the sweep workload.

    Every multi-worker run is asserted bit-identical to the 1-worker run
    before its throughput is reported; the 1-worker baseline is always
    measured first, whatever ``workers`` contains.
    """
    dataset = fb15k_shaped_dataset(seed, scale=SWEEP_SCALE)
    model = make_model(
        "DistMult", dataset.num_entities, dataset.num_relations, ModelConfig(dim=dim, seed=seed)
    )
    model.train_mode(False)
    evaluator = LinkPredictionEvaluator(dataset)
    num_test = len(dataset.test)

    results = []
    reference = None
    single_seconds: Optional[float] = None
    for n_workers in sorted(set(workers) | {1}):
        sharding = LinkPredictionEvaluator(
            dataset, options=EvalOptions(workers=n_workers), known_index=evaluator.known_index
        )
        start = time.perf_counter()
        outcome = sharding.evaluate(model)
        seconds = time.perf_counter() - start
        if n_workers == 1:
            reference, single_seconds = outcome, seconds
        else:
            _assert_identical(reference, outcome, f"n_workers={n_workers}")
        results.append(
            {
                "n_workers": n_workers,
                "seconds": seconds,
                "triples_per_second": num_test / seconds,
                "speedup_vs_single_worker": single_seconds / seconds,
            }
        )
    return {
        "workload": {
            "entities": dataset.num_entities,
            "relations": dataset.num_relations,
            "train_triples": len(dataset.train),
            "test_triples": num_test,
            "dim": dim,
        },
        "results": results,
    }


#: Eval batch size for the peak-memory comparison: the rows a block of
#: 100,000 scores holds at the base workload's 1,500 entities (66), far below
#: the default batch of 256 rows.
MEMORY_BATCH_SIZE = 100_000 // NUM_ENTITIES

#: What a TransE evaluation may allocate beyond a DistMult one: both hold the
#: same score block and rank the same way, and TransE's kernels add the
#: temporaries of one tile (about three tile-sized arrays on the head side).
TILE_ALLOWANCE_BYTES = 4 * TILE_ELEMENTS * np.dtype(np.float64).itemsize


def _traced_peak_bytes(fn) -> Tuple[int, object]:
    """Python-allocator peak while running ``fn`` (numpy buffers included)."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    result = fn()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak, result


def measure_peak_memory(seed: int = 29, dim: int = 64) -> dict:
    """Peak allocation of evaluation at a small and at the default batch size,
    ranks asserted identical.  Either holds one ``(batch_size, |E|)`` float64
    score block at a time, so the smaller batch's peak must come in below.

    TransE is evaluated at the default batch as well, and its ranks are
    asserted identical to those of the row-sliced oracle kernels.  It holds
    the same score block as DistMult and ranks it the same way, so its peak
    may exceed DistMult's only by the temporaries of its score tiles."""
    dataset = fb15k_shaped_dataset(seed)
    model = make_model(
        "DistMult", dataset.num_entities, dataset.num_relations, ModelConfig(dim=dim, seed=seed)
    )
    model.train_mode(False)
    transe = make_model(
        "TransE", dataset.num_entities, dataset.num_relations, ModelConfig(dim=dim, seed=seed)
    )
    transe.train_mode(False)
    evaluator = LinkPredictionEvaluator(dataset)

    small = LinkPredictionEvaluator(
        dataset,
        options=EvalOptions(batch_size=MEMORY_BATCH_SIZE),
        known_index=evaluator.known_index,
    )

    evaluator.evaluate(model)  # warm caches so neither trace pays import costs
    default_peak, reference = _traced_peak_bytes(lambda: evaluator.evaluate(model))
    small_peak, blocked = _traced_peak_bytes(lambda: small.evaluate(model))
    _assert_identical(reference, blocked, "small vs default batch size (memory)")

    evaluator.evaluate(transe)
    transe_peak, tiled = _traced_peak_bytes(lambda: evaluator.evaluate(transe))
    _assert_identical(evaluator.evaluate(OracleScorer(transe)), tiled, "TransE tiles vs oracle")

    return {
        "entities": dataset.num_entities,
        "test_triples": len(dataset.test),
        "default_batch_size": evaluator.options.batch_size,
        "small_batch_size": MEMORY_BATCH_SIZE,
        "default_batch_peak_bytes": default_peak,
        "small_batch_peak_bytes": small_peak,
        "small_batch_peak_fraction": small_peak / default_peak,
        "transe_default_batch_peak_bytes": transe_peak,
        "transe_excess_bytes": transe_peak - default_peak,
        "tile_allowance_bytes": TILE_ALLOWANCE_BYTES,
        "transe_excess_fraction_of_allowance": (transe_peak - default_peak) / TILE_ALLOWANCE_BYTES,
    }


def _speedup_at(sweep: dict, n_workers: int) -> Optional[float]:
    for entry in sweep["results"]:
        if entry["n_workers"] == n_workers:
            return entry["speedup_vs_single_worker"]
    return None


def build_report() -> Tuple[dict, bool]:
    """All measurements plus gate verdicts; returns ``(report, all_gates_ok)``."""
    cpu_count = os.cpu_count() or 1
    throughput = measure_throughput()
    sweep = measure_worker_sweep()
    memory = measure_peak_memory()
    gate_workers = max(WORKER_COUNTS)

    batched_gate = {
        "name": "batched_vs_per_triple_speedup",
        "threshold": MIN_BATCHED_SPEEDUP,
        "value": throughput["speedup"],
        "enforced": True,
        "passed": throughput["speedup"] >= MIN_BATCHED_SPEEDUP,
    }
    worker_speedup = _speedup_at(sweep, gate_workers)
    worker_enforced = cpu_count >= gate_workers and multiprocessing_available()
    worker_gate = {
        "name": f"worker_speedup_at_{gate_workers}",
        "threshold": MIN_WORKER_SPEEDUP,
        "value": worker_speedup,
        "enforced": worker_enforced,
        "passed": (
            worker_speedup is not None and worker_speedup >= MIN_WORKER_SPEEDUP
            if worker_enforced
            else True
        ),
    }
    if not worker_enforced:
        worker_gate["skip_reason"] = (
            f"only {cpu_count} CPU(s) available"
            if multiprocessing_available()
            else "platform has no multiprocessing start method"
        )
    memory_gate = {
        "name": "small_batch_peak_below_default_batch",
        "threshold": 1.0,
        "value": memory["small_batch_peak_fraction"],
        "enforced": True,
        "passed": memory["small_batch_peak_fraction"] < 1.0,
    }
    tile_gate = {
        "name": "transe_peak_within_distmult_plus_tiles",
        "threshold": 1.0,
        "value": memory["transe_excess_fraction_of_allowance"],
        "enforced": True,
        "passed": memory["transe_excess_fraction_of_allowance"] <= 1.0,
    }
    report = {
        "benchmark": "eval_throughput",
        "cpu_count": cpu_count,
        "batched_vs_per_triple": throughput,
        "worker_sweep": sweep,
        "peak_memory": memory,
        "gates": [batched_gate, worker_gate, memory_gate, tile_gate],
    }
    return report, all(gate["passed"] for gate in report["gates"])


def _print_report(report: dict) -> None:
    throughput = report["batched_vs_per_triple"]
    for key, value in throughput.items():
        print(f"{key:>32}: {value:,.2f}" if isinstance(value, float) else f"{key:>32}: {value}")
    print()
    for entry in report["worker_sweep"]["results"]:
        print(
            f"{'workers=' + str(entry['n_workers']):>32}: "
            f"{entry['triples_per_second']:,.0f} triples/s "
            f"({entry['speedup_vs_single_worker']:.2f}x vs 1 worker)"
        )
    print()
    memory = report["peak_memory"]
    print(
        f"{'batch ' + str(memory['default_batch_size']) + ' peak':>32}: "
        f"{memory['default_batch_peak_bytes'] / 1e6:,.1f} MB"
    )
    print(
        f"{'batch ' + str(memory['small_batch_size']) + ' peak':>32}: "
        f"{memory['small_batch_peak_bytes'] / 1e6:,.1f} MB "
        f"({memory['small_batch_peak_fraction']:.2f}x)"
    )
    print(
        f"{'TransE batch ' + str(memory['default_batch_size']) + ' peak':>32}: "
        f"{memory['transe_default_batch_peak_bytes'] / 1e6:,.1f} MB "
        f"({memory['transe_excess_bytes'] / 1e6:+,.2f} MB; "
        f"allowance {memory['tile_allowance_bytes'] / 1e6:,.2f} MB)"
    )
    print()
    for gate in report["gates"]:
        status = "PASS" if gate["passed"] else "FAIL"
        if not gate["enforced"]:
            status = f"SKIP ({gate.get('skip_reason', 'not enforced')})"
        value = "n/a" if gate["value"] is None else f"{gate['value']:.2f}x"
        print(f"{gate['name']:>32}: {value} (threshold {gate['threshold']:.2f}x) {status}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run both measurements, write the JSON report, enforce the gates."""
    return bench_main(
        build_report, _print_report, DEFAULT_JSON_PATH, __doc__.splitlines()[0], argv
    )


def test_batched_evaluation_is_faster():
    print()
    result = measure_throughput()
    assert result["speedup"] >= MIN_BATCHED_SPEEDUP, result


def test_sharded_sweep_is_bit_identical():
    sweep = measure_worker_sweep(workers=(1, 2))
    assert _speedup_at(sweep, 2) is not None


def test_small_batch_evaluation_peaks_below_the_default_batch():
    memory = measure_peak_memory()
    assert memory["small_batch_peak_bytes"] < memory["default_batch_peak_bytes"], memory


def test_transe_evaluation_peaks_within_distmult_plus_tiles():
    memory = measure_peak_memory()
    assert memory["transe_excess_bytes"] <= memory["tile_allowance_bytes"], memory


if __name__ == "__main__":
    sys.exit(main())
