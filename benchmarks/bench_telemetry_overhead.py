"""Telemetry overhead: instrumented evaluation vs the un-instrumented kernel.

The telemetry subsystem's contract is that it is cheap enough to leave
compiled into every hot path: disabled, the instrumented call sites cost one
global fetch plus no-op singleton calls; enabled, spans and counters are
recorded per *shard* and per *chunk*, never per scored row.  This benchmark
holds the subsystem to that contract on an FB15k-shaped TransE ranking
workload:

1. **Baseline** — :func:`repro.eval.sharding.rank_shard` called directly,
   under the process's default (disabled) telemetry.  ``rank_shard`` opens
   only per-block spans, which cost a no-op call each while telemetry is
   off; the shard instrumentation lives in its callers, so this measures
   the ranking kernel without it.
2. **Telemetry off** — the same workload through
   :func:`~repro.eval.sharding.evaluate_shards` (the instrumented entry point
   every evaluation now uses) with telemetry disabled.  Gated: throughput
   must stay within ``BENCH_MIN_TELEMETRY_OFF_RELATIVE`` (default 0.98, i.e.
   <= 2% overhead) of the baseline.
3. **Telemetry on** — the same call under an enabled registry and tracer.
   Gated: within ``BENCH_MIN_TELEMETRY_ON_RELATIVE`` (default 0.90, i.e.
   <= 10% overhead) of the baseline.

The three paths are asserted **bit-identical** before any timing — enabling
observability may never change a rank.  The gated value is the **median of
per-round sandwiched ratios**: each round times baseline / off / on /
baseline back to back and divides by the mean of the two baseline timings,
so linear drift within a round (noisy neighbour, frequency scaling) cancels
out of the ratio instead of failing the gate; the garbage collector is
paused during timing for the same reason.  Always writes
``BENCH_telemetry_overhead.json`` (``--json PATH``
to override) and exits non-zero when a gate fails.  Pin BLAS threads
(``OMP_NUM_THREADS=1`` etc.) when gating, as CI does.

Run standalone (``python benchmarks/bench_telemetry_overhead.py``, which is
what CI does) or via ``pytest benchmarks/bench_telemetry_overhead.py``.
"""

from __future__ import annotations

import gc
import os
import statistics
import sys
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.eval.sharding import QueryWork, evaluate_shards, rank_shard
from repro.kg import Dataset, TripleSet, Vocabulary
from repro.models import ModelConfig, make_model
from repro.telemetry import Telemetry, scoped
from repro.telemetry.bench import bench_main

NUM_ENTITIES = 4000
NUM_RELATIONS = 40
NUM_QUERIES = 400
TAILS_PER_QUERY = 4
DIM = 64

#: Small enough that ``rank_shard`` runs many chunks, so the timing covers
#: the chunked dispatch the instrumented callers wrap.
EVAL_BATCH_SIZE = 32

ROUNDS = 10

MIN_OFF_RELATIVE = float(os.environ.get("BENCH_MIN_TELEMETRY_OFF_RELATIVE", "0.98"))
MIN_ON_RELATIVE = float(os.environ.get("BENCH_MIN_TELEMETRY_ON_RELATIVE", "0.90"))
DEFAULT_JSON_PATH = "BENCH_telemetry_overhead.json"


def ranking_workload(seed: int = 31) -> Tuple[object, QueryWork]:
    """A TransE scorer plus the deduplicated, unfiltered tail-side query order."""
    rng = np.random.default_rng(seed)
    vocab = Vocabulary.from_labels(
        [f"e{i}" for i in range(NUM_ENTITIES)], [f"r{i}" for i in range(NUM_RELATIONS)]
    )
    test = TripleSet()
    for _ in range(NUM_QUERIES):
        head = int(rng.integers(0, NUM_ENTITIES))
        relation = int(rng.integers(0, NUM_RELATIONS))
        for tail in rng.integers(0, NUM_ENTITIES, TAILS_PER_QUERY):
            test.add((head, relation, int(tail)))
    dataset = Dataset("telemetry-overhead", vocab, TripleSet(), TripleSet(), test)
    model = make_model(
        "TransE", dataset.num_entities, dataset.num_relations,
        ModelConfig(dim=DIM, seed=seed),
    )
    model.train_mode(False)
    # The evaluator's deduplicated (h, r) -> targets order, tail side.
    targets: "OrderedDict[Tuple[int, int], List[int]]" = OrderedDict()
    for h, r, t in dataset.test:
        targets.setdefault((h, r), []).append(t)
    work = QueryWork(
        side="tail",
        queries=np.array(list(targets), dtype=np.int64).reshape(-1, 2),
        targets=np.array([t for tails in targets.values() for t in tails], dtype=np.int64),
        target_offsets=np.cumsum([0] + [len(tails) for tails in targets.values()]),
        known=np.empty(0, dtype=np.int64),
        known_offsets=np.zeros(len(targets) + 1, dtype=np.int64),
    )
    return model, work


def _ranks_baseline(scorer, work) -> Tuple[np.ndarray, np.ndarray]:
    return rank_shard(scorer, work, EVAL_BATCH_SIZE)


def _ranks_instrumented(scorer, work, enabled: bool) -> Tuple[np.ndarray, np.ndarray]:
    with scoped(Telemetry(enabled=enabled)):
        result = evaluate_shards(
            scorer, [work], n_workers=1, shard_size=None, eval_batch_size=EVAL_BATCH_SIZE,
        )
    return result["tail"]


def measure_overhead(seed: int = 31) -> dict:
    """Best-of-``ROUNDS`` interleaved timings of the three paths."""
    scorer, work = ranking_workload(seed)

    reference = _ranks_baseline(scorer, work)
    for label, enabled in (("off", False), ("on", True)):
        raw, filtered = _ranks_instrumented(scorer, work, enabled)
        assert np.array_equal(reference[0], raw), label
        assert np.array_equal(reference[1], filtered), label

    def timed(fn) -> float:
        # Collection pauses land on whichever path is running; collect
        # between timings instead so every path sees the same allocator state.
        gc.collect()
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    baseline = lambda: _ranks_baseline(scorer, work)  # noqa: E731
    off = lambda: _ranks_instrumented(scorer, work, False)  # noqa: E731
    on = lambda: _ranks_instrumented(scorer, work, True)  # noqa: E731

    best: Dict[str, float] = {
        "baseline": float("inf"), "telemetry_off": float("inf"), "telemetry_on": float("inf")
    }
    # Sandwiched per-round ratios: baseline is timed before AND after the
    # instrumented paths and the two are averaged, so linear drift within a
    # round (noisy neighbour, frequency scaling) cancels out of the ratio
    # instead of biasing whichever path it happened to land on.
    ratios: Dict[str, List[float]] = {"telemetry_off": [], "telemetry_on": []}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(ROUNDS):
            lead = timed(baseline)
            off_seconds = timed(off)
            on_seconds = timed(on)
            trail = timed(baseline)
            anchor = (lead + trail) / 2.0
            best["baseline"] = min(best["baseline"], lead, trail)
            best["telemetry_off"] = min(best["telemetry_off"], off_seconds)
            best["telemetry_on"] = min(best["telemetry_on"], on_seconds)
            ratios["telemetry_off"].append(anchor / off_seconds)
            ratios["telemetry_on"].append(anchor / on_seconds)
    finally:
        if gc_was_enabled:
            gc.enable()

    # One enabled run's counters, recorded as evidence of what "on" measures.
    with scoped(Telemetry(enabled=True)) as telemetry:
        evaluate_shards(
            scorer, [work], n_workers=1, shard_size=None, eval_batch_size=EVAL_BATCH_SIZE,
        )
        counters = telemetry.snapshot()["counters"]

    return {
        "entries": len(work),
        "ranked_targets": len(work.targets),
        "eval_batch_size": EVAL_BATCH_SIZE,
        "rounds": ROUNDS,
        "baseline_seconds": best["baseline"],
        "telemetry_off_seconds": best["telemetry_off"],
        "telemetry_on_seconds": best["telemetry_on"],
        "telemetry_off_relative_throughput": statistics.median(ratios["telemetry_off"]),
        "telemetry_on_relative_throughput": statistics.median(ratios["telemetry_on"]),
        "telemetry_off_round_ratios": ratios["telemetry_off"],
        "telemetry_on_round_ratios": ratios["telemetry_on"],
        "enabled_run_counters": counters,
    }


def build_report() -> Tuple[dict, bool]:
    """The measurement plus gate verdicts; returns ``(report, all_gates_ok)``."""
    overhead = measure_overhead()
    gates = [
        {
            "name": "telemetry_off_within_2_percent_of_baseline",
            "threshold": MIN_OFF_RELATIVE,
            "value": overhead["telemetry_off_relative_throughput"],
            "enforced": True,
            "passed": overhead["telemetry_off_relative_throughput"] >= MIN_OFF_RELATIVE,
        },
        {
            "name": "telemetry_on_within_10_percent_of_baseline",
            "threshold": MIN_ON_RELATIVE,
            "value": overhead["telemetry_on_relative_throughput"],
            "enforced": True,
            "passed": overhead["telemetry_on_relative_throughput"] >= MIN_ON_RELATIVE,
        },
    ]
    report = {
        "name": "telemetry_overhead",
        "metrics": overhead,
        "gates": gates,
    }
    return report, all(gate["passed"] for gate in gates)


def _print_report(report: dict) -> None:
    metrics = report["metrics"]
    print("telemetry overhead on the tail-side ranking workload")
    print(
        f"  workload: {metrics['entries']} unique queries, "
        f"{metrics['ranked_targets']} ranked targets, "
        f"eval_batch_size={metrics['eval_batch_size']}"
    )
    for label in ("baseline", "telemetry_off", "telemetry_on"):
        print(f"  {label:>14}: {metrics[f'{label}_seconds'] * 1000.0:8.2f} ms")
    print(
        f"  relative throughput: off {metrics['telemetry_off_relative_throughput']:.4f} "
        f"(gate >= {MIN_OFF_RELATIVE}), "
        f"on {metrics['telemetry_on_relative_throughput']:.4f} "
        f"(gate >= {MIN_ON_RELATIVE})"
    )
    for gate in report["gates"]:
        verdict = "PASS" if gate["passed"] else "FAIL"
        print(f"  [{verdict}] {gate['name']}: {gate['value']:.4f} >= {gate['threshold']}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the measurement, write the JSON report, enforce the gates."""
    return bench_main(
        build_report, _print_report, DEFAULT_JSON_PATH, __doc__.splitlines()[0], argv
    )


# ------------------------------------------------------------------ pytest surface
def test_telemetry_paths_are_bit_identical():
    scorer, entries = ranking_workload(seed=5)
    reference = _ranks_baseline(scorer, entries)
    for enabled in (False, True):
        raw, filtered = _ranks_instrumented(scorer, entries, enabled)
        assert np.array_equal(reference[0], raw)
        assert np.array_equal(reference[1], filtered)


def test_telemetry_overhead_gates_pass():
    report, passed = build_report()
    assert passed, [gate for gate in report["gates"] if not gate["passed"]]


if __name__ == "__main__":
    sys.exit(main())
