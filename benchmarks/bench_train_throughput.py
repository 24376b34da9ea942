"""Training step throughput: sparse row-gradient engine vs the dense path.

One measurement on an FB15k-scale synthetic workload (>= 10k entities): the
same model, dataset and seeds are trained twice through
:class:`~repro.models.trainer.TrainingRun` — once with
``sparse_updates=True`` (row-indexed gather gradients, lazy per-row optimizer
state, touched-rows constraints) and once with the dense reference path —
and optimizer-steps-per-second are compared.  A batch touches
``batch_size × (1 + num_negatives)`` embedding rows, so the dense path pays
O(num_entities × dim) per step for scatter buffers, full-table optimizer
updates and normalization, while the sparse path pays O(batch × dim).

Equivalence is asserted before any speed number is reported: with SGD the two
paths must produce **bit-identical** loss curves and final parameters (the
sparse engine's contract; Adagrad shares it, lazy Adam is per-row equivalent
by design — see ``docs/training.md``).

The script is CI's **benchmark regression gate** for the training engine: it
always writes a machine-readable report (``BENCH_train_throughput.json`` by
default, ``--json PATH`` to override) and exits non-zero when the sparse
engine is less than ``BENCH_MIN_SPARSE_SPEEDUP`` (default 3.0) times faster
than the dense path.  Pin BLAS threads (``OMP_NUM_THREADS=1`` etc.) when
gating, as CI does.  Three runs on a 2-CPU x86-64 host with one BLAS thread
measured 8.6–11.1× for SGD and 12.3–13.8× for lazy Adam (the lazy-Adam figure
is recorded, not gated), with TransE's score and the margin loss recorded as
fused tape nodes on both paths.

Run standalone (``python benchmarks/bench_train_throughput.py``, which is
what CI does) or via ``pytest benchmarks/bench_train_throughput.py``.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.kg import Dataset, TripleSet, Vocabulary
from repro.models import ModelConfig, TrainingConfig, TrainingRun, make_model
from repro.telemetry.bench import bench_main

NUM_ENTITIES = 15_000           # the gate requires >= 10k (FB15k is ~15k)
NUM_RELATIONS = 50
NUM_TRAIN = 4_000
DIM = 48
BATCH_SIZE = 128
NUM_NEGATIVES = 2
EPOCHS = 3

MIN_SPARSE_SPEEDUP = float(os.environ.get("BENCH_MIN_SPARSE_SPEEDUP", "3.0"))
DEFAULT_JSON_PATH = "BENCH_train_throughput.json"


def fb15k_scale_dataset(seed: int = 17) -> Dataset:
    """A synthetic training workload with FB15k-scale entity counts."""
    rng = np.random.default_rng(seed)
    vocab = Vocabulary.from_labels(
        [f"e{i}" for i in range(NUM_ENTITIES)], [f"r{i}" for i in range(NUM_RELATIONS)]
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
    return Dataset("fb15k-scale-train", vocab, train, TripleSet(), TripleSet())


def _train_once(
    dataset: Dataset, sparse: bool, model_name: str = "TransE", optimizer: str = "sgd", seed: int = 17
) -> Tuple[dict, dict, float, int]:
    """Train one configuration; returns (losses, params, seconds, steps)."""
    model = make_model(
        model_name, dataset.num_entities, dataset.num_relations, ModelConfig(dim=DIM, seed=seed)
    )
    config = TrainingConfig(
        epochs=EPOCHS,
        batch_size=BATCH_SIZE,
        num_negatives=NUM_NEGATIVES,
        optimizer=optimizer,
        learning_rate=0.05,
        seed=seed,
        sparse_updates=sparse,
    )
    steps_per_epoch = -(-len(dataset.train) // BATCH_SIZE)
    started = time.perf_counter()
    result = TrainingRun(model, dataset, config).train()
    seconds = time.perf_counter() - started
    params = {name: p.data.copy() for name, p in model.parameters().items()}
    return (
        {"epoch_losses": result.epoch_losses},
        params,
        seconds,
        steps_per_epoch * result.epochs_run,
    )


def measure_step_throughput(seed: int = 17) -> dict:
    """Sparse vs dense optimizer steps per second, equivalence asserted."""
    dataset = fb15k_scale_dataset(seed)

    dense_losses, dense_params, dense_seconds, steps = _train_once(dataset, sparse=False, seed=seed)
    sparse_losses, sparse_params, sparse_seconds, _ = _train_once(dataset, sparse=True, seed=seed)

    assert np.array_equal(
        dense_losses["epoch_losses"], sparse_losses["epoch_losses"]
    ), "sparse SGD loss curve must be bit-identical to the dense path"
    for name, dense_value in dense_params.items():
        assert np.array_equal(dense_value, sparse_params[name]), (
            f"sparse SGD parameter {name!r} must be bit-identical to the dense path"
        )

    return {
        "entities": dataset.num_entities,
        "relations": dataset.num_relations,
        "train_triples": len(dataset.train),
        "dim": DIM,
        "batch_size": BATCH_SIZE,
        "num_negatives": NUM_NEGATIVES,
        "optimizer_steps": steps,
        "dense_seconds": dense_seconds,
        "sparse_seconds": sparse_seconds,
        "dense_steps_per_second": steps / dense_seconds,
        "sparse_steps_per_second": steps / sparse_seconds,
        "speedup": dense_seconds / sparse_seconds,
    }


def measure_adam_throughput(seed: int = 17) -> dict:
    """Lazy Adam steps per second (recorded, not gated — no exact-equality contract)."""
    dataset = fb15k_scale_dataset(seed)
    _, _, sparse_seconds, steps = _train_once(dataset, sparse=True, optimizer="adam", seed=seed)
    _, _, dense_seconds, _ = _train_once(dataset, sparse=False, optimizer="adam", seed=seed)
    return {
        "optimizer_steps": steps,
        "dense_seconds": dense_seconds,
        "sparse_seconds": sparse_seconds,
        "speedup": dense_seconds / sparse_seconds,
    }


def build_report() -> Tuple[dict, bool]:
    """All measurements plus the gate verdict; returns ``(report, ok)``."""
    throughput = measure_step_throughput()
    adam = measure_adam_throughput()
    gate = {
        "name": "sparse_vs_dense_step_speedup",
        "threshold": MIN_SPARSE_SPEEDUP,
        "value": throughput["speedup"],
        "enforced": True,
        "passed": throughput["speedup"] >= MIN_SPARSE_SPEEDUP,
    }
    report = {
        "benchmark": "train_throughput",
        "cpu_count": os.cpu_count() or 1,
        "sgd_sparse_vs_dense": throughput,
        "lazy_adam_sparse_vs_dense": adam,
        "gates": [gate],
    }
    return report, all(entry["passed"] for entry in report["gates"])


def _print_report(report: dict) -> None:
    for section in ("sgd_sparse_vs_dense", "lazy_adam_sparse_vs_dense"):
        print(f"{section}:")
        for key, value in report[section].items():
            print(f"{key:>28}: {value:,.2f}" if isinstance(value, float) else f"{key:>28}: {value}")
        print()
    for gate in report["gates"]:
        status = "PASS" if gate["passed"] else "FAIL"
        print(
            f"{gate['name']:>28}: {gate['value']:.2f}x "
            f"(threshold {gate['threshold']:.2f}x) {status}"
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the measurements, write the JSON report, enforce the gate."""
    return bench_main(
        build_report, _print_report, DEFAULT_JSON_PATH, __doc__.splitlines()[0], argv
    )


def test_sparse_training_is_faster_and_equivalent():
    print()
    result = measure_step_throughput()
    assert result["speedup"] >= MIN_SPARSE_SPEEDUP, result


if __name__ == "__main__":
    sys.exit(main())
