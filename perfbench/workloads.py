"""The four benchmark workloads: seeded inputs, set-up, the timed job and its checks.

``perfbench/run.py`` runs this file in child processes whose environment pins
``PYTHONHASHSEED`` and the BLAS thread count and puts the checkout's ``src/``
first on ``PYTHONPATH``::

    python3 perfbench/workloads.py prepare WORKLOAD SEED DIR [--small]
    python3 perfbench/workloads.py probe WORKLOAD DIR
    python3 perfbench/workloads.py measure WORKLOAD DIR --seconds N --trace 0|1 --out FILE

``prepare`` generates every input of one seed into ``DIR`` (specs, TSV source,
delta log, model artifact, query schedule); ``probe`` performs one workload
set-up and prints ``ready``; ``measure`` times the workload's job with tracing
off (``--trace 0``), or runs it once untraced and once with the layer wrappers
of :mod:`layers` installed (``--trace 1``), and writes a JSON result.  The
program sees only the generated inputs, through its public entry points:
``Runner``, ``LiveDatasetMaintainer``/``DeltaLog`` and ``repro-kgc serve``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import math
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

WORKLOADS = ("headline", "eval_large", "live_audit", "serve")

#: Input sizes.  ``small`` is the reduced size the smoke tests use.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "headline": {"scale": "medium", "dim": 32, "epochs": 8},
        "eval_large": {"source": [8000, 1000, 18, 16, 8, 6], "dim": 32},
        "live_audit": {"source": [8000, 1000, 18, 16, 8, 6], "batches": 40, "rate": 0.002},
        "serve": {"source": [8000, 1000, 18, 16, 8, 6], "dim": 32, "schedule": 40000},
    },
    "small": {
        "headline": {"scale": "small", "dim": 16, "epochs": 4},
        "eval_large": {"source": [300, 60, 6, 6, 2, 2], "dim": 8},
        "live_audit": {"source": [300, 60, 6, 6, 2, 2], "batches": 12, "rate": 0.01},
        "serve": {"source": [300, 60, 6, 6, 2, 2], "dim": 8, "schedule": 2000},
    },
}

#: Pipeline repetitions and live-audit replays per measured run (at least).
MIN_REPS = 3
#: Closed-loop serving: client connections, queries per measured second, top-k.
SERVE_CONNECTIONS = 2
SERVE_QUERIES_PER_SECOND = 400
SERVE_K = 10
#: Served answers re-checked against the artifact's own score row, and the
#: relative tolerance of their scores (ids must match exactly).
SERVE_CHECK_EVERY = 50
SCORE_RTOL = 1e-12
SOURCE_NAME = "fb15k-shaped"


# ---------------------------------------------------------------------------- inputs
def _write_source(values: Sequence[int], seed: int, directory: Path) -> None:
    """The FB15k-shaped TSV source of one seed (``fb15k_like`` at a custom scale)."""
    from repro.kg import save_dataset
    from repro.kg.freebase import fb15k_like
    from repro.kg.generators import ScaleProfile

    dataset, _ = fb15k_like(ScaleProfile("bench", *values), seed)
    save_dataset(dataset, directory)


def _pipeline_spec(workload: str, size: Dict[str, Any], seed: int, source: Optional[Path]):
    from repro.api.spec import ExperimentSpec

    evaluation = {"batch_size": 256, "workers": 1}
    if workload == "headline":
        data = {
            "name": "bench-headline",
            "datasets": ["WN18-like", "WN18RR-like"],
            "models": ["TransE", "DistMult"],
            "include_amie": True,
            "stages": ["ingest", "audit", "train", "evaluate", "report"],
            "dataset": {"scale": size["scale"], "seed": seed},
            "model": {"dim": size["dim"]},
            "training": {
                "epochs": size["epochs"], "batch_size": 256, "num_negatives": 2,
                "learning_rate": 0.05, "optimizer": "adam",
            },
            "evaluation": evaluation,
        }
    else:
        data = {
            "name": "bench-eval-large",
            "datasets": [SOURCE_NAME, f"{SOURCE_NAME}-deredundant"],
            "models": ["DistMult"],
            "include_amie": False,
            "stages": ["ingest", "audit", "deredundify", "train", "evaluate", "report"],
            "dataset": {"seed": seed, "source": str(source), "source_name": SOURCE_NAME},
            "ingest": {"fused": True},
            "model": {"dim": size["dim"]},
            "training": {
                "epochs": 1, "batch_size": 256, "num_negatives": 2,
                "learning_rate": 0.05, "optimizer": "sgd",
            },
            "evaluation": evaluation,
        }
    return ExperimentSpec.from_dict(data)


def _zipf_schedule(dataset, count: int, seed: int) -> np.ndarray:
    """``(count, 4)`` rows ``(tail side?, anchor, relation, filtered?)``.

    Test triples are ranked in a seeded random order and drawn Zipf(1.1)
    by rank; the side and the filtered flag are fair coins.
    """
    test = dataset.test.to_array()
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(test))
    weights = 1.0 / np.arange(1, len(test) + 1) ** 1.1
    drawn = test[order[rng.choice(len(test), size=count, p=weights / weights.sum())]]
    tail_side = rng.random(count) < 0.5
    filtered = rng.random(count) < 0.5
    anchors = np.where(tail_side, drawn[:, 0], drawn[:, 2])
    return np.stack([tail_side, anchors, drawn[:, 1], filtered], axis=1).astype(np.int64)


def prepare(workload: str, seed: int, directory: Path, final: Path, small: bool) -> None:
    """Generate every input of ``workload`` for ``seed`` into ``directory``.

    ``directory`` is a staging directory that is renamed to ``final`` once
    complete; paths written into the inputs name ``final``.
    """
    size = SIZES["small" if small else "full"][workload]
    directory.mkdir(parents=True)
    info: Dict[str, Any] = {"workload": workload, "seed": seed, "size": size}
    if workload == "headline":
        _pipeline_spec(workload, size, seed, None).dump(directory / "spec.toml")
    elif workload == "eval_large":
        _write_source(size["source"], seed, directory / "source")
        # The spec names the source relative to the checkout root, where
        # every workload process runs.
        _pipeline_spec(workload, size, seed, final / "source").dump(directory / "spec.toml")
    elif workload == "live_audit":
        from repro.kg import ChurnProfile, churn_stream, ingest_dataset

        _write_source(size["source"], seed, directory / "source")
        base = ingest_dataset(directory / "source", name=SOURCE_NAME).dataset
        profile = ChurnProfile(
            batches=size["batches"], add_rate=size["rate"], remove_rate=size["rate"],
            redundancy_rate=0.2, cartesian_rate=0.1, leakage_rate=0.1,
            readd_rate=0.2, fresh_entity_rate=0.2,
        )
        with open(directory / "deltas.jsonl", "w", encoding="utf-8") as handle:
            for seq, batch in enumerate(churn_stream(base, profile, seed=seed)):
                batch.seq = seq
                handle.write(batch.to_line() + "\n")
    else:
        from repro.api.spec import ExperimentSpec
        from repro.kg import load_dataset
        from repro.models.registry import make_model
        from repro.models.trainer import train_model
        from repro.serve import ModelArtifact

        _write_source(size["source"], seed, directory / "source")
        # Loaded exactly as `repro-kgc serve --dataset` loads it, so the
        # schedule's ids are the server's ids.
        dataset = load_dataset(directory / "source")
        spec = ExperimentSpec.from_dict({
            "dataset": {"seed": seed},
            "model": {"dim": size["dim"]},
            "training": {"epochs": 1, "optimizer": "sgd", "learning_rate": 0.05},
        })
        config = spec.to_experiment_config()
        model = make_model(
            "DistMult", dataset.num_entities, dataset.num_relations,
            config.model_config("DistMult"),
        )
        train_model(model, dataset, config.training_config())
        ModelArtifact.save(model, directory / "artifact")
        np.save(directory / "schedule.npy", _zipf_schedule(dataset, size["schedule"], seed))
    (directory / "inputs.json").write_text(json.dumps(info, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------- helpers
def _percentile(values: Sequence[float], share: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), share * 100.0))


def tail_share(count: int) -> float:
    """p90 once ten samples lie beyond it, else the maximum.

    Not p99: on a 2-vCPU host the server, the load generator and the host's
    other tenants share the CPUs, and the p99 of a 20 s run moved 2x between
    runs with scheduler stalls while p90 tracked the slow (cache-miss) path.
    """
    return 0.9 if count * 0.1 >= 10 else 1.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _mean_filtered_mrr(rows: Dict[str, List[Dict[str, Any]]]) -> float:
    values = [row["FMRR"] for dataset_rows in rows.values() for row in dataset_rows]
    return float(sum(values) / len(values)) if values else 0.0


def _check(name: str, passed: bool, detail: str = "") -> Dict[str, Any]:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _repeat(job: Callable[[], Dict[str, Any]], seconds: float) -> List[Dict[str, Any]]:
    """Run ``job`` at least :data:`MIN_REPS` times and while time is left.

    Each repetition starts from a collected heap, so garbage left by the
    previous one is not charged to it.
    """
    started = time.perf_counter()
    reps: List[Dict[str, Any]] = []
    while True:
        gc.collect()
        reps.append(job())
        elapsed = time.perf_counter() - started
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps


def _traced(job: Callable[[], Dict[str, Any]], reset: Callable[[], None] = lambda: None):
    """One untraced and one traced run of ``job``; returns both and the layer trace.

    ``reset`` runs between the two, before the wrappers are installed.
    """
    from layers import LayerTrace

    gc.collect()
    plain = job()
    reset()
    gc.collect()
    with LayerTrace() as trace:
        traced = job()
    return plain, traced, trace


# ---------------------------------------------------------------------------- pipelines
def _pipeline_rep(spec) -> Dict[str, Any]:
    """One ``Runner.run()``: wall time, stage seconds, work counts, rank digest."""
    from repro.api.pipeline import Runner

    runner = Runner(spec)
    started = time.perf_counter()
    report = runner.run()
    wall = time.perf_counter() - started
    store = runner.store
    train_triples = 0
    records = 0
    digest = hashlib.sha256()
    pairs = []
    for dataset_name in spec.datasets:
        dataset = store[("dataset", dataset_name)]
        for model_name in runner.lineup():
            pairs.append((model_name, dataset_name))
            if model_name in spec.models:
                train_triples += spec.training.epochs * len(dataset.train)
            evaluation = store.get(("evaluation", model_name, dataset_name))
            if evaluation is None:
                continue
            records += len(evaluation.records)
            digest.update(f"{model_name}|{dataset_name}\n".encode())
            for record in evaluation.records:
                digest.update(
                    f"{record.head} {record.relation} {record.tail} {record.side} "
                    f"{record.raw_rank!r} {record.filtered_rank!r}\n".encode()
                )
    failed = sum(
        1
        for model_name, dataset_name in pairs
        if not any(
            row["model"] == model_name and math.isfinite(row["FMRR"])
            for row in report.rows.get(dataset_name, [])
        )
    )
    return {
        "wall": wall,
        "stages": {stage.name: stage.seconds for stage in report.stages},
        "rows": report.rows,
        "pairs": len(pairs),
        "failed": failed,
        "train_triples": train_triples,
        "records": records,
        "digest": digest.hexdigest(),
    }


def _headline_checks(rep: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The paper's finding: filtered MRR drops once redundancy is removed."""
    rows = rep["rows"]
    checks = []
    for model_name in ("DistMult", "AMIE"):
        mrr = {
            dataset: next(
                (row["FMRR"] for row in rows.get(dataset, []) if row["model"] == model_name),
                float("nan"),
            )
            for dataset in ("WN18-like", "WN18RR-like")
        }
        checks.append(_check(
            f"{model_name} filtered MRR drops from WN18-like to WN18RR-like",
            mrr["WN18-like"] > mrr["WN18RR-like"],
            f"{mrr['WN18-like']:.4f} -> {mrr['WN18RR-like']:.4f}",
        ))
    return checks


def measure_pipeline(workload: str, inputs: Path, seconds: float, trace: bool) -> Dict[str, Any]:
    from repro.api.spec import ExperimentSpec

    job = functools.partial(_pipeline_rep, ExperimentSpec.load(inputs / "spec.toml"))
    result: Dict[str, Any] = {}
    if trace:
        plain, traced, layer_trace = _traced(job)
        reps = [plain, traced]
        result["trace"] = {
            "layer_trace": layer_trace,
            "extra": {
                "eval.filtered_mrr": _mean_filtered_mrr(traced["rows"]),
                "trace.overhead": traced["wall"] / plain["wall"],
            },
        }
    else:
        reps = _repeat(job, seconds)
    checks = [_check(
        "every repetition ranks identically (rank-record digest)",
        len({rep["digest"] for rep in reps}) == 1,
        reps[0]["digest"],
    )]
    if workload == "headline":
        checks.extend(_headline_checks(reps[0]))
        items, stage = "train_triples", "train"
    else:
        items, stage = "records", "evaluate"
    walls_ms = [rep["wall"] * 1000.0 for rep in reps]
    result.update({
        "metrics": {
            "latency_mean_ms": statistics.fmean(walls_ms),
            "latency_tail_ms": max(walls_ms),
            "throughput_per_s": sum(rep[items] for rep in reps)
            / sum(rep["stages"][stage] for rep in reps),
            "peak_rss_mb": _peak_rss_mb(),
        },
        "checks": checks,
        "attempted": sum(rep["pairs"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "info": {
            "repetitions": len(reps),
            "digest": reps[0]["digest"],
            "filtered_mrr": _mean_filtered_mrr(reps[0]["rows"]),
            "stage_seconds": reps[0]["stages"],
            "tail": "slowest repetition",
        },
    })
    return result


# ---------------------------------------------------------------------------- live audit
def _live_setup(inputs: Path):
    from repro.kg import DeltaLog, LiveDatasetMaintainer, ingest_dataset

    dataset = ingest_dataset(inputs / "source", name=SOURCE_NAME).dataset
    maintainer = LiveDatasetMaintainer.from_dataset(dataset)
    batches = DeltaLog(inputs / "deltas.jsonl").batches()
    return dataset, maintainer, batches


def _replay(maintainer, log_path: Path) -> Dict[str, Any]:
    """Apply every batch; after each, refresh the live audit (the reads)."""
    from repro.kg import DeltaError, DeltaLog

    started = time.perf_counter()
    batches = DeltaLog(log_path).batches()
    apply_s: List[float] = []
    refresh_s: List[float] = []
    rows: List[int] = []
    failed = 0
    for batch in batches:
        before = time.perf_counter()
        try:
            maintainer.apply(batch)
        except DeltaError:
            failed += 1
            continue
        applied = time.perf_counter()
        maintainer.statistics()
        maintainer.redundancy_report()
        refreshed = time.perf_counter()
        apply_s.append(applied - before)
        refresh_s.append(refreshed - applied)
        rows.append(batch.num_adds() + batch.num_removes())
    return {
        "wall": time.perf_counter() - started,
        "apply_s": apply_s,
        "refresh_s": refresh_s,
        "rows": rows,
        "batches": len(batches),
        "failed": failed,
        "sizes": maintainer.split_sizes(),
    }


def _reingest_check(maintainer, work: Path) -> Dict[str, Any]:
    """``repro-kgc delta audit --check``: maintained audit == a fresh re-ingest's."""
    from repro.kg import LiveDatasetMaintainer, ingest_dataset

    exported = Path(tempfile.mkdtemp(prefix="reingest-", dir=work))
    try:
        maintainer.export(exported)
        reingested = ingest_dataset(exported, name=maintainer.name).dataset
        reference = LiveDatasetMaintainer.from_dataset(reingested).audit_report()
    finally:
        shutil.rmtree(exported, ignore_errors=True)
    maintained = maintainer.audit_report()
    maintained.pop("last_seq")
    reference.pop("last_seq")
    mismatched = sorted(key for key in maintained if maintained[key] != reference.get(key))
    return _check(
        "maintained audit equals a full re-ingest's",
        not mismatched,
        ", ".join(mismatched) or maintained["state"],
    )


def measure_live_audit(inputs: Path, seconds: float, trace: bool, work: Path) -> Dict[str, Any]:
    from repro.kg import LiveDatasetMaintainer

    dataset, maintainer, _ = _live_setup(inputs)
    log_path = inputs / "deltas.jsonl"
    maintainers = [maintainer]
    final: List[Any] = []

    def job() -> Dict[str, Any]:
        if not maintainers:
            maintainers.append(LiveDatasetMaintainer.from_dataset(dataset))
        rep = _replay(maintainers[0], log_path)
        # Only the latest replay's maintainer stays alive (for the check).
        final[:] = [maintainers.pop()]
        return rep

    result: Dict[str, Any] = {}
    if trace:
        # The next maintainer is bootstrapped before the wrappers go in: the
        # trace covers the replay (log read, writes, refreshes) only.
        plain, traced, layer_trace = _traced(
            job, lambda: maintainers.append(LiveDatasetMaintainer.from_dataset(dataset))
        )
        reps = [plain, traced]
        result["trace"] = {
            "layer_trace": layer_trace,
            "extra": {"trace.overhead": traced["wall"] / plain["wall"]},
        }
    else:
        reps = _repeat(job, seconds)
    checks = [
        _check(
            "every replay ends in the same state",
            len({json.dumps(rep["sizes"], sort_keys=True) for rep in reps}) == 1,
            json.dumps(reps[0]["sizes"], sort_keys=True),
        ),
        _reingest_check(final[0], work),
    ]
    refresh_ms = [value * 1000.0 for rep in reps for value in rep["refresh_s"]]
    share = tail_share(len(refresh_ms))
    result.update({
        "metrics": {
            "latency_mean_ms": statistics.fmean(refresh_ms),
            "latency_tail_ms": _percentile(refresh_ms, share),
            "throughput_per_s": sum(sum(rep["rows"]) for rep in reps)
            / sum(sum(rep["apply_s"]) for rep in reps),
            "peak_rss_mb": _peak_rss_mb(),
        },
        "checks": checks,
        "attempted": sum(rep["batches"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "info": {
            "replays": len(reps),
            "refresh_samples": len(refresh_ms),
            "tail": f"p{share * 100:g} of per-batch refresh",
            "apply_p50_ms": _percentile(
                [value * 1000.0 for rep in reps for value in rep["apply_s"]], 0.5
            ),
            "refresh_p50_ms": _percentile(refresh_ms, 0.5),
        },
    })
    return result


# ---------------------------------------------------------------------------- serving
def serve_command(inputs: Path, traced_spans: Optional[Path] = None) -> List[str]:
    """The server process: ``repro-kgc serve``, or the traced launcher around it."""
    args = [
        "serve", "--artifact", str(inputs / "artifact"), "--dataset", str(inputs / "source"),
        "--host", "127.0.0.1", "--port", "0", "--quiet",
    ]
    if traced_spans is None:
        return [sys.executable, "-m", "repro.cli", *args]
    launcher = Path(__file__).with_name("serve_launcher.py")
    return [sys.executable, str(launcher), "--spans", str(traced_spans), "--", *args]


def _request(connection: socket.socket, reader, payload: Dict[str, Any]) -> Dict[str, Any]:
    connection.sendall(json.dumps(payload).encode("utf-8") + b"\n")
    line = reader.readline()
    if not line:
        raise ConnectionError("server closed the connection")
    return json.loads(line)


class Server:
    """A serving child process on loopback; stopped (and waited for) on exit."""

    def __init__(self, command: Sequence[str], env: Optional[Dict[str, str]] = None) -> None:
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            list(command), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
        )
        self.address: Optional[Tuple[str, int]] = None

    def wait_ready(self, timeout: float = 120.0) -> float:
        """Seconds from spawn until the first ``ping`` is answered."""
        deadline = time.monotonic() + timeout
        while self.address is None:
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError(f"server exited early: {self.process.stderr.read()}")
            if line.startswith("serving ") and " on " in line:
                host, _, port = line.rsplit(" on ", 1)[1].strip().rpartition(":")
                self.address = (host, int(port))
            if time.monotonic() > deadline:
                raise TimeoutError("server did not announce its port")
        with socket.create_connection(self.address, timeout=timeout) as connection:
            reply = _request(connection, connection.makefile("rb"), {"op": "ping"})
        if reply != {"ok": True}:
            raise RuntimeError(f"unexpected ping reply {reply!r}")
        return time.perf_counter() - self.started

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text(encoding="utf-8")
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stats(self) -> Dict[str, Any]:
        with socket.create_connection(self.address, timeout=30) as connection:
            return _request(connection, connection.makefile("rb"), {"op": "stats"})["stats"]

    def stop(self) -> None:
        if self.process.poll() is None:
            # SIGTERM, not SIGINT: a shell starts background jobs with SIGINT
            # ignored, and the server inherits that.  The traced launcher
            # turns SIGTERM into its clean shutdown and writes its spans.
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self.process.stdout.close()
        self.process.stderr.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def _closed_loop(address: Tuple[str, int], schedule: np.ndarray) -> Dict[str, Any]:
    """Send every scheduled query, one per request, over the client connections."""
    latencies = np.zeros(len(schedule))
    failures = [0]
    samples: List[Tuple[np.ndarray, Dict[str, Any]]] = []
    cursor = [0]
    lock = threading.Lock()

    def client() -> None:
        with socket.create_connection(address, timeout=30) as connection:
            reader = connection.makefile("rb")
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(schedule):
                    return
                tail_side, anchor, relation, filtered = (int(v) for v in schedule[index])
                query = {
                    "side": "tail" if tail_side else "head", "anchor": anchor,
                    "relation": relation, "k": SERVE_K, "filtered": bool(filtered),
                    "with_ranks": True,
                }
                sent = time.perf_counter()
                try:
                    reply = _request(connection, reader, {"version": 1, "queries": [query]})
                except (OSError, ValueError):
                    reply = {"error": "no reply"}
                latencies[index] = time.perf_counter() - sent
                if "error" in reply:
                    with lock:
                        failures[0] += 1
                elif index % SERVE_CHECK_EVERY == 0:
                    with lock:
                        samples.append((schedule[index], reply["results"][0]))

    threads = [threading.Thread(target=client) for _ in range(SERVE_CONNECTIONS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {
        "wall": time.perf_counter() - started,
        "latencies": latencies,
        "failed": failures[0],
        "samples": samples,
    }


def _serve_checks(inputs: Path, samples) -> List[Dict[str, Any]]:
    """Sampled answers equal ``topk_row`` of the artifact's own score row."""
    from repro.kg import load_dataset
    from repro.serve import ModelArtifact, known_completion_index, topk_row

    model = ModelArtifact.load(inputs / "artifact").instantiate()
    known = known_completion_index(load_dataset(inputs / "source").known_triples())
    mismatched = leaked = 0
    for query, answer in samples:
        tail_side, anchor, relation, filtered = (int(value) for value in query)
        if tail_side:
            row = model.score_all_tails(anchor, relation)
            completions = known.get(("tail", anchor, relation))
        else:
            row = model.score_all_heads(relation, anchor)
            completions = known.get(("head", relation, anchor))
        row = np.asarray(row, dtype=np.float64)
        candidates = None
        if filtered and completions is not None and len(completions):
            candidates = np.setdiff1d(np.arange(len(row), dtype=np.int64), completions)
        ids, scores = topk_row(row, SERVE_K, candidates)
        # The engine scores a whole micro-batch with one matrix product, whose
        # rounding can differ from this one-row product in the last bits.
        if list(ids) != list(answer["entities"]) or not np.allclose(
            scores, answer["scores"], rtol=SCORE_RTOL, atol=0.0
        ):
            mismatched += 1
        if filtered and completions is not None and set(answer["entities"]) & set(completions.tolist()):
            leaked += 1
    return [
        _check(
            "sampled answers equal topk_row of the artifact's score row",
            bool(samples) and mismatched == 0,
            f"{mismatched} of {len(samples)} differ",
        ),
        _check("filtered answers contain no known completion", leaked == 0, f"{leaked} leaked"),
    ]


def _serve_run(inputs: Path, schedule: np.ndarray, spans: Optional[Path] = None) -> Dict[str, Any]:
    with Server(serve_command(inputs, spans)) as server:
        server.wait_ready()
        loop = _closed_loop(server.address, schedule)
        loop["stats"] = server.stats()
        loop["peak_rss_mb"] = server.peak_rss_mb()
    return loop


def measure_serve(inputs: Path, seconds: float, trace: bool, work: Path) -> Dict[str, Any]:
    schedule = np.load(inputs / "schedule.npy")
    schedule = schedule[: max(1, min(len(schedule), int(SERVE_QUERIES_PER_SECOND * seconds)))]
    result: Dict[str, Any] = {}
    loop = _serve_run(inputs, schedule)
    if trace:
        spans_path = Path(tempfile.mkdtemp(prefix="serve-spans-", dir=work)) / "spans.json"
        traced = _serve_run(inputs, schedule, spans_path)
        payload = json.loads(spans_path.read_text(encoding="utf-8"))
        shutil.rmtree(spans_path.parent, ignore_errors=True)
        stats = traced["stats"]
        cache = stats["cache"]
        lookups = cache["hits"] + cache["misses"]
        result["trace"] = {
            "records": payload["records"],
            "counts": payload["counts"],
            "extra": {
                "serve.flushes": stats["flushes"],
                "serve.batch_mean": stats["scored_rows"] / stats["flushes"] if stats["flushes"] else 0.0,
                "serve.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
                "trace.overhead": traced["wall"] / loop["wall"],
            },
        }
    latencies_ms = loop["latencies"] * 1000.0
    share = tail_share(len(latencies_ms))
    cache = loop["stats"]["cache"]
    result.update({
        "metrics": {
            "latency_mean_ms": float(latencies_ms.mean()),
            "latency_tail_ms": _percentile(latencies_ms, share),
            "throughput_per_s": len(schedule) / loop["wall"],
            "peak_rss_mb": loop["peak_rss_mb"],
        },
        "checks": _serve_checks(inputs, loop["samples"]),
        "attempted": len(schedule),
        "failed": loop["failed"],
        "info": {
            "latency_p50_ms": _percentile(latencies_ms, 0.5),
            "queries": len(schedule),
            "connections": SERVE_CONNECTIONS,
            "tail": f"p{share * 100:g} of per-query latency",
            "cache_hit_ratio": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
            "flushes": loop["stats"]["flushes"],
        },
    })
    return result


# ---------------------------------------------------------------------------- entry points
def probe(workload: str, inputs: Path) -> None:
    """One set-up, then ``ready`` on stdout (the parent times spawn → ready)."""
    if workload in ("headline", "eval_large"):
        from repro.api.pipeline import Runner
        from repro.api.spec import ExperimentSpec

        Runner(ExperimentSpec.load(inputs / "spec.toml"))
    elif workload == "live_audit":
        _live_setup(inputs)
    else:
        raise ValueError(f"{workload} set-up is probed through its server process")
    print("ready", flush=True)


def measure(workload: str, inputs: Path, seconds: float, trace: bool, out: Path) -> None:
    from layers import PER_LAYER_METRICS, layer_metrics, span_table
    from repro.telemetry.bench import host_info
    from repro.telemetry.tracing import write_chrome_trace

    work = out.parent
    if workload in ("headline", "eval_large"):
        result = measure_pipeline(workload, inputs, seconds, trace)
    elif workload == "live_audit":
        result = measure_live_audit(inputs, seconds, trace, work)
    else:
        result = measure_serve(inputs, seconds, trace, work)
    if trace:
        traced = result.pop("trace")
        layer_trace = traced.get("layer_trace")
        if layer_trace is not None:
            records, counts = layer_trace.records(), dict(layer_trace.counts)
        else:
            records, counts = traced["records"], traced["counts"]
        table = span_table(records)
        values = layer_metrics(table, counts, traced["extra"])
        result["per_layer"] = {
            name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_METRICS
        }
        result["span_table"] = table
        chrome = out.with_name(out.stem + ".trace.json")
        write_chrome_trace(records, chrome)
        result["chrome_trace"] = str(chrome)
    result["host"] = host_info()
    out.write_text(json.dumps(result, sort_keys=True, default=str), encoding="utf-8")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    prepare_parser = sub.add_parser("prepare")
    prepare_parser.add_argument("workload", choices=WORKLOADS)
    prepare_parser.add_argument("seed", type=int)
    prepare_parser.add_argument("directory", type=Path)
    prepare_parser.add_argument("final", type=Path)
    prepare_parser.add_argument("--small", action="store_true")
    probe_parser = sub.add_parser("probe")
    probe_parser.add_argument("workload", choices=WORKLOADS)
    probe_parser.add_argument("directory", type=Path)
    measure_parser = sub.add_parser("measure")
    measure_parser.add_argument("workload", choices=WORKLOADS)
    measure_parser.add_argument("directory", type=Path)
    measure_parser.add_argument("--seconds", type=float, required=True)
    measure_parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    measure_parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.command == "prepare":
        prepare(args.workload, args.seed, args.directory, args.final, args.small)
    elif args.command == "probe":
        probe(args.workload, args.directory)
    else:
        measure(args.workload, args.directory, args.seconds, bool(args.trace), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
