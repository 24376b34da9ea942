"""Smoke tests of the benchmark harness at reduced input size.

Not collected by the repository's test suite (the file name does not match
``test_*.py``); run them explicitly::

    python -m pytest perfbench/smoke.py

Each test copies ``src/`` and ``perfbench/`` into a temporary checkout and
runs ``perfbench/run.py --small`` there, so nothing is written to the real
checkout.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    return root


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def _result(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr + completed.stdout
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER_METRICS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(checkout, workload):
    result = _result(_run(checkout, "--workload", workload, "--seed", "3", "--seconds", "1", "--small"))
    assert sorted(result["metrics"]) == sorted(name for name, _ in run.END_TO_END)
    for name, unit in run.END_TO_END:
        value = result["metrics"][name]["value"]
        assert result["metrics"][name]["unit"] == unit
        assert math.isfinite(value) and value > 0, (name, value)
    saved = checkout / ".perfbench" / "results" / f"{workload}-s3-trace0.json"
    assert json.loads(saved.read_text(encoding="utf-8"))["host"]["cpu_count"] >= 1


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(checkout, workload):
    result = _result(
        _run(checkout, "--workload", workload, "--seed", "3", "--seconds", "1", "--small", "--trace", "1")
    )
    assert sorted(result["metrics"]) == sorted(name for name, _ in layers.PER_LAYER_METRICS)
    assert result["metrics"]["trace.overhead"]["value"] > 0
    assert (checkout / ".perfbench" / "results" / f"{workload}-s3-trace1.trace.json").is_file()
    if workload == "headline":
        assert result["metrics"]["train.step_s"]["value"] > 0
        assert result["metrics"]["amie.rules"]["value"] > 0
    if workload == "eval_large":
        assert result["metrics"]["eval.rank_s"]["value"] > 0
        assert result["metrics"]["ingest.triples"]["value"] > 0
    if workload == "live_audit":
        assert result["metrics"]["audit.refresh_s"]["value"] > 0
        assert result["metrics"]["delta.rows"]["value"] > 0
    if workload == "serve":
        assert result["metrics"]["serve.answer_s"]["value"] > 0
        assert 0 < result["metrics"]["serve.cache_hit_ratio"]["value"] < 1


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = _run(tmp_path, "--workload", "headline", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_self_time_subtracts_child_spans():
    records = [
        {"name": "stage.train", "id": 1, "parent_id": None, "pid": 7, "duration": 1.0},
        {"name": "train.step", "id": 2, "parent_id": 1, "pid": 7, "duration": 0.5},
        {"name": "train.step", "id": 3, "parent_id": 2, "pid": 7, "duration": 0.25},
        {"name": "train.sample", "id": 4, "parent_id": 1, "pid": 7, "duration": 0.25},
    ]
    table = layers.span_table(records)
    assert table["stage.train"]["self_s"] == pytest.approx(0.25)
    assert table["train.step"] == {"calls": 2, "total_s": 0.5, "self_s": pytest.approx(0.5)}
    values = layers.layer_metrics(table, {"train.negatives": 8})
    assert values["stage.train_unattributed"] == pytest.approx(0.25)
    assert values["train.sample_s"] == pytest.approx(0.25)
    assert values["train.negatives"] == 8
    assert values["serve.answer_s"] == 0.0


def test_layer_trace_restores_the_program():
    from repro.eval import sharding
    from repro.kg.triples import TripleSet

    originals = (sharding.mean_tie_ranks, TripleSet.__init__)
    with layers.LayerTrace() as trace:
        assert sharding.mean_tie_ranks is not originals[0]
        TripleSet([(0, 0, 1), (1, 0, 2)])
    assert (sharding.mean_tie_ranks, TripleSet.__init__) == originals
    assert trace.counts["triples.materialized"] == 2
    assert layers.span_table(trace.records())["triples.materialize"]["calls"] == 1
