"""Cross-model comparison experiments: Tables 7-10/12 and Figures 5-8."""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..api.pipeline import (
    Runner,
    ensure_categories,
    ensure_dataset,
    ensure_evaluation,
    ensure_leakage,
)
from ..api.schema import FB15K, FB15K237, WN18, WN18RR, YAGO
from ..core.reporting import render_matrix, render_table
from ..eval.comparison import (
    best_model_counts,
    category_best_model_breakdown,
    category_side_hits,
    outperformance_redundancy_share,
    per_relation_win_percentages,
)
from ..eval.ranking import EvaluationResult


def _evaluations(
    runner: Runner, models: Sequence[str], dataset_name: str
) -> Dict[str, EvaluationResult]:
    return {
        name: ensure_evaluation(runner.store, runner.spec, name, dataset_name)
        for name in models
    }


def table7_outperform_redundancy(runner: Runner) -> Dict[str, object]:
    """Table 7: among test triples where a model beats TransE, the redundant share.

    Computed on the FB15k-like and WN18-like (redundant) benchmarks, as in the
    paper; the redundant set is "test triples with reverse or duplicate
    counterparts in the training set".
    """
    models = [m for m in runner.spec.models if m != "TransE"]
    tables: Dict[str, Dict[str, Dict[str, float]]] = {}
    rows: List[Dict[str, object]] = []
    for label, dataset_name in (("FB15k-like", FB15K), ("WN18-like", WN18)):
        results = _evaluations(runner, ["TransE", *models], dataset_name)
        leakage = ensure_leakage(runner.store, runner.spec, dataset_name)
        redundant = leakage.redundant_test_triples()
        shares = outperformance_redundancy_share(results, "TransE", redundant)
        tables[label] = shares
        for model, metric_shares in shares.items():
            rows.append({"dataset": label, "model": model, **metric_shares})
    return {
        "experiment": "table7",
        "tables": tables,
        "rows": rows,
        "text": render_table(
            rows,
            title="Table 7: share of triples (on which a model beats TransE) that are redundant",
        ),
    }


def table8_best_model_counts(runner: Runner) -> Dict[str, object]:
    """Table 8: number of test relations on which each model is the most accurate."""
    models = runner.lineup()
    tables: Dict[str, Dict[str, Dict[str, int]]] = {}
    rows: List[Dict[str, object]] = []
    for label, dataset_name in (
        ("FB15k-237-like", FB15K237),
        ("WN18RR-like", WN18RR),
        ("YAGO3-10-like", YAGO),
    ):
        results = _evaluations(runner, models, dataset_name)
        counts = best_model_counts(results)
        tables[label] = counts
        for metric, model_counts in counts.items():
            rows.append({"dataset": label, "metric": metric, **model_counts})
    return {
        "experiment": "table8",
        "tables": tables,
        "rows": rows,
        "text": render_table(
            rows, title="Table 8: number of relations on which each model is the most accurate"
        ),
    }


def figure5_6_per_relation_heatmap(runner: Runner) -> Dict[str, object]:
    """Figures 5 and 6: per-relation share of test triples each model wins."""
    models = list(runner.spec.models)
    heatmaps: Dict[str, Dict[str, Dict[str, float]]] = {}
    for label, dataset_name in (("FB15k-237-like", FB15K237), ("WN18RR-like", WN18RR)):
        dataset = ensure_dataset(runner.store, runner.spec, dataset_name)
        results = _evaluations(runner, models, dataset_name)
        matrix = per_relation_win_percentages(results)
        heatmaps[label] = {
            dataset.relation_name(relation): wins for relation, wins in sorted(matrix.items())
        }
    text_blocks = [
        render_matrix(heatmap, row_label="relation", title=f"Figure {fig}: win % per relation ({label})")
        for fig, (label, heatmap) in zip((5, 6), heatmaps.items())
    ]
    return {
        "experiment": "figure5_6",
        "heatmaps": heatmaps,
        "text": "\n\n".join(text_blocks),
    }


def figure7_8_category_breakdown(runner: Runner) -> Dict[str, object]:
    """Figures 7 and 8: best-model break-down by relation category."""
    models = runner.lineup()
    breakdowns: Dict[str, Dict[str, Dict[str, int]]] = {}
    for label, dataset_name in (("FB15k-237-like", FB15K237), ("YAGO3-10-like", YAGO)):
        results = _evaluations(runner, models, dataset_name)
        categories = ensure_categories(runner.store, runner.spec, dataset_name)
        breakdowns[label] = category_best_model_breakdown(results, categories)
    text_blocks = [
        render_matrix(breakdown, row_label="model", title=f"Figure {fig}: best-FMRR wins by relation category ({label})")
        for fig, (label, breakdown) in zip((7, 8), breakdowns.items())
    ]
    return {
        "experiment": "figure7_8",
        "breakdowns": breakdowns,
        "text": "\n\n".join(text_blocks),
    }


def table9_10_12_category_hits(runner: Runner) -> Dict[str, object]:
    """Tables 9, 10 and 12: FHits@10 by relation category, head vs tail prediction."""
    models = runner.lineup()
    tables: Dict[str, List[Dict[str, object]]] = {}
    text_blocks: List[str] = []
    for table_number, (label, dataset_name) in zip(
        (9, 10, 12),
        (("FB15k-237-like", FB15K237), ("WN18RR-like", WN18RR), ("YAGO3-10-like", YAGO)),
    ):
        results = _evaluations(runner, models, dataset_name)
        categories = ensure_categories(runner.store, runner.spec, dataset_name)
        table = category_side_hits(results, categories)
        rows: List[Dict[str, object]] = []
        for model, per_category in table.items():
            row: Dict[str, object] = {"model": model}
            for category, sides in per_category.items():
                row[f"{category} head"] = sides["head"]
                row[f"{category} tail"] = sides["tail"]
            rows.append(row)
        tables[label] = rows
        text_blocks.append(
            render_table(rows, title=f"Table {table_number}: FHits@10 by relation category ({label})")
        )
    return {
        "experiment": "table9_10_12",
        "tables": tables,
        "text": "\n\n".join(text_blocks),
    }
