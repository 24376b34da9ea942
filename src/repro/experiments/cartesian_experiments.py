"""Cartesian-product-relation experiments: Tables 2, 3 and 4 (§4.3)."""

from __future__ import annotations

from typing import Dict, List

from ..api.pipeline import Runner, ensure_dataset, ensure_evaluation, ensure_snapshot
from ..api.schema import FB15K, FB15K237
from ..core.cartesian import CartesianProductPredictor, find_cartesian_relations
from ..core.reporting import render_table
from ..eval.ranking import LinkPredictionEvaluator


def _cartesian_relations_in(runner: Runner, dataset_name: str) -> List[int]:
    """Cartesian relations detected in a dataset (over all splits, as in §4.3)."""
    dataset = ensure_dataset(runner.store, runner.spec, dataset_name)
    detected = find_cartesian_relations(dataset.all_triples(), density_threshold=0.75)
    return [item.relation for item in detected]


def table2_cartesian_strength(runner: Runner) -> Dict[str, object]:
    """Table 2: the strong FMRR results on Cartesian product relations in FB15k-237-like."""
    dataset = ensure_dataset(runner.store, runner.spec, FB15K237)
    relations = _cartesian_relations_in(runner, FB15K237)
    models = list(runner.spec.models)
    rows: List[Dict[str, object]] = []
    for relation in relations:
        test_count = dataset.test.relation_size(relation)
        if test_count == 0:
            continue
        row: Dict[str, object] = {
            "relation": dataset.relation_name(relation),
            "#test triples": test_count,
        }
        for model_name in models:
            result = ensure_evaluation(runner.store, runner.spec, model_name, FB15K237)
            pair = result.metrics_for(lambda record, rel=relation: record.relation == rel)
            row[model_name] = pair.filtered.mean_reciprocal_rank
        rows.append(row)
    return {
        "experiment": "table2",
        "rows": rows,
        "relations": [dataset.relation_name(r) for r in relations],
        "text": render_table(
            rows, title="Table 2: FMRR on Cartesian product relations (FB15k-237-like)"
        ),
    }


def table3_cartesian_predictor(runner: Runner) -> Dict[str, object]:
    """Tables 3 and 4: the Cartesian-product-property predictor vs TransE.

    Three configurations are compared per Cartesian relation, exactly as in
    Table 3: TransE with the benchmark as ground truth, the Cartesian
    predictor with the benchmark as ground truth, and the Cartesian predictor
    with the (larger) simulated Freebase snapshot as ground truth for the
    filtered measures.
    """
    dataset = ensure_dataset(runner.store, runner.spec, FB15K)
    snapshot = ensure_snapshot(runner.store, runner.spec)
    snapshot_triples = snapshot.triple_set(dataset.vocab)
    relations = _cartesian_relations_in(runner, FB15K)

    transe_result = ensure_evaluation(runner.store, runner.spec, "TransE", FB15K)
    cartesian_predictor = CartesianProductPredictor(
        dataset.train, dataset.num_entities, density_threshold=0.75
    )
    options = runner.spec.config_for(model="CartesianProduct", dataset=FB15K).eval_options()
    benchmark_evaluator = LinkPredictionEvaluator(dataset, options=options)
    snapshot_evaluator = LinkPredictionEvaluator(
        dataset, extra_ground_truth=snapshot_triples, options=options
    )

    rows: List[Dict[str, object]] = []
    relation_index: List[Dict[str, str]] = []
    for position, relation in enumerate(relations, start=1):
        test_triples = [t for t in dataset.test if t[1] == relation]
        if not test_triples:
            continue
        relation_index.append(
            {"id": f"r{position}", "relation": dataset.relation_name(relation)}
        )
        transe_pair = transe_result.metrics_for(
            lambda record, rel=relation: record.relation == rel
        )
        cartesian_fb = benchmark_evaluator.evaluate(
            cartesian_predictor, test_triples=test_triples, model_name="CartesianProduct"
        ).metrics()
        cartesian_freebase = snapshot_evaluator.evaluate(
            cartesian_predictor, test_triples=test_triples, model_name="CartesianProduct"
        ).metrics()
        rows.append(
            {
                "relation": f"r{position}",
                "TransE FMR": transe_pair.filtered.mean_rank,
                "TransE FH10": 100 * transe_pair.filtered.hits_at_10,
                "TransE FMRR": transe_pair.filtered.mean_reciprocal_rank,
                "Cartesian(FB) FMR": cartesian_fb.filtered.mean_rank,
                "Cartesian(FB) FH10": 100 * cartesian_fb.filtered.hits_at_10,
                "Cartesian(FB) FMRR": cartesian_fb.filtered.mean_reciprocal_rank,
                "Cartesian(Freebase) FMR": cartesian_freebase.filtered.mean_rank,
                "Cartesian(Freebase) FH10": 100 * cartesian_freebase.filtered.hits_at_10,
                "Cartesian(Freebase) FMRR": cartesian_freebase.filtered.mean_reciprocal_rank,
            }
        )
    return {
        "experiment": "table3",
        "rows": rows,
        "relation_index": relation_index,
        "text": (
            render_table(
                rows,
                title="Table 3: Link prediction using the Cartesian product property vs TransE",
            )
            + "\n\n"
            + render_table(relation_index, title="Table 4: Cartesian product relations used above")
        ),
    }
