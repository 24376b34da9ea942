"""Compare the whole model zoo on a redundant benchmark and its clean variant.

Run with ``python examples/model_comparison.py``.

This reproduces the heart of the paper's argument on a laptop in a couple of
minutes, driven entirely by the declarative spec in
``examples/specs/model_comparison.toml``: every core embedding model is
trained on the WN18-like replica (dominated by reverse and symmetric
relations) and on the WN18RR-like variant produced by the de-redundancy
transform.  The side-by-side filtered metrics show the collapse the paper
calls R1, together with the per-relation-category break-down of its §5.3
analysis.  The spec also demonstrates a per-model override (ConvE trains with
a different embedding dimension).
"""

from __future__ import annotations

from pathlib import Path

from repro.api import ExperimentSpec, Runner
from repro.core import render_matrix, render_table
from repro.eval import category_side_hits
from repro.experiments import WN18, WN18RR

SPEC_PATH = Path(__file__).parent / "specs" / "model_comparison.toml"


def main() -> None:
    spec = ExperimentSpec.load(SPEC_PATH)
    runner = Runner(spec)
    report = runner.run(stages=["ingest", "train", "evaluate"])

    rows = []
    for dataset_name in (WN18, WN18RR):
        for model_name in spec.models:
            evaluation = runner.store[("evaluation", model_name, dataset_name)]
            metrics = evaluation.filtered_metrics()
            rows.append({
                "model": model_name,
                "dataset": dataset_name,
                "FMR": metrics.mean_rank,
                "FMRR": metrics.mean_reciprocal_rank,
                "FHits@1": 100 * metrics.hits_at_1,
                "FHits@10": 100 * metrics.hits_at_10,
            })
        print(f"finished {dataset_name}")

    print()
    print(render_table(rows, title="Filtered link-prediction metrics, WN18-like vs WN18RR-like"))

    from repro.api.pipeline import ensure_categories

    categories = ensure_categories(runner.store, runner.spec, WN18RR)
    results_on_clean = {
        model: runner.store[("evaluation", model, WN18RR)] for model in spec.models
    }
    per_category = category_side_hits(results_on_clean, categories)
    flattened = {
        model: {f"{category}/{side}": value for category, sides in table.items() for side, value in sides.items()}
        for model, table in per_category.items()
    }
    print()
    print(render_matrix(flattened, row_label="model",
                        title="FHits@10 by relation category and side on WN18RR-like (Table 10 style)"))
    print("\nEvery model loses most of its accuracy once the reverse relations are "
          "removed — the paper's R1 — and no successor convincingly beats TransE (R2).")


if __name__ == "__main__":
    main()
