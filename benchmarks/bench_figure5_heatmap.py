"""Figures 5 and 6: per-relation share of test triples each model wins on FB15k-237-like and WN18RR-like.

Regenerates the paper artefact from the shared runner and reports the
wall-clock cost of the experiment driver through pytest-benchmark.
"""

from repro.experiments import figure5_6_per_relation_heatmap

from conftest import run_experiment


def test_figure5_heatmap(benchmark, runner):
    result = run_experiment(benchmark, figure5_6_per_relation_heatmap, runner)
    assert result["experiment"]
