"""Figures 7 and 8: best-model break-down by relation cardinality category.

Regenerates the paper artefact from the shared runner and reports the
wall-clock cost of the experiment driver through pytest-benchmark.
"""

from repro.experiments import figure7_8_category_breakdown

from conftest import run_experiment


def test_figure7_categories(benchmark, runner):
    result = run_experiment(benchmark, figure7_8_category_breakdown, runner)
    assert result["experiment"]
