"""Figure 1: FMRR of the core models on the original vs de-redundant datasets.

Regenerates the paper artefact from the shared runner and reports the
wall-clock cost of the experiment driver through pytest-benchmark.
"""

from repro.experiments import figure1_overview

from conftest import run_experiment


def test_figure1_overview(benchmark, runner):
    result = run_experiment(benchmark, figure1_overview, runner)
    assert result["experiment"]
