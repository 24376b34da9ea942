"""Figure 2 / Section 4.1: mediator (CVT) nodes, concatenated edges and reverse_property statistics of the simulated Freebase snapshot.

Regenerates the paper artefact from the shared runner and reports the
wall-clock cost of the experiment driver through pytest-benchmark.
"""

from repro.experiments import figure2_mediators

from conftest import run_experiment


def test_figure2_mediators(benchmark, runner):
    result = run_experiment(benchmark, figure2_mediators, runner)
    assert result["experiment"]
