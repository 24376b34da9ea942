"""Ablation: sensitivity of the duplicate/Cartesian detectors to the theta thresholds.

Regenerates the paper artefact from the shared runner and reports the
wall-clock cost of the experiment driver through pytest-benchmark.
"""

from repro.experiments import ablation_thresholds

from conftest import run_experiment


def test_ablation_thresholds(benchmark, runner):
    result = run_experiment(benchmark, ablation_thresholds, runner)
    assert result["experiment"]
