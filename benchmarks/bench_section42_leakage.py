"""Section 4.2: reverse-triple leakage statistics of FB15k-like, WN18-like and YAGO3-10-like.

Regenerates the paper artefact from the shared runner and reports the
wall-clock cost of the experiment driver through pytest-benchmark.
"""

from repro.experiments import section42_leakage

from conftest import run_experiment


def test_section42_leakage(benchmark, runner):
    result = run_experiment(benchmark, section42_leakage, runner)
    assert result["experiment"]
