"""Table 11: link prediction on YAGO3-10-like vs YAGO3-10-like-DR.

Regenerates the paper artefact from the shared runner and reports the
wall-clock cost of the experiment driver through pytest-benchmark.
"""

from repro.experiments import table11_yago

from conftest import run_experiment


def test_table11_yago(benchmark, runner):
    result = run_experiment(benchmark, table11_yago, runner)
    assert result["experiment"]
