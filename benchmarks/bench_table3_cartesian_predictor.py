"""Tables 3 and 4: the Cartesian-product-property predictor vs TransE, with FB15k-like and the Freebase snapshot as ground truth.

Regenerates the paper artefact from the shared runner and reports the
wall-clock cost of the experiment driver through pytest-benchmark.
"""

from repro.experiments import table3_cartesian_predictor

from conftest import run_experiment


def test_table3_cartesian_predictor(benchmark, runner):
    result = run_experiment(benchmark, table3_cartesian_predictor, runner)
    assert result["experiment"]
