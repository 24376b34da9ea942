"""Table 5: link prediction of the full model lineup on FB15k-like vs FB15k-237-like.

Regenerates the paper artefact from the shared runner and reports the
wall-clock cost of the experiment driver through pytest-benchmark.
"""

from repro.experiments import table5_fb15k

from conftest import run_experiment


def test_table5_fb15k(benchmark, runner):
    result = run_experiment(benchmark, table5_fb15k, runner)
    assert result["experiment"]
