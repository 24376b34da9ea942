"""Sweep tests: grid validation and expansion, cache-shared execution, and
the ``repro-kgc sweep`` CLI surface."""

import pytest

from repro.api import ExperimentSpec, Runner, expand_sweep, load_sweep, run_sweep
from repro.api.spec import SpecValidationError, validate_sweep_table
from repro.cli import main


def _write_sweep(tmp_path, body):
    path = tmp_path / "sweep.toml"
    path.write_text(body)
    return path


_BASE = """
name = "sweep-test"
datasets = ["WN18RR-like"]
models = ["DistMult"]
include_amie = false
stages = ["ingest", "train", "evaluate", "report"]

[dataset]
scale = "tiny"

[model]
dim = 8

[training]
epochs = 1
"""


# ------------------------------------------------------------------ validation
def test_validate_sweep_table_coerces_and_orders_axes():
    errors = []
    axes = validate_sweep_table(
        {
            # Declared out of schema order on purpose; margin values as ints.
            "training": {"margin": [1, 2], "epochs": [1, 2]},
            "model": {"dim": [8, 16]},
        },
        errors,
    )
    assert errors == []
    # Deterministic order: schema section order, then knob declaration order.
    assert [(section, knob) for section, knob, _ in axes] == [
        ("model", "dim"), ("training", "epochs"), ("training", "margin"),
    ]
    # Values went through knob coercion: margin is a float knob.
    margin_values = dict(((s, k), v) for s, k, v in axes)[("training", "margin")]
    assert margin_values == [1.0, 2.0]
    assert all(isinstance(value, float) for value in margin_values)


def test_validate_sweep_table_rejects_bad_grids():
    for raw, fragment in [
        (["model"], "table"),                          # not a table at all
        ({"telemetry": {"enabled": [True]}}, "telemetry"),  # not sweepable
        ({"model": ["dim"]}, "table"),                 # section not a table
        ({"model": {"dimension": [8]}}, "dim"),        # unknown knob (did-you-mean)
        ({"model": {"dim": 8}}, "list"),               # scalar, not a list
        ({"model": {"dim": []}}, "empty"),             # empty axis
        ({"model": {"dim": [8, 8]}}, "duplicate"),     # repeated value
        ({"model": {"dim": [-4]}}, "dim"),             # schema range violation
    ]:
        errors = []
        validate_sweep_table(raw, errors)
        assert errors, raw
        assert any(fragment in str(error) for error in errors), (raw, errors)


def test_load_sweep_reads_spec_and_axes(tmp_path):
    path = _write_sweep(tmp_path, _BASE + "\n[sweep.model]\ndim = [8, 16]\n")
    spec, axes = load_sweep(path)
    assert spec.name == "sweep-test"
    assert axes == [("model", "dim", [8, 16])]


def test_load_sweep_without_sweep_table_is_single_cell(tmp_path):
    path = _write_sweep(tmp_path, _BASE)
    spec, axes = load_sweep(path)
    assert axes == []
    cells = expand_sweep(spec, axes)
    assert [cell.label for cell in cells] == ["base"]
    assert cells[0].spec.fingerprint() == spec.fingerprint()


def test_load_sweep_reports_spec_and_grid_problems_together(tmp_path):
    path = _write_sweep(
        tmp_path,
        _BASE.replace('dim = 8', 'dim = -1') + "\n[sweep.training]\nepochs = []\n",
    )
    with pytest.raises(SpecValidationError) as excinfo:
        load_sweep(path)
    message = str(excinfo.value)
    assert "dim" in message and "epochs" in message


def test_spec_validate_accepts_sweep_files(tmp_path, capsys):
    """`repro-kgc spec validate` understands the [sweep] table."""
    path = _write_sweep(tmp_path, _BASE + "\n[sweep.model]\ndim = [8, 16]\n")
    assert main(["spec", "validate", str(path)]) == 0
    bad = _write_sweep(tmp_path, _BASE + "\n[sweep.model]\ndim = [8, 8]\n")
    assert main(["spec", "validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "duplicate" in out


# ------------------------------------------------------------------ expansion
def test_expand_sweep_is_a_cartesian_grid_with_base_name():
    base = ExperimentSpec(name="grid")
    cells = expand_sweep(
        base, [("model", "dim", [8, 16]), ("training", "epochs", [1, 2])]
    )
    assert [cell.label for cell in cells] == [
        "model.dim=8,training.epochs=1",
        "model.dim=8,training.epochs=2",
        "model.dim=16,training.epochs=1",
        "model.dim=16,training.epochs=2",
    ]
    assert all(cell.spec.name == "grid" for cell in cells)
    assert cells[2].spec.model.dim == 16 and cells[2].spec.training.epochs == 1
    assert cells[2].values == {"model.dim": 16, "training.epochs": 1}
    # Distinct knob values => distinct fingerprints (distinct cache entries).
    assert len({cell.spec.fingerprint() for cell in cells}) == 4
    # The base spec was never mutated.
    assert base.model.dim != 16 or base.training.epochs != 2


def test_cell_coinciding_with_plain_spec_shares_its_fingerprint(tmp_path):
    path = _write_sweep(tmp_path, _BASE + "\n[sweep.model]\ndim = [8, 16]\n")
    spec, axes = load_sweep(path)
    plain, _ = load_sweep(_write_sweep(tmp_path, _BASE))  # dim = 8 base spec
    cells = expand_sweep(spec, axes)
    assert cells[0].spec.fingerprint() == plain.fingerprint()


# ------------------------------------------------------------------ execution
def test_run_sweep_consolidates_rows_and_matches_plain_runs(tmp_path):
    path = _write_sweep(tmp_path, _BASE + "\n[sweep.training]\nepochs = [1, 2]\n")
    spec, axes = load_sweep(path)
    seen = []
    result = run_sweep(
        spec, axes, cache_dir=tmp_path / "cache",
        progress=lambda index, total, cell: seen.append((index, total, cell.label)),
    )
    assert seen == [(0, 2, "training.epochs=1"), (1, 2, "training.epochs=2")]
    assert [cell.label for cell in result.cells] == [label for _, _, label in seen]
    assert len(result.reports) == 2
    assert {row["cell"] for row in result.rows} == {
        "training.epochs=1", "training.epochs=2",
    }
    assert "Sweep sweep-test (2 cell(s))" in result.text
    assert result.report_for("training.epochs=2").rows["WN18RR-like"]
    with pytest.raises(KeyError):
        result.report_for("no-such-cell")

    # Bit-identity: each cell equals the equivalent plain cached run.
    for cell, report in zip(result.cells, result.reports):
        plain = Runner(cell.spec, cache_dir=tmp_path / "cache").run()
        assert plain.rows == report.rows, cell.label


def test_repeated_sweep_reuses_every_cell(tmp_path):
    path = _write_sweep(tmp_path, _BASE + "\n[sweep.model]\ndim = [8, 16]\n")
    spec, axes = load_sweep(path)
    cold = run_sweep(spec, axes, cache_dir=tmp_path / "cache")
    warm = run_sweep(spec, axes, cache_dir=tmp_path / "cache")
    assert warm.rows == cold.rows
    for report in warm.reports:
        assert report.telemetry["cache"]["miss"] == 0
        assert all(stage.produced == [] for stage in report.stages)


def test_editing_one_axis_only_recomputes_new_cells(tmp_path):
    path = _write_sweep(tmp_path, _BASE + "\n[sweep.model]\ndim = [8]\n")
    spec, axes = load_sweep(path)
    run_sweep(spec, axes, cache_dir=tmp_path / "cache")

    widened, axes = load_sweep(
        _write_sweep(tmp_path, _BASE + "\n[sweep.model]\ndim = [8, 16]\n")
    )
    second = run_sweep(widened, axes, cache_dir=tmp_path / "cache")
    by_cell = {
        cell.label: report for cell, report in zip(second.cells, second.reports)
    }
    assert by_cell["model.dim=8"].telemetry["cache"]["miss"] == 0   # reused
    assert by_cell["model.dim=16"].telemetry["cache"]["write"] > 0  # new work


def test_run_sweep_without_cache_uses_private_memory_stores(tmp_path):
    path = _write_sweep(tmp_path, _BASE)
    spec, axes = load_sweep(path)
    result = run_sweep(spec, axes, cache_dir=None)
    assert len(result.reports) == 1
    assert result.reports[0].telemetry is None  # no disk store, no cache stats


# ------------------------------------------------------------------ CLI
def test_cli_sweep_end_to_end(tmp_path, capsys):
    path = _write_sweep(tmp_path, _BASE + "\n[sweep.model]\ndim = [8, 16]\n")
    cache = tmp_path / "cache"
    assert main(["sweep", str(path), "--cache-dir", str(cache), "--quiet"]) == 0
    cold = capsys.readouterr().out
    assert "2 cell(s)" in cold and "model.dim(2)" in cold
    assert "model.dim=8" in cold and "model.dim=16" in cold
    assert f"cache {cache}:" in cold

    assert main(["sweep", str(path), "--cache-dir", str(cache), "--quiet"]) == 0
    warm = capsys.readouterr().out
    assert "0 miss(es)" in warm and "0 write(s)" in warm
    # The consolidated tables are bit-identical across cold and warm runs.
    assert cold.split("Sweep")[1] == warm.split("Sweep")[1]


def test_cli_sweep_rejects_bad_input(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["sweep", str(tmp_path / "missing.toml"), "--no-cache"])
    bad = _write_sweep(tmp_path, _BASE + "\n[sweep.model]\ndim = 8\n")
    with pytest.raises(SystemExit):
        main(["sweep", str(bad), "--no-cache"])
    good = _write_sweep(tmp_path, _BASE)
    with pytest.raises(SystemExit):
        main(["sweep", str(good), "--no-cache", "--stages", "train,fly"])


def test_cli_sweep_refuses_unknown_stages_before_any_cell_runs(tmp_path, monkeypatch):
    def run_no_cell(*args, **kwargs):
        raise AssertionError("a sweep cell ran despite an unknown stage")

    monkeypatch.setattr("repro.api.sweep.run_sweep", run_no_cell)
    path = _write_sweep(tmp_path, _BASE)
    with pytest.raises(SystemExit, match="unknown stage"):
        main(["sweep", str(path), "--no-cache", "--stages", "warp"])


def test_cli_run_cache_dir_round_trip(tmp_path, capsys):
    spec_path = _write_sweep(tmp_path, _BASE)
    cache = tmp_path / "cache"
    assert main(["run", str(spec_path), "--cache-dir", str(cache), "--quiet"]) == 0
    cold = capsys.readouterr().out
    assert f"cache {cache}:" in cold and "0 hit(s)" in cold
    assert main(["run", str(spec_path), "--cache-dir", str(cache), "--quiet"]) == 0
    warm = capsys.readouterr().out
    assert "0 miss(es)" in warm
    # Identical evaluation tables, zero artifacts rebuilt.
    assert cold.split("Stages")[0].splitlines()[0] == warm.split("Stages")[0].splitlines()[0]
    assert "| 0" in warm  # every stage reports 0 new artifacts
