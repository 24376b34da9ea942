"""CLI <-> schema synchronization and the spec-driven subcommands.

Contains the default-drift regression test: every generated flag's parser
default must equal the knob schema's default, for every subcommand — the
exact drift (``train`` hardcoding dim=24/epochs=40/negatives=4 against the
config's 16/30/2) this API redesign removed.
"""

from pathlib import Path

import pytest

from repro.api import ExperimentSpec, Runner, schema
from repro.cli import GENERATED_KNOB_FLAGS, build_parser, main

EXAMPLE_SPECS = sorted((Path(__file__).parents[2] / "examples" / "specs").glob("*.toml"))

#: Minimal argv that reaches each subcommand's defaults.
MINIMAL_ARGV = {
    "run": ["run", "unused.toml"],
    "generate": ["generate"],
    "audit": ["audit"],
    "ingest": ["ingest", "--input", "unused"],
    "train": ["train"],
    "experiment": ["experiment", "table1"],
    "serve": ["serve", "--artifact", "unused"],
    "query": ["query", "--anchor", "0", "--relation", "0"],
    "delta-apply": ["delta", "apply", "--log", "unused"],
    "delta-audit": ["delta", "audit", "--log", "unused"],
}


@pytest.fixture(autouse=True)
def _no_repro_env(monkeypatch):
    """Generated-flag defaults honour REPRO_* overrides; scrub them here."""
    import os

    for key in list(os.environ):
        if key.startswith("REPRO_") and key != "REPRO_TEST_MAX_WORKERS":
            monkeypatch.delenv(key)
    yield


# ------------------------------------------------------------------ default drift
def test_parser_defaults_equal_schema_defaults_for_all_subcommands():
    """Regression: CLI defaults are *generated* from the schema, never retyped."""
    parser = build_parser()
    assert set(MINIMAL_ARGV) == set(GENERATED_KNOB_FLAGS)
    for command, argv in MINIMAL_ARGV.items():
        args = parser.parse_args(argv)
        knobs = GENERATED_KNOB_FLAGS[command]
        assert knobs, command
        for dest, (section_name, knob_name) in knobs.items():
            knob = schema.section(section_name).knob(knob_name)
            assert getattr(args, dest) == knob.parser_default(), (
                f"{command} --{dest}: parser default "
                f"{getattr(args, dest)!r} != schema default {knob.parser_default()!r}"
            )
            # The spec-value mapping lands on the schema default too.
            assert knob.from_parser_value(getattr(args, dest)) == knob.default


def test_train_defaults_no_longer_drift_from_the_config():
    """The historical drift: train hardcoded dim=24/epochs=40/negatives=4."""
    args = build_parser().parse_args(["train"])
    spec = ExperimentSpec()
    assert args.dim == spec.model.dim == 16
    assert args.epochs == spec.training.epochs == 30
    assert args.negatives == spec.training.num_negatives == 2
    assert args.batch_size == spec.training.batch_size
    assert args.learning_rate == spec.training.learning_rate
    assert args.optimizer == spec.training.optimizer


def test_train_exposes_every_training_and_evaluation_knob():
    generated = build_parser() and GENERATED_KNOB_FLAGS["train"]
    sections = {section for section, _ in generated.values()}
    assert sections == {"dataset", "model", "training", "evaluation"}
    training_knobs = {knob for section, knob in generated.values() if section == "training"}
    assert training_knobs == {knob.name for knob in schema.TRAINING.knobs}


def test_environment_overrides_generated_flag_defaults(monkeypatch):
    monkeypatch.setenv("REPRO_TRAINING_EPOCHS", "7")
    monkeypatch.setenv("REPRO_TRAINING_SPARSE_UPDATES", "false")
    monkeypatch.setenv("REPRO_EVALUATION_WORKERS", "3")
    args = build_parser().parse_args(["train"])
    assert args.epochs == 7
    assert args.dense_updates is True  # inverted flag encodes the False knob
    assert args.eval_workers == 3
    # Explicit flags still beat the environment.
    args = build_parser().parse_args(["train", "--epochs", "9"])
    assert args.epochs == 9


def test_invalid_environment_override_is_a_clean_error(monkeypatch):
    monkeypatch.setenv("REPRO_TRAINING_EPOCHS", "many")
    with pytest.raises(SystemExit, match="REPRO_TRAINING_EPOCHS"):
        build_parser()


@pytest.mark.parametrize("argv", [["run", "unused.toml"], ["train"]], ids=["run", "train"])
def test_removed_eval_backend_flag_is_unknown(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--eval-backend", "numpy"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --eval-backend" in capsys.readouterr().err


def test_cli_flag_values_go_through_schema_validation():
    """Out-of-range flag values are rejected like a spec file would reject
    them, instead of silently producing a zero-epoch run."""
    with pytest.raises(SystemExit, match="training.epochs"):
        main(["train", "--epochs", "0"])
    with pytest.raises(SystemExit, match="num_negatives"):
        main(["train", "--negatives", "-3"])
    with pytest.raises(SystemExit, match="restore_best"):
        main(["train", "--restore-best"])  # needs --validate-every


def test_nonfinite_floats_are_rejected_by_validation():
    from repro.api.spec import ExperimentSpec, SpecValidationError

    with pytest.raises(SpecValidationError, match="finite"):
        ExperimentSpec.loads("[training]\nlearning_rate = nan\n")
    with pytest.raises(SpecValidationError, match="finite"):
        ExperimentSpec.loads("[training]\nmargin = inf\n")


def test_tristate_gzip_env_override_can_force_false(monkeypatch):
    """REPRO_INGEST_GZIPPED=false must mean 'force plain text', not 'auto'."""
    args = build_parser().parse_args(["ingest", "--input", "x"])
    assert args.gzip is None  # flag absent = auto-detect
    monkeypatch.setenv("REPRO_INGEST_GZIPPED", "false")
    args = build_parser().parse_args(["ingest", "--input", "x"])
    assert args.gzip is False
    monkeypatch.setenv("REPRO_INGEST_GZIPPED", "true")
    args = build_parser().parse_args(["ingest", "--input", "x"])
    assert args.gzip is True


def test_environment_overrides_go_through_schema_validation(monkeypatch):
    """An env override may not smuggle in a value the schema would reject."""
    monkeypatch.setenv("REPRO_TRAINING_OPTIMIZER", "adamw")
    with pytest.raises(SystemExit, match="REPRO_TRAINING_OPTIMIZER"):
        build_parser()
    monkeypatch.delenv("REPRO_TRAINING_OPTIMIZER")
    monkeypatch.setenv("REPRO_MODEL_DIM", "0")
    with pytest.raises(SystemExit, match="REPRO_MODEL_DIM"):
        build_parser()


# ------------------------------------------------------------------ spec subcommands
def test_spec_init_validate_round_trip(tmp_path, capsys):
    path = tmp_path / "template.toml"
    assert main(["spec", "init", "--output", str(path)]) == 0
    assert main(["spec", "validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out
    # Refuses to clobber without --force.
    with pytest.raises(SystemExit, match="--force"):
        main(["spec", "init", "--output", str(path)])
    assert main(["spec", "init", "--output", str(path), "--force"]) == 0


def test_spec_validate_reports_all_errors_and_fails(tmp_path, capsys):
    bad = tmp_path / "bad.toml"
    bad.write_text('models = ["TranE"]\n[trainig]\nepochs = 2\n')
    good = tmp_path / "good.toml"
    good.write_text('name = "ok"\n')
    assert main(["spec", "validate", str(bad), str(good)]) == 1
    out = capsys.readouterr().out
    assert "did you mean 'TransE'?" in out
    assert "did you mean 'training'?" in out
    assert f"{good}: OK" in out


def test_spec_validate_missing_file(tmp_path, capsys):
    assert main(["spec", "validate", str(tmp_path / "nope.toml")]) == 1
    assert "not found" in capsys.readouterr().out


def test_spec_diff_against_defaults_and_files(tmp_path, capsys):
    left = tmp_path / "left.toml"
    left.write_text('[training]\nepochs = 3\n')
    assert main(["spec", "diff", str(left)]) == 1
    out = capsys.readouterr().out
    assert "training.epochs: 3 ->" in out
    same = tmp_path / "same.toml"
    same.write_text('[training]\nepochs = 3\n')
    assert main(["spec", "diff", str(left), str(same)]) == 0
    assert "identical" in capsys.readouterr().out


# ------------------------------------------------------------------ shipped specs
def test_examples_ship_specs():
    assert any(path.name == "headline_tiny.toml" for path in EXAMPLE_SPECS)


@pytest.mark.parametrize("path", EXAMPLE_SPECS, ids=lambda p: p.name)
def test_shipped_example_specs_validate_and_round_trip(path):
    """Acceptance: dump(load(spec)) == spec for every shipped example spec."""
    spec = ExperimentSpec.load(path)
    assert spec.validate() == []
    assert ExperimentSpec.loads(spec.dumps("toml"), "toml") == spec
    assert ExperimentSpec.loads(spec.dumps("json"), "json") == spec


# ------------------------------------------------------------------ run subcommand
def test_run_headline_spec_is_bit_identical_to_the_direct_path(capsys, direct_row):
    """Acceptance: `repro-kgc run examples/specs/headline_tiny.toml` metrics
    equal the direct `repro-kgc train` path bit for bit."""
    spec_path = next(path for path in EXAMPLE_SPECS if path.name == "headline_tiny.toml")
    spec = ExperimentSpec.load(spec_path)
    report = Runner(spec).run()

    assert set(report.rows) == set(spec.datasets)
    for dataset_name in spec.datasets:
        for row in report.rows[dataset_name]:
            direct = direct_row(spec, row["model"], dataset_name)
            assert dict(row) == dict(direct), (row["model"], dataset_name)

    # And the CLI surface prints those very numbers.
    assert main(["run", str(spec_path), "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "headline-tiny" in out
    assert "Link prediction on WN18RR-like" in out


def test_run_stages_tolerates_spaces_and_trailing_commas(tmp_path, capsys):
    spec = ExperimentSpec(
        name="stage-spacing", datasets=["WN18RR-like"], models=[], include_amie=False
    )
    path = spec.dump(tmp_path / "spacing.toml")
    assert main(["run", str(path), "--stages", "ingest, audit,", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "audit" in out


def test_run_with_stage_subset(tmp_path, capsys):
    spec = ExperimentSpec(
        name="stage-subset", datasets=["WN18RR-like"], models=["DistMult"], include_amie=False
    )
    spec.model.dim = 8
    spec.training.epochs = 1
    path = spec.dump(tmp_path / "subset.toml")
    assert main(["run", str(path), "--stages", "ingest,audit", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "ingest" in out and "audit" in out
    assert "Link prediction" not in out


def test_run_rejects_missing_and_invalid_specs(tmp_path, capsys):
    with pytest.raises(SystemExit, match="not found"):
        main(["run", str(tmp_path / "ghost.toml")])
    bad = tmp_path / "bad.toml"
    bad.write_text("[training]\nepochs = -4\n")
    with pytest.raises(SystemExit, match="training.epochs"):
        main(["run", str(bad)])
    with pytest.raises(SystemExit, match="unknown stage"):
        spec = ExperimentSpec(datasets=[], models=[], include_amie=False)
        main(["run", str(spec.dump(tmp_path / "ok.toml")), "--stages", "warp"])
