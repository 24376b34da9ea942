"""Tests for the command-line interface."""

import re
from pathlib import Path

import pytest

from repro.cli import GENERATED_DATASETS, build_parser, main


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_generate_writes_six_datasets(tmp_path, capsys):
    exit_code = main(["generate", "--scale", "tiny", "--output", str(tmp_path / "out")])
    assert exit_code == 0
    written = {p.name for p in (tmp_path / "out").iterdir()}
    assert len(written) == 6
    assert "FB15k-like" in written and "WN18RR-like" in written
    output = capsys.readouterr().out
    assert "Datasets written" in output


def test_audit_named_dataset(capsys):
    exit_code = main(["audit", "--dataset", "wn18", "--scale", "tiny"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "Redundancy summary" in output
    assert "reverse relation pairs" in output
    assert "Figure 4 style" in output


def test_audit_dataset_directory(tmp_path, capsys, toy_dataset):
    from repro.kg import save_dataset

    directory = save_dataset(toy_dataset, tmp_path / "toy")
    exit_code = main(["audit", "--dataset", str(directory)])
    assert exit_code == 0
    assert "Audit of toy" in capsys.readouterr().out


def test_audit_unknown_dataset_name_errors():
    with pytest.raises(SystemExit):
        main(["audit", "--dataset", "freebase-full"])
    assert "fb15k" in GENERATED_DATASETS


def test_ingest_subcommand_streams_audits_and_exports(tmp_path, capsys, toy_dataset):
    from repro.kg import load_dataset, save_dataset

    directory = save_dataset(toy_dataset, tmp_path / "toy")
    output = tmp_path / "out"
    exit_code = main(
        [
            "ingest",
            "--input", str(directory),
            "--chunk-size", "4",
            "--deredundify",
            "--output", str(output),
            "--progress", "--progress-every", "1",
        ]
    )
    assert exit_code == 0
    captured = capsys.readouterr()
    assert "Ingested toy" in captured.out
    assert "Redundancy summary" in captured.out
    assert "peak resident labelled triples" in captured.out
    assert "De-redundified" in captured.out
    assert "[ingest]" in captured.err
    # the exported de-redundant dataset reloads cleanly
    exported = load_dataset(output)
    assert exported.name == "toy-deredundant"
    assert len(exported.train) <= len(toy_dataset.train)


def _block(output, title):
    """The 'key: value' lines printed under ``title``."""
    lines = output.splitlines()
    start = lines.index(title) + 1
    end = next((i for i in range(start, len(lines)) if not lines[i].startswith("  ")), len(lines))
    return lines[start:end]


def test_audit_ingest_and_run_print_one_audit_summary(tmp_path, capsys, toy_dataset):
    from repro.api import ExperimentSpec, Runner
    from repro.core import render_audit_summary
    from repro.kg import save_dataset

    directory = save_dataset(toy_dataset, tmp_path / "toy")
    main(["audit", "--dataset", str(directory)])
    audited = _block(capsys.readouterr().out, "Redundancy summary (theta = 0.8)")
    main(["ingest", "--input", str(directory), "--chunk-size", "4"])
    ingested = _block(
        capsys.readouterr().out, "Redundancy summary (theta = 0.8, streamed index)"
    )
    assert len(audited) == 8
    assert ingested == audited

    spec = ExperimentSpec(
        name="audit-only", datasets=["toy"], models=[], include_amie=False,
        stages=["audit", "report"],
    )
    spec.dataset.source, spec.dataset.source_name = str(directory), "toy"
    runner = Runner(spec)
    report = runner.run()
    expected = render_audit_summary(
        runner.store[("redundancy", "toy")], runner.store[("leakage", "toy")]
    ).splitlines()
    assert _block(report.text, "Audit of toy") == expected
    # The run prints the audit's lines, less the Cartesian count it does not compute.
    assert expected == [line for line in audited if "Cartesian" not in line]


def test_ingest_missing_directory_errors(tmp_path):
    with pytest.raises(SystemExit, match="ingest failed"):
        main(["ingest", "--input", str(tmp_path / "nope")])


def test_ingest_flags_are_parsed():
    args = build_parser().parse_args(
        ["ingest", "--input", "somewhere", "--chunk-size", "128", "--gzip"]
    )
    assert args.chunk_size == 128
    assert args.gzip is True
    assert args.deredundify is False


QUICKSTART_SPEC = Path(__file__).parents[1] / "examples" / "specs" / "quickstart.toml"


@pytest.mark.parametrize(
    "argv, knob",
    [
        (["audit", "--dataset", "wn18", "--scale", "tiny", "--theta", "1.5"], "audit.theta"),
        (["ingest", "--input", "unused", "--chunk-size", "0"], "ingest.chunk_size"),
        (["run", str(QUICKSTART_SPEC), "--delta-as-of", "-1"], "deltas.as_of"),
        (["query", "--anchor", "0", "--relation", "0", "--top-k", "0"], "serving.top_k"),
        (["serve", "--artifact", "unused", "--port", "70000"], "serving.port"),
    ],
)
def test_generated_flags_get_the_schema_range_checks_on_every_subcommand(argv, knob):
    """A flag out of its knob's range exits before the subcommand does any work."""
    with pytest.raises(SystemExit, match=rf"invalid option value\(s\):\n  - {re.escape(knob)}: "):
        main(argv)


@pytest.mark.parametrize(
    "argv, named",
    [
        (["ingest", "--input", "unused", "--progress-every", "0"], "--progress-every"),
        (["delta", "apply", "--dataset", "wn18", "--log", "unused", "--as-of", "-1"], "deltas.as_of"),
        (["delta", "audit", "--dataset", "wn18", "--log", "unused", "--as-of", "-1"], "deltas.as_of"),
    ],
)
def test_hand_written_flags_get_range_checks_before_any_work(argv, named):
    """``--input`` and ``--log`` name nothing that exists: the range check exits first."""
    with pytest.raises(SystemExit, match=rf"invalid option value\(s\):\n  - {re.escape(named)}: "):
        main(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest", "--input", "unused", "--max-queue-chunks", "4"],
        ["train", "--score-block-budget", "100000"],
        ["train", "--row-budget", "64"],
    ],
)
def test_flags_of_removed_knobs_are_unrecognized(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_train_subcommand_runs_and_reports_metrics(capsys):
    exit_code = main(
        [
            "train",
            "--dataset", "wn18rr",
            "--model", "DistMult",
            "--scale", "tiny",
            "--dim", "8",
            "--epochs", "2",
            "--quiet",
        ]
    )
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "trained DistMult" in output
    assert "FMRR" in output


@pytest.mark.multiprocess
def test_train_subcommand_with_sharded_evaluation(capsys, capped_workers):
    exit_code = main(
        [
            "train",
            "--dataset", "wn18rr",
            "--model", "DistMult",
            "--scale", "tiny",
            "--dim", "8",
            "--epochs", "2",
            "--eval-workers", str(capped_workers(2)),
            "--eval-shard-size", "4",
            "--quiet",
        ]
    )
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "trained DistMult" in output
    assert "FMRR" in output


def test_train_lifecycle_flags_are_parsed():
    args = build_parser().parse_args(
        [
            "train",
            "--optimizer", "sgd",
            "--dense-updates",
            "--validate-every", "2",
            "--patience", "3",
            "--checkpoint-dir", "ckpts",
            "--checkpoint-every", "5",
            "--resume", "ckpts/checkpoint-epoch-0005.npz",
            "--verbose",
        ]
    )
    assert args.optimizer == "sgd"
    assert args.dense_updates is True
    assert args.validate_every == 2 and args.patience == 3
    assert args.checkpoint_dir == "ckpts" and args.checkpoint_every == 5
    assert args.resume == "ckpts/checkpoint-epoch-0005.npz"
    assert args.verbose is True
    defaults = build_parser().parse_args(["train"])
    assert defaults.dense_updates is False
    assert defaults.validate_every == 0 and defaults.patience == 0
    assert defaults.checkpoint_dir is None and defaults.resume is None


def test_train_subcommand_with_validation_early_stopping_and_checkpoints(tmp_path, capsys):
    checkpoint_dir = tmp_path / "ckpts"
    exit_code = main(
        [
            "train",
            "--dataset", "wn18rr",
            "--model", "DistMult",
            "--scale", "tiny",
            "--dim", "8",
            "--epochs", "4",
            "--learning-rate", "1e-12",
            "--validate-every", "1",
            "--patience", "2",
            "--checkpoint-dir", str(checkpoint_dir),
            "--checkpoint-every", "1",
            "--quiet",
        ]
    )
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "best validation MRR" in output
    assert "(stopped early)" in output
    assert any(p.suffix == ".npz" for p in checkpoint_dir.iterdir())


def test_train_subcommand_resumes_from_checkpoint(tmp_path, capsys):
    checkpoint_dir = tmp_path / "ckpts"
    common = [
        "train",
        "--dataset", "wn18rr",
        "--model", "DistMult",
        "--scale", "tiny",
        "--dim", "8",
        "--quiet",
    ]
    assert main(common + ["--epochs", "2", "--checkpoint-dir", str(checkpoint_dir), "--checkpoint-every", "2"]) == 0
    checkpoint = checkpoint_dir / "checkpoint-epoch-0002.npz"
    assert checkpoint.exists()
    assert main(common + ["--epochs", "3", "--resume", str(checkpoint)]) == 0
    output = capsys.readouterr().out
    # The resumed run only performs the remaining epoch but reports 3 total.
    assert "3 epochs" in output


def test_eval_worker_flags_are_parsed():
    args = build_parser().parse_args(
        ["experiment", "table1", "--eval-workers", "3", "--eval-shard-size", "16"]
    )
    assert args.eval_workers == 3
    assert args.eval_shard_size == 16
    defaults = build_parser().parse_args(["train"])
    assert defaults.eval_workers == 1
    assert defaults.eval_shard_size is None


def test_experiment_subcommand_single_table(capsys):
    exit_code = main(["experiment", "table1", "--scale", "tiny", "--epochs", "2", "--dim", "8"])
    assert exit_code == 0
    assert "Table 1" in capsys.readouterr().out


def test_experiment_subcommand_rejects_unknown(capsys):
    with pytest.raises(SystemExit):
        main(["experiment", "table99"])
