"""The CLI serving surface: artifact export, `serve` and `query` commands."""

import threading

import pytest

from repro.api import Query, QueryBatch
from repro.cli import main
from repro.kg import Dataset, save_dataset
from repro.kg.known_index import KnownTripleIndex
from repro.models import ModelConfig, make_model
from repro.serve import ModelArtifact, QueryEngine, load_model, serve_forever
from repro.serve import server as server_module
from repro.serve.server import query_server


def test_train_exports_a_loadable_artifact(tmp_path, capsys):
    target = tmp_path / "artifact"
    exit_code = main(
        [
            "train",
            "--dataset", "wn18rr",
            "--model", "DistMult",
            "--scale", "tiny",
            "--dim", "8",
            "--epochs", "1",
            "--quiet",
            "--export-artifact", str(target),
        ]
    )
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "model artifact written" in output and "sha256:" in output

    model = load_model(target)                     # verified, mmap'd
    assert model.name == "DistMult"
    artifact = ModelArtifact.load(target)
    assert artifact.model_name == "DistMult"
    assert artifact.num_entities == model.num_entities


def test_serve_rejects_a_missing_artifact(tmp_path):
    with pytest.raises(SystemExit, match="cannot load artifact"):
        main(["serve", "--artifact", str(tmp_path / "ghost")])


def _export(directory, num_entities, num_relations):
    model = make_model("DistMult", num_entities, num_relations, ModelConfig(dim=8, seed=3))
    return ModelArtifact.save(model, directory)


def test_serve_refuses_a_dataset_the_artifact_was_not_trained_on(
    tmp_path, toy_dataset, monkeypatch
):
    """The mismatch exits with both counts before a port is bound."""
    dataset_dir = save_dataset(toy_dataset, tmp_path / "toy")
    _export(tmp_path / "artifact", toy_dataset.num_entities + 2, toy_dataset.num_relations)

    def never(*args, **kwargs):
        raise AssertionError("serve bound a port for a mismatched dataset")

    monkeypatch.setattr(server_module, "serve_forever", never)
    with pytest.raises(SystemExit, match="has 10 entities but dataset 'toy' has 8"):
        main(["serve", "--artifact", str(tmp_path / "artifact"), "--dataset", str(dataset_dir)])


def test_serve_filters_its_dataset_through_the_known_triple_index(
    tmp_path, toy_dataset, monkeypatch, capsys
):
    """``serve --dataset`` builds its engine with ``QueryEngine.for_dataset``:
    the evaluator's index over the split arrays, never a merged triple set."""
    dataset_dir = save_dataset(toy_dataset, tmp_path / "toy")
    artifact = _export(tmp_path / "artifact", toy_dataset.num_entities, toy_dataset.num_relations)

    def refuse(self):
        raise AssertionError("serving must not merge the splits")

    monkeypatch.setattr(Dataset, "all_triples", refuse)
    monkeypatch.setattr(Dataset, "known_triples", refuse)
    served = {}
    monkeypatch.setattr(
        server_module, "serve_forever", lambda engine, *args, **kwargs: served.update(engine=engine)
    )
    assert main(
        ["serve", "--artifact", str(tmp_path / "artifact"), "--dataset", str(dataset_dir)]
    ) == 0
    engine = served["engine"]
    assert isinstance(engine.known, KnownTripleIndex)
    assert engine.cache.version == artifact.fingerprint
    known = {triple for split in toy_dataset.splits().values() for triple in split}
    assert f"filtered queries exclude {2 * len(known)} known completions from toy" in (
        capsys.readouterr().out
    )


def test_query_reports_a_connection_error_cleanly():
    with pytest.raises(SystemExit, match="cannot reach"):
        main(
            [
                "query", "--anchor", "0", "--relation", "0",
                "--host", "127.0.0.1", "--port", "1",   # nothing listens on port 1
            ]
        )


def test_query_command_against_a_live_server(tmp_path, capsys):
    target = tmp_path / "artifact"
    assert main(
        [
            "train", "--dataset", "wn18rr", "--model", "TransE",
            "--scale", "tiny", "--dim", "8", "--epochs", "1", "--quiet",
            "--export-artifact", str(target),
        ]
    ) == 0
    capsys.readouterr()

    model = load_model(target)
    engine = QueryEngine(model, max_delay=0.001)
    address = {}
    ready = threading.Event()

    def capture(bound):
        address["host"], address["port"] = bound
        ready.set()

    thread = threading.Thread(
        target=serve_forever, args=(engine, "127.0.0.1", 0),
        kwargs={"ready": capture}, daemon=True,
    )
    thread.start()
    assert ready.wait(timeout=10)

    # The JSON surface first (machine-readable), then the table rendering.
    exit_code = main(
        [
            "query", "--anchor", "0", "--relation", "0", "--top-k", "3",
            "--host", address["host"], "--port", str(address["port"]), "--json",
        ]
    )
    assert exit_code == 0
    out = capsys.readouterr().out
    assert '"results"' in out

    exit_code = main(
        [
            "query", "--side", "head", "--anchor", "1", "--relation", "0",
            "--top-k", "2",
            "--host", address["host"], "--port", str(address["port"]),
        ]
    )
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "top-2" in out

    # The same socket also answers the library client.
    response = query_server(
        address["host"], address["port"], QueryBatch.of(Query.tail(0, 0, k=3))
    )
    assert len(response.results[0].entities) == 3
