"""Model artifacts: bit-identical round trips, integrity errors, worker shipping.

The artifact export satellite's acceptance tests live here: for **every**
registered embedding model, save → load(mmap) must reproduce parameters,
score rows and full-evaluation metrics bit for bit; tampered and truncated
artifacts must fail loudly; and the sharded evaluator must ship workers the
few-hundred-byte artifact ref instead of pickled parameter tables — with
bit-identical metrics.
"""

import json
import pickle

import numpy as np
import pytest

from repro.eval import EvalOptions, evaluate_model
from repro.models import ModelConfig, make_model
from repro.models.registry import MODEL_REGISTRY
from repro.serve import (
    ArtifactError,
    ArtifactScorerRef,
    FingerprintMismatchError,
    ModelArtifact,
    TruncatedArtifactError,
    artifact_ref_for,
    load_model,
)

ALL_MODELS = sorted(MODEL_REGISTRY)


def build_model(name, num_entities=8, num_relations=4, dim=8, seed=7):
    # ConvE's 2D reshape needs height * width == dim with room for the kernel.
    if name == "ConvE":
        dim, extra = 16, {"embedding_height": 4}
    else:
        extra = {}
    model = make_model(
        name, num_entities, num_relations, ModelConfig(dim=dim, seed=seed, extra=extra)
    )
    model.train_mode(False)
    return model


# ------------------------------------------------------------------ round trips
@pytest.mark.parametrize("name", ALL_MODELS)
def test_save_load_round_trip_is_bit_identical(name, tmp_path, toy_dataset):
    model = build_model(name)
    artifact = ModelArtifact.save(model, tmp_path / name)
    assert artifact.fingerprint.startswith("sha256:")
    assert artifact.model_name == name

    loaded = load_model(tmp_path / name)                      # mmap=True
    in_memory = ModelArtifact.load(tmp_path / name).instantiate(mmap=False)

    # Parameters are bit-identical and the mmap path really maps the files.
    for param_name, parameter in model.parameters().items():
        table = loaded.parameters()[param_name].data
        assert isinstance(table, np.memmap)
        assert not table.flags.writeable
        assert np.array_equal(parameter.data, table)
        assert np.array_equal(parameter.data, in_memory.parameters()[param_name].data)

    # Score rows are bit-identical (both sides, batched contract included).
    for h, r in [(0, 0), (3, 2), (7, 3)]:
        assert np.array_equal(model.score_all_tails(h, r), loaded.score_all_tails(h, r))
        assert np.array_equal(model.score_all_heads(r, h), loaded.score_all_heads(r, h))
    heads = np.array([0, 3, 5])
    relations = np.array([0, 1, 3])
    assert np.array_equal(
        model.score_tails_batch(heads, relations),
        loaded.score_tails_batch(heads, relations),
    )

    # Full evaluation metrics: mmap == in-memory == original, bit for bit.
    reference = evaluate_model(model, toy_dataset)
    for candidate in (loaded, in_memory):
        result = evaluate_model(candidate, toy_dataset)
        for ours, theirs in zip(reference.records, result.records):
            assert ours.raw_rank == theirs.raw_rank
            assert ours.filtered_rank == theirs.filtered_rank


def test_artifact_attaches_to_the_saving_and_loaded_model(tmp_path):
    model = build_model("TransE")
    assert artifact_ref_for(model) is None                    # nothing attached yet
    ModelArtifact.save(model, tmp_path / "a")
    ref = artifact_ref_for(model)
    assert isinstance(ref, ArtifactScorerRef)
    loaded = load_model(tmp_path / "a")
    assert artifact_ref_for(loaded) is not None
    resolved = ref.resolve()
    assert np.array_equal(model.score_all_tails(0, 0), resolved.score_all_tails(0, 0))


def test_save_refuses_overwrite_without_flag(tmp_path):
    model = build_model("DistMult")
    ModelArtifact.save(model, tmp_path / "a")
    with pytest.raises(ArtifactError, match="overwrite"):
        ModelArtifact.save(model, tmp_path / "a")
    ModelArtifact.save(model, tmp_path / "a", overwrite=True)  # explicit is fine


# ------------------------------------------------------------------ error paths
def _param_file(directory):
    manifest = json.loads((directory / "manifest.json").read_text())
    meta = next(iter(manifest["params"].values()))
    return directory / meta["file"]


def test_tampered_parameter_file_fails_fingerprint_verification(tmp_path):
    ModelArtifact.save(build_model("TransE"), tmp_path / "a")
    path = _param_file(tmp_path / "a")
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF                                          # same size, new content
    path.write_bytes(bytes(blob))
    with pytest.raises(FingerprintMismatchError, match="content hash"):
        ModelArtifact.load(tmp_path / "a")
    # Trusted loads skip the re-hash by design.
    ModelArtifact.load(tmp_path / "a", verify=False)


def test_edited_manifest_fails_fingerprint_verification(tmp_path):
    ModelArtifact.save(build_model("TransE"), tmp_path / "a")
    manifest_path = tmp_path / "a" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["num_entities"] = 999
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(FingerprintMismatchError, match="fingerprint"):
        ModelArtifact.load(tmp_path / "a")


def test_truncated_parameter_file_is_detected_before_np_load(tmp_path):
    ModelArtifact.save(build_model("TransE"), tmp_path / "a")
    path = _param_file(tmp_path / "a")
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(TruncatedArtifactError, match="truncated"):
        ModelArtifact.load(tmp_path / "a", verify=False)      # structural check, no hashing


def test_missing_parameter_file_is_detected(tmp_path):
    ModelArtifact.save(build_model("TransE"), tmp_path / "a")
    _param_file(tmp_path / "a").unlink()
    with pytest.raises(TruncatedArtifactError, match="missing"):
        ModelArtifact.load(tmp_path / "a", verify=False)


def test_missing_manifest_and_newer_version_are_clean_errors(tmp_path):
    with pytest.raises(ArtifactError, match="manifest"):
        ModelArtifact.load(tmp_path / "nope")
    ModelArtifact.save(build_model("TransE"), tmp_path / "a")
    manifest_path = tmp_path / "a" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["version"] = 99
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ArtifactError, match="newer"):
        ModelArtifact.load(tmp_path / "a", verify=False)


# ------------------------------------------------------------------ worker shipping
def test_artifact_ref_ships_smaller_than_the_pickled_model(tmp_path):
    model = build_model("TransE", num_entities=300, num_relations=20, dim=32)
    ModelArtifact.save(model, tmp_path / "a")
    ref = artifact_ref_for(model)
    assert len(pickle.dumps(ref)) < len(pickle.dumps(model)) / 10


def test_shippable_scorer_prefers_the_ref(tmp_path):
    from repro.eval.sharding import _shippable_scorer

    model = build_model("TransE")
    assert _shippable_scorer(model) is model                  # no artifact: ship whole
    ModelArtifact.save(model, tmp_path / "a")
    shipped = _shippable_scorer(model)
    assert isinstance(shipped, ArtifactScorerRef)


@pytest.mark.multiprocess
@pytest.mark.parametrize(
    "eval_dtype, name, dataset_fixture",
    [("fp64", "DistMult", "toy_dataset"), ("fp16", "TransE", "wn_tiny")],
)
def test_sharded_eval_through_artifact_refs_is_bit_identical(
    eval_dtype, name, dataset_fixture, tmp_path, request, capped_workers
):
    """Workers re-open the artifact at the shipped eval dtype.

    The fp16 input ranks a 160-entity graph, where about one record in ten
    ranks differently at fp16 than at fp64, so a worker that scored at fp64
    would show.
    """
    dataset = request.getfixturevalue(dataset_fixture)
    model = build_model(name, dataset.num_entities, dataset.num_relations)
    reference = evaluate_model(model, dataset, options=EvalOptions(eval_dtype=eval_dtype))

    ModelArtifact.save(model, tmp_path / "a")                 # attaches the artifact
    sharded = evaluate_model(
        model, dataset, options=EvalOptions(workers=capped_workers(2), eval_dtype=eval_dtype)
    )
    for ours, theirs in zip(reference.records, sharded.records):
        assert ours.raw_rank == theirs.raw_rank
        assert ours.filtered_rank == theirs.filtered_rank
