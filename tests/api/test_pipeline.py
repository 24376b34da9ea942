"""Pipeline-layer tests: the artifact store, the staged runner, the builders,
and the bit-identity contract between a spec run and the direct path that
``repro-kgc train`` runs."""

import numpy as np
import pytest

from repro.api import ArtifactStore, ExperimentSpec, Runner
from repro.api.pipeline import ensure_dataset, ensure_evaluation, register_dataset
from repro.api.spec import SpecValidationError
from repro.kg.known_index import KnownTripleIndex
from repro.telemetry import read_trace_jsonl, scoped


def _tiny_spec(**training):
    spec = ExperimentSpec(
        name="pipeline-tiny",
        datasets=["WN18RR-like"],
        models=["DistMult"],
        include_amie=False,
    )
    spec.model.dim = 8
    spec.training.epochs = 2
    for key, value in training.items():
        setattr(spec.training, key, value)
    return spec


# ------------------------------------------------------------------ artifact store
def test_store_put_get_ensure_and_keys():
    store = ArtifactStore("abc")
    assert store.fingerprint == "abc"
    store.put(("dataset", "x"), 1)
    assert ("dataset", "x") in store and store[("dataset", "x")] == 1
    built = []
    assert store.ensure(("dataset", "x"), lambda: built.append(1)) == 1
    assert built == []  # cached: the builder never ran
    assert store.ensure(("scorer", "m", "x"), lambda: "s") == "s"
    assert store.keys("dataset") == [("dataset", "x")]
    assert len(store) == 2


def test_store_drop_dataset_drops_derived_artifacts():
    store = ArtifactStore()
    for key in [
        ("dataset", "a"), ("redundancy", "a"), ("leakage", "a"), ("categories", "a"),
        ("scorer", "m", "a"), ("evaluation", "m", "a"),
        ("dataset", "b"), ("scorer", "m", "b"), ("snapshot",),
    ]:
        store.put(key, object())
    dropped = store.drop_dataset("a")
    assert len(dropped) == 6
    assert sorted(store.keys()) == [("dataset", "b"), ("scorer", "m", "b"), ("snapshot",)]


# ------------------------------------------------------------------ runner mechanics
def test_runner_rejects_invalid_specs():
    spec = _tiny_spec()
    spec.models = ["TranE"]
    with pytest.raises(SpecValidationError, match="TransE"):
        Runner(spec)


def test_runner_rejects_mismatched_store():
    spec = _tiny_spec()
    stale = ArtifactStore("feedfacefeedface")
    with pytest.raises(ValueError, match="fingerprints"):
        Runner(spec, store=stale)
    # An unstamped (legacy/empty) store is adopted and stamped.
    fresh = ArtifactStore()
    runner = Runner(spec, store=fresh)
    assert fresh.fingerprint == spec.fingerprint()
    assert runner.store is fresh


def test_runner_rejects_unknown_stage_names():
    runner = Runner(_tiny_spec())
    with pytest.raises(ValueError, match="unknown stage"):
        runner.run(stages=["train", "fly"])


def test_runner_reuses_artifacts_across_runs():
    spec = _tiny_spec()
    runner = Runner(spec)
    first = runner.run()
    scorer = runner.store[("scorer", "DistMult", "WN18RR-like")]
    second = Runner(spec, store=runner.store).run()
    assert runner.store[("scorer", "DistMult", "WN18RR-like")] is scorer
    # Nothing new was produced on the second pass.
    assert all(stage.produced == [] for stage in second.stages)
    assert second.rows == first.rows


def test_runner_stage_subset_and_report_shape():
    runner = Runner(_tiny_spec())
    report = runner.run(stages=["evaluate", "report"])  # builders pull prerequisites
    assert [stage.name for stage in report.stages] == ["evaluate", "report"]
    assert report.fingerprint == runner.store.fingerprint
    rows = report.rows["WN18RR-like"]
    assert [row["model"] for row in rows] == ["DistMult"]
    assert "Link prediction on WN18RR-like" in report.text
    assert report.stage("evaluate").seconds > 0
    with pytest.raises(KeyError):
        report.stage("train")


# ------------------------------------------------------------------ bit-identity
def test_spec_run_is_bit_identical_to_the_direct_path(direct_row):
    """The acceptance contract: same knobs => bit-identical metrics."""
    spec = ExperimentSpec(
        name="parity",
        datasets=["WN18-like", "WN18RR-like"],
        models=["TransE", "DistMult"],
        include_amie=True,
    )
    spec.model.dim = 8
    spec.training.epochs = 3
    report = Runner(spec).run()

    for dataset_name in spec.datasets:
        assert [row["model"] for row in report.rows[dataset_name]] == ["TransE", "DistMult", "AMIE"]
        for row in report.rows[dataset_name]:
            direct = direct_row(spec, row["model"], dataset_name)
            assert dict(row) == dict(direct), (row["model"], dataset_name)


def test_per_model_override_changes_only_that_model():
    spec = _tiny_spec()
    spec.models = ["TransE", "DistMult"]
    spec.overrides = {"models": {"TransE": {"training": {"epochs": 1}}}}
    runner = Runner(spec)
    runner.run(stages=["train"])
    # Equivalent separate runs: DistMult trained with the global 2 epochs,
    # TransE with the overridden single epoch.
    base = _tiny_spec()
    patched = _tiny_spec(epochs=1)
    patched.models = ["TransE"]
    for model_name, reference_spec in (("DistMult", base), ("TransE", patched)):
        reference = Runner(reference_spec)
        reference.run(stages=["train"])
        ours = runner.store[("scorer", model_name, "WN18RR-like")]
        theirs = reference.store[("scorer", model_name, "WN18RR-like")]
        for name, parameter in theirs.parameters().items():
            assert np.array_equal(parameter.data, ours.parameters()[name].data), (
                model_name, name,
            )


# ------------------------------------------------------------------ source ingestion
def test_runner_ingests_audits_and_deredundifies_a_source(tmp_path, toy_dataset):
    from repro.kg import save_dataset

    directory = save_dataset(toy_dataset, tmp_path / "toy")
    spec = ExperimentSpec(
        name="source-run",
        datasets=["toy", "toy-deredundant"],
        models=["DistMult"],
        include_amie=False,
        stages=["ingest", "audit", "deredundify", "train", "evaluate", "report"],
    )
    spec.dataset.source = str(directory)
    spec.dataset.source_name = "toy"
    spec.model.dim = 8
    spec.training.epochs = 1
    spec.ingest.chunk_size = 4

    runner = Runner(spec)
    report = runner.run()
    store = runner.store
    assert ("dataset", "toy") in store and ("dataset", "toy-deredundant") in store
    assert store[("ingest_report", "toy")].chunk_size == 4
    # The audit found the toy dataset's reverse pair; the transform removed it.
    assert store[("redundancy", "toy")].reverse_pairs
    assert len(store[("dataset", "toy-deredundant")].train) < len(toy_dataset.train)
    assert {row["model"] for row in report.rows["toy-deredundant"]} == {"DistMult"}
    assert "Audit of toy" in report.text
    # The derived dataset is audited in the SAME run (deredundify backfills
    # the audit stage that necessarily ran before it) ...
    assert ("redundancy", "toy-deredundant") in store
    assert "Audit of toy-deredundant" in report.text
    # ... and a second run over the same store reuses everything, including
    # the derived dataset's scorers (no register_dataset eviction).
    scorer = store[("scorer", "DistMult", "toy-deredundant")]
    second = Runner(spec, store=store).run()
    assert store[("scorer", "DistMult", "toy-deredundant")] is scorer
    assert all(stage.produced == [] for stage in second.stages)


def test_runner_stage_subset_pulls_the_source_on_demand(tmp_path, toy_dataset):
    """run(stages=["train"]) on a source spec must not KeyError: the source
    (and its listed derived variant) are materialized on demand."""
    from repro.kg import save_dataset

    directory = save_dataset(toy_dataset, tmp_path / "toy")
    spec = ExperimentSpec(
        name="subset-source",
        datasets=["toy", "toy-deredundant"],
        models=["DistMult"],
        include_amie=False,
        stages=["ingest", "audit", "deredundify", "train", "evaluate", "report"],
    )
    spec.dataset.source = str(directory)
    spec.dataset.source_name = "toy"
    spec.model.dim = 8
    spec.training.epochs = 1

    runner = Runner(spec)
    report = runner.run(stages=["evaluate"])
    assert ("dataset", "toy") in runner.store
    assert ("dataset", "toy-deredundant") in runner.store
    assert set(report.rows) == {"toy", "toy-deredundant"}


def test_dataset_construction_ignores_audit_overrides_for_any_stage_subset():
    """Construction always uses the global config: an [overrides.datasets.*.audit]
    patch changes the audit thresholds, never how the replica is built."""
    spec = ExperimentSpec(
        name="construction-determinism",
        datasets=["YAGO3-10-like-DR"],
        models=[],
        include_amie=False,
        overrides={"datasets": {"YAGO3-10-like-DR": {"audit": {"yago_theta": 0.95}}}},
    )
    via_ingest = Runner(spec)
    via_ingest.run(stages=["ingest"])
    via_audit = Runner(spec)
    via_audit.run(stages=["audit"])  # builds the dataset on demand
    built_a = via_ingest.store[("dataset", "YAGO3-10-like-DR")]
    built_b = via_audit.store[("dataset", "YAGO3-10-like-DR")]
    assert list(built_a.train) == list(built_b.train)
    assert built_a.num_relations == built_b.num_relations
    # The override still reaches the audit itself.
    assert via_audit.spec.config_for(dataset="YAGO3-10-like-DR").audit.yago_theta == 0.95


# ------------------------------------------------------------------ builders
def test_builders_fill_and_share_the_runner_store():
    spec = _tiny_spec(epochs=1)
    runner = Runner(spec)
    dataset = ensure_dataset(runner.store, runner.spec, "WN18RR-like")
    assert runner.store[("dataset", "WN18RR-like")] is dataset
    evaluation = ensure_evaluation(runner.store, runner.spec, "DistMult", "WN18RR-like")
    assert runner.store[("evaluation", "DistMult", "WN18RR-like")] is evaluation

    # A second runner over the same store reuses every artifact.
    sibling = Runner(spec, store=runner.store)
    assert ensure_dataset(sibling.store, sibling.spec, "WN18RR-like") is dataset
    assert ensure_evaluation(sibling.store, sibling.spec, "DistMult", "WN18RR-like") is evaluation


# ------------------------------------------------------------------ telemetry
def test_telemetry_run_traces_every_stage_and_changes_no_rank(tmp_path):
    """The observability acceptance contract: an instrumented run produces a
    trace covering every executed stage plus a metrics snapshot spanning
    ingest, training, evaluation and the rule predictor's cache — while the
    spec fingerprint and every reported metric stay bit-identical to the
    telemetry-off run."""

    def make_spec():
        spec = ExperimentSpec(
            name="telemetry-tiny",
            datasets=["WN18-like"],
            models=["TransE"],
            include_amie=True,   # AMIE's predictor drives the cache.rules.* series
        )
        spec.model.dim = 8
        spec.training.epochs = 2
        return spec

    with scoped():  # isolate the process-global telemetry handle
        baseline = Runner(make_spec()).run()

    traced_spec = make_spec()
    traced_spec.telemetry.enabled = True
    traced_spec.telemetry.profile = True
    traced_spec.telemetry.trace_path = str(tmp_path / "run.trace.jsonl")
    assert traced_spec.fingerprint() == make_spec().fingerprint()
    with scoped():
        runner = Runner(traced_spec)
        traced = runner.run()

    # Observability never perturbs the experiment.
    assert traced.fingerprint == baseline.fingerprint
    for row, reference in zip(traced.rows["WN18-like"], baseline.rows["WN18-like"]):
        assert dict(row) == dict(reference)

    telemetry = traced.telemetry
    assert baseline.telemetry is None
    records = read_trace_jsonl(tmp_path / "run.trace.jsonl")
    assert telemetry["trace_path"] == str(tmp_path / "run.trace.jsonl")
    assert telemetry["span_count"] == len(records)
    assert runner.store[("telemetry", "trace")] == records

    # Every executed stage has its pipeline span.
    span_names = {record["name"] for record in records}
    for stage in (s.name for s in traced.stages):
        assert f"pipeline.{stage}" in span_names, stage
    assert "train.epoch" in span_names
    assert "eval.rank_shard" in span_names

    # The snapshot covers every instrumented layer.
    counters = telemetry["metrics"]["counters"]
    assert counters["ingest.datasets"] == 1
    assert counters["ingest.triples"] > 0
    assert counters["train.epochs"] == 2
    assert counters["train.batches"] > 0
    assert counters["eval.entries"] > 0
    assert counters["eval.ranked_targets"] > 0
    assert any(name.startswith("cache.rules.") for name in counters)
    histograms = telemetry["metrics"]["histograms"]
    assert histograms["train.epoch_seconds"]["count"] == 2

    # --profile recorded wall/cpu/RSS per executed stage.
    profile = telemetry["profile"]
    assert set(profile) == {stage.name for stage in traced.stages}
    for stage_profile in profile.values():
        assert stage_profile["wall_seconds"] >= 0.0
        assert "rss_peak_bytes" in stage_profile


def test_training_spans_nest_under_their_epoch_and_stage():
    """``train.sample/forward/backward/step/constrain`` open once per batch
    inside ``train.epoch``, and AMIE mining opens ``amie.mine``, all under the
    ``pipeline.train`` stage span."""
    spec = ExperimentSpec(
        name="spans-tiny", datasets=["WN18-like"], models=["DistMult"], include_amie=True
    )
    spec.model.dim = 8
    spec.training.epochs = 2
    with scoped() as telemetry:
        telemetry.enabled = True
        Runner(spec).run()
        records = telemetry.trace_records()

    by_id = {record["id"]: record for record in records}

    def parent(record):
        return by_id[record["parent_id"]]["name"]

    [stage] = [record for record in records if record["name"] == "pipeline.train"]
    epochs = [record for record in records if record["name"] == "train.epoch"]
    assert len(epochs) == 2
    assert all(parent(epoch) == "pipeline.train" for epoch in epochs)
    [mine] = [record for record in records if record["name"] == "amie.mine"]
    assert parent(mine) == "pipeline.train"
    assert mine["attrs"] == {"dataset": "WN18-like"}

    layers = ("train.sample", "train.forward", "train.backward", "train.step", "train.constrain")
    per_layer = {
        name: [record for record in records if record["name"] == name] for name in layers
    }
    batches = len(per_layer["train.sample"])
    assert batches > 0
    for name, spans in per_layer.items():
        assert len(spans) == batches, name
        assert all(parent(span) == "train.epoch" for span in spans), name
    # The layers nest inside their epochs, which nest inside the stage.
    inside = sum(span["duration"] for spans in per_layer.values() for span in spans)
    assert inside <= sum(epoch["duration"] for epoch in epochs) <= stage["duration"]


# ------------------------------------------------------------------ known-triple index
def _two_dataset_spec():
    spec = ExperimentSpec(
        name="index-tiny",
        datasets=["WN18-like", "WN18RR-like"],
        models=["TransE", "DistMult"],
        include_amie=True,
    )
    spec.model.dim = 8
    spec.training.epochs = 1
    return spec


def test_runner_builds_one_known_index_per_dataset(monkeypatch):
    """Six (model, dataset) evaluations share two indexes, built on first use
    in the evaluate stage; re-registering a dataset drops its index."""
    builds = []
    build = KnownTripleIndex.for_dataset.__func__

    def counted(cls, dataset, extra=None):
        builds.append(dataset.name)
        return build(cls, dataset, extra)

    monkeypatch.setattr(KnownTripleIndex, "for_dataset", classmethod(counted))
    runner = Runner(_two_dataset_spec())
    report = runner.run()
    assert len(runner.store.keys("evaluation")) == 6
    assert sorted(builds) == ["WN18-like", "WN18RR-like"]
    evaluate_produced = report.stage("evaluate").produced
    assert "known_index/WN18-like" in evaluate_produced
    assert "known_index/WN18RR-like" in evaluate_produced
    for stage in report.stages:
        if stage.name != "evaluate":
            assert not any(key.startswith("known_index/") for key in stage.produced)

    register_dataset(runner.store, runner.store[("dataset", "WN18-like")])
    assert ("known_index", "WN18-like") not in runner.store
    assert ("known_index", "WN18RR-like") in runner.store


def test_warm_disk_run_reuses_the_known_index(tmp_path):
    spec = _tiny_spec()
    cold = Runner(spec, cache_dir=tmp_path).run()
    assert "known_index/WN18RR-like" in cold.stage("evaluate").produced
    warm_runner = Runner(spec, cache_dir=tmp_path)
    warm = warm_runner.run()
    assert all(stage.produced == [] for stage in warm.stages)
    assert warm_runner.store.stats["miss"] == 0
    assert warm_runner.store.stats["write"] == 0
    assert warm.rows == cold.rows


def test_evaluation_spans_nest_under_the_evaluate_stage():
    """``eval.filter_index``, ``eval.dedup``, ``eval.rank_shard`` and
    ``eval.assemble`` open under ``pipeline.evaluate``; every shard opens one
    ``eval.score`` and one ``eval.rank`` per scored block."""
    spec = ExperimentSpec(
        name="eval-spans-tiny", datasets=["WN18-like"], models=["DistMult"], include_amie=True
    )
    spec.model.dim = 8
    spec.training.epochs = 1
    spec.evaluation.batch_size = 16
    runner = Runner(spec)
    with scoped() as telemetry:
        telemetry.enabled = True
        runner.run()
        records = telemetry.trace_records()

    by_id = {record["id"]: record for record in records}

    def parent(record):
        return by_id[record["parent_id"]]["name"]

    def named(name):
        return [record for record in records if record["name"] == name]

    [stage] = named("pipeline.evaluate")
    # One index resolution and one dedup per (model, dataset) evaluation; the
    # records and then the report row are assembled once each.
    for name, count in (("eval.filter_index", 2), ("eval.dedup", 2), ("eval.assemble", 4)):
        spans = named(name)
        assert len(spans) == count, name
        assert all(parent(span) == "pipeline.evaluate" for span in spans), name
    shards = named("eval.rank_shard")
    assert len(shards) == 4  # two models x two sides, in process
    assert all(parent(shard) == "pipeline.evaluate" for shard in shards)
    scores, ranks = named("eval.score"), named("eval.rank")
    assert len(scores) == len(ranks) > len(shards)
    assert all(parent(span) == "eval.rank_shard" for span in scores + ranks)
    # Every test triple is ranked once per side and model.
    test = runner.store[("dataset", "WN18-like")].test
    assert sum(span["attrs"]["targets"] for span in ranks) == 2 * 2 * len(test)
    # The stage's direct children nest inside it.
    children = [record for record in records if record["parent_id"] == stage["id"]]
    assert sum(child["duration"] for child in children) <= stage["duration"]
