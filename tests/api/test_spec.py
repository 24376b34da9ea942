"""Spec-layer tests: schema invariants, serialization round-trips, validation.

The round-trip property (``load(dump(spec)) == spec`` for arbitrary valid
specs, TOML and JSON) is the acceptance criterion of the declarative API: a
spec file must be a *lossless* record of the experimental procedure.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import schema
from repro.api.spec import (
    ExperimentSpec,
    SpecValidationError,
    diff_specs,
    spec_template,
)


# ------------------------------------------------------------------ schema invariants
def test_every_optional_knob_defaults_to_none():
    """TOML has no null: omitting a value must round-trip to the default,
    which is only exact when every optional knob defaults to None."""
    for section in schema.SECTIONS:
        for knob in section.knobs:
            if knob.optional:
                assert knob.default is None, f"{section.name}.{knob.name}"


def test_schema_constants_match_the_registry():
    from repro.models.registry import CORE_MODELS, resolve_model_class

    assert schema.CORE_MODELS == tuple(CORE_MODELS)
    for name in schema.CORE_MODELS:
        assert resolve_model_class(name).__name__ == name


def test_schema_flags_and_dests_are_unique_per_section_set():
    """The sections combined on one subcommand may not collide on flags."""
    for sections in (
        (schema.DATASET, schema.MODEL, schema.TRAINING, schema.EVALUATION),
        (schema.INGEST, schema.AUDIT),
    ):
        flags = [knob.cli_flag for section in sections for knob in section.knobs]
        dests = [knob.cli_dest for section in sections for knob in section.knobs]
        assert len(flags) == len(set(flags))
        assert len(dests) == len(set(dests))


def test_derived_defaults_are_the_schema_defaults():
    """The spec's component configs, TrainingConfig and the evaluator/ingester
    constants all derive from the schema — the drift the spec API was built
    to kill."""
    from repro.eval.ranking import DEFAULT_EVAL_BATCH_SIZE
    from repro.kg.streaming import DEFAULT_CHUNK_SIZE, DEFAULT_MAX_QUEUE_CHUNKS
    from repro.models.trainer import TrainingConfig

    spec = ExperimentSpec()
    spec_training = spec.training_config()
    training = TrainingConfig()
    t = schema.TRAINING_DEFAULTS
    assert (spec.model_config("TransE").dim, spec_training.epochs, spec_training.num_negatives) == (
        schema.MODEL_DEFAULTS["dim"], t["epochs"], t["num_negatives"],
    )
    assert (spec_training.batch_size, spec_training.learning_rate, spec_training.optimizer) == (
        t["batch_size"], t["learning_rate"], t["optimizer"],
    )
    assert (training.epochs, training.batch_size, training.num_negatives) == (
        t["epochs"], t["batch_size"], t["num_negatives"],
    )
    assert (training.optimizer, training.loss, training.sampler) == (
        t["optimizer"], t["loss"], t["sampler"],
    )
    assert DEFAULT_EVAL_BATCH_SIZE == schema.EVALUATION_DEFAULTS["batch_size"]
    assert DEFAULT_CHUNK_SIZE == schema.INGEST_DEFAULTS["chunk_size"]
    assert DEFAULT_MAX_QUEUE_CHUNKS == schema.INGEST_DEFAULTS["max_queue_chunks"]


def test_default_spec_equals_default_experiment_config():
    assert ExperimentSpec().to_experiment_config() == ExperimentSpec()


def test_component_configs_read_the_spec_sections():
    """model_config / training_config / eval_options build the component
    configs field for field from the sections, seeded by dataset.seed."""
    spec = ExperimentSpec()
    spec.dataset.seed = 5
    spec.model.dim = 24
    spec.training.epochs = 3
    spec.training.row_budget = 64
    spec.evaluation.batch_size = 7
    spec.evaluation.workers = 2
    model = spec.model_config("ConvE")
    assert (model.dim, model.seed, model.extra) == (24, 5, {})
    training = spec.training_config()
    for name, value in spec.section_values("training").items():
        assert getattr(training, name) == value, name
    assert training.seed == 5
    assert (training.validation_batch_size, training.validation_workers) == (7, 2)
    options = spec.eval_options()
    for name, value in spec.section_values("evaluation").items():
        assert getattr(options, name) == value, name


# ------------------------------------------------------------------ explicit round-trips
def test_default_spec_round_trips_via_toml_and_json():
    spec = ExperimentSpec()
    assert ExperimentSpec.loads(spec.dumps("toml"), "toml") == spec
    assert ExperimentSpec.loads(spec.dumps("json"), "json") == spec


def test_dump_load_file_round_trip(tmp_path):
    spec = ExperimentSpec(name="files", datasets=["WN18-like"], models=["TransE"])
    spec.training.epochs = 3
    for suffix in (".toml", ".json"):
        path = spec.dump(tmp_path / f"spec{suffix}")
        assert ExperimentSpec.load(path) == spec


def test_overrides_round_trip():
    spec = ExperimentSpec(
        overrides={
            "models": {"ConvE": {"model": {"dim": 8}, "training": {"learning_rate": 0.01}}},
            "datasets": {"YAGO3-10-like": {"audit": {"theta": 0.7}}},
        }
    )
    assert ExperimentSpec.loads(spec.dumps("toml")) == spec
    assert ExperimentSpec.loads(spec.dumps("json"), "json") == spec


def test_template_is_loadable_and_equals_defaults():
    assert ExperimentSpec.loads(spec_template()) == ExperimentSpec()


def test_unknown_format_rejected():
    with pytest.raises(ValueError, match="unknown spec format"):
        ExperimentSpec().dumps("yaml")
    with pytest.raises(ValueError, match="cannot infer spec format"):
        ExperimentSpec().dump("/tmp/spec.yaml")


# ------------------------------------------------------------------ property round-trip
def _knob_strategy(knob: schema.Knob):
    if knob.choices is not None:
        base = st.sampled_from(knob.choices)
    elif knob.type is bool:
        base = st.booleans()
    elif knob.type is int:
        low = int(knob.minimum) if knob.minimum is not None else 0
        base = st.integers(min_value=low, max_value=low + 10_000)
    elif knob.type is float:
        low = knob.minimum if knob.minimum is not None else 0.0
        high = knob.maximum if knob.maximum is not None else 1e6
        base = st.floats(min_value=low, max_value=high, allow_nan=False, allow_infinity=False)
    else:
        base = st.text(
            alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=30
        )
    if knob.optional:
        return st.one_of(st.none(), base)
    return base


def _section_strategy(section: schema.Section, skip=()):
    return st.fixed_dictionaries(
        {knob.name: _knob_strategy(knob) for knob in section.knobs if knob.name not in skip}
    )


@st.composite
def specs(draw):
    spec = ExperimentSpec()
    spec.name = draw(st.text(min_size=1, max_size=20).filter(lambda s: s.strip()))
    spec.datasets = draw(
        st.lists(st.sampled_from(schema.ALL_DATASETS), unique=True, max_size=6)
    )
    model_pool = tuple(schema.CORE_MODELS) + schema.BASELINE_SCORERS
    spec.models = draw(st.lists(st.sampled_from(model_pool), unique=True, max_size=6))
    spec.include_amie = draw(st.booleans())
    stage_pool = [stage for stage in schema.STAGES if stage != "deredundify"]
    chosen = draw(st.lists(st.sampled_from(stage_pool), unique=True, min_size=1))
    spec.stages = [stage for stage in schema.STAGES if stage in chosen]
    for section in schema.SECTIONS:
        # source/source_name carry cross-field requirements; keep them unset.
        skip = ("source", "source_name") if section.name == "dataset" else ()
        values = draw(_section_strategy(section, skip=skip))
        for key, value in values.items():
            setattr(getattr(spec, section.name), key, value)
    # Respect the cross-field rules instead of generating invalid specs.
    if spec.training.restore_best and spec.training.validate_every <= 0:
        spec.training.validate_every = 1
    if spec.deltas.as_of is not None and spec.deltas.log is None:
        spec.deltas.as_of = None
    if draw(st.booleans()) and spec.models:
        target = draw(st.sampled_from(spec.models))
        if target not in schema.BASELINE_SCORERS:
            spec.overrides = {"models": {target: {"model": {"dim": draw(st.integers(1, 64))}}}}
    return spec


@settings(max_examples=60, deadline=None)
@given(specs())
def test_arbitrary_valid_specs_round_trip_exactly(spec):
    assert spec.validate() == []
    assert ExperimentSpec.loads(spec.dumps("toml"), "toml") == spec
    assert ExperimentSpec.loads(spec.dumps("json"), "json") == spec
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec


@settings(max_examples=30, deadline=None)
@given(specs())
def test_fingerprint_is_stable_and_value_sensitive(spec):
    reloaded = ExperimentSpec.loads(spec.dumps("toml"))
    assert reloaded.fingerprint() == spec.fingerprint()
    mutated = ExperimentSpec.loads(spec.dumps("toml"))
    mutated.training.epochs += 1
    assert mutated.fingerprint() != spec.fingerprint()


def test_ingest_fused_key_loads_fingerprints_and_runs_unchanged(tmp_path, toy_dataset):
    """``[ingest] fused`` picked one of two bit-identical ingest paths and
    never entered the fingerprint.  Spec files that still carry it, with
    either value, load and run exactly like the same spec without it."""
    from repro.api import Runner
    from repro.kg import save_dataset

    directory = save_dataset(toy_dataset, tmp_path / "toy")
    data = {
        "name": "fused-parity",
        "datasets": ["toy"],
        "models": ["DistMult"],
        "include_amie": False,
        "stages": ["ingest", "audit", "train", "evaluate", "report"],
        "dataset": {"source": str(directory), "source_name": "toy"},
        "ingest": {"chunk_size": 4},
        "model": {"dim": 8},
        "training": {"epochs": 1},
    }
    plain = ExperimentSpec.from_dict(data)
    plain_run = Runner(plain).run()
    for fused in (True, False):
        with_key = {**data, "ingest": {"chunk_size": 4, "fused": fused}}
        toml_text = plain.dumps("toml").replace(
            "[ingest]\n", f"[ingest]\nfused = {str(fused).lower()}\n"
        )
        assert f"fused = {str(fused).lower()}" in toml_text
        for spec in (ExperimentSpec.from_dict(with_key), ExperimentSpec.loads(toml_text)):
            assert spec == plain
            assert spec.fingerprint() == plain.fingerprint()
            run = Runner(spec).run()
            assert run.rows == plain_run.rows
            assert run.text == plain_run.text
        assert with_key["ingest"]["fused"] is fused  # the caller's dict is untouched


def test_evaluation_backend_numpy_loads_and_is_dropped():
    """``evaluation.backend`` chose the score kernels' array carrier, and
    numpy is the only one left: ``backend = "numpy"`` still loads, in the
    ``[evaluation]`` table and in an override patch, and the key is dropped."""
    plain = ExperimentSpec.loads('[evaluation]\neval_dtype = "fp32"\n')
    spec = ExperimentSpec.loads('[evaluation]\nbackend = "numpy"\neval_dtype = "fp32"\n')
    assert spec == plain
    assert spec.fingerprint() == plain.fingerprint()
    patched = ExperimentSpec.loads(
        '[overrides.models.TransE.evaluation]\nbackend = "numpy"\nbatch_size = 8\n'
    )
    assert patched.overrides == {"models": {"TransE": {"evaluation": {"batch_size": 8}}}}
    only_backend = ExperimentSpec.loads('[overrides.models.TransE.evaluation]\nbackend = "numpy"\n')
    assert only_backend.overrides == {}


@pytest.mark.parametrize("value", ["torch", "auto"])
def test_evaluation_backend_other_than_numpy_is_refused(value):
    for text, path in (
        (f'[evaluation]\nbackend = "{value}"\n', "evaluation.backend"),
        (
            f'[overrides.models.TransE.evaluation]\nbackend = "{value}"\n',
            "overrides.models.TransE.evaluation.backend",
        ),
    ):
        errors = _errors_of(text)
        assert [error.path for error in errors] == [path]
        assert "removed" in errors[0].message
        assert "numpy-only" in errors[0].message


def test_fingerprints_keep_the_removed_backend_knob_constant():
    """The removed ``evaluation.backend`` knob is hashed at its one value, so
    spec fingerprints, and the artifact caches keyed by them, do not move."""
    assert ExperimentSpec().fingerprint() == "e9ce8e04651513fd"
    headline = Path(__file__).parents[2] / "examples" / "specs" / "headline_tiny.toml"
    assert ExperimentSpec.load(headline).fingerprint() == "2ee338ce79f652cb"


# ------------------------------------------------------------------ validation errors
def _errors_of(text):
    with pytest.raises(SpecValidationError) as excinfo:
        ExperimentSpec.loads(text)
    return excinfo.value.errors


def test_validation_reports_all_errors_with_paths_and_suggestions():
    errors = _errors_of(
        """
        name = "bad"
        models = ["TranE"]
        datasets = ["WN18-like", "FB15j-like"]
        [trainig]
        epochs = 5
        [training]
        epochs = 0
        optimizer = "adamw"
        learning_rate = "fast"
        [evaluation]
        workers = -2
        """.replace("\n        ", "\n")
    )
    by_path = {error.path: error for error in errors}
    assert by_path["trainig"].suggestion == "training"
    assert by_path["models[0]"].suggestion == "TransE"
    assert by_path["datasets[1]"].suggestion == "FB15k-like"
    assert "must be >= 1" in by_path["training.epochs"].message
    assert by_path["training.optimizer"].suggestion == "adam"
    assert "expected a number" in by_path["training.learning_rate"].message
    assert "must be >= 1" in by_path["evaluation.workers"].message
    assert len(errors) == 7


def test_validation_rejects_unknown_knob_with_suggestion():
    errors = _errors_of("[training]\nepochss = 3\n")
    assert errors[0].path == "training.epochss"
    assert errors[0].suggestion == "epochs"


def test_validation_rejects_bool_where_int_expected():
    errors = _errors_of("[training]\nepochs = true\n")
    assert "expected an integer" in errors[0].message


def test_validate_catches_none_on_a_required_knob():
    """A programmatic None on a required field must fail validation, not
    crash deep inside the runner (to_dict only omits None for optional knobs)."""
    spec = ExperimentSpec()
    spec.training.epochs = None
    errors = spec.validate()
    assert any(
        error.path == "training.epochs" and "null" in error.message for error in errors
    )


def test_validation_of_cross_field_rules():
    errors = _errors_of('[dataset]\nsource = "somewhere"\n')
    assert any(error.path == "dataset.source_name" for error in errors)

    errors = _errors_of('[dataset]\nsource_name = "orphan"\n')
    assert any(error.path == "dataset.source" for error in errors)

    errors = _errors_of('stages = ["deredundify", "report"]\n')
    assert any("deredundify" in error.message for error in errors)

    errors = _errors_of("[training]\nrestore_best = true\n")
    assert any(error.path == "training.restore_best" for error in errors)


def test_validation_requires_deredundify_stage_for_derived_dataset():
    """Listing <source>-deredundant without the stage that builds it is an
    upfront validation error, not a mid-run KeyError."""
    errors = _errors_of(
        'datasets = ["mykg", "mykg-deredundant"]\n'
        '[dataset]\nsource = "dir"\nsource_name = "mykg"\n'
    )
    assert any(
        error.path == "stages" and "deredundify" in error.message for error in errors
    )
    # With the stage declared the same spec is valid.
    spec = ExperimentSpec.loads(
        'datasets = ["mykg", "mykg-deredundant"]\n'
        'stages = ["ingest", "deredundify", "train"]\n'
        '[dataset]\nsource = "dir"\nsource_name = "mykg"\n'
    )
    assert spec.validate() == []


def test_null_override_knob_is_pruned_and_round_trips():
    """A null override means "use the default"; it must not break TOML dumps."""
    spec = ExperimentSpec.loads(
        json.dumps(
            {"overrides": {"models": {"TransE": {"training": {"row_budget": None}}}}}
        ),
        "json",
    )
    assert spec.overrides == {}
    assert ExperimentSpec.loads(spec.dumps("toml")) == spec
    # Programmatically constructed None overrides dump cleanly too.
    spec = ExperimentSpec(
        overrides={"models": {"TransE": {"training": {"row_budget": None, "epochs": 5}}}}
    )
    reloaded = ExperimentSpec.loads(spec.dumps("toml"))
    assert reloaded.overrides == {"models": {"TransE": {"training": {"epochs": 5}}}}


def test_validation_of_override_scopes_and_sections():
    errors = _errors_of(
        '[overrides.modells.TransE.model]\ndim = 4\n'
    )
    assert errors[0].path == "overrides.modells"
    assert errors[0].suggestion == "models"

    errors = _errors_of('[overrides.models.TransE.dataset]\nscale = "tiny"\n')
    assert "not an overridable section" in errors[0].message

    errors = _errors_of('[overrides.models.TranE.model]\ndim = 4\n')
    assert errors[0].suggestion == "TransE"


def test_invalid_toml_and_json_report_parse_errors():
    with pytest.raises(SpecValidationError, match="<toml>"):
        ExperimentSpec.loads("epochs = = 3")
    with pytest.raises(SpecValidationError, match="<json>"):
        ExperimentSpec.loads("{not json", "json")


def test_stage_order_is_normalized_to_canonical():
    spec = ExperimentSpec.loads('stages = ["report", "train", "ingest"]\n')
    assert spec.stages == ["ingest", "train", "report"]


# ------------------------------------------------------------------ overrides / derivation
def test_config_for_applies_dataset_then_model_patches():
    spec = ExperimentSpec(
        overrides={
            "models": {"ConvE": {"model": {"dim": 8}, "training": {"epochs": 2}}},
            "datasets": {"WN18-like": {"training": {"epochs": 7}, "audit": {"theta": 0.5}}},
        }
    )
    base = spec.to_experiment_config()
    assert base.training.epochs == schema.TRAINING_DEFAULTS["epochs"]
    assert base.overrides == {}

    per_dataset = spec.config_for(dataset="WN18-like")
    assert per_dataset.training.epochs == 7
    assert per_dataset.audit.theta == 0.5

    # The model patch lands after the dataset patch.
    combined = spec.config_for(model="ConvE", dataset="WN18-like")
    assert combined.model.dim == 8
    assert combined.training.epochs == 2
    assert combined.audit.theta == 0.5
    assert combined.model_config("ConvE").dim == 8
    # Resolving never mutates the spec itself.
    assert spec.training.epochs == schema.TRAINING_DEFAULTS["epochs"]
    assert spec.model.dim == schema.MODEL_DEFAULTS["dim"]


def test_diff_specs_reports_dotted_paths():
    left = ExperimentSpec()
    right = ExperimentSpec()
    right.training.epochs = 3
    right.training.row_budget = 64
    differences = dict((path, (a, b)) for path, a, b in diff_specs(left, right))
    assert differences["training.epochs"] == (schema.TRAINING_DEFAULTS["epochs"], 3)
    # Optional knob unset on the left shows as None.
    assert differences["training.row_budget"] == (None, 64)
    assert diff_specs(left, left) == []


def test_to_dict_is_json_clean():
    spec = ExperimentSpec(overrides={"models": {"TransE": {"model": {"dim": 4}}}})
    json.dumps(spec.to_dict())  # must not raise
