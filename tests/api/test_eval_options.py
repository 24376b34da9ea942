"""EvalOptions: schema sync, construction from a spec, and validation.

The satellite's regression test lives here: the ``EvalOptions`` dataclass and
the schema's ``evaluation`` section must agree field-for-field and
default-for-default in *both* directions (modulo the declared
``NON_SCHEMA_FIELDS`` engine extras), so neither surface can drift.
"""

import dataclasses

import pytest

from repro.api import EvalOptions, ExperimentSpec, schema
from repro.api.options import NON_SCHEMA_FIELDS
from repro.eval import LinkPredictionEvaluator


# ------------------------------------------------------------------ schema sync
def test_every_evaluation_knob_has_a_matching_field_and_default():
    """Schema -> dataclass: a knob added to the schema must gain a field."""
    fields = {field.name: field for field in dataclasses.fields(EvalOptions)}
    for knob in schema.section("evaluation").knobs:
        assert knob.name in fields, f"schema knob {knob.name} missing from EvalOptions"
        assert fields[knob.name].default == knob.default, knob.name


def test_every_field_is_either_a_schema_knob_or_a_declared_extra():
    """Dataclass -> schema: no undeclared fields sneak past the schema."""
    knob_names = {knob.name for knob in schema.section("evaluation").knobs}
    for field in dataclasses.fields(EvalOptions):
        assert field.name in knob_names or field.name in NON_SCHEMA_FIELDS, (
            f"EvalOptions.{field.name} is neither an evaluation-section knob "
            f"nor listed in NON_SCHEMA_FIELDS"
        )


# ------------------------------------------------------------------ construction
def test_evaluator_rejects_unknown_keywords(toy_dataset):
    with pytest.raises(TypeError, match="typo_knob"):
        LinkPredictionEvaluator(toy_dataset, typo_knob=1)


def test_spec_eval_options_reads_the_evaluation_section():
    spec = ExperimentSpec()
    spec.evaluation.batch_size = 9
    spec.evaluation.workers = 2
    spec.evaluation.score_block_budget = 64
    options = spec.eval_options()
    assert options.batch_size == 9
    assert options.workers == 2
    assert options.shard_size == spec.evaluation.shard_size
    assert options.score_block_budget == 64
    assert options.mp_start_method is None


# ------------------------------------------------------------------ validation
def test_normalized_lists_every_violation_at_once():
    bad = EvalOptions(batch_size=0, workers=0, eval_dtype="fp128")
    with pytest.raises(ValueError) as excinfo:
        bad.normalized()
    message = str(excinfo.value)
    assert "evaluation.batch_size" in message
    assert "evaluation.workers" in message
    assert "evaluation.eval_dtype" in message


def test_normalized_passes_through_valid_options():
    options = EvalOptions(batch_size=4, workers=2, shard_size=5)
    assert options.normalized() == options
