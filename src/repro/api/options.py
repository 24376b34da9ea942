"""Evaluation options: one schema-derived dataclass instead of a keyword pile.

:class:`repro.eval.LinkPredictionEvaluator` and
:func:`repro.eval.evaluate_model` take their evaluation knobs (batch size,
workers, shard size, dtype, block budget, …) as one value object,
:class:`EvalOptions`, whose fields mirror the ``evaluation`` section of the
knob schema (:mod:`repro.api.schema`) — name-for-name, default-for-default —
plus the handful of engine-level extras that are not experiment knobs
(currently ``mp_start_method``).  ``ExperimentSpec.eval_options()`` builds one
from a spec.

A regression test asserts the schema ↔ dataclass field sync in both
directions, so a knob added to the schema without a matching field here (or
vice versa) fails CI.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional

from . import schema

#: ``EvalOptions`` fields that are deliberately *not* evaluation-section
#: knobs (engine-level plumbing, never part of an experiment declaration).
#: The schema-sync regression test allows exactly these extras.
NON_SCHEMA_FIELDS = ("mp_start_method",)


@dataclass(frozen=True)
class EvalOptions:
    """How a link-prediction evaluation runs (not *what* it evaluates).

    Field defaults reference the knob schema directly, so the reference
    configuration here can never drift from ``repro-kgc``'s flags or a spec
    file's ``[evaluation]`` table.
    """

    #: Unique queries per batched scorer call (bounds the (B, E) score matrix).
    batch_size: int = schema.EVALUATION_DEFAULTS["batch_size"]
    #: Worker processes for sharded evaluation; 1 = exact in-process path.
    workers: int = schema.EVALUATION_DEFAULTS["workers"]
    #: Queries per shard (None = one balanced shard per worker).
    shard_size: Optional[int] = schema.EVALUATION_DEFAULTS["shard_size"]
    #: Candidate-scoring dtype (fp64 = the bit-identity reference).
    eval_dtype: str = schema.EVALUATION_DEFAULTS["eval_dtype"]
    #: Max elements of a resident score block (enables the fused rank path).
    score_block_budget: Optional[int] = schema.EVALUATION_DEFAULTS["score_block_budget"]
    #: Multiprocessing start method override (None = platform best).
    mp_start_method: Optional[str] = None

    # -- validation / normalization ----------------------------------------
    def validation_errors(self) -> List[str]:
        """Schema-derived validation: ranges and choices from the knob schema."""
        errors: List[str] = []
        section = schema.section("evaluation")
        for knob in section.knobs:
            value = getattr(self, knob.name)
            if value is None:
                if not knob.optional:
                    errors.append(f"evaluation.{knob.name}: may not be None")
                continue
            if knob.choices is not None and value not in knob.choices:
                errors.append(
                    f"evaluation.{knob.name}: expected one of "
                    f"{', '.join(knob.choices)}, got {value!r}"
                )
                continue
            if knob.minimum is not None and value < knob.minimum:
                errors.append(
                    f"evaluation.{knob.name}: must be >= {knob.minimum}, got {value!r}"
                )
            if knob.maximum is not None and value > knob.maximum:
                errors.append(
                    f"evaluation.{knob.name}: must be <= {knob.maximum}, got {value!r}"
                )
        return errors

    def normalized(self) -> "EvalOptions":
        """A validated copy with integer knobs coerced and clamped sane.

        Raises :class:`ValueError` listing every schema violation at once.
        """
        errors = self.validation_errors()
        if errors:
            raise ValueError("invalid evaluation options: " + "; ".join(errors))
        return dataclasses.replace(
            self,
            batch_size=max(1, int(self.batch_size)),
            workers=max(1, int(self.workers)),
            shard_size=None if self.shard_size is None else max(1, int(self.shard_size)),
            score_block_budget=(
                None
                if self.score_block_budget is None
                else max(1, int(self.score_block_budget))
            ),
        )
