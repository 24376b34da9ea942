"""Evaluation options: one schema-derived dataclass instead of a keyword pile.

:class:`repro.eval.LinkPredictionEvaluator` and
:func:`repro.eval.evaluate_model` take their evaluation knobs (batch size,
workers, shard size, dtype) as one value object,
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

    #: Unique queries per batched scorer call (bounds the (B, E) score block).
    batch_size: int = schema.EVALUATION_DEFAULTS["batch_size"]
    #: Worker processes for sharded evaluation; 1 = exact in-process path.
    workers: int = schema.EVALUATION_DEFAULTS["workers"]
    #: Queries per shard (None = one balanced shard per worker).
    shard_size: Optional[int] = schema.EVALUATION_DEFAULTS["shard_size"]
    #: Candidate-scoring dtype (fp64 = the bit-identity reference).
    eval_dtype: str = schema.EVALUATION_DEFAULTS["eval_dtype"]
    #: Multiprocessing start method override (None = platform best).
    mp_start_method: Optional[str] = None

    # -- validation ----------------------------------------------------------
    def validation_errors(self) -> List[str]:
        """Each ``evaluation`` knob through the check a spec file's values get."""
        from .spec import check_knob_value

        return [
            str(error)
            for knob in schema.section("evaluation").knobs
            for error in check_knob_value("evaluation", knob, getattr(self, knob.name))
        ]

    def normalized(self) -> "EvalOptions":
        """These options, once every knob has passed :meth:`validation_errors`.

        Raises :class:`ValueError` listing every schema violation at once.
        """
        errors = self.validation_errors()
        if errors:
            raise ValueError("invalid evaluation options: " + "; ".join(errors))
        return self
