"""The serializable, validated experiment specification.

An :class:`ExperimentSpec` pins down a *complete* experimental procedure —
dataset construction, streaming ingestion, the Section 4 audit, model lineup,
training lifecycle and evaluation protocol — as one typed, nested object that

* round-trips **exactly** through TOML and JSON (``load(dump(spec)) == spec``),
* validates against the knob schema of :mod:`repro.api.schema`, reporting
  **all** errors at once with dotted section paths and did-you-mean
  suggestions, and
* hashes to a stable :meth:`fingerprint` that keys the artifact store, so two
  runs of the same spec share artifacts and a changed spec never serves stale
  ones.

The spec is the paper's thesis applied to our own tooling: results are only
trustworthy when the full procedure is declared, so an experiment should be a
*file you rerun*, not flags you retype.  ``repro-kgc run spec.toml`` executes
a spec through :class:`repro.api.pipeline.Runner`.  The spec is the only
config type: :meth:`ExperimentSpec.config_for` resolves one (model, dataset)
pair's overrides, and :meth:`~ExperimentSpec.model_config`,
:meth:`~ExperimentSpec.training_config` and :meth:`~ExperimentSpec.eval_options`
build the component configs from its sections.

Serialization notes: TOML has no null, so ``dump`` omits ``None``-valued
knobs and ``load`` maps absence back to the default — exact because every
optional knob's default *is* ``None`` (checked by the schema tests).  All
other knobs are dumped explicitly, so a spec file stays a faithful record
even if library defaults change later.
"""

from __future__ import annotations

import difflib
import hashlib
import json
import math
import re
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

try:  # Python 3.11+
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - Python 3.10 fallback
    try:
        import tomli as tomllib  # type: ignore[no-redef]
    except ModuleNotFoundError:  # pragma: no cover - no TOML parser at all
        tomllib = None  # type: ignore[assignment]

from . import schema

__all__ = [
    "ExperimentSpec",
    "DatasetSpec",
    "IngestSpec",
    "DeltasSpec",
    "AuditSpec",
    "ModelSectionSpec",
    "TrainingSpec",
    "EvaluationSpec",
    "TelemetrySpec",
    "SpecError",
    "SpecValidationError",
    "SweepAxis",
    "SWEEPABLE_SECTIONS",
    "spec_template",
    "diff_specs",
    "validate_sweep_table",
]


# --------------------------------------------------------------------------- errors
@dataclass(frozen=True)
class SpecError:
    """One validation problem, anchored to a dotted path into the spec."""

    path: str
    message: str
    suggestion: Optional[str] = None

    def __str__(self) -> str:
        text = f"{self.path}: {self.message}"
        if self.suggestion:
            text += f" (did you mean {self.suggestion!r}?)"
        return text


class SpecValidationError(ValueError):
    """Raised with *every* validation problem of a spec, not just the first."""

    def __init__(self, errors: List[SpecError]) -> None:
        self.errors = list(errors)
        lines = [f"invalid experiment spec ({len(self.errors)} problem(s)):"]
        lines += [f"  - {error}" for error in self.errors]
        super().__init__("\n".join(lines))


def _suggest(name: str, candidates) -> Optional[str]:
    matches = difflib.get_close_matches(str(name), list(candidates), n=1, cutoff=0.6)
    return matches[0] if matches else None


# --------------------------------------------------------------------------- sections
@dataclass
class DatasetSpec:
    scale: str = schema.DATASET_DEFAULTS["scale"]
    seed: int = schema.DATASET_DEFAULTS["seed"]
    source: Optional[str] = None
    source_name: Optional[str] = None


@dataclass
class IngestSpec:
    chunk_size: int = schema.INGEST_DEFAULTS["chunk_size"]
    max_queue_chunks: int = schema.INGEST_DEFAULTS["max_queue_chunks"]
    gzipped: Optional[bool] = None


@dataclass
class DeltasSpec:
    log: Optional[str] = None
    as_of: Optional[int] = None


@dataclass
class AuditSpec:
    theta: float = schema.AUDIT_DEFAULTS["theta"]
    yago_theta: float = schema.AUDIT_DEFAULTS["yago_theta"]


@dataclass
class ModelSectionSpec:
    dim: int = schema.MODEL_DEFAULTS["dim"]


@dataclass
class TrainingSpec:
    epochs: int = schema.TRAINING_DEFAULTS["epochs"]
    batch_size: int = schema.TRAINING_DEFAULTS["batch_size"]
    num_negatives: int = schema.TRAINING_DEFAULTS["num_negatives"]
    learning_rate: float = schema.TRAINING_DEFAULTS["learning_rate"]
    optimizer: str = schema.TRAINING_DEFAULTS["optimizer"]
    loss: str = schema.TRAINING_DEFAULTS["loss"]
    margin: float = schema.TRAINING_DEFAULTS["margin"]
    sampler: str = schema.TRAINING_DEFAULTS["sampler"]
    sparse_updates: bool = schema.TRAINING_DEFAULTS["sparse_updates"]
    row_budget: Optional[int] = None
    validate_every: int = schema.TRAINING_DEFAULTS["validate_every"]
    patience: int = schema.TRAINING_DEFAULTS["patience"]
    restore_best: bool = schema.TRAINING_DEFAULTS["restore_best"]
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = schema.TRAINING_DEFAULTS["checkpoint_every"]
    weight_decay: float = schema.TRAINING_DEFAULTS["weight_decay"]


@dataclass
class EvaluationSpec:
    batch_size: int = schema.EVALUATION_DEFAULTS["batch_size"]
    workers: int = schema.EVALUATION_DEFAULTS["workers"]
    shard_size: Optional[int] = None
    eval_dtype: str = schema.EVALUATION_DEFAULTS["eval_dtype"]
    score_block_budget: Optional[int] = None


@dataclass
class TelemetrySpec:
    enabled: bool = schema.TELEMETRY_DEFAULTS["enabled"]
    trace_path: Optional[str] = None
    profile: bool = schema.TELEMETRY_DEFAULTS["profile"]


#: ExperimentSpec attribute name per schema section (identical by design).
_SECTION_CLASSES = {
    "dataset": DatasetSpec,
    "ingest": IngestSpec,
    "deltas": DeltasSpec,
    "audit": AuditSpec,
    "model": ModelSectionSpec,
    "training": TrainingSpec,
    "evaluation": EvaluationSpec,
    "telemetry": TelemetrySpec,
}

_TOP_LEVEL_KEYS = ("name", "datasets", "models", "include_amie", "stages")
_KNOWN_TOP_LEVEL = tuple(_TOP_LEVEL_KEYS) + tuple(_SECTION_CLASSES) + ("overrides", "sweep")

#: Sections a ``[sweep.<section>.<knob>]`` grid axis may vary.  ``telemetry``
#: is excluded from fingerprints, so sweeping it would expand cells that all
#: key to the same artifacts — rejected up front instead of silently aliasing.
SWEEPABLE_SECTIONS = tuple(name for name in _SECTION_CLASSES if name != "telemetry")


# --------------------------------------------------------------------------- the spec
@dataclass
class ExperimentSpec:
    """A complete, serializable experiment declaration."""

    name: str = "experiment"
    datasets: List[str] = field(default_factory=lambda: list(schema.ALL_DATASETS))
    models: List[str] = field(default_factory=lambda: list(schema.CORE_MODELS))
    include_amie: bool = True
    stages: List[str] = field(default_factory=lambda: list(schema.DEFAULT_STAGES))
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    ingest: IngestSpec = field(default_factory=IngestSpec)
    deltas: DeltasSpec = field(default_factory=DeltasSpec)
    audit: AuditSpec = field(default_factory=AuditSpec)
    model: ModelSectionSpec = field(default_factory=ModelSectionSpec)
    training: TrainingSpec = field(default_factory=TrainingSpec)
    evaluation: EvaluationSpec = field(default_factory=EvaluationSpec)
    telemetry: TelemetrySpec = field(default_factory=TelemetrySpec)
    #: Per-model / per-dataset patches: ``{"models": {"ConvE": {"model":
    #: {"dim": 8}}}, "datasets": {"YAGO3-10-like": {"audit": {"theta": 0.7}}}}``.
    #: Patch sections are restricted to :data:`schema.OVERRIDABLE_SECTIONS`.
    overrides: Dict[str, Dict[str, Dict[str, Dict[str, Any]]]] = field(default_factory=dict)

    # -- serialization ----------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A plain nested dict; ``None``-valued knobs are omitted (TOML has no null)."""
        data: Dict[str, Any] = {
            "name": self.name,
            "datasets": list(self.datasets),
            "models": list(self.models),
            "include_amie": self.include_amie,
            "stages": list(self.stages),
        }
        for section_name in _SECTION_CLASSES:
            section_obj = getattr(self, section_name)
            section_schema = schema.section(section_name)
            # Omit None only for *optional* knobs (absence = default).  A None
            # on a required knob stays in the dict so validate() reports it
            # instead of the runner crashing on it later.
            table = {
                f.name: getattr(section_obj, f.name)
                for f in dataclass_fields(section_obj)
                if not (
                    getattr(section_obj, f.name) is None
                    and section_schema.knob(f.name).optional
                )
            }
            data[section_name] = table
        if self.overrides:
            # None-valued override knobs mean "use the default", i.e. no patch
            # at all — prune them (TOML could not represent them anyway).
            pruned = _prune_none(json.loads(json.dumps(self.overrides)))
            if pruned:
                data["overrides"] = pruned
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentSpec":
        """Build a spec from a plain dict, raising with *all* validation errors."""
        spec, errors = _spec_from_dict(data)
        if errors:
            raise SpecValidationError(errors)
        return spec

    def dumps(self, format: str = "toml") -> str:
        """Serialize to TOML (default) or JSON text."""
        data = self.to_dict()
        if format == "toml":
            return _toml_dumps(data)
        if format == "json":
            return json.dumps(data, indent=2) + "\n"
        raise ValueError(f"unknown spec format {format!r}; expected 'toml' or 'json'")

    @classmethod
    def loads(cls, text: str, format: str = "toml") -> "ExperimentSpec":
        """Parse TOML (default) or JSON text into a validated spec."""
        if format == "toml":
            if tomllib is None:  # pragma: no cover - only on 3.10 without tomli
                raise RuntimeError(
                    "no TOML parser available: Python >= 3.11 (tomllib) or the "
                    "'tomli' package is required to load TOML specs; JSON specs "
                    "work everywhere"
                )
            try:
                data = tomllib.loads(text)
            except tomllib.TOMLDecodeError as error:
                raise SpecValidationError([SpecError("<toml>", str(error))]) from error
        elif format == "json":
            try:
                data = json.loads(text)
            except json.JSONDecodeError as error:
                raise SpecValidationError([SpecError("<json>", str(error))]) from error
        else:
            raise ValueError(f"unknown spec format {format!r}; expected 'toml' or 'json'")
        if not isinstance(data, dict):
            raise SpecValidationError([SpecError("<root>", "spec must be a table/object")])
        return cls.from_dict(data)

    def dump(self, path: Union[str, Path]) -> Path:
        """Write the spec to ``path``; the suffix picks the format (.toml/.json)."""
        path = Path(path)
        path.write_text(self.dumps(_format_for(path)))
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ExperimentSpec":
        """Read and validate a spec file; the suffix picks the format."""
        path = Path(path)
        return cls.loads(path.read_text(), _format_for(path))

    # -- identity ---------------------------------------------------------------------
    def fingerprint(self) -> str:
        """A stable 16-hex-digit digest of the spec (keys the artifact store).

        The ``telemetry`` section is excluded: observability settings change
        what a run *records*, never what it *computes*, so tracing a spec
        must not re-key (and thereby rebuild) its artifacts.
        """
        data = self.to_dict()
        data.pop("telemetry", None)
        # The removed ``evaluation.backend`` knob stays hashed at its one value,
        # so artifact caches keyed before its removal keep their keys.
        data["evaluation"]["backend"] = "numpy"
        canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    # -- validation -------------------------------------------------------------------
    def validate(self) -> List[SpecError]:
        """All validation problems of this spec (empty list = valid)."""
        _, errors = _spec_from_dict(self.to_dict())
        return errors

    # -- derivation -------------------------------------------------------------------
    def section_values(self, section_name: str) -> Dict[str, Any]:
        """One section's knob values as a dict, ``None`` values included."""
        section_obj = getattr(self, section_name)
        return {f.name: getattr(section_obj, f.name) for f in dataclass_fields(section_obj)}

    def config_for(
        self, model: Optional[str] = None, dataset: Optional[str] = None
    ) -> "ExperimentSpec":
        """The effective spec of one (model, dataset) pair.

        A copy whose sections carry the per-dataset patch and then the
        per-model patch (most specific wins), with ``overrides`` emptied
        because they are already applied.  With no overrides the sections
        equal this spec's own.
        """
        # Section knobs are scalars, so copying the section objects and the
        # top-level lists is a deep copy, at a fraction of deepcopy's cost.
        resolved = replace(
            self,
            datasets=list(self.datasets),
            models=list(self.models),
            stages=list(self.stages),
            overrides={},
            **{name: replace(getattr(self, name)) for name in _SECTION_CLASSES},
        )
        for scope, key in (("datasets", dataset), ("models", model)):
            for section_name, knobs in self.overrides.get(scope, {}).get(key, {}).items():
                setattr(resolved, section_name, replace(getattr(resolved, section_name), **knobs))
        return resolved

    def to_experiment_config(self) -> "ExperimentSpec":
        """The global sections alone: :meth:`config_for` with no model or dataset."""
        return self.config_for()

    # -- component configs --------------------------------------------------------------
    # The model and trainer modules are imported on call: this module is
    # imported by every spec consumer and must stay light.
    def model_config(self, model_name: str):
        """The :class:`~repro.models.base.ModelConfig` that builds ``model_name``.

        Every model reads the ``model`` section, seeded by ``dataset.seed``,
        and chooses its own shapes from ``dim`` (ConvE's reshape); call it on
        :meth:`config_for` to apply a model's patch.
        """
        from ..models.base import ModelConfig

        return ModelConfig(dim=self.model.dim, seed=self.dataset.seed)

    def training_config(self):
        """The :class:`~repro.models.trainer.TrainingConfig` of the ``training`` section.

        Seeded by ``dataset.seed``; validation passes run with the
        ``evaluation`` section's batch size and worker count.
        """
        from ..models.trainer import TrainingConfig

        return TrainingConfig(
            **self.section_values("training"),
            seed=self.dataset.seed,
            validation_batch_size=self.evaluation.batch_size,
            validation_workers=self.evaluation.workers,
        )

    def eval_options(self):
        """The :class:`~repro.api.options.EvalOptions` of the ``evaluation`` section."""
        from .options import EvalOptions

        return EvalOptions(**self.section_values("evaluation"))


def _prune_none(data: Dict[str, Any]) -> Dict[str, Any]:
    """Recursively drop ``None`` values and the empty tables they leave behind."""
    pruned: Dict[str, Any] = {}
    for key, value in data.items():
        if isinstance(value, dict):
            value = _prune_none(value)
            if value:
                pruned[key] = value
        elif value is not None:
            pruned[key] = value
    return pruned


def _format_for(path: Path) -> str:
    suffix = path.suffix.lower()
    if suffix == ".json":
        return "json"
    if suffix == ".toml":
        return "toml"
    raise ValueError(f"cannot infer spec format from {path.name!r}; use .toml or .json")


# --------------------------------------------------------------------------- validation
def check_knob_value(section_name: str, knob: schema.Knob, value: Any) -> List[SpecError]:
    """Validate one value against a knob's type/range/choices (empty = valid).

    The same checks a spec file goes through; the CLI runs ``REPRO_*``
    environment overrides through this so every surface rejects the same
    values.
    """
    errors: List[SpecError] = []
    _check_knob(section_name, knob, value, f"{section_name}.{knob.name}", errors)
    return errors


def _check_knob(
    section_name: str, knob: schema.Knob, value: Any, path: str, errors: List[SpecError]
) -> Any:
    """Type/range/choice-check one knob value; returns the (coerced) value."""
    if value is None:
        if knob.optional:
            return None
        errors.append(SpecError(path, f"may not be null (expected {knob.type.__name__})"))
        return knob.default
    if knob.type is bool:
        if not isinstance(value, bool):
            errors.append(SpecError(path, f"expected a boolean, got {value!r}"))
            return knob.default
    elif knob.type is int:
        if isinstance(value, bool) or not isinstance(value, int):
            errors.append(SpecError(path, f"expected an integer, got {value!r}"))
            return knob.default
    elif knob.type is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            errors.append(SpecError(path, f"expected a number, got {value!r}"))
            return knob.default
        value = float(value)
        if not math.isfinite(value):
            # nan compares False against every bound, so it would slip
            # through the range checks below (and break fingerprinting:
            # nan != nan).
            errors.append(SpecError(path, f"must be a finite number, got {value!r}"))
            return knob.default
    elif knob.type is str:
        if not isinstance(value, str):
            errors.append(SpecError(path, f"expected a string, got {value!r}"))
            return knob.default
    if knob.choices is not None and value not in knob.choices:
        errors.append(
            SpecError(
                path,
                f"{value!r} is not one of {', '.join(knob.choices)}",
                suggestion=_suggest(value, knob.choices),
            )
        )
        return knob.default
    if knob.minimum is not None and value < knob.minimum:
        errors.append(SpecError(path, f"must be >= {knob.minimum}, got {value!r}"))
        return knob.default
    if knob.maximum is not None and value > knob.maximum:
        errors.append(SpecError(path, f"must be <= {knob.maximum}, got {value!r}"))
        return knob.default
    return value


def _validate_section_table(
    section: schema.Section, table: Any, path_prefix: str, errors: List[SpecError]
) -> Dict[str, Any]:
    values: Dict[str, Any] = {}
    if not isinstance(table, dict):
        errors.append(SpecError(path_prefix, f"expected a table, got {table!r}"))
        return values
    known = [knob.name for knob in section.knobs]
    for key, value in table.items():
        if key not in known:
            errors.append(
                SpecError(
                    f"{path_prefix}.{key}",
                    "unknown option",
                    suggestion=_suggest(key, known),
                )
            )
            continue
        values[key] = _check_knob(
            section.name, section.knob(key), value, f"{path_prefix}.{key}", errors
        )
    return values


def _validate_string_list(value: Any, path: str, errors: List[SpecError]) -> List[str]:
    if not isinstance(value, (list, tuple)) or not all(isinstance(x, str) for x in value):
        errors.append(SpecError(path, f"expected a list of strings, got {value!r}"))
        return []
    return list(value)


def _validate_model_name(name: str, path: str, errors: List[SpecError]) -> None:
    from ..models.registry import UnknownModelError, resolve_model_class

    if name in schema.BASELINE_SCORERS:
        return
    try:
        resolve_model_class(name)
    except UnknownModelError as error:
        errors.append(
            SpecError(
                path,
                f"unknown model {name!r}",
                suggestion=error.suggestion or _suggest(name, schema.BASELINE_SCORERS),
            )
        )


def _validate_dataset_name(
    name: str, valid_names: List[str], path: str, errors: List[SpecError]
) -> None:
    if name not in valid_names:
        errors.append(
            SpecError(
                path,
                f"unknown dataset {name!r}",
                suggestion=_suggest(name, valid_names),
            )
        )


def _drop_backend(table: Any, path: str, errors: List[SpecError]) -> Any:
    """``table`` without the removed ``backend`` knob.

    ``evaluation.backend`` chose the array carrier of the score kernels;
    numpy is the only one left, so a table that still says ``"numpy"`` loads
    unchanged and any other value is refused.
    """
    if not isinstance(table, dict) or "backend" not in table:
        return table
    if table["backend"] != "numpy":
        errors.append(
            SpecError(
                f"{path}.backend",
                "the backend knob was removed: scoring is numpy-only, so only "
                f"'numpy' is accepted, got {table['backend']!r}",
            )
        )
    return {key: value for key, value in table.items() if key != "backend"}


def _validate_overrides(
    raw: Any, valid_datasets: List[str], errors: List[SpecError]
) -> Dict[str, Dict[str, Dict[str, Dict[str, Any]]]]:
    overrides: Dict[str, Dict[str, Dict[str, Dict[str, Any]]]] = {}
    if not isinstance(raw, dict):
        errors.append(SpecError("overrides", f"expected a table, got {raw!r}"))
        return overrides
    for scope, entries in raw.items():
        if scope not in ("models", "datasets"):
            errors.append(
                SpecError(
                    f"overrides.{scope}",
                    "unknown override scope (expected 'models' or 'datasets')",
                    suggestion=_suggest(scope, ("models", "datasets")),
                )
            )
            continue
        if not isinstance(entries, dict):
            errors.append(SpecError(f"overrides.{scope}", f"expected a table, got {entries!r}"))
            continue
        scope_out: Dict[str, Dict[str, Dict[str, Any]]] = {}
        for target, patch in entries.items():
            target_path = f"overrides.{scope}.{target}"
            if scope == "models":
                _validate_model_name(target, target_path, errors)
            else:
                _validate_dataset_name(target, valid_datasets, target_path, errors)
            if not isinstance(patch, dict):
                errors.append(SpecError(target_path, f"expected a table, got {patch!r}"))
                continue
            patch_out: Dict[str, Dict[str, Any]] = {}
            for section_name, knobs in patch.items():
                if section_name not in schema.OVERRIDABLE_SECTIONS:
                    errors.append(
                        SpecError(
                            f"{target_path}.{section_name}",
                            "not an overridable section "
                            f"(expected one of {', '.join(schema.OVERRIDABLE_SECTIONS)})",
                            suggestion=_suggest(section_name, schema.OVERRIDABLE_SECTIONS),
                        )
                    )
                    continue
                if section_name == "evaluation":
                    knobs = _drop_backend(knobs, f"{target_path}.evaluation", errors)
                values = _validate_section_table(
                    schema.section(section_name), knobs, f"{target_path}.{section_name}", errors
                )
                # A null override means "use the default": drop the no-op
                # patch so it round-trips (TOML cannot represent it anyway).
                values = {key: value for key, value in values.items() if value is not None}
                if values:
                    patch_out[section_name] = values
            if patch_out:
                scope_out[target] = patch_out
        if scope_out:
            overrides[scope] = scope_out
    return overrides


# --------------------------------------------------------------------------- sweep grids
#: One grid axis: ``(section, knob, values)`` in deterministic schema order.
SweepAxis = Tuple[str, str, List[Any]]


def validate_sweep_table(raw: Any, errors: List[SpecError]) -> List[SweepAxis]:
    """Validate a ``[sweep]`` table and return its axes in deterministic order.

    The table maps sections to knobs to *lists* of values
    (``[sweep.model.dim] = [16, 32]`` style); every value passes the same
    knob checks a spec file does.  Axes come back ordered by schema section
    order, then knob declaration order — independent of file order, so a
    reshuffled sweep file expands to the same grid.
    """
    axes: List[SweepAxis] = []
    if not isinstance(raw, dict):
        errors.append(SpecError("sweep", f"expected a table, got {raw!r}"))
        return axes
    by_path: Dict[Tuple[str, str], List[Any]] = {}
    for section_name, knobs in raw.items():
        if section_name not in SWEEPABLE_SECTIONS:
            errors.append(
                SpecError(
                    f"sweep.{section_name}",
                    f"not a sweepable section (expected one of {', '.join(SWEEPABLE_SECTIONS)})",
                    suggestion=_suggest(section_name, SWEEPABLE_SECTIONS),
                )
            )
            continue
        if not isinstance(knobs, dict):
            errors.append(
                SpecError(f"sweep.{section_name}", f"expected a table, got {knobs!r}")
            )
            continue
        section_schema = schema.section(section_name)
        known = [knob.name for knob in section_schema.knobs]
        for knob_name, values in knobs.items():
            path = f"sweep.{section_name}.{knob_name}"
            if knob_name not in known:
                errors.append(
                    SpecError(path, "unknown option", suggestion=_suggest(knob_name, known))
                )
                continue
            if not isinstance(values, (list, tuple)) or not values:
                errors.append(
                    SpecError(path, f"expected a non-empty list of values, got {values!r}")
                )
                continue
            knob = section_schema.knob(knob_name)
            checked: List[Any] = []
            seen_repr = set()
            for index, value in enumerate(values):
                value_errors: List[SpecError] = []
                # _check_knob also coerces (int -> float on float knobs), and
                # the coerced value is what a cell spec stores — using the raw
                # value here would fingerprint `margin = [1]` differently
                # from `margin = [1.0]`.
                coerced = _check_knob(
                    section_name, knob, value, f"{path}[{index}]", value_errors
                )
                errors.extend(value_errors)
                if not value_errors:
                    token = repr(coerced)
                    if token in seen_repr:
                        errors.append(
                            SpecError(f"{path}[{index}]", f"duplicate value {value!r}")
                        )
                    seen_repr.add(token)
                    checked.append(coerced)
            if checked:
                by_path[(section_name, knob_name)] = checked
    for section_obj in schema.SECTIONS:
        for knob in section_obj.knobs:
            values = by_path.get((section_obj.name, knob.name))
            if values is not None:
                axes.append((section_obj.name, knob.name, values))
    return axes


def _spec_from_dict(data: Dict[str, Any]) -> Tuple["ExperimentSpec", List[SpecError]]:
    errors: List[SpecError] = []
    if not isinstance(data, dict):
        return ExperimentSpec(), [SpecError("<root>", "spec must be a table/object")]

    ingest = data.get("ingest")
    if isinstance(ingest, dict) and "fused" in ingest:
        # ``ingest.fused`` chose between two ingest paths that gave identical
        # results, and never entered the fingerprint.  One path is left, so
        # spec files that still carry the key load unchanged instead of
        # failing on an unknown knob.
        data = {**data, "ingest": {k: v for k, v in ingest.items() if k != "fused"}}
    if "evaluation" in data:
        data = {**data, "evaluation": _drop_backend(data["evaluation"], "evaluation", errors)}

    for key in data:
        if key not in _KNOWN_TOP_LEVEL:
            errors.append(
                SpecError(key, "unknown section or key", suggestion=_suggest(key, _KNOWN_TOP_LEVEL))
            )

    spec = ExperimentSpec()

    name = data.get("name", spec.name)
    if not isinstance(name, str) or not name.strip():
        errors.append(SpecError("name", f"expected a non-empty string, got {name!r}"))
    else:
        spec.name = name

    # Sections first (dataset.source_name feeds the valid dataset names).
    for section_name, section_class in _SECTION_CLASSES.items():
        if section_name not in data:
            continue
        values = _validate_section_table(
            schema.section(section_name), data[section_name], section_name, errors
        )
        setattr(spec, section_name, section_class(**{
            f.name: values.get(f.name, getattr(getattr(spec, section_name), f.name))
            for f in dataclass_fields(section_class)
        }))

    valid_datasets = list(schema.ALL_DATASETS)
    if spec.dataset.source_name:
        valid_datasets.append(spec.dataset.source_name)
        valid_datasets.append(f"{spec.dataset.source_name}-deredundant")

    if "datasets" in data:
        spec.datasets = _validate_string_list(data["datasets"], "datasets", errors)
        for index, entry in enumerate(spec.datasets):
            _validate_dataset_name(entry, valid_datasets, f"datasets[{index}]", errors)

    if "models" in data:
        spec.models = _validate_string_list(data["models"], "models", errors)
        for index, entry in enumerate(spec.models):
            _validate_model_name(entry, f"models[{index}]", errors)

    if "include_amie" in data:
        if not isinstance(data["include_amie"], bool):
            errors.append(
                SpecError("include_amie", f"expected a boolean, got {data['include_amie']!r}")
            )
        else:
            spec.include_amie = data["include_amie"]

    if "stages" in data:
        listed = _validate_string_list(data["stages"], "stages", errors)
        seen = set()
        for index, stage in enumerate(listed):
            if stage not in schema.STAGES:
                errors.append(
                    SpecError(
                        f"stages[{index}]",
                        f"unknown stage {stage!r} (expected a subset of {', '.join(schema.STAGES)})",
                        suggestion=_suggest(stage, schema.STAGES),
                    )
                )
            elif stage in seen:
                errors.append(SpecError(f"stages[{index}]", f"duplicate stage {stage!r}"))
            seen.add(stage)
        # Stages always execute in canonical pipeline order.
        spec.stages = [stage for stage in schema.STAGES if stage in seen]

    if "overrides" in data:
        spec.overrides = _validate_overrides(data["overrides"], valid_datasets, errors)

    if "sweep" in data:
        # Validated here so `spec validate` rejects bad grids, but the axes
        # are not part of the spec object (and never of its fingerprint):
        # `run` executes the base cell, `repro-kgc sweep` expands the grid
        # through :mod:`repro.api.sweep`.
        validate_sweep_table(data["sweep"], errors)

    # Cross-field rules.
    if spec.dataset.source and not spec.dataset.source_name:
        errors.append(
            SpecError(
                "dataset.source_name",
                "required when dataset.source is set (names the ingested dataset)",
            )
        )
    if spec.dataset.source_name and not spec.dataset.source:
        errors.append(
            SpecError(
                "dataset.source",
                "required when dataset.source_name is set (nothing else ingests it)",
            )
        )
    derived_name = (
        f"{spec.dataset.source_name}-deredundant" if spec.dataset.source_name else None
    )
    if derived_name and derived_name in spec.datasets and "deredundify" not in spec.stages:
        errors.append(
            SpecError(
                "stages",
                f"datasets lists {derived_name!r}, which only the 'deredundify' "
                "stage materializes; add it to stages",
            )
        )
    if "deredundify" in spec.stages and not spec.dataset.source:
        errors.append(
            SpecError(
                "stages",
                "'deredundify' only applies to a stream-ingested dataset.source "
                "(the built-in replicas ship explicit de-redundant variants)",
            )
        )
    if spec.deltas.as_of is not None and not spec.deltas.log:
        errors.append(
            SpecError(
                "deltas.log",
                "required when deltas.as_of is set (there is no log to pin a "
                "snapshot sequence into)",
            )
        )
    if spec.training.restore_best and spec.training.validate_every <= 0:
        errors.append(
            SpecError(
                "training.restore_best",
                "requires training.validate_every > 0 (there is no best checkpoint "
                "without validation passes)",
            )
        )
    return spec, errors


# --------------------------------------------------------------------------- TOML emit
_BARE_KEY = re.compile(r"^[A-Za-z0-9_-]+$")

_TOML_SHORT_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _toml_string(text: str) -> str:
    """A TOML basic string.  Unlike ``json.dumps`` this never emits surrogate
    pairs (not Unicode scalar values, which TOML rejects): non-BMP characters
    are legal raw, only quotes, backslashes and control characters escape."""
    out = []
    for char in text:
        if char in _TOML_SHORT_ESCAPES:
            out.append(_TOML_SHORT_ESCAPES[char])
        elif ord(char) < 0x20 or ord(char) == 0x7F:
            out.append(f"\\u{ord(char):04X}")
        else:
            out.append(char)
    return '"' + "".join(out) + '"'


def _toml_key(key: str) -> str:
    return key if _BARE_KEY.match(key) else _toml_string(key)


def _toml_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):  # TOML spells these nan / inf / -inf
            return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
        text = repr(value)
        return text if ("." in text or "e" in text or "E" in text) else text + ".0"
    if isinstance(value, str):
        return _toml_string(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(item) for item in value) + "]"
    raise TypeError(f"cannot serialize {value!r} to TOML")


def _emit_table(lines: List[str], header: List[str], table: Dict[str, Any]) -> None:
    scalars = {k: v for k, v in table.items() if not isinstance(v, dict)}
    subtables = {k: v for k, v in table.items() if isinstance(v, dict)}
    if header and (scalars or not subtables):
        lines.append("[" + ".".join(_toml_key(part) for part in header) + "]")
    for key, value in scalars.items():
        lines.append(f"{_toml_key(key)} = {_toml_value(value)}")
    if header and (scalars or not subtables):
        lines.append("")
    for key, value in subtables.items():
        _emit_table(lines, header + [key], value)


def _toml_dumps(data: Dict[str, Any]) -> str:
    lines: List[str] = []
    scalars = {k: v for k, v in data.items() if not isinstance(v, dict)}
    subtables = {k: v for k, v in data.items() if isinstance(v, dict)}
    for key, value in scalars.items():
        lines.append(f"{_toml_key(key)} = {_toml_value(value)}")
    if scalars:
        lines.append("")
    for key, value in subtables.items():
        _emit_table(lines, [key], value)
    while lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------- template
def spec_template() -> str:
    """A fully commented TOML template of the whole schema (``spec init``)."""
    spec = ExperimentSpec()
    lines = [
        "# Declarative experiment specification for repro-kgc.",
        "# Generated by `repro-kgc spec init`; validate with `repro-kgc spec validate`",
        "# and execute with `repro-kgc run <file>`.  Every key below is optional and",
        "# defaults to the value shown; the schema reference lives in docs/api.md.",
        "",
        f"name = {_toml_value(spec.name)}",
        "# benchmark replicas to build and evaluate on",
        f"datasets = {_toml_value(spec.datasets)}",
        "# embedding models (plus optional baselines: AMIE, SimpleModel, CartesianProduct)",
        f"models = {_toml_value(spec.models)}",
        "# append the AMIE rule miner to the evaluated lineup",
        f"include_amie = {_toml_value(spec.include_amie)}",
        f"# pipeline stages to run, from: {', '.join(schema.STAGES)}",
        f"stages = {_toml_value(spec.stages)}",
    ]
    for section in schema.SECTIONS:
        lines += ["", f"[{section.name}]", f"# {section.help}"]
        for knob in section.knobs:
            comment = f"# {knob.help}"
            if knob.choices:
                comment += f" (one of: {', '.join(knob.choices)})"
            lines.append(comment)
            if knob.default is None:
                placeholder = {int: "0", float: "0.0", str: '""', bool: "false"}[knob.type]
                lines.append(f"# {_toml_key(knob.name)} = {placeholder}")
            else:
                lines.append(f"{_toml_key(knob.name)} = {_toml_value(knob.default)}")
    lines += [
        "",
        "# Per-model / per-dataset patches (sections: "
        + ", ".join(schema.OVERRIDABLE_SECTIONS) + "), e.g.:",
        "# [overrides.models.ConvE.model]",
        "# dim = 8",
        '# [overrides.datasets."YAGO3-10-like".audit]',
        "# theta = 0.7",
    ]
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------- diff
_MISSING = object()


def _flatten(data: Any, prefix: str = "") -> Dict[str, Any]:
    if not isinstance(data, dict):
        return {prefix: data}
    flat: Dict[str, Any] = {}
    for key, value in data.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        flat.update(_flatten(value, path))
    return flat


def diff_specs(
    left: "ExperimentSpec", right: "ExperimentSpec"
) -> List[Tuple[str, Any, Any]]:
    """Dotted paths whose values differ, as ``(path, left_value, right_value)``.

    A value of ``None`` means the key is unset on that side (optional knob at
    its ``None`` default).
    """
    flat_left = _flatten(left.to_dict())
    flat_right = _flatten(right.to_dict())
    differences: List[Tuple[str, Any, Any]] = []
    for path in sorted(set(flat_left) | set(flat_right)):
        left_value = flat_left.get(path, _MISSING)
        right_value = flat_right.get(path, _MISSING)
        if left_value != right_value:
            differences.append(
                (
                    path,
                    None if left_value is _MISSING else left_value,
                    None if right_value is _MISSING else right_value,
                )
            )
    return differences
