"""Single source of truth for every experiment knob.

This module is the *schema* behind the declarative experiment API: one
:class:`Knob` per tunable, grouped into :class:`Section` objects, each
carrying the canonical default, type, valid range/choices, help text and the
CLI flag spelling.  Everything else **derives** from these definitions:

* :class:`repro.api.spec.ExperimentSpec` sections and their validation,
* :class:`repro.models.trainer.TrainingConfig` and
  :class:`repro.api.options.EvalOptions` field defaults,
* the generated ``repro-kgc`` CLI flags (and their ``REPRO_*`` environment
  overrides), and
* the TOML keys of a spec file.

Defining a knob once here therefore yields a CLI flag, an environment
variable, a TOML key and a validated spec field that can never drift apart —
the regression suite asserts parser defaults equal these schema defaults for
every subcommand.

The module is deliberately a **leaf**: from the rest of ``repro`` it imports
only :mod:`repro.backend`, which imports nothing but numpy, for the eval dtype
names.  Any subsystem — the trainer, the streaming ingester, the evaluator —
can therefore derive its defaults from here without import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..backend import DTYPE_SPECS

# --------------------------------------------------------------------------- dataset keys
#: Dataset keys used throughout the experiment drivers (canonical spellings).
FB15K = "FB15k-like"
FB15K237 = "FB15k-237-like"
WN18 = "WN18-like"
WN18RR = "WN18RR-like"
YAGO = "YAGO3-10-like"
YAGO_DR = "YAGO3-10-like-DR"

ALL_DATASETS: Tuple[str, ...] = (FB15K, FB15K237, WN18, WN18RR, YAGO, YAGO_DR)

#: The six representative models the paper uses in Figure 1 and most analyses.
CORE_MODELS: Tuple[str, ...] = ("TransE", "DistMult", "ComplEx", "ConvE", "RotatE", "TuckER")

#: Non-embedding scorers a spec's ``models`` list may also name.
BASELINE_SCORERS: Tuple[str, ...] = ("AMIE", "SimpleModel", "CartesianProduct")

#: Pipeline stages in canonical execution order (see ``repro.api.pipeline``).
STAGES: Tuple[str, ...] = ("ingest", "audit", "deredundify", "train", "evaluate", "report")

#: Stages a spec runs by default (``deredundify`` is opt-in: it only applies
#: to stream-ingested source datasets, never to the built-in replicas, which
#: ship explicit de-redundant variants).
DEFAULT_STAGES: Tuple[str, ...] = ("ingest", "audit", "train", "evaluate", "report")

SCALE_CHOICES: Tuple[str, ...] = ("tiny", "small", "medium")
OPTIMIZER_CHOICES: Tuple[str, ...] = ("sgd", "adagrad", "adam")
LOSS_CHOICES: Tuple[str, ...] = (
    "default", "margin", "margin_ranking", "bce", "logistic", "self_adversarial", "rotate",
)
SAMPLER_CHOICES: Tuple[str, ...] = ("bernoulli", "uniform")
EVAL_DTYPE_CHOICES: Tuple[str, ...] = DTYPE_SPECS


# --------------------------------------------------------------------------- knob model
@dataclass(frozen=True)
class Knob:
    """One tunable: its type, default, constraints and CLI spelling."""

    name: str
    type: type
    default: Any
    help: str
    #: ``None`` is a legal value (all optional knobs default to ``None``,
    #: which is what makes the TOML round-trip exact — TOML has no null, so
    #: dumps omit ``None`` values and loads map absence back to the default).
    optional: bool = False
    choices: Optional[Tuple[str, ...]] = None
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    #: CLI flag override (default: ``--{name with _ -> -}``).
    flag: Optional[str] = None
    #: For default-``True`` booleans: the ``store_true`` flag that *disables*
    #: the knob (e.g. ``--dense-updates`` disables ``sparse_updates``).  The
    #: argparse dest is the flag's own name, and the knob value is its negation.
    invert_flag: Optional[str] = None

    @property
    def cli_flag(self) -> str:
        if self.invert_flag:
            return self.invert_flag
        return self.flag or "--" + self.name.replace("_", "-")

    @property
    def cli_dest(self) -> str:
        """The argparse attribute the generated flag parses into."""
        return self.cli_flag.lstrip("-").replace("-", "_")

    def env_var(self, section: str) -> str:
        """The environment variable overriding this knob's CLI default."""
        return f"REPRO_{section}_{self.name}".upper()

    def parser_default(self) -> Any:
        """The default the *generated argparse flag* carries.

        Differs from :attr:`default` only for flag-style booleans: a
        ``store_true`` flag defaults to ``False`` (an inverted flag encodes a
        ``True`` knob default).  Optional tri-state booleans keep ``None`` as
        the default so "flag absent" and "explicitly false" (only expressible
        through the environment override) stay distinguishable.
        """
        if self.type is bool and not self.optional:
            return False
        return self.default

    def from_parser_value(self, value: Any) -> Any:
        """Map a parsed CLI value back onto the knob's spec value."""
        if self.invert_flag:
            return not value
        return value


@dataclass(frozen=True)
class Section:
    """A named group of knobs — one TOML table, one spec sub-dataclass."""

    name: str
    help: str
    knobs: Tuple[Knob, ...]

    def knob(self, name: str) -> Knob:
        for knob in self.knobs:
            if knob.name == name:
                return knob
        raise KeyError(f"section {self.name!r} has no knob {name!r}")

    def defaults(self) -> Dict[str, Any]:
        return {knob.name: knob.default for knob in self.knobs}


# --------------------------------------------------------------------------- the schema
DATASET = Section(
    "dataset",
    "Benchmark construction: replica scale, seeding and optional TSV sources.",
    (
        Knob("scale", str, "tiny", "synthetic benchmark scale", choices=SCALE_CHOICES),
        Knob("seed", int, 13, "random seed for dataset construction and training"),
        Knob(
            "source", str, None,
            "TSV dataset directory to stream-ingest in addition to the built-in replicas",
            optional=True,
        ),
        Knob(
            "source_name", str, None,
            "dataset name the ingested source registers under (required with source)",
            optional=True,
        ),
    ),
)

INGEST = Section(
    "ingest",
    "Bounded-memory streaming ingestion pipeline.",
    (
        Knob("chunk_size", int, 4096, "labelled triples per pipeline chunk", minimum=1),
        Knob(
            "max_queue_chunks", int, 4,
            "bounded-queue depth in chunks; peak residency is chunk_size * (this + 2)",
            minimum=1,
        ),
        Knob(
            "gzipped", bool, None,
            "read gzip-compressed split files (train.txt.gz, ...); default auto-detects",
            optional=True, flag="--gzip",
        ),
    ),
)

DELTAS = Section(
    "deltas",
    "Incremental dataset maintenance: a delta log applied on top of the source.",
    (
        Knob(
            "log", str, None,
            "JSON-lines delta log (see docs/deltas.md) applied to the resolved "
            "dataset before any other stage; each applied prefix is cached as a "
            "versioned snapshot",
            optional=True, flag="--delta-log",
        ),
        Knob(
            "as_of", int, None,
            "pin the dataset to the state after this delta batch sequence number "
            "(default: the whole log); historical snapshots reproduce bit-identically",
            optional=True, minimum=0, flag="--delta-as-of",
        ),
    ),
)

AUDIT = Section(
    "audit",
    "The paper's Section 4 redundancy / leakage audit.",
    (
        Knob(
            "theta", float, 0.8, "overlap / density threshold of the redundancy scans",
            minimum=0.0, maximum=1.0,
        ),
        Knob(
            "yago_theta", float, 0.7,
            "threshold for the YAGO-style analysis (the paper treats the 0.75-overlap "
            "YAGO pair as duplicates)",
            minimum=0.0, maximum=1.0,
        ),
    ),
)

MODEL = Section(
    "model",
    "Embedding model construction.",
    (
        Knob("dim", int, 16, "embedding dimension", minimum=1),
    ),
)

TRAINING = Section(
    "training",
    "Negative-sampling training loop and its lifecycle knobs.",
    (
        Knob("epochs", int, 30, "training epochs", minimum=1),
        Knob("batch_size", int, 256, "positive triples per training batch", minimum=1),
        Knob(
            "num_negatives", int, 2, "negative samples per positive triple",
            minimum=1, flag="--negatives",
        ),
        Knob("learning_rate", float, 0.05, "optimizer learning rate", minimum=0.0),
        Knob("optimizer", str, "adam", "stochastic optimizer", choices=OPTIMIZER_CHOICES),
        Knob(
            "loss", str, "default",
            "loss family ('default' = the model's own preference)", choices=LOSS_CHOICES,
        ),
        Knob("margin", float, 1.0, "margin of the ranking / self-adversarial losses", minimum=0.0),
        Knob("sampler", str, "bernoulli", "negative sampling scheme", choices=SAMPLER_CHOICES),
        Knob(
            "sparse_updates", bool, True,
            "row-indexed gradients + lazy per-row optimizer updates "
            "(the inverted flag selects the dense reference path)",
            invert_flag="--dense-updates",
        ),
        Knob(
            "row_budget", int, None,
            "max coalesced rows per sparse optimizer update before densifying the step",
            optional=True, minimum=1,
        ),
        Knob(
            "validate_every", int, 0,
            "epochs between validation-MRR passes (0 = no validation)", minimum=0,
        ),
        Knob(
            "patience", int, 0,
            "validation checks without a new best MRR before early stopping (0 = off)",
            minimum=0,
        ),
        Knob(
            "restore_best", bool, False,
            "reload the best-validation-MRR parameter snapshot before finishing "
            "(requires validate_every > 0)",
        ),
        Knob(
            "checkpoint_dir", str, None,
            "directory for periodic training checkpoints", optional=True,
        ),
        Knob(
            "checkpoint_every", int, 0,
            "epochs between checkpoints (0 disables periodic saves)", minimum=0,
        ),
        Knob(
            "weight_decay", float, 0.0,
            "L2 weight decay folded into the optimizer step (sparse runs touch "
            "only the batch rows, so the per-step cost stays O(batch))",
            minimum=0.0,
        ),
    ),
)

EVALUATION = Section(
    "evaluation",
    "Batched / sharded link-prediction evaluation.",
    (
        Knob(
            "batch_size", int, 256,
            "unique link-prediction queries scored per batched evaluator call",
            minimum=1, flag="--eval-batch-size",
        ),
        Knob(
            "workers", int, 1,
            "worker processes for sharded link-prediction evaluation "
            "(1 = exact in-process path; results are bit-identical at any count)",
            minimum=1, flag="--eval-workers",
        ),
        Knob(
            "shard_size", int, None,
            "queries per evaluation shard (default: one balanced shard per worker)",
            optional=True, minimum=1, flag="--eval-shard-size",
        ),
        Knob(
            "eval_dtype", str, "fp64",
            "dtype of candidate scoring (fp64 = bit-identity reference; "
            "fp32/fp16 trade precision for throughput and memory)",
            choices=EVAL_DTYPE_CHOICES,
        ),
        Knob(
            "score_block_budget", int, None,
            "max elements of a resident score block; enables the fused "
            "score+rank path, which never materializes the full (B, E) score "
            "matrix (ranks are bit-identical at any budget)",
            optional=True, minimum=1,
        ),
    ),
)

SERVING = Section(
    "serving",
    "Persistent link-prediction serving: query engine and TCP server.",
    (
        Knob("host", str, "127.0.0.1", "interface the query server binds"),
        Knob(
            "port", int, 8642,
            "TCP port of the query server (0 = pick a free port and print it)",
            minimum=0, maximum=65535,
        ),
        Knob(
            "max_batch", int, 64,
            "max concurrent queries coalesced into one micro-batch",
            minimum=1,
        ),
        Knob(
            "cache_entries", int, 1024,
            "bounded LRU cache of score rows for hot queries (0 disables caching)",
            minimum=0,
        ),
        Knob(
            "top_k", int, 10,
            "candidates returned per query when the request does not say",
            minimum=1, flag="--top-k",
        ),
    ),
)

TELEMETRY = Section(
    "telemetry",
    "Observability: tracing spans, the metrics registry and profiling hooks.",
    (
        Knob(
            "enabled", bool, False,
            "collect tracing spans and metrics across ingest/train/eval/serve "
            "(off = shared no-op singletons, near-zero overhead)",
            flag="--telemetry",
        ),
        Knob(
            "trace_path", str, None,
            "write the span stream as JSON lines to this path after a run "
            "(implies --telemetry)",
            optional=True, flag="--trace-out",
        ),
        Knob(
            "profile", bool, False,
            "opt-in per-stage profiling: wall/cpu timers, peak RSS and "
            "tracemalloc allocation peaks (implies --telemetry)",
        ),
    ),
)

#: Every *experiment* section, in the order spec files and docs present them.
#: ``SERVING`` is deliberately not an experiment section: serving knobs shape
#: a long-lived process, not a reproducible experiment declaration, so they
#: get CLI flags and environment overrides but no place in spec files (and
#: therefore never perturb spec fingerprints).  ``TELEMETRY`` *is* a spec
#: section (observability settings belong in a run declaration) but is
#: excluded from fingerprints by ``ExperimentSpec.fingerprint`` — watching a
#: run never changes its artifact identity.
SECTIONS: Tuple[Section, ...] = (
    DATASET, INGEST, DELTAS, AUDIT, MODEL, TRAINING, EVALUATION, TELEMETRY,
)

SECTIONS_BY_NAME: Dict[str, Section] = {section.name: section for section in SECTIONS}
SECTIONS_BY_NAME[SERVING.name] = SERVING

#: Sections a per-model / per-dataset override patch may touch.
OVERRIDABLE_SECTIONS: Tuple[str, ...] = ("model", "training", "evaluation", "audit")


def section(name: str) -> Section:
    return SECTIONS_BY_NAME[name]


def defaults(section_name: str) -> Dict[str, Any]:
    """The canonical defaults of one section as a plain dict."""
    return SECTIONS_BY_NAME[section_name].defaults()


#: Convenience handles for the modules deriving their dataclass defaults.
DATASET_DEFAULTS = DATASET.defaults()
INGEST_DEFAULTS = INGEST.defaults()
DELTAS_DEFAULTS = DELTAS.defaults()
AUDIT_DEFAULTS = AUDIT.defaults()
MODEL_DEFAULTS = MODEL.defaults()
TRAINING_DEFAULTS = TRAINING.defaults()
EVALUATION_DEFAULTS = EVALUATION.defaults()
SERVING_DEFAULTS = SERVING.defaults()
TELEMETRY_DEFAULTS = TELEMETRY.defaults()
