"""Command-line interface for the reproduction toolkit.

Eight subcommands cover the workflows a downstream user needs:

``repro-kgc run``
    Execute a declarative experiment spec (``.toml`` or ``.json``) through the
    staged pipeline runner — the recommended way to run experiments.  With
    ``--cache-dir`` the run writes through the content-addressed disk cache,
    so a repeated run reuses every artifact bit-identically.
``repro-kgc sweep``
    Expand a spec with a ``[sweep]`` table (knob -> list of values) into its
    cartesian grid and execute every cell through one shared disk cache:
    repeated, edited and concurrent sweeps only compute cells they have not
    seen before.  Prints one consolidated table across all cells.
``repro-kgc spec``
    Work with spec files: ``init`` writes a fully commented template,
    ``validate`` checks files against the knob schema (reporting *all*
    problems with did-you-mean suggestions), ``diff`` compares two specs.
``repro-kgc generate``
    Build the six benchmark replicas and export them as TSV directories.
``repro-kgc audit``
    Run the paper's §4 redundancy / leakage / Cartesian audit on a dataset
    (a generated replica by name, or any TSV dataset directory on disk).
``repro-kgc ingest``
    Stream a (possibly gzipped) TSV dataset directory through the
    bounded-memory ingestion pipeline: single-pass audit, optional
    de-redundification, optional re-export — without ever materializing a
    full split as labelled Python objects.
``repro-kgc train``
    Train one embedding model on one dataset — sparse row-gradient engine,
    periodic validation with early stopping and best-checkpoint restore,
    checkpoint save/resume — and report raw + filtered link-prediction
    metrics.  Progress goes through the ``logging`` module (``--verbose`` /
    ``--quiet`` select the level).
``repro-kgc experiment``
    Regenerate one of the paper's tables or figures by its key (see
    ``repro.experiments.EXPERIMENT_INDEX``), or ``all`` of them, through one
    :class:`~repro.api.pipeline.Runner` over the flags' spec.

Per-knob flags are **generated from the knob schema**
(:mod:`repro.api.schema`): one knob definition yields the CLI flag, a
``REPRO_<SECTION>_<KNOB>`` environment override for its default, and the TOML
key of the spec file — so the three surfaces cannot drift apart (a regression
test asserts parser defaults equal schema defaults for every subcommand).

The module is also importable: every subcommand is a plain function taking an
``argparse.Namespace``, and :func:`main` accepts an argument list, which is
what the test-suite uses.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

from .api import schema
from .api.spec import (
    ExperimentSpec,
    SpecValidationError,
    check_knob_value,
    diff_specs,
    spec_template,
)
from .core import (
    StreamingPairIndexBuilder,
    analyse_leakage,
    analyse_redundancy,
    category_distribution,
    dataset_relation_categories,
    find_cartesian_relations,
    make_fb15k237_like,
    make_wn18rr_like,
    make_yago_dr_like,
    remove_redundant_relations,
    render_audit_summary,
    render_key_values,
    render_table,
)
from .eval import evaluate_model
from .experiments import EXPERIMENT_INDEX
from .kg import (
    Dataset,
    DatasetIOError,
    dataset_statistics,
    fb15k_like,
    ingest_dataset,
    load_dataset,
    save_dataset,
    wn18_like,
    yago3_like,
)
from .models import ALL_EMBEDDING_MODELS, TrainingRun, make_model

#: Names accepted by ``--dataset`` when not pointing at a directory.
GENERATED_DATASETS = (
    "fb15k",
    "fb15k-237",
    "wn18",
    "wn18rr",
    "yago3-10",
    "yago3-10-dr",
)

#: Generated flags per subcommand: ``{command: {dest: (section, knob)}}``.
#: The regression suite walks this to assert parser defaults == schema
#: defaults; :func:`_parsed_knob_values` walks it to map parsed namespaces
#: back onto spec sections, and :func:`main` to check every parsed value.
GENERATED_KNOB_FLAGS: Dict[str, Dict[str, Tuple[str, str]]] = {}

_ENV_TRUE = ("1", "true", "yes", "on")
_ENV_FALSE = ("0", "false", "no", "off")


def _env_override(section: schema.Section, knob: schema.Knob) -> Optional[Any]:
    """The knob's ``REPRO_*`` environment value parsed to its type, if set."""
    raw = os.environ.get(knob.env_var(section.name))
    if raw is None or raw.strip() == "":
        return None
    raw = raw.strip()
    try:
        if knob.type is bool:
            lowered = raw.lower()
            if lowered in _ENV_TRUE:
                value = True
            elif lowered in _ENV_FALSE:
                value = False
            else:
                raise ValueError(f"not a boolean: {raw!r}")
        else:
            value = knob.type(raw)
    except ValueError as error:
        raise SystemExit(
            f"invalid value for environment override {knob.env_var(section.name)}: {error}"
        )
    # The same range/choice checks a spec file goes through — an environment
    # override may not smuggle in a value the schema would reject.
    errors = check_knob_value(section.name, knob, value)
    if errors:
        raise SystemExit(
            f"invalid value for environment override {knob.env_var(section.name)}: "
            + "; ".join(error.message for error in errors)
        )
    return value


def _add_schema_flags(
    sub: argparse.ArgumentParser,
    command: str,
    section: schema.Section,
    knob_names: Optional[Sequence[str]] = None,
) -> None:
    """Generate one argparse flag per knob of ``section`` onto ``sub``.

    The flag's default comes from the schema, overridable through the knob's
    ``REPRO_<SECTION>_<KNOB>`` environment variable.  Boolean knobs become
    switches (inverted ones flip a ``True`` default, optional ones encode
    "absent = auto"); everything else is a typed value flag.
    """
    registry = GENERATED_KNOB_FLAGS.setdefault(command, {})
    for knob in section.knobs:
        if knob_names is not None and knob.name not in knob_names:
            continue
        env = _env_override(section, knob)
        help_text = f"{knob.help} [env: {knob.env_var(section.name)}]"
        if knob.type is bool:
            # store_true can only *set* the flag; the environment override
            # provides the default, which for tri-state optional knobs may be
            # an explicit False (e.g. REPRO_INGEST_GZIPPED=false forces
            # plain-text reads where flag absence means auto-detect).
            default = knob.parser_default() if env is None else (
                not env if knob.invert_flag else env
            )
            sub.add_argument(
                knob.cli_flag, action="store_true", default=default, help=help_text
            )
        else:
            default = knob.parser_default() if env is None else env
            sub.add_argument(
                knob.cli_flag,
                type=knob.type,
                default=default,
                choices=knob.choices,
                help=help_text + f" (default: {default})",
            )
        registry[knob.cli_dest] = (section.name, knob.name)
    # :func:`main` finds the chosen subcommand's flags in the registry by this key.
    sub.set_defaults(knob_command=command)


def _parsed_knob_values(args: argparse.Namespace, command: str) -> Dict[Tuple[str, str], Any]:
    """Parsed generated-flag values mapped back onto ``(section, knob)`` pairs."""
    values: Dict[Tuple[str, str], Any] = {}
    for dest, (section_name, knob_name) in GENERATED_KNOB_FLAGS.get(command, {}).items():
        knob = schema.section(section_name).knob(knob_name)
        values[(section_name, knob_name)] = knob.from_parser_value(getattr(args, dest))
    return values


def _exit_on_errors(errors: Sequence[Any]) -> None:
    """Exit listing every schema error, if there are any."""
    if errors:
        raise SystemExit(
            "invalid option value(s):\n" + "\n".join(f"  - {error}" for error in errors)
        )


def _check_flag_values(args: argparse.Namespace) -> None:
    """Exit unless every flag of the chosen subcommand passes its range checks.

    Generated flags get their knob's range and choice checks, as in a spec
    file; the hand-written ``--as-of`` gets the ``deltas.as_of`` knob's, and
    ``--progress-every`` must be at least 1.  Run once after parsing, before
    any dataset is built, so no surface accepts a value another refuses.
    """
    errors = []
    command = getattr(args, "knob_command", None)
    for (section_name, knob_name), value in _parsed_knob_values(args, command).items():
        knob = schema.section(section_name).knob(knob_name)
        errors += check_knob_value(section_name, knob, value)
    if hasattr(args, "as_of"):
        errors += check_knob_value("deltas", schema.DELTAS.knob("as_of"), args.as_of)
    if getattr(args, "progress_every", 1) < 1:
        errors.append(f"--progress-every: must be >= 1, got {args.progress_every}")
    _exit_on_errors(errors)


def _spec_from_args(args: argparse.Namespace, command: str) -> ExperimentSpec:
    """An :class:`ExperimentSpec` carrying the subcommand's parsed knob values.

    The parsed values go through the same schema validation a spec file does
    (ranges, cross-field rules), so every surface rejects the same values.
    """
    spec = ExperimentSpec()
    for (section_name, knob_name), value in _parsed_knob_values(args, command).items():
        setattr(getattr(spec, section_name), knob_name, value)
    _exit_on_errors(spec.validate())
    return spec


def _build_named_dataset(name: str, scale: str, seed: int) -> Dataset:
    lowered = name.lower()
    if lowered in ("fb15k", "fb15k-237"):
        dataset, _ = fb15k_like(scale, seed)
        return make_fb15k237_like(dataset) if lowered == "fb15k-237" else dataset
    if lowered in ("wn18", "wn18rr"):
        dataset = wn18_like(scale, seed + 3)
        return make_wn18rr_like(dataset) if lowered == "wn18rr" else dataset
    if lowered in ("yago3-10", "yago3-10-dr"):
        dataset = yago3_like(scale, seed + 7)
        return make_yago_dr_like(dataset) if lowered == "yago3-10-dr" else dataset
    raise SystemExit(
        f"unknown dataset {name!r}: expected a directory or one of {', '.join(GENERATED_DATASETS)}"
    )


def _resolve_dataset(spec: str, scale: str, seed: int) -> Dataset:
    path = Path(spec)
    if path.is_dir():
        return load_dataset(path)
    return _build_named_dataset(spec, scale, seed)


class _StderrLogHandler(logging.StreamHandler):
    """A stream handler bound to the *current* ``sys.stderr``.

    ``StreamHandler(sys.stderr)`` captures the stream object once, which goes
    stale when an embedding application (or a test harness) swaps
    ``sys.stderr``; resolving it per emit keeps progress output on whatever
    stderr is live at that moment.
    """

    @property
    def stream(self):
        return sys.stderr

    @stream.setter
    def stream(self, value):  # StreamHandler.__init__ assigns it; ignore.
        pass


def _configure_logging(verbose: bool, quiet: bool) -> None:
    """Map the CLI verbosity flags onto the ``repro`` logger level."""
    level = logging.WARNING if quiet else (logging.DEBUG if verbose else logging.INFO)
    logger = logging.getLogger("repro")
    # The logger gets its own stderr handler rather than logging.basicConfig:
    # basicConfig is silently a no-op once the root logger has any handler
    # (embedding applications, test harnesses), which would swallow progress.
    if not any(isinstance(handler, _StderrLogHandler) for handler in logger.handlers):
        handler = _StderrLogHandler()
        handler.setFormatter(logging.Formatter("%(message)s"))
        logger.addHandler(handler)
    logger.setLevel(level)


# ---------------------------------------------------------------------------- spec/run
def _load_spec_or_exit(path_text: str) -> ExperimentSpec:
    path = Path(path_text)
    try:
        return ExperimentSpec.load(path)
    except FileNotFoundError:
        raise SystemExit(f"spec file not found: {path}")
    except SpecValidationError as error:
        raise SystemExit(f"{path}: {error}")
    except ValueError as error:  # unknown suffix
        raise SystemExit(str(error))


def command_run(args: argparse.Namespace) -> int:
    """Execute a spec file through the staged pipeline runner."""
    from .api.pipeline import Runner

    _configure_logging(args.verbose, args.quiet)
    spec = _load_spec_or_exit(args.spec)
    # The generated [telemetry] and [deltas] flags overlay the loaded spec.
    # Switches and optional values can only *set* from the CLI — an absent
    # flag (False / None) leaves the spec's own declaration alone.
    for (section_name, knob_name), value in _parsed_knob_values(args, "run").items():
        if value is None or value is False:
            continue
        setattr(getattr(spec, section_name), knob_name, value)
    if spec.telemetry.trace_path or spec.telemetry.profile:
        spec.telemetry.enabled = True
    cache_dir = Path(args.cache_dir) if args.cache_dir else None
    runner = Runner(spec, cache_dir=cache_dir, cache_max_bytes=args.cache_max_bytes)
    stages = None
    if args.stages:
        stages = [token.strip() for token in args.stages.split(",") if token.strip()]
        unknown = [stage for stage in stages if stage not in schema.STAGES]
        if unknown:
            # Reject bad --stages input up front; errors raised *during* stage
            # execution must keep their full traceback.
            raise SystemExit(
                f"unknown stage(s) {', '.join(unknown)}; "
                f"expected a subset of: {', '.join(schema.STAGES)}"
            )
    report = runner.run(stages=stages)
    print(f"spec {report.spec_name!r} (fingerprint {report.fingerprint})")
    cache_stats = getattr(runner.store, "stats", None)
    if cache_dir is not None and cache_stats is not None:
        print(
            f"cache {cache_dir}: {cache_stats['hit']} hit(s), "
            f"{cache_stats['miss']} miss(es), {cache_stats['write']} write(s), "
            f"{cache_stats['evict']} evict(s)"
        )
    print(render_table(
        [
            {
                "stage": stage.name,
                "seconds": round(stage.seconds, 3),
                "artifacts": len(stage.produced),
            }
            for stage in report.stages
        ],
        title="Stages",
    ))
    if report.telemetry and "span_count" in report.telemetry:
        metrics = report.telemetry.get("metrics", {})
        series = sum(len(group) for group in metrics.values())
        print(
            f"telemetry: {report.telemetry.get('span_count', 0)} spans, "
            f"{series} metric series"
        )
        if report.telemetry.get("trace_path"):
            print(f"trace written to {report.telemetry['trace_path']}")
    if report.text:
        print()
        print(report.text)
    return 0


def command_sweep(args: argparse.Namespace) -> int:
    """Expand a ``[sweep]`` grid and run every cell through one shared cache."""
    from .api.artifacts import default_cache_dir
    from .api.sweep import load_sweep, run_sweep

    _configure_logging(args.verbose, args.quiet)
    try:
        base, axes = load_sweep(Path(args.spec))
    except FileNotFoundError:
        raise SystemExit(f"sweep file not found: {args.spec}")
    except (SpecValidationError, RuntimeError) as error:
        raise SystemExit(f"{args.spec}: {error}")
    except ValueError as error:  # unknown suffix
        raise SystemExit(str(error))
    stages = None
    if args.stages:
        stages = [token.strip() for token in args.stages.split(",") if token.strip()]
        unknown = [stage for stage in stages if stage not in schema.STAGES]
        if unknown:
            raise SystemExit(
                f"unknown stage(s) {', '.join(unknown)}; "
                f"expected a subset of: {', '.join(schema.STAGES)}"
            )
    # Caching is the default for sweeps (unlike `run`): grid cells share
    # artifacts across repeats, edits and concurrent processes through the
    # content-addressed store; --no-cache opts back into in-memory stores.
    cache_dir = None if args.no_cache else Path(args.cache_dir or default_cache_dir())
    logger = logging.getLogger("repro.sweep")

    def progress(index: int, total: int, cell) -> None:
        logger.info("[sweep %d/%d] %s", index + 1, total, cell.label)

    result = run_sweep(
        base,
        axes,
        cache_dir=cache_dir,
        stages=stages,
        progress=progress,
        cache_max_bytes=args.cache_max_bytes,
    )
    grid = " x ".join(
        f"{section}.{knob}({len(values)})" for section, knob, values in axes
    ) or "base spec only"
    print(
        f"sweep {base.name!r}: {len(result.cells)} cell(s) [{grid}] "
        f"in {result.seconds:.1f}s"
    )
    if cache_dir is not None:
        totals = {"hit": 0, "miss": 0, "write": 0, "evict": 0}
        for report in result.reports:
            for event, count in (report.telemetry or {}).get("cache", {}).items():
                totals[event] = totals.get(event, 0) + count
        print(
            f"cache {cache_dir}: {totals['hit']} hit(s), {totals['miss']} miss(es), "
            f"{totals['write']} write(s), {totals['evict']} evict(s)"
        )
    print()
    print(result.text)
    return 0


def command_spec_init(args: argparse.Namespace) -> int:
    """Write (or print) a fully commented spec template."""
    template = spec_template()
    if args.output == "-":
        print(template, end="")
    else:
        path = Path(args.output)
        if path.exists() and not args.force:
            raise SystemExit(f"{path} exists; pass --force to overwrite")
        path.write_text(template)
        print(f"spec template written to {path}")
    return 0


def command_spec_validate(args: argparse.Namespace) -> int:
    """Validate spec files against the knob schema; exit 1 on any problem."""
    failures = 0
    for path_text in args.paths:
        path = Path(path_text)
        try:
            spec = ExperimentSpec.load(path)
        except FileNotFoundError:
            print(f"{path}: spec file not found")
            failures += 1
            continue
        except ValueError as error:  # SpecValidationError or unknown suffix
            print(f"{path}: {error}")
            failures += 1
            continue
        print(f"{path}: OK ({spec.name!r}, fingerprint {spec.fingerprint()})")
    return 1 if failures else 0


def command_spec_diff(args: argparse.Namespace) -> int:
    """Compare two specs (or one spec against the defaults); exit 1 if they differ."""
    left = _load_spec_or_exit(args.left)
    right = _load_spec_or_exit(args.right) if args.right else ExperimentSpec()
    right_label = args.right or "<defaults>"
    differences = diff_specs(left, right)
    if not differences:
        print(f"{args.left} and {right_label} declare identical experiments")
        return 0
    print(f"{args.left} vs {right_label}:")
    for path, left_value, right_value in differences:
        print(f"  {path}: {left_value!r} -> {right_value!r}")
    return 1


# ---------------------------------------------------------------------------- deltas
def _delta_maintainer(args: argparse.Namespace):
    """The base dataset advanced through ``--log`` (up to ``--as-of``)."""
    from .kg.deltas import DeltaError, LiveDatasetMaintainer

    dataset = _resolve_dataset(args.dataset, args.scale, args.seed)
    maintainer = LiveDatasetMaintainer.from_dataset(dataset)
    try:
        reports = maintainer.apply_log(args.log, as_of=args.as_of)
    except (DeltaError, OSError) as error:
        raise SystemExit(f"{args.log}: {error}")
    return maintainer, reports


def command_delta_apply(args: argparse.Namespace) -> int:
    """Apply a delta log to a dataset; report (and optionally export) the state."""
    _configure_logging(args.verbose, args.quiet)
    maintainer, reports = _delta_maintainer(args)
    if reports:
        print(render_table(
            [
                {
                    "seq": report.seq,
                    "added": sum(report.added.values()),
                    "removed": sum(report.removed.values()),
                    "noops": report.noop_adds + report.noop_removes,
                }
                for report in reports
            ],
            title=f"Applied batches from {args.log}",
        ))
    else:
        print(f"{args.log}: no batches to apply")
    sizes = maintainer.split_sizes()
    print(render_key_values(
        {
            "dataset": maintainer.name,
            "last applied seq": maintainer.last_seq,
            "train/valid/test": f"{sizes['train']}/{sizes['valid']}/{sizes['test']}",
            "state fingerprint": maintainer.state_fingerprint(),
        },
        title="Resulting state",
    ))
    if args.output:
        directory = maintainer.export(args.output)
        print(f"state exported to {directory}")
    return 0


def command_delta_log(args: argparse.Namespace) -> int:
    """Verify a delta log's integrity and print its summary."""
    from .kg.deltas import DeltaError, DeltaLog

    try:
        summary = DeltaLog(args.log).summary()
    except (DeltaError, OSError) as error:
        raise SystemExit(f"{args.log}: {error}")
    per_split = summary["per_split"]
    print(render_key_values(
        {
            "batches": summary["batches"],
            "last seq": summary["last_seq"],
            "adds": summary["adds"],
            "removes": summary["removes"],
            "per split": ", ".join(
                f"{split} +{counts['adds']}/-{counts['removes']}"
                for split, counts in per_split.items()
            ),
            "chain fingerprint": summary["chain_fingerprint"],
        },
        title=f"Delta log {summary['path']}",
    ))
    return 0


def command_delta_audit(args: argparse.Namespace) -> int:
    """Audit the delta-maintained state; optionally verify against re-ingest."""
    import json as json_module
    import tempfile

    _configure_logging(args.verbose, args.quiet)
    maintainer, _ = _delta_maintainer(args)
    report = maintainer.audit_report(args.theta, args.theta)
    redundancy = report["redundancy"]
    leakage = report["leakage"]
    sizes = maintainer.split_sizes()
    print(render_key_values(
        {
            "dataset": maintainer.name,
            "last applied seq": report["last_seq"],
            "state fingerprint": report["state"],
            "train/valid/test": f"{sizes['train']}/{sizes['valid']}/{sizes['test']}",
            "reverse pairs": len(redundancy["reverse_pairs"]),
            "duplicate pairs": len(redundancy["duplicate_pairs"]),
            "reverse-duplicate pairs": len(redundancy["reverse_duplicate_pairs"]),
            "symmetric relations": len(redundancy["symmetric_relations"]),
            "training reverse triples": leakage["training_reverse_triples"],
        },
        title=f"Delta audit of {maintainer.name}",
    ))
    if args.json:
        Path(args.json).write_text(json_module.dumps(report, indent=2, sort_keys=True))
        print(f"full audit report written to {args.json}")
    if args.check:
        # The acceptance bar of the subsystem, on demand: the incrementally
        # maintained audit must match a full re-ingest of the final state
        # bit for bit (modulo the sequence counter, which re-ingest resets).
        with tempfile.TemporaryDirectory(prefix="repro-delta-check-") as scratch:
            maintainer.export(scratch)
            reingested = ingest_dataset(scratch, name=maintainer.name).dataset
        from .kg.deltas import LiveDatasetMaintainer

        reference = LiveDatasetMaintainer.from_dataset(reingested).audit_report(
            args.theta, args.theta
        )
        left = {key: value for key, value in report.items() if key != "last_seq"}
        right = {key: value for key, value in reference.items() if key != "last_seq"}
        if left == right:
            print("check: maintained state is bit-identical to a full re-ingest")
        else:
            mismatched = sorted(key for key in left if left[key] != right.get(key))
            print(f"check FAILED: mismatch in {', '.join(mismatched)}")
            return 1
    return 0


# ---------------------------------------------------------------------------- legacy subcommands
def command_generate(args: argparse.Namespace) -> int:
    """Build the six replicas and write them under ``args.output``."""
    output = Path(args.output)
    fb15k, _ = fb15k_like(args.scale, args.seed)
    wn18 = wn18_like(args.scale, args.seed + 3)
    yago = yago3_like(args.scale, args.seed + 7)
    datasets = [
        fb15k,
        make_fb15k237_like(fb15k),
        wn18,
        make_wn18rr_like(wn18),
        yago,
        make_yago_dr_like(yago),
    ]
    rows = []
    for dataset in datasets:
        save_dataset(dataset, output / dataset.name)
        rows.append(dataset_statistics(dataset).as_row())
    print(render_table(rows, title=f"Datasets written under {output}"))
    return 0


def command_audit(args: argparse.Namespace) -> int:
    """Run the §4 redundancy audit on one dataset."""
    dataset = _resolve_dataset(args.dataset, args.scale, args.seed)
    all_triples = dataset.all_triples()
    print(render_table([dataset_statistics(dataset).as_row()], title=f"Audit of {dataset.name}"))

    redundancy = analyse_redundancy(all_triples, args.theta, args.theta)
    leakage = analyse_leakage(dataset, redundancy)
    cartesian = find_cartesian_relations(all_triples, density_threshold=args.theta)
    print()
    print(render_audit_summary(
        redundancy, leakage, cartesian, title=f"Redundancy summary (theta = {args.theta})"
    ))
    print()
    breakdown = [{"case": case, "share %": share} for case, share in leakage.bitmap_breakdown().items()]
    print(render_table(breakdown, title="Test-set redundancy bitmap (Figure 4 style)"))
    print()
    print(render_key_values(
        category_distribution(dataset_relation_categories(dataset)),
        title="Test-relation cardinality categories",
    ))
    return 0


def command_ingest(args: argparse.Namespace) -> int:
    """Stream-ingest a TSV directory: audit, optionally de-redundify and export."""
    _configure_logging(args.verbose, args.quiet)
    directory = Path(args.input)
    pair_index = StreamingPairIndexBuilder()
    # Progress goes through the logging module (not a raw stderr print), so
    # --quiet silences it exactly like every other subcommand's progress.
    logger = logging.getLogger("repro.ingest")

    def report_progress(progress) -> None:
        logger.info(
            "[ingest] %s: %d triples in %d chunks (resident %d, peak %d)",
            progress.split,
            progress.triples,
            progress.chunks,
            progress.resident_triples,
            progress.peak_resident_triples,
        )

    try:
        report = ingest_dataset(
            directory,
            name=args.name,
            chunk_size=args.chunk_size,
            gzipped=args.gzip,
            observers=(pair_index.observe,),
            progress=report_progress if args.progress else None,
            progress_every_chunks=args.progress_every,
        )
    except DatasetIOError as error:
        raise SystemExit(f"ingest failed: {error}")
    dataset = report.dataset

    print(render_table(
        [report.statistics.as_row()],
        title=f"Ingested {dataset.name} (streaming, chunk_size={report.chunk_size})",
    ))
    print()
    print(render_key_values(
        {
            "parsed triples": report.total_triples,
            "chunks": report.total_chunks,
            "peak resident labelled triples": report.peak_resident_triples,
            "residency bound (one chunk)": report.chunk_size,
            "ingest seconds": round(report.seconds, 3),
            "triples / second": round(report.triples_per_second, 1),
        },
        title="Pipeline",
    ))

    redundancy = pair_index.report(args.theta, args.theta)
    leakage = analyse_leakage(dataset, redundancy)
    cartesian = find_cartesian_relations(
        pair_sets=pair_index.pair_sets, density_threshold=args.theta
    )
    print()
    print(render_audit_summary(
        redundancy,
        leakage,
        cartesian,
        title=f"Redundancy summary (theta = {args.theta}, streamed index)",
    ))

    if args.deredundify:
        dataset = remove_redundant_relations(
            dataset,
            theta_1=args.theta,
            theta_2=args.theta,
            report=redundancy,
        )
        print()
        print(render_table(
            [dataset_statistics(dataset).as_row()],
            title=f"De-redundified to {dataset.name}",
        ))

    if args.output:
        save_dataset(dataset, Path(args.output))
        print(f"\ndataset written to {args.output}")
    return 0


def command_train(args: argparse.Namespace) -> int:
    """Train one model on one dataset and print its evaluation row."""
    _configure_logging(args.verbose, args.quiet)
    spec = _spec_from_args(args, "train")
    dataset = _resolve_dataset(args.dataset, spec.dataset.scale, spec.dataset.seed)
    model = make_model(
        args.model,
        dataset.num_entities,
        dataset.num_relations,
        spec.model_config(args.model),
    )
    training = spec.training_config()
    training.verbose = not args.quiet
    run = TrainingRun(model, dataset, training)
    if args.resume:
        run.restore(args.resume)
    result = run.train()
    summary = (
        f"trained {result.model_name} on {result.dataset_name}: "
        f"{result.epochs_run} epochs, final loss {result.final_loss:.4f}, {result.seconds:.1f}s"
    )
    if result.validation_mrrs:
        summary += (
            f", best validation MRR {result.best_validation_mrr:.4f} "
            f"at epoch {result.best_epoch}"
        )
    if result.stopped_early:
        summary += " (stopped early)"
    if result.restored_best:
        summary += f" (restored best epoch {result.best_epoch})"
    print(summary)
    evaluation = evaluate_model(
        model, dataset, model_name=args.model, options=spec.eval_options()
    )
    print(render_table([evaluation.as_row()], title="Link prediction"))
    if args.export_artifact:
        from .serve import ModelArtifact

        artifact = ModelArtifact.save(model, args.export_artifact, overwrite=True)
        print(f"model artifact written to {args.export_artifact} ({artifact.fingerprint})")
    return 0


def command_serve(args: argparse.Namespace) -> int:
    """Serve link-prediction queries from a saved model artifact."""
    _configure_logging(args.verbose, args.quiet)
    from .serve import ModelArtifact, QueryEngine
    from .serve.server import serve_forever

    if args.telemetry:
        # Enabled before the engine exists: every request, flush and cache
        # operation lands in the registry the `stats` op snapshots.
        from .telemetry import configure as configure_telemetry

        configure_telemetry(enabled=True)

    try:
        artifact = ModelArtifact.load(args.artifact)
    except Exception as error:
        raise SystemExit(f"cannot load artifact {args.artifact}: {error}")
    scorer = artifact.instantiate()
    # Cached score rows are keyed to the artifact fingerprint (and, for a
    # delta-maintained dataset, its snapshot state): swapping either can
    # never serve scores computed against the old one.
    settings = dict(
        max_batch=args.max_batch, cache_entries=args.cache_entries,
        version=artifact.fingerprint,
    )
    if args.dataset:
        dataset = _resolve_dataset(args.dataset, args.scale, args.seed)
        try:
            engine = QueryEngine.for_dataset(scorer, dataset, **settings)
        except ValueError as error:
            raise SystemExit(f"cannot serve {args.artifact} with {dataset.name}: {error}")
        completions = len(engine.known.tails.values) + len(engine.known.heads.values)
        print(f"filtered queries exclude {completions} known completions from {dataset.name}")
    else:
        engine = QueryEngine(scorer, **settings)

    def announce(address) -> None:
        print(
            f"serving {artifact.model_name} ({artifact.num_entities} entities, "
            f"{artifact.num_relations} relations) on {address[0]}:{address[1]}",
            flush=True,
        )

    serve_forever(engine, args.host, args.port, ready=announce)
    return 0


#: Seconds ``repro-kgc query`` waits to connect, and then for each read of a reply.
QUERY_TIMEOUT_SECONDS = 30.0


def command_query(args: argparse.Namespace) -> int:
    """Ask a running ``repro-kgc serve`` process for top-k completions."""
    from .api.serving import Query, QueryBatch, WireError
    from .serve.server import query_server, request_over_socket

    query = Query(
        side=args.side,
        anchor=args.anchor,
        relation=args.relation,
        k=args.top_k,
        filtered=args.filtered,
        with_ranks=not args.no_ranks,
    )
    address = f"{args.host}:{args.port}"
    try:
        response = query_server(
            args.host, args.port, QueryBatch.of(query), timeout=QUERY_TIMEOUT_SECONDS
        )
    except WireError as error:
        raise SystemExit(f"server rejected the query: {error}")
    except OSError as error:
        # Refused, reset, or no reply within the timeout.
        raise SystemExit(f"cannot reach server at {address}: {error}")
    except ValueError as error:
        raise SystemExit(f"server at {address} did not answer in JSON: {error}")
    if args.json:
        import json as json_module

        envelope = response.to_wire()
        # The machine-readable surface also carries the server's counters and
        # (when the server runs with --telemetry) its metrics snapshot.
        try:
            stats_reply = request_over_socket(
                args.host, args.port, {"op": "stats"}, timeout=QUERY_TIMEOUT_SECONDS
            )
        except (ConnectionError, OSError, ValueError):
            stats_reply = {}
        if "stats" in stats_reply:
            envelope["stats"] = stats_reply["stats"]
        if "telemetry" in stats_reply:
            envelope["telemetry"] = stats_reply["telemetry"]
        print(json_module.dumps(envelope, indent=2))
        return 0
    for result in response.results:
        rows = []
        for position, entity in enumerate(result.entities):
            row: Dict[str, Any] = {
                "entity": entity,
                "score": result.scores[position],
            }
            if result.ranks:
                row["rank"] = result.ranks[position]
            rows.append(row)
        triple = (
            f"({result.anchor}, {result.relation}, ?)"
            if result.side == "tail"
            else f"(?, {result.relation}, {result.anchor})"
        )
        suffix = " [filtered]" if result.filtered else ""
        print(render_table(rows, title=f"top-{len(rows)} for {triple}{suffix}"))
    return 0


def command_experiment(args: argparse.Namespace) -> int:
    """Regenerate one (or all) of the paper's tables / figures."""
    keys = list(EXPERIMENT_INDEX) if args.name == "all" else [args.name]
    unknown = [key for key in keys if key not in EXPERIMENT_INDEX]
    if unknown:
        raise SystemExit(
            f"unknown experiment {unknown[0]!r}; available: {', '.join(EXPERIMENT_INDEX)}, all"
        )
    from .api.pipeline import Runner

    runner = Runner(_spec_from_args(args, "experiment"))
    for key in keys:
        result = EXPERIMENT_INDEX[key](runner)
        print(result["text"])
        print()
    return 0


# ---------------------------------------------------------------------------- parser
def build_parser() -> argparse.ArgumentParser:
    # Generated-flag registries are rebuilt on every call (environment
    # overrides are read at build time).
    GENERATED_KNOB_FLAGS.clear()
    parser = argparse.ArgumentParser(
        prog="repro-kgc",
        description="Realistic re-evaluation of knowledge graph completion methods (SIGMOD 2020 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser, command: str) -> None:
        _add_schema_flags(sub, command, schema.DATASET, ("scale", "seed"))

    def add_verbosity(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--quiet", action="store_true", help="only warnings and errors")
        sub.add_argument(
            "--verbose",
            action="store_true",
            help="debug logging (overrides the default INFO level)",
        )

    run = subparsers.add_parser(
        "run", help="execute a declarative experiment spec through the staged pipeline"
    )
    run.add_argument("spec", help="experiment spec file (.toml or .json)")
    run.add_argument(
        "--stages",
        default=None,
        help=f"comma-separated stage subset (default: the spec's; from: {', '.join(schema.STAGES)})",
    )
    run.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist artifacts in this content-addressed cache directory; "
        "a repeated run reuses them bit-identically (default: no persistence)",
    )
    run.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="bound the whole cache directory: least-recently-used spec "
        "partitions are evicted after each write (never the one in use)",
    )
    _add_schema_flags(run, "run", schema.DELTAS)
    _add_schema_flags(run, "run", schema.TELEMETRY)
    add_verbosity(run)
    run.set_defaults(handler=command_run)

    sweep = subparsers.add_parser(
        "sweep",
        help="expand a spec's [sweep] grid and run every cell through one shared cache",
    )
    sweep.add_argument(
        "spec", help="experiment spec file with an optional [sweep] table (.toml or .json)"
    )
    sweep.add_argument(
        "--stages",
        default=None,
        help=f"comma-separated stage subset (default: the spec's; from: {', '.join(schema.STAGES)})",
    )
    sweep.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="shared artifact cache directory (default: ~/.cache/repro-kgc or $REPRO_CACHE_DIR)",
    )
    sweep.add_argument(
        "--cache-max-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="bound the shared cache directory with LRU partition eviction",
    )
    sweep.add_argument(
        "--no-cache",
        action="store_true",
        help="run every cell on a private in-memory store (no persistence)",
    )
    add_verbosity(sweep)
    sweep.set_defaults(handler=command_sweep)

    spec = subparsers.add_parser("spec", help="create, validate and diff experiment specs")
    spec_sub = spec.add_subparsers(dest="spec_command", required=True)
    spec_init = spec_sub.add_parser("init", help="write a fully commented spec template")
    spec_init.add_argument("--output", default="-", help="target file ('-' = stdout)")
    spec_init.add_argument("--force", action="store_true", help="overwrite an existing file")
    spec_init.set_defaults(handler=command_spec_init)
    spec_validate = spec_sub.add_parser("validate", help="validate spec files against the schema")
    spec_validate.add_argument("paths", nargs="+", help="spec files (.toml or .json)")
    spec_validate.set_defaults(handler=command_spec_validate)
    spec_diff = spec_sub.add_parser("diff", help="compare two specs key by key")
    spec_diff.add_argument("left", help="spec file")
    spec_diff.add_argument("right", nargs="?", default=None, help="spec file (default: the schema defaults)")
    spec_diff.set_defaults(handler=command_spec_diff)

    delta = subparsers.add_parser(
        "delta", help="apply, inspect and audit incremental dataset delta logs"
    )
    delta_sub = delta.add_subparsers(dest="delta_command", required=True)

    def add_delta_common(sub: argparse.ArgumentParser, command: str) -> None:
        add_common(sub, command)
        sub.add_argument("--dataset", default="fb15k", help="dataset name or TSV directory")
        sub.add_argument(
            "--log", required=True, help="JSON-lines delta log (see docs/deltas.md)"
        )
        sub.add_argument(
            "--as-of",
            type=int,
            default=None,
            metavar="SEQ",
            help="stop after this batch sequence number (default: the whole log)",
        )
        add_verbosity(sub)

    delta_apply = delta_sub.add_parser(
        "apply", help="apply a delta log to a dataset and export the resulting state"
    )
    add_delta_common(delta_apply, "delta-apply")
    delta_apply.add_argument(
        "--output", default=None, metavar="DIR",
        help="export the resulting state as a TSV dataset directory",
    )
    delta_apply.set_defaults(handler=command_delta_apply)

    delta_log = delta_sub.add_parser("log", help="verify and summarize a delta log")
    delta_log.add_argument("log", help="JSON-lines delta log")
    delta_log.set_defaults(handler=command_delta_log)

    delta_audit = delta_sub.add_parser(
        "audit",
        help="audit the delta-maintained state (optionally verify it against a full re-ingest)",
    )
    add_delta_common(delta_audit, "delta-audit")
    _add_schema_flags(delta_audit, "delta-audit", schema.AUDIT, ("theta",))
    delta_audit.add_argument(
        "--check",
        action="store_true",
        help="re-ingest the resulting state from scratch and require the "
        "maintained audit to match bit for bit",
    )
    delta_audit.add_argument(
        "--json", default=None, metavar="FILE",
        help="write the full label-space audit report as JSON",
    )
    delta_audit.set_defaults(handler=command_delta_audit)

    generate = subparsers.add_parser("generate", help="build and export the six benchmark replicas")
    add_common(generate, "generate")
    generate.add_argument("--output", default="exported_datasets", help="output directory")
    generate.set_defaults(handler=command_generate)

    audit = subparsers.add_parser("audit", help="run the paper's redundancy audit on a dataset")
    add_common(audit, "audit")
    audit.add_argument("--dataset", default="fb15k", help="dataset name or TSV directory")
    _add_schema_flags(audit, "audit", schema.AUDIT, ("theta",))
    audit.set_defaults(handler=command_audit)

    ingest = subparsers.add_parser(
        "ingest",
        help="stream-ingest a TSV dataset directory under a bounded memory budget",
    )
    ingest.add_argument("--input", required=True, help="TSV dataset directory (train/valid/test)")
    ingest.add_argument("--name", default=None, help="dataset name override")
    _add_schema_flags(ingest, "ingest", schema.INGEST)
    _add_schema_flags(ingest, "ingest", schema.AUDIT, ("theta",))
    ingest.add_argument(
        "--deredundify",
        action="store_true",
        help="apply the generic de-redundancy transform using the streamed audit",
    )
    ingest.add_argument("--output", default=None, help="re-export the (de-redundified) dataset here")
    ingest.add_argument(
        "--progress",
        action="store_true",
        help="report pipeline progress through the 'repro.ingest' logger",
    )
    ingest.add_argument(
        "--progress-every",
        type=int,
        default=50,
        help="chunks between progress reports",
    )
    add_verbosity(ingest)
    ingest.set_defaults(handler=command_ingest)

    train = subparsers.add_parser("train", help="train and evaluate one embedding model")
    add_common(train, "train")
    train.add_argument("--dataset", default="fb15k", help="dataset name or TSV directory")
    train.add_argument("--model", default="TransE", choices=ALL_EMBEDDING_MODELS)
    _add_schema_flags(train, "train", schema.MODEL)
    _add_schema_flags(train, "train", schema.TRAINING)
    _add_schema_flags(train, "train", schema.EVALUATION)
    train.add_argument(
        "--resume",
        default=None,
        help="checkpoint .npz to restore before training (same model/dataset/config)",
    )
    train.add_argument(
        "--export-artifact",
        default=None,
        metavar="DIR",
        help="save the trained model as a memory-mapped serving artifact",
    )
    add_verbosity(train)
    train.set_defaults(handler=command_train)

    serve = subparsers.add_parser(
        "serve", help="serve link-prediction queries from a saved model artifact"
    )
    serve.add_argument(
        "--artifact",
        required=True,
        help="model artifact directory (written by `train --export-artifact`)",
    )
    serve.add_argument(
        "--dataset",
        default=None,
        help="dataset name or TSV directory supplying the filtered-query index",
    )
    add_common(serve, "serve")
    _add_schema_flags(
        serve, "serve", schema.SERVING,
        ("host", "port", "max_batch", "cache_entries"),
    )
    _add_schema_flags(serve, "serve", schema.TELEMETRY, ("enabled",))
    add_verbosity(serve)
    serve.set_defaults(handler=command_serve)

    query = subparsers.add_parser(
        "query", help="ask a running serve process for top-k completions"
    )
    query.add_argument(
        "--side", choices=("tail", "head"), default="tail",
        help="predict tails of (anchor, relation, ?) or heads of (?, relation, anchor)",
    )
    query.add_argument("--anchor", type=int, required=True, help="anchor entity id")
    query.add_argument("--relation", type=int, required=True, help="relation id")
    query.add_argument(
        "--filtered", action="store_true",
        help="exclude the server's known completions (predict new links)",
    )
    query.add_argument(
        "--no-ranks", action="store_true", help="skip exact mean-tie rank annotation"
    )
    query.add_argument(
        "--json", action="store_true", help="print the raw response envelope"
    )
    _add_schema_flags(query, "query", schema.SERVING, ("host", "port", "top_k"))
    query.set_defaults(handler=command_query)

    experiment = subparsers.add_parser("experiment", help="regenerate a paper table/figure")
    add_common(experiment, "experiment")
    experiment.add_argument("name", help=f"experiment key ({', '.join(EXPERIMENT_INDEX)}) or 'all'")
    _add_schema_flags(experiment, "experiment", schema.MODEL)
    _add_schema_flags(experiment, "experiment", schema.TRAINING)
    _add_schema_flags(experiment, "experiment", schema.EVALUATION)
    experiment.set_defaults(handler=command_experiment)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_flag_values(args)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised through the console script
    sys.exit(main())
