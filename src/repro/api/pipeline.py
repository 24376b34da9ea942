"""Named pipeline stages and the :class:`Runner` that executes a spec.

Two pieces:

* **builders** (``ensure_dataset``, ``ensure_redundancy``, ``ensure_scorer``,
  ``ensure_evaluation``, ...): pure build-on-miss functions over an explicit
  :class:`~repro.api.artifacts.ArtifactStore`.  Each takes the
  :class:`ExperimentSpec` and resolves the (model, dataset) pair's overrides
  inside its build closure; datasets are always built from the global
  sections.  The paper drivers in :mod:`repro.experiments` call the same
  builders with ``runner.store`` and ``runner.spec``.
* **stages**: the named, composable phases of an experiment —
  ``ingest -> audit -> deredundify -> train -> evaluate -> report`` — executed
  in canonical order by a :class:`Runner` over one store.

Stages are *materialization points*, not hard dependencies: the builders pull
missing prerequisites on demand, so running only ``evaluate`` still trains
what it needs.  Listing earlier stages makes the work (and its timing)
explicit in the :class:`RunReport`.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..telemetry import configure as configure_telemetry
from ..telemetry import get_telemetry, profile_block, write_trace_jsonl
from . import schema
from .artifacts import ArtifactStore, DiskArtifactStore, artifact_key_string
from .spec import ExperimentSpec, SpecValidationError

logger = logging.getLogger("repro.pipeline")


# --------------------------------------------------------------------------- builders
def ensure_dataset(store: ArtifactStore, spec: ExperimentSpec, name: str):
    """Build (or fetch) one of the six benchmark replicas by key.

    Replica pairs are built together (the de-redundant variant derives from
    its original), and the FB15k build also deposits the simulated Freebase
    snapshot under ``("snapshot",)``.  Construction reads the spec's global
    sections: overrides patch analyses and models, never a replica.
    """
    key = ("dataset", name)
    if key not in store:
        _build_replicas(store, spec, name, key)
    return store[key]


def _build_replicas(store: ArtifactStore, spec: ExperimentSpec, name: str, key) -> None:
    """Build and store the replica pair of ``name`` unless ``key`` is there by then."""
    from ..core.deredundancy import make_fb15k237_like, make_wn18rr_like, make_yago_dr_like
    from ..kg.freebase import fb15k_like
    from ..kg.wordnet import wn18_like
    from ..kg.yago import yago3_like

    # Concurrent runs queue behind one lock per replica pair, because the
    # builder persists both members (per-member locks let two runs deadlock);
    # the losers find the winner's replicas on the re-probe instead of rebuilding.
    original = {schema.FB15K237: schema.FB15K, schema.WN18RR: schema.WN18,
                schema.YAGO_DR: schema.YAGO}.get(name, name)
    with store.lock(("dataset", original)):
        if key in store:
            return
        scale, seed = spec.dataset.scale, spec.dataset.seed
        if name in (schema.FB15K, schema.FB15K237):
            fb, snapshot = fb15k_like(scale, seed)
            store.put(("snapshot",), snapshot)
            store.put(("dataset", schema.FB15K), fb)
            store.put(("dataset", schema.FB15K237), make_fb15k237_like(fb))
        elif name in (schema.WN18, schema.WN18RR):
            wn = wn18_like(scale, seed + 3)
            store.put(("dataset", schema.WN18), wn)
            store.put(("dataset", schema.WN18RR), make_wn18rr_like(wn))
        elif name in (schema.YAGO, schema.YAGO_DR):
            yago = yago3_like(scale, seed + 7)
            theta = spec.audit.yago_theta
            store.put(("dataset", schema.YAGO), yago)
            store.put(
                ("dataset", schema.YAGO_DR), make_yago_dr_like(yago, theta_1=theta, theta_2=theta)
            )
        else:
            raise KeyError(
                f"unknown dataset key {name!r}; expected one of {schema.ALL_DATASETS} "
                "or a previously ingested dataset name"
            )


def ensure_snapshot(store: ArtifactStore, spec: ExperimentSpec):
    """The simulated Freebase snapshot behind the FB15k-like benchmark."""
    key = ("snapshot",)
    if key not in store:
        # Only the FB15k pair's build makes the snapshot, so it runs again
        # when the snapshot alone is missing (e.g. a corrupt cache entry).
        _build_replicas(store, spec, schema.FB15K, key)
    return store[key]


def register_dataset(store: ArtifactStore, dataset) -> None:
    """Install ``dataset`` under its name, dropping stale derived artifacts."""
    store.drop_dataset(dataset.name)
    store.put(("dataset", dataset.name), dataset)


def ingest_dataset_into_store(
    store: ArtifactStore, spec: ExperimentSpec, directory, name: Optional[str] = None
):
    """Stream-ingest a TSV directory through the bounded-memory pipeline.

    The ``ingest`` section sets the chunk budget and gzip detection (see
    :func:`repro.kg.streaming.ingest_dataset`).  Re-ingesting a name drops
    every artifact derived from the old data.  The report is cached without
    its dataset, which ``("dataset", name)`` already holds.
    """
    from ..kg.streaming import ingest_dataset

    report = ingest_dataset(
        directory,
        name=name,
        chunk_size=spec.ingest.chunk_size,
        gzipped=spec.ingest.gzipped,
    )
    register_dataset(store, report.dataset)
    store.put(("ingest_report", report.dataset.name), replace(report, dataset=None))
    return report.dataset


def apply_spec_deltas(store: ArtifactStore, spec: ExperimentSpec, base_name: str):
    """Advance dataset ``base_name`` through the pinned prefix of the spec's delta log.

    The applied state is cached as a versioned snapshot under
    ``("dataset_snapshot", base_name, "<seq>-<chain>")``, where ``chain``
    fingerprints the applied log prefix — every historical state a spec can
    pin with ``deltas.as_of`` reproduces from cache, and a rewritten log can
    never serve a stale snapshot (its chain, and therefore the key, differs).

    Building a snapshot is incremental: when the live dataset already sits at
    a verified earlier position of the same chain (the log merely grew), only
    the new suffix is applied; otherwise the build restarts from the pristine
    base, which the first application parks under its own snapshot key.
    Installing a new snapshot as the live dataset goes through
    :func:`register_dataset`, dropping every derived artifact — audits,
    scorers, evaluations — via the store's generation mechanism.
    """
    from ..kg.deltas import DeltaLog, LiveDatasetMaintainer

    deltas = spec.deltas
    log = DeltaLog(deltas.log)
    batches = log.batches(deltas.as_of)
    last_seq = batches[-1].seq if batches else -1
    chain = log.chain_fingerprint(deltas.as_of)
    snapshot_key = ("dataset_snapshot", base_name, f"{last_seq}-{chain}")
    base_key = ("dataset_snapshot", base_name, "base")

    def _notes(dataset) -> Dict[str, str]:
        metadata = getattr(dataset, "metadata", None)
        return dict(metadata.notes) if metadata is not None else {}

    def build():
        start = store.ensure(base_key, lambda: ensure_dataset(store, spec, base_name))
        current = store.get(("dataset", base_name))
        if current is not None:
            notes = _notes(current)
            try:
                applied = int(notes.get("delta_seq", -1))
            except (TypeError, ValueError):
                applied = -1
            if 0 <= applied <= last_seq and notes.get(
                "delta_chain"
            ) == log.chain_fingerprint(applied):
                start = current
        maintainer = LiveDatasetMaintainer.from_dataset(start, name=base_name)
        maintainer.apply_log(batches)
        snapshot = maintainer.canonical_dataset()
        snapshot.metadata.notes["delta_chain"] = chain
        get_telemetry().counter("delta.snapshots").add(1)
        return snapshot

    snapshot = store.ensure(snapshot_key, build)
    summary = log.summary()
    summary["as_of"] = deltas.as_of
    summary["pinned_seq"] = last_seq
    summary["snapshot"] = artifact_key_string(snapshot_key)
    store.put(("delta_log", base_name), summary)
    live = store.get(("dataset", base_name))
    if live is None or _notes(live).get("delta_state") != _notes(snapshot).get("delta_state"):
        register_dataset(store, snapshot)
    return snapshot


def ensure_redundancy(store: ArtifactStore, spec: ExperimentSpec, dataset_name: str):
    """The Section 4 redundancy report of one dataset."""
    from ..core.redundancy import analyse_redundancy

    def build():
        dataset = ensure_dataset(store, spec, dataset_name)
        audit = spec.config_for(dataset=dataset_name).audit
        theta = audit.yago_theta if dataset_name.startswith("YAGO") else audit.theta
        return analyse_redundancy(dataset.all_triples(), theta, theta)

    return store.ensure(("redundancy", dataset_name), build)


def ensure_leakage(store: ArtifactStore, spec: ExperimentSpec, dataset_name: str):
    from ..core.leakage import analyse_leakage

    return store.ensure(
        ("leakage", dataset_name),
        lambda: analyse_leakage(
            ensure_dataset(store, spec, dataset_name),
            ensure_redundancy(store, spec, dataset_name),
        ),
    )


def ensure_categories(store: ArtifactStore, spec: ExperimentSpec, dataset_name: str):
    from ..core.categories import dataset_relation_categories

    return store.ensure(
        ("categories", dataset_name),
        lambda: dataset_relation_categories(ensure_dataset(store, spec, dataset_name)),
    )


def ensure_scorer(
    store: ArtifactStore, spec: ExperimentSpec, model_name: str, dataset_name: str
):
    """A trained scorer (embedding model, AMIE, simple rule or Cartesian baseline)."""

    def build():
        from ..core.baselines import SimpleRuleModel
        from ..core.cartesian import CartesianProductPredictor
        from ..models.registry import make_model
        from ..models.trainer import train_model
        from ..rules.amie import AmieConfig, AmieMiner
        from ..rules.predictor import RuleBasedPredictor

        dataset = ensure_dataset(store, spec, dataset_name)
        if model_name == "AMIE":
            with get_telemetry().span("amie.mine", dataset=dataset_name):
                rules = AmieMiner(dataset.train, AmieConfig()).mine()
                return RuleBasedPredictor(rules.rules, dataset.train, dataset.num_entities)
        if model_name == "SimpleModel":
            return SimpleRuleModel(dataset.train, dataset.num_entities)
        if model_name == "CartesianProduct":
            return CartesianProductPredictor(
                dataset.train, dataset.num_entities, density_threshold=0.75
            )
        pair = spec.config_for(model=model_name, dataset=dataset_name)
        model = make_model(
            model_name,
            dataset.num_entities,
            dataset.num_relations,
            pair.model_config(model_name),
        )
        training = pair.training_config()
        if training.checkpoint_dir:
            # One subdirectory per (model, dataset) pair so a whole
            # benchmark session's checkpoints never collide.
            training.checkpoint_dir = str(
                Path(training.checkpoint_dir) / f"{model_name}--{dataset_name}"
            )
        train_model(model, dataset, training)
        return model

    return store.ensure(("scorer", model_name, dataset_name), build)


def ensure_known_index(store: ArtifactStore, spec: ExperimentSpec, dataset_name: str):
    """The known-triple index that filters every evaluation on one dataset."""
    from ..kg.known_index import KnownTripleIndex

    return store.ensure(
        ("known_index", dataset_name),
        lambda: KnownTripleIndex.for_dataset(ensure_dataset(store, spec, dataset_name)),
    )


def ensure_evaluation(
    store: ArtifactStore, spec: ExperimentSpec, model_name: str, dataset_name: str
):
    """Cached link-prediction evaluation of one scorer on one dataset."""
    from ..eval.ranking import LinkPredictionEvaluator

    def build():
        dataset = ensure_dataset(store, spec, dataset_name)
        options = spec.config_for(model=model_name, dataset=dataset_name).eval_options()
        # The evaluator resolves the index on first use: the first pair of a
        # dataset builds it, every later pair reuses the cached one.
        evaluator = LinkPredictionEvaluator(
            dataset,
            options=options,
            known_index=lambda: ensure_known_index(store, spec, dataset_name),
        )
        return evaluator.evaluate(
            ensure_scorer(store, spec, model_name, dataset_name), model_name=model_name
        )

    return store.ensure(("evaluation", model_name, dataset_name), build)


# --------------------------------------------------------------------------- reports
@dataclass
class StageReport:
    """Timing and output of one executed stage."""

    name: str
    seconds: float = 0.0
    #: Keys of the artifacts this stage materialized (that did not exist before).
    produced: List[str] = field(default_factory=list)


@dataclass
class RunReport:
    """What a :class:`Runner` did: stages, artifacts and evaluation tables."""

    spec_name: str
    fingerprint: str
    stages: List[StageReport] = field(default_factory=list)
    #: Evaluation rows per dataset (one row per model, paper-table style).
    rows: Dict[str, List[Dict[str, Any]]] = field(default_factory=dict)
    #: Rendered human-readable report (the ``report`` stage's output).
    text: str = ""
    #: Observability section (None when telemetry was off and no disk cache
    #: was in play): the metrics snapshot, span count, per-stage profiles,
    #: the trace destination and the artifact-cache hit/miss counters.
    telemetry: Optional[Dict[str, Any]] = None

    def stage(self, name: str) -> StageReport:
        for report in self.stages:
            if report.name == name:
                return report
        raise KeyError(f"stage {name!r} was not run")


# --------------------------------------------------------------------------- runner
class Runner:
    """Executes the staged pipeline of one :class:`ExperimentSpec`.

    The runner validates the spec, stamps (or checks) the artifact store with
    the spec's fingerprint, and runs the requested stages in canonical order.
    Artifacts persist in :attr:`store` across :meth:`run` calls, so a second
    run (or a run of later stages) reuses everything already built.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        store: Optional[ArtifactStore] = None,
        cache_dir: Optional[Any] = None,
        cache_max_bytes: Optional[int] = None,
    ) -> None:
        errors = spec.validate()
        if errors:
            raise SpecValidationError(errors)
        self.spec = spec
        fingerprint = spec.fingerprint()
        if store is None:
            if cache_dir is not None:
                # Opt into the shared on-disk cache: artifacts land under
                # <cache_dir>/<fingerprint>/ and a later run (or a parallel
                # one) reuses them instead of recomputing.
                store = DiskArtifactStore(
                    fingerprint, cache_dir=cache_dir, max_bytes=cache_max_bytes
                )
            else:
                store = ArtifactStore(fingerprint)
        elif store.fingerprint and store.fingerprint != fingerprint:
            raise ValueError(
                f"artifact store was built for spec {store.fingerprint}, "
                f"this spec fingerprints to {fingerprint}; use a fresh store"
            )
        store.fingerprint = fingerprint
        self.store = store
        #: Stages of the current :meth:`run` call (lets deredundify backfill
        #: the audit of its freshly built dataset when both were selected).
        self._selected_stages: Tuple[str, ...] = ()

    # -- lineup ------------------------------------------------------------------
    def lineup(self) -> Tuple[str, ...]:
        """The evaluated scorers: the spec's models plus AMIE if requested."""
        models = tuple(self.spec.models)
        if self.spec.include_amie and "AMIE" not in models:
            models = models + ("AMIE",)
        return models

    def dataset_names(self) -> List[str]:
        """Datasets the run touches: the spec's list plus an unlisted source."""
        names = list(self.spec.datasets)
        source_name = self.spec.dataset.source_name
        if self.spec.dataset.source and source_name and source_name not in names:
            names.append(source_name)
        return names

    def _derived_name(self) -> Optional[str]:
        source_name = self.spec.dataset.source_name
        return f"{source_name}-deredundant" if source_name else None

    def delta_target(self) -> Optional[str]:
        """The dataset a ``[deltas]`` log applies to (None without a log).

        Deltas maintain the spec's *primary* dataset: the stream-ingested
        source when one is declared, otherwise the first listed dataset.
        """
        if not self.spec.deltas.log:
            return None
        if self.spec.dataset.source_name:
            return self.spec.dataset.source_name
        return self.spec.datasets[0] if self.spec.datasets else None

    def _ensure_deltas(self) -> None:
        """Apply the spec's pinned delta-log prefix before any stage runs.

        Deltas redefine the dataset everything downstream derives from, so
        they cannot be pulled lazily like other prerequisites — a stale live
        dataset would key freshly built scorers to the wrong state.
        """
        target = self.delta_target()
        if target is None:
            return
        self._ensure_source()
        apply_spec_deltas(self.store, self.spec, target)

    # -- execution ---------------------------------------------------------------
    def run(self, stages: Optional[Sequence[str]] = None) -> RunReport:
        """Run ``stages`` (default: the spec's) in canonical order."""
        if stages is None:
            selected = list(self.spec.stages)
        else:
            unknown = [stage for stage in stages if stage not in schema.STAGES]
            if unknown:
                raise ValueError(
                    f"unknown stage(s) {unknown}; expected a subset of {schema.STAGES}"
                )
            selected = [stage for stage in schema.STAGES if stage in set(stages)]
        report = RunReport(spec_name=self.spec.name, fingerprint=self.store.fingerprint)
        self._selected_stages = tuple(selected)
        # Enable-never-disable: the spec can switch telemetry on, but a spec
        # with it off must not silence a session someone enabled explicitly.
        settings = self.spec.telemetry
        if settings.enabled or settings.trace_path or settings.profile:
            configure_telemetry(enabled=True, profile=settings.profile or None)
        telemetry = get_telemetry()
        profiles: Dict[str, Dict[str, Any]] = {}
        self._ensure_deltas()
        for stage_name in selected:
            before = set(self.store.keys())
            started = time.perf_counter()
            logger.info("[%s] stage %s ...", self.spec.name, stage_name)
            with telemetry.span(f"pipeline.{stage_name}", spec=self.spec.name):
                if telemetry.enabled and telemetry.profile:
                    with profile_block(trace_allocations=True) as profile:
                        getattr(self, f"_stage_{stage_name}")(report)
                    profiles[stage_name] = profile
                else:
                    getattr(self, f"_stage_{stage_name}")(report)
            stage_report = StageReport(
                name=stage_name,
                seconds=time.perf_counter() - started,
                produced=sorted(
                    artifact_key_string(key)
                    for key in set(self.store.keys()) - before
                ),
            )
            report.stages.append(stage_report)
            logger.info(
                "[%s] stage %s done in %.2fs (%d new artifact(s))",
                self.spec.name,
                stage_name,
                stage_report.seconds,
                len(stage_report.produced),
            )
        cache_stats = getattr(self.store, "stats", None)
        if telemetry.enabled:
            if cache_stats is not None:
                # One span carrying the run's cache traffic, emitted before
                # the trace is collected so it lands in the record stream.
                with telemetry.span("pipeline.cache", spec=self.spec.name, **cache_stats):
                    pass
            records = telemetry.trace_records()
            self.store.put(("telemetry", "trace"), records)
            report.telemetry = {
                "metrics": telemetry.snapshot(),
                "span_count": len(records),
            }
            if cache_stats is not None:
                report.telemetry["cache"] = dict(cache_stats)
            if profiles:
                report.telemetry["profile"] = profiles
            if settings.trace_path:
                trace_path = write_trace_jsonl(records, settings.trace_path)
                report.telemetry["trace_path"] = str(trace_path)
                logger.info("[%s] trace written to %s", self.spec.name, trace_path)
        elif cache_stats is not None:
            # A disk-cached run surfaces its hit/miss traffic even with
            # tracing off — callers (sweep, CI gates) read it from the report.
            report.telemetry = {"cache": dict(cache_stats)}
        return report

    # -- source materialization ----------------------------------------------------
    def _ensure_source(self) -> None:
        """Ingest the declared TSV source if it is not in the store yet.

        Built-in replicas build on demand inside :func:`ensure_dataset`, but a
        streamed source only the spec knows about — this hook gives the later
        stages the same pull-on-demand behaviour when run as a subset
        (``run(stages=["train"])`` on a source spec).
        """
        dataset_section = self.spec.dataset
        if not (dataset_section.source and dataset_section.source_name):
            return
        if ("dataset", dataset_section.source_name) in self.store:
            return
        ingest_dataset_into_store(
            self.store, self.spec, dataset_section.source, name=dataset_section.source_name
        )

    def _materialize_derived(self) -> None:
        """Build the ``<source_name>-deredundant`` dataset from the source.

        Idempotent: an already-materialized derived dataset is left alone, so
        a second run over the same store keeps its cached scorers and
        evaluations instead of evicting them through ``register_dataset``.
        """
        from ..core.deredundancy import remove_redundant_relations

        source_name = self.spec.dataset.source_name
        derived_name = self._derived_name()
        if not source_name or ("dataset", derived_name) in self.store:
            return
        self._ensure_source()
        theta = self.spec.config_for(dataset=source_name).audit.theta
        derived = remove_redundant_relations(
            ensure_dataset(self.store, self.spec, source_name),
            theta_1=theta,
            theta_2=theta,
            report=ensure_redundancy(self.store, self.spec, source_name),
        )
        register_dataset(self.store, derived)

    def _ensure_listed_datasets(self) -> None:
        """Pull the source (and its derived variant, when listed) on demand."""
        self._ensure_source()
        derived = self._derived_name()
        if derived and derived in self.spec.datasets and ("dataset", derived) not in self.store:
            self._materialize_derived()

    # -- stages ------------------------------------------------------------------
    def _stage_ingest(self, report: RunReport) -> None:
        """Materialize every dataset: built-in replicas and the TSV source."""
        telemetry = get_telemetry()
        self._ensure_source()
        derived = self._derived_name()
        for name in self.dataset_names():
            if name != derived:
                dataset = ensure_dataset(self.store, self.spec, name)
                # Generated replicas never pass through the streaming
                # pipeline (which records the ingest.chunk_* series), so the
                # stage accounts for their triples here.
                telemetry.counter("ingest.datasets").add(1)
                telemetry.counter("ingest.triples").add(
                    len(dataset.train) + len(dataset.valid) + len(dataset.test)
                )

    def _audit_dataset(self, name: str) -> None:
        ensure_dataset(self.store, self.spec, name)
        ensure_redundancy(self.store, self.spec, name)
        ensure_leakage(self.store, self.spec, name)
        ensure_categories(self.store, self.spec, name)

    def _stage_audit(self, report: RunReport) -> None:
        """Redundancy, leakage and relation-category audits per dataset."""
        self._ensure_source()
        derived = self._derived_name()
        for name in self.dataset_names():
            if name == derived and ("dataset", name) not in self.store:
                # Built by the later deredundify stage, which backfills the
                # audit when this stage is part of the same run.
                continue
            self._audit_dataset(name)

    def _stage_deredundify(self, report: RunReport) -> None:
        """De-redundify the ingested source dataset (paper Section 5 transform)."""
        self._materialize_derived()
        derived = self._derived_name()
        if (
            derived
            and ("dataset", derived) in self.store
            and "audit" in self._selected_stages
        ):
            # The audit stage ran before this one could materialize the
            # derived dataset; audit it now so one run covers everything.
            self._audit_dataset(derived)

    def _stage_train(self, report: RunReport) -> None:
        """Train every (model, dataset) pair of the lineup."""
        self._ensure_listed_datasets()
        for dataset_name in self.spec.datasets:
            # Materialized even for an empty lineup, so the report covers it.
            ensure_dataset(self.store, self.spec, dataset_name)
            for model_name in self.lineup():
                ensure_scorer(self.store, self.spec, model_name, dataset_name)

    def _stage_evaluate(self, report: RunReport) -> None:
        """Link-prediction evaluation of every (model, dataset) pair."""
        self._ensure_listed_datasets()
        for dataset_name in self.spec.datasets:
            ensure_dataset(self.store, self.spec, dataset_name)
            report.rows[dataset_name] = [
                ensure_evaluation(self.store, self.spec, model_name, dataset_name).as_row()
                for model_name in self.lineup()
            ]

    def _stage_report(self, report: RunReport) -> None:
        """Render the human-readable session report."""
        from ..core.reporting import render_audit_summary, render_table
        from ..kg.statistics import dataset_statistics

        sections: List[str] = []
        statistic_rows = [
            dataset_statistics(self.store[("dataset", name)]).as_row()
            for name in self.dataset_names()
            if ("dataset", name) in self.store
        ]
        if statistic_rows:
            sections.append(
                render_table(statistic_rows, title=f"Datasets ({self.spec.name})")
            )
        for name in self.dataset_names():
            if ("redundancy", name) not in self.store:
                continue
            sections.append(render_audit_summary(
                self.store[("redundancy", name)],
                self.store.get(("leakage", name)),
                title=f"Audit of {name}",
            ))
        for dataset_name, rows in report.rows.items():
            sections.append(
                render_table(rows, title=f"Link prediction on {dataset_name}")
            )
        if not report.rows and not sections:
            sections.append(f"(no artifacts to report for spec {self.spec.name!r})")
        report.text = "\n\n".join(sections)
