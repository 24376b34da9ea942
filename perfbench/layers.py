"""Per-layer tracing for the benchmark's traced runs.

A traced run wraps each layer's functions *from the benchmark's own code*:
:class:`LayerTrace` replaces the functions listed in :data:`TARGETS` with
wrappers that open a :mod:`repro.telemetry.tracing` span around the call and,
for some, count the work the call did.  Nothing in ``src/`` changes, and the
end-to-end runs never install the wrappers.

Span records are the program's own record format, so
:func:`repro.telemetry.tracing.write_chrome_trace` exports them for Perfetto.
A span's *self time* is its duration minus the time its child spans cover;
every per-layer ``*_s`` metric is the summed self time of the spans carrying
that layer's name, except ``audit.refresh_s``, which is the total time of the
live-audit refresh (its redundancy finalization nests an ``audit.redundancy``
span).  Stage spans (``stage.<name>``) wrap the pipeline's stages; a stage's
*unattributed* share is its self time over its duration, i.e. the part of the
stage that no named layer explains.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.telemetry.tracing import Tracer

Counter = Callable[[Any, tuple], Iterable[Tuple[str, float]]]

#: Pipeline stages, in the order :class:`repro.api.pipeline.Runner` runs them.
STAGES = ("ingest", "audit", "deredundify", "train", "evaluate", "report")


def _ingested(result, args):
    return (("ingest.triples", result.total_triples),)


def _materialized(result, args):
    return (("triples.materialized", len(args[0])),)


def _negatives(result, args):
    return (("train.negatives", len(result[0])),)


def _rules(result, args):
    return (("amie.rules", len(result.rules)),)


def _unique_queries(result, args):
    return (("eval.unique_queries", len(result[0])),)


def _scored_rows(result, args):
    return (("eval.scored_rows", len(result)),)


def _delta_rows(result, args):
    batch = args[1]
    return (
        ("delta.rows", batch.num_adds() + batch.num_removes()),
        ("delta.noops", result.noop_adds + result.noop_removes),
    )


#: ``(group, module, attribute, span name, counter)``.  ``Class.method``
#: attributes are wrapped in every class of the hierarchy that defines the
#: method; module functions are rebound in every ``repro`` module that
#: imported them.
TARGETS: Tuple[Tuple[str, str, str, str, Optional[Counter]], ...] = (
    ("pipeline", "repro.api.pipeline", "Runner._stage_ingest", "stage.ingest", None),
    ("pipeline", "repro.api.pipeline", "Runner._stage_audit", "stage.audit", None),
    ("pipeline", "repro.api.pipeline", "Runner._stage_deredundify", "stage.deredundify", None),
    ("pipeline", "repro.api.pipeline", "Runner._stage_train", "stage.train", None),
    ("pipeline", "repro.api.pipeline", "Runner._stage_evaluate", "stage.evaluate", None),
    ("pipeline", "repro.api.pipeline", "Runner._stage_report", "stage.report", None),
    # repro.kg replicas
    ("program", "repro.kg.wordnet", "wn18_like", "kg.build", None),
    ("program", "repro.kg.freebase", "fb15k_like", "kg.build", None),
    ("program", "repro.kg.yago", "yago3_like", "kg.build", None),
    ("program", "repro.core.deredundancy", "make_wn18rr_like", "kg.build", None),
    ("program", "repro.core.deredundancy", "make_fb15k237_like", "kg.build", None),
    ("program", "repro.core.deredundancy", "make_yago_dr_like", "kg.build", None),
    # repro.kg.streaming and repro.kg.triples
    ("program", "repro.kg.streaming", "ingest_dataset", "ingest.stream", _ingested),
    ("program", "repro.kg.triples", "TripleSet.__init__", "triples.materialize", _materialized),
    # repro.core audit
    ("program", "repro.core.redundancy", "analyse_redundancy", "audit.redundancy", None),
    ("program", "repro.core.redundancy", "StreamingPairIndexBuilder.report", "audit.redundancy", None),
    ("program", "repro.core.leakage", "analyse_leakage", "audit.leakage", None),
    ("program", "repro.core.categories", "dataset_relation_categories", "audit.categories", None),
    ("program", "repro.core.deredundancy", "remove_redundant_relations", "audit.deredundify", None),
    # repro.kg.sampling, repro.models, repro.autodiff
    ("program", "repro.models.registry", "make_model", "train.init", None),
    ("program", "repro.kg.sampling", "NegativeSampler.__init__", "train.sample", None),
    ("program", "repro.kg.sampling", "NegativeSampler.sample", "train.sample", _negatives),
    ("program", "repro.models.base", "KGEModel.score_triples", "train.forward", None),
    ("program", "repro.models.losses", "LossFunction.__call__", "train.loss", None),
    ("program", "repro.models.base", "KGEModel.zero_grad", "train.zero_grad", None),
    ("program", "repro.autodiff.tensor", "Tensor.backward", "train.backward", None),
    ("program", "repro.models.optim", "Optimizer.step", "train.step", None),
    ("program", "repro.models.base", "KGEModel.apply_constraints", "train.constrain", None),
    # repro.rules
    ("program", "repro.rules.amie", "AmieMiner.mine", "amie.mine", _rules),
    ("program", "repro.rules.predictor", "RuleBasedPredictor.__init__", "amie.mine", None),
    # repro.eval
    ("program", "repro.eval.ranking", "LinkPredictionEvaluator.__init__", "eval.filter_index", None),
    ("program", "repro.eval.ranking", "LinkPredictionEvaluator._side_work", "eval.dedup", _unique_queries),
    ("program", "repro.eval.ranking", "LinkPredictionEvaluator.evaluate", "eval.assemble", None),
    ("program", "repro.eval.ranking", "EvaluationResult.as_row", "eval.assemble", None),
    ("program", "repro.eval.sharding", "evaluate_shards", "eval.rank", None),
    ("program", "repro.eval.sharding", "rank_shard", "eval.rank", None),
    ("program", "repro.eval.sharding", "mean_tie_ranks", "eval.rank", None),
    ("program", "repro.eval.sharding", "score_query_chunk", "eval.score", _scored_rows),
    # repro.kg.deltas and the streaming pair, known-triple and statistics indexes
    ("program", "repro.kg.deltas", "DeltaLog.batches", "delta.log_read", None),
    ("program", "repro.kg.deltas", "LiveDatasetMaintainer.apply", "delta.apply", _delta_rows),
    ("program", "repro.core.redundancy", "StreamingPairIndexBuilder.observe", "delta.pair_index", None),
    ("program", "repro.core.redundancy", "StreamingPairIndexBuilder.retract", "delta.pair_index", None),
    ("program", "repro.eval.sharding", "StreamingKnownIndexBuilder.observe", "delta.known_index", None),
    ("program", "repro.eval.sharding", "StreamingKnownIndexBuilder.retract", "delta.known_index", None),
    ("program", "repro.kg.statistics", "StreamingStatisticsBuilder.observe", "delta.stats", None),
    ("program", "repro.kg.statistics", "StreamingStatisticsBuilder.retract", "delta.stats", None),
    ("program", "repro.kg.statistics", "StreamingStatisticsBuilder.statistics", "delta.stats", None),
    ("program", "repro.kg.deltas", "LiveDatasetMaintainer.redundancy_report", "audit.refresh", None),
    ("program", "repro.kg.deltas", "LiveDatasetMaintainer.statistics", "audit.refresh", None),
    # repro.serve + repro.api.serving (installed in the server process only)
    ("serve", "repro.serve.artifact", "ModelArtifact.load", "serve.load", None),
    ("serve", "repro.serve.artifact", "ModelArtifact.instantiate", "serve.load", None),
    ("serve", "repro.kg.io", "load_dataset", "serve.load", None),
    ("serve", "repro.serve.engine", "known_completion_index", "serve.known_index", None),
    ("serve", "repro.api.serving", "QueryBatch.from_wire", "serve.wire", None),
    ("serve", "repro.api.serving", "BatchResult.to_wire", "serve.wire", None),
    ("serve", "repro.serve.engine", "QueryEngine._flush", "serve.score", None),
    ("serve", "repro.serve.engine", "QueryEngine._score_keys", "serve.score", None),
    ("serve", "repro.serve.engine", "QueryEngine._answer", "serve.answer", None),
)

#: Every per-layer metric with its unit, in report order.  ``BENCHMARK.json``
#: lists exactly these; a layer a workload never reaches reports 0.
PER_LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("kg.build_s", "s"),
    ("ingest.stream_s", "s"),
    ("ingest.triples", "count"),
    ("triples.materialize_s", "s"),
    ("triples.materialized", "count"),
    ("audit.redundancy_s", "s"),
    ("audit.leakage_s", "s"),
    ("audit.categories_s", "s"),
    ("audit.deredundify_s", "s"),
    ("audit.refresh_s", "s"),
    ("train.init_s", "s"),
    ("train.sample_s", "s"),
    ("train.negatives", "count"),
    ("train.forward_s", "s"),
    ("train.loss_s", "s"),
    ("train.zero_grad_s", "s"),
    ("train.backward_s", "s"),
    ("train.step_s", "s"),
    ("train.constrain_s", "s"),
    ("amie.mine_s", "s"),
    ("amie.rules", "count"),
    ("eval.filter_index_s", "s"),
    ("eval.dedup_s", "s"),
    ("eval.unique_queries", "count"),
    ("eval.score_s", "s"),
    ("eval.scored_rows", "count"),
    ("eval.rank_s", "s"),
    ("eval.assemble_s", "s"),
    ("eval.filtered_mrr", "ratio"),
    ("delta.log_read_s", "s"),
    ("delta.apply_s", "s"),
    ("delta.rows", "count"),
    ("delta.noop_share", "ratio"),
    ("delta.pair_index_s", "s"),
    ("delta.known_index_s", "s"),
    ("delta.stats_s", "s"),
    ("serve.load_s", "s"),
    ("serve.known_index_s", "s"),
    ("serve.wire_s", "s"),
    ("serve.flushes", "count"),
    ("serve.batch_mean", "count"),
    ("serve.score_s", "s"),
    ("serve.answer_s", "s"),
    ("serve.cache_hit_ratio", "ratio"),
    *(
        (f"stage.{stage}{suffix}", unit)
        for stage in STAGES
        for suffix, unit in (("_s", "s"), ("_unattributed", "ratio"))
    ),
    ("trace.overhead", "ratio"),
)

#: Span names whose metric is total rather than self time.
_TOTAL_TIME_SPANS = ("audit.refresh",)


def _hierarchy(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_hierarchy(sub))
    return found


class LayerTrace:
    """Installs the layer wrappers of some :data:`TARGETS` groups and collects spans.

    Use as a context manager: the wrappers are in place inside the ``with``
    block and the original functions are restored on exit.
    """

    def __init__(self, groups: Sequence[str] = ("pipeline", "program")) -> None:
        self.groups = tuple(groups)
        self.tracer = Tracer()
        self.counts: Dict[str, float] = defaultdict(float)
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- wrapper installation ------------------------------------------------
    def _wrapper(self, function: Callable, span_name: str, counter: Optional[Counter]):
        tracer = self.tracer
        counts = self.counts

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with tracer.span(span_name):
                result = function(*args, **kwargs)
            if counter is not None:
                for name, value in counter(result, args):
                    counts[name] += value
            return result

        return traced

    def _set(self, owner: Any, attribute: str, value: Any) -> None:
        self._restore.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def install(self) -> "LayerTrace":
        for group, module_name, attribute, span_name, counter in TARGETS:
            if group not in self.groups:
                continue
            module = importlib.import_module(module_name)
            owner_name, _, name = attribute.rpartition(".")
            if owner_name:
                for cls in _hierarchy(getattr(module, owner_name)):
                    raw = cls.__dict__.get(name)
                    if raw is None:
                        continue
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrapper(raw.__func__, span_name, counter))
                    else:
                        wrapped = self._wrapper(raw, span_name, counter)
                    self._set(cls, name, wrapped)
                continue
            original = getattr(module, name)
            wrapped = self._wrapper(original, span_name, counter)
            # Rebind every import of the function, so callers that did
            # ``from module import function`` at import time are traced too.
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._set(loaded, key, wrapped)
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, value = self._restore.pop()
            setattr(owner, attribute, value)

    def __enter__(self) -> "LayerTrace":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    def records(self) -> List[Dict[str, Any]]:
        return self.tracer.records()


# ---------------------------------------------------------------------------- analysis
def span_table(records: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total time (outermost spans only) and self time."""
    by_key = {(record["pid"], record["id"]): record for record in records}
    covered: Dict[Tuple[int, int], float] = defaultdict(float)
    for record in records:
        if record["parent_id"] is not None:
            covered[(record["pid"], record["parent_id"])] += record["duration"]
    table: Dict[str, Dict[str, float]] = {}
    for record in records:
        key = (record["pid"], record["id"])
        row = table.setdefault(record["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += record["duration"] - covered[key]
        parent = by_key.get((record["pid"], record["parent_id"]))
        while parent is not None and parent["name"] != record["name"]:
            parent = by_key.get((parent["pid"], parent["parent_id"]))
        if parent is None:
            row["total_s"] += record["duration"]
    return table


def layer_metrics(
    table: Dict[str, Dict[str, float]],
    counts: Dict[str, float],
    extra: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER_METRICS` value from a span table and counters.

    ``extra`` supplies values that come from outside the spans (serving
    counters, the filtered MRR, the tracing overhead).
    """
    values: Dict[str, float] = {}
    extra = dict(extra or {})
    for metric, _ in PER_LAYER_METRICS:
        if metric in extra:
            values[metric] = float(extra[metric])
        elif metric.startswith("stage."):
            stage, _, suffix = metric[len("stage."):].rpartition("_")
            row = table.get(f"stage.{stage}")
            if row is None:
                values[metric] = 0.0
            elif suffix == "s":
                values[metric] = row["total_s"]
            else:
                values[metric] = row["self_s"] / row["total_s"] if row["total_s"] else 0.0
        elif metric.endswith("_s"):
            row = table.get(metric[: -len("_s")])
            if row is None:
                values[metric] = 0.0
            elif metric[: -len("_s")] in _TOTAL_TIME_SPANS:
                values[metric] = row["total_s"]
            else:
                values[metric] = row["self_s"]
        elif metric == "delta.noop_share":
            rows = counts.get("delta.rows", 0.0)
            values[metric] = counts.get("delta.noops", 0.0) / rows if rows else 0.0
        else:
            values[metric] = float(counts.get(metric, 0.0))
    return values


def format_table(table: Dict[str, Dict[str, float]]) -> str:
    """The per-layer table a traced run prints: self time first."""
    lines = [f"{'layer':<24} {'self s':>10} {'total s':>10} {'calls':>9}"]
    for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        lines.append(
            f"{name:<24} {row['self_s']:>10.4f} {row['total_s']:>10.4f} {int(row['calls']):>9}"
        )
    return "\n".join(lines)
