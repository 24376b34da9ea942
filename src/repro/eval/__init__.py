"""Link-prediction evaluation: ranking protocol, metrics, cross-model analyses."""

from .metrics import (
    METRIC_DIRECTIONS,
    MetricPair,
    RankingMetrics,
    better_of,
    metrics_from_rank_pairs,
)
from ..api.options import EvalOptions
from .ranking import (
    DEFAULT_EVAL_BATCH_SIZE,
    CandidateScorer,
    EvaluationResult,
    LinkPredictionEvaluator,
    RankRecord,
    evaluate_model,
)
from .sharding import (
    QueryWork,
    evaluate_shards,
    multiprocessing_available,
    plan_shards,
    rank_block,
    rank_shard,
)
from .comparison import (
    best_model_counts,
    category_best_model_breakdown,
    category_side_hits,
    outperformance_redundancy_share,
    per_relation_win_percentages,
)

__all__ = [
    "RankingMetrics",
    "MetricPair",
    "METRIC_DIRECTIONS",
    "better_of",
    "metrics_from_rank_pairs",
    "CandidateScorer",
    "DEFAULT_EVAL_BATCH_SIZE",
    "EvalOptions",
    "RankRecord",
    "EvaluationResult",
    "LinkPredictionEvaluator",
    "evaluate_model",
    "evaluate_shards",
    "multiprocessing_available",
    "plan_shards",
    "QueryWork",
    "rank_block",
    "rank_shard",
    "best_model_counts",
    "per_relation_win_percentages",
    "outperformance_redundancy_share",
    "category_best_model_breakdown",
    "category_side_hits",
]
