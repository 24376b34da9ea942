"""The paper's contribution: redundancy, leakage and Cartesian-product analysis."""

from .redundancy import (
    DEFAULT_THETA_1,
    DEFAULT_THETA_2,
    RedundancyReport,
    RelationOverlap,
    StreamingPairIndexBuilder,
    analyse_redundancy,
    analyse_redundancy_from_pair_sets,
)
from .cartesian import (
    CartesianProductPredictor,
    CartesianRelation,
    find_cartesian_relations,
)
from .leakage import LeakageReport, TripleRedundancy, analyse_leakage
from .categories import (
    CARDINALITY_THRESHOLD,
    CATEGORIES,
    RelationCardinality,
    categorize_relations,
    category_distribution,
    dataset_relation_categories,
    relation_cardinality,
)
from .deredundancy import (
    make_fb15k237_like,
    make_wn18rr_like,
    make_yago_dr_like,
    remove_redundant_relations,
)
from .baselines import DEFAULT_INTERSECTION_THRESHOLD, SimpleRuleModel, SimpleRulePair
from .reporting import (
    format_cell,
    render_audit_summary,
    render_key_values,
    render_matrix,
    render_table,
)

__all__ = [
    "DEFAULT_THETA_1",
    "DEFAULT_THETA_2",
    "RedundancyReport",
    "RelationOverlap",
    "StreamingPairIndexBuilder",
    "analyse_redundancy",
    "analyse_redundancy_from_pair_sets",
    "CartesianRelation",
    "CartesianProductPredictor",
    "find_cartesian_relations",
    "LeakageReport",
    "TripleRedundancy",
    "analyse_leakage",
    "CATEGORIES",
    "CARDINALITY_THRESHOLD",
    "RelationCardinality",
    "relation_cardinality",
    "categorize_relations",
    "category_distribution",
    "dataset_relation_categories",
    "remove_redundant_relations",
    "make_fb15k237_like",
    "make_wn18rr_like",
    "make_yago_dr_like",
    "SimpleRuleModel",
    "SimpleRulePair",
    "DEFAULT_INTERSECTION_THRESHOLD",
    "format_cell",
    "render_table",
    "render_matrix",
    "render_key_values",
    "render_audit_summary",
]
