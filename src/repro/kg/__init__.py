"""Knowledge-graph substrate: vocabularies, triples, datasets, generators."""

from .vocabulary import Vocabulary, VocabularyError
from .triples import Triple, TripleSet, merge
from .dataset import (
    Dataset,
    DatasetError,
    DatasetMetadata,
    RelationProvenance,
    build_dataset_from_labelled_triples,
)
from .statistics import (
    DatasetStatistics,
    StreamingStatisticsBuilder,
    dataset_statistics,
    relation_frequency_share,
)
from .sampling import BernoulliNegativeSampler, NegativeSampler, UniformNegativeSampler
from .io import DatasetIOError, load_dataset, read_triples_tsv, save_dataset, write_triples_tsv
from .streaming import (
    DEFAULT_CHUNK_SIZE,
    IngestProgress,
    IngestReport,
    StreamingDatasetBuilder,
    ingest_dataset,
    stream_triple_chunks,
)
from .deltas import (
    DeltaApplyReport,
    DeltaBatch,
    DeltaError,
    DeltaLog,
    LiveDatasetMaintainer,
    append_delta,
    read_delta_log,
)
from .generators import (
    ChurnProfile,
    DEFAULT_SPLIT_FRACTIONS,
    GeneratedKG,
    RelationSpec,
    SCALES,
    ScaleProfile,
    SyntheticKGBuilder,
    assemble_dataset,
    churn_stream,
    get_scale,
    random_split,
)
from .freebase import FreebaseSnapshot, build_freebase_snapshot, fb15k_like
from .wordnet import wn18_like
from .yago import yago3_like

__all__ = [
    "Vocabulary",
    "VocabularyError",
    "Triple",
    "TripleSet",
    "merge",
    "Dataset",
    "DatasetError",
    "DatasetMetadata",
    "RelationProvenance",
    "build_dataset_from_labelled_triples",
    "DatasetStatistics",
    "dataset_statistics",
    "relation_frequency_share",
    "NegativeSampler",
    "UniformNegativeSampler",
    "BernoulliNegativeSampler",
    "DatasetIOError",
    "load_dataset",
    "save_dataset",
    "read_triples_tsv",
    "write_triples_tsv",
    "DEFAULT_CHUNK_SIZE",
    "IngestProgress",
    "IngestReport",
    "StreamingDatasetBuilder",
    "StreamingStatisticsBuilder",
    "ingest_dataset",
    "stream_triple_chunks",
    "DeltaApplyReport",
    "DeltaBatch",
    "DeltaError",
    "DeltaLog",
    "LiveDatasetMaintainer",
    "append_delta",
    "read_delta_log",
    "ChurnProfile",
    "churn_stream",
    "DEFAULT_SPLIT_FRACTIONS",
    "GeneratedKG",
    "RelationSpec",
    "SCALES",
    "ScaleProfile",
    "SyntheticKGBuilder",
    "assemble_dataset",
    "get_scale",
    "random_split",
    "FreebaseSnapshot",
    "build_freebase_snapshot",
    "fb15k_like",
    "wn18_like",
    "yago3_like",
]
