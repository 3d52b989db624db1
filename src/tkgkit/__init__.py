"""Temporal knowledge graph toolkit.

Turns temporally scoped facts into static triples a conventional
translational embedding model can digest, by rewriting temporal scope into
the predicate vocabulary (timestamping, splitting at chosen or detected
change points, merging), audits and filters the leakage that stripping
creates, then trains and evaluates the embeddings under the filtered
link-prediction protocol.
"""

__version__ = "0.1.0"

from .cpd import Segmentation, bottom_up, median_heuristic_gamma, normalize_rows, rbf_kernel
from .embed import EmbeddingModel, NumericError, TrainConfig, load_model, save_model, train
from .eval import MetricReport, evaluate, metrics, rank_queries
from .graph import (
    DataError,
    TemporalGraph,
    dataset_stats,
    load_dataset,
    load_triples,
    save_dataset,
    save_triples,
    strip_temporal,
)
from .leakage import DuplicateAudit, apply_filter, audit
from .pipeline import ConfigError, PipelineConfig, build_config, read_config_file, run_pipeline
from .proximity import SignatureSeries, signature_series
from .transform import (
    Lineage,
    TransformReport,
    TransformResult,
    identity,
    merge,
    random_split,
    save_lineage,
    split_cpd,
    split_parameterized,
    timestamp,
)

__all__ = [name for name in dir() if not name.startswith("_")]
