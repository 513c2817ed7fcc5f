"""Adaptive mean-linkage agglomerative clustering.

Per-iteration minimax cut-offs, simultaneous multi-group merging into mean
pseudo-points, classical stepwise baselines, and deterministic trace/DOT
export. See README for the algorithm and the bundled case study.
"""
from .adaptive import (
    Dendrogram,
    DepthRecord,
    TreeNode,
    build_dendrogram,
    cutoff_distance,
    format_cutoff,
)
from .baseline import (
    ComparisonReport,
    LeafMismatch,
    LinkageMethod,
    StepwiseDendrogram,
    compare_compactness,
    stepwise_cluster,
)
from .core import (
    ClusteringError,
    Dataset,
    DistanceMatrix,
    NormalizationStats,
    NormalizedDataset,
    Overflow,
    SdMode,
    TooFewPoints,
    ZeroVariance,
    identity_normalized,
    matrix_from_coords,
    normalize,
)
from .io import (
    ParseError,
    SchemaError,
    TraceDocument,
    format_table,
    load_fixture,
    parse_table,
    read_trace,
    write_dot,
    write_trace,
    write_tree_text,
)

__version__ = "0.1.0"

__all__ = [
    "ClusteringError",
    "ComparisonReport",
    "Dataset",
    "Dendrogram",
    "DepthRecord",
    "DistanceMatrix",
    "LeafMismatch",
    "LinkageMethod",
    "NormalizationStats",
    "NormalizedDataset",
    "Overflow",
    "ParseError",
    "SchemaError",
    "SdMode",
    "StepwiseDendrogram",
    "TooFewPoints",
    "TraceDocument",
    "TreeNode",
    "ZeroVariance",
    "build_dendrogram",
    "compare_compactness",
    "cutoff_distance",
    "format_cutoff",
    "format_table",
    "identity_normalized",
    "load_fixture",
    "matrix_from_coords",
    "normalize",
    "parse_table",
    "read_trace",
    "stepwise_cluster",
    "write_dot",
    "write_trace",
    "write_tree_text",
    "__version__",
]
