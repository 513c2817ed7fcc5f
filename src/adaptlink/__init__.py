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
    format_cutoff,
)
from .baseline import (
    ComparisonReport,
    LeafMismatch,
    LinkageMethod,
    compare_compactness,
    stepwise_cluster,
)
from .core import (
    ClusteringError,
    Dataset,
    NormalizationStats,
    NormalizedDataset,
    Overflow,
    SdMode,
    TooFewPoints,
    ZeroVariance,
    identity_normalized,
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
    "LeafMismatch",
    "LinkageMethod",
    "NormalizationStats",
    "NormalizedDataset",
    "Overflow",
    "ParseError",
    "SchemaError",
    "SdMode",
    "TooFewPoints",
    "TraceDocument",
    "TreeNode",
    "ZeroVariance",
    "build_dendrogram",
    "compare_compactness",
    "format_cutoff",
    "format_table",
    "identity_normalized",
    "load_fixture",
    "normalize",
    "parse_table",
    "read_trace",
    "stepwise_cluster",
    "write_dot",
    "write_trace",
    "write_tree_text",
    "__version__",
]
