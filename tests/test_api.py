"""The package's public surface: a change to it shows up as a diff here."""
import adaptlink as al

PUBLIC = [
    "ClusteringError",
    "ComparisonReport",
    "Dataset",
    "Dendrogram",
    "DepthRecord",
    "DimensionMismatch",
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
    "__version__",
    "build_dendrogram",
    "compare_compactness",
    "cutoff_distance",
    "euclidean_distance",
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
]


def test_public_names():
    assert sorted(al.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in al.__all__:
        assert getattr(al, name) is not None, name


def test_per_level_names_live_in_adaptive():
    for name in ("Neighborhoods", "neighborhood", "extremely_close_sets"):
        assert name not in al.__all__ and not hasattr(al, name), name
        assert getattr(al.adaptive, name) is not None, name
