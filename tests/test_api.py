"""The package's public surface: a change to it shows up as a diff here."""
import adaptlink as al

PUBLIC = [
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
    "__version__",
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
]


def test_public_names():
    assert sorted(al.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in al.__all__:
        assert getattr(al, name) is not None, name


def test_per_level_names_live_in_adaptive():
    for name in (
        "Neighborhoods", "neighborhood", "extremely_close_sets",
    ):
        assert name not in al.__all__ and not hasattr(al, name), name
        assert getattr(al.adaptive, name) is not None, name


def test_level_matrix_lives_in_core_and_adaptive():
    # Internal to a level, but the benchmark's per-layer timers bind these names.
    for module, name in (
        (al.core, "DistanceMatrix"),
        (al.core, "matrix_from_coords"),
        (al.adaptive, "cutoff_distance"),
    ):
        assert name not in al.__all__ and not hasattr(al, name), name
        assert getattr(module, name) is not None, name
