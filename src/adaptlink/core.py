"""Data containers, z-score normalization, and each level's distance matrix.

The public surface is the containers, :func:`normalize` and the errors.
Both tables check their rows through one contract, ``_check_table``, and
every distance kernel runs through one overflow check,
``_finite_distances``: this matrix, the stepwise square and the stepwise
centroid updates. :class:`DistanceMatrix`, the one record of a level's
distances, is internal to the adaptive engine, and
:func:`matrix_from_coords` is its one constructor: it groups a level's
copies and computes the distances of one representative per value, and
:meth:`DistanceMatrix.pairs_within` expands the pairs within a radius back
to the level's rows. The stepwise baselines build no such record, and
:func:`~adaptlink.baseline.compare_compactness` refuses a stepwise forest.
"""
from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _kernels


class ClusteringError(Exception):
    """Base class for all errors raised by this package."""


class TooFewPoints(ClusteringError):
    """An operation needed at least two points."""


class ZeroVariance(ClusteringError):
    """A descriptor column's s.d. is 0.0 and cannot be standardized: the column is
    constant, or its squared deviations underflow (values within about 1e-154)."""

    def __init__(self, column: int, name: str | None = None):
        self.column = column
        self.name = name
        shown = f"{name!r} (index {column})" if name else f"index {column}"
        super().__init__(f"column {shown} has zero variance")


class Overflow(ClusteringError):
    """Descriptor values too large for z-scores or distances in double precision."""


class SdMode(str, enum.Enum):
    """Standard-deviation convention for z-scoring."""

    SAMPLE = "sample"  # divide by n - 1
    POPULATION = "population"  # divide by n


def _frozen(a: np.ndarray) -> np.ndarray:
    if isinstance(a.base, np.ndarray) and a.base.flags.writeable:  # writable through its base
        a = a.copy()
    a.setflags(write=False)
    # A view of a read-only base cannot be made writable again.
    return a.view()


def _readonly(a: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(a):  # float64 conversion would drop the imaginary parts
        raise ValueError("values must be real, not complex")
    return _frozen(np.array(a, dtype=np.float64, copy=True))


def _check_names(kind: str, names) -> None:
    """Refuse a label or column name that a written table or tree cannot carry.

    A name is a string on one line (nothing ``str.splitlines`` splits on)
    with no surrounding whitespace, and a label is not empty: the table
    format splits lines and strips cells, and the tree text indents one
    node per line.
    """
    for name in names:
        if not isinstance(name, str):
            raise ValueError(f"{kind} {name!r} is not a string; names must be strings")
        if len(name.splitlines()) > 1 or name != name.strip() or (kind == "label" and not name):
            raise ValueError(
                f"{kind} {name!r} does not survive the table format or a written tree: "
                "no line breaks, surrounding whitespace or empty labels"
            )


def _check_table(table, values: str, names_optional: bool) -> None:
    """The contract of both tables' rows, with the fields converted in place.

    Labels and column names become tuples and ``table.<values>`` a read-only
    float64 copy; it needs a row and a column, one label per row and one
    column name per column (or, if ``names_optional``, none at all). Labels
    and names pass :func:`_check_names`, labels are unique and values finite.
    """
    labels, names = tuple(table.labels), tuple(table.column_names)
    array = _readonly(np.atleast_2d(getattr(table, values)))
    object.__setattr__(table, "labels", labels)
    object.__setattr__(table, "column_names", names)
    object.__setattr__(table, values, array)
    n, p = array.shape
    if n < 1 or p < 1:
        raise ValueError(f"{values} must have at least one row and one column")
    if len(labels) != n:
        raise ValueError(f"{len(labels)} labels for {n} rows")
    if len(names) != p and (names or not names_optional):
        raise ValueError(f"{len(names)} column names for {p} columns")
    _check_names("label", labels)
    _check_names("column name", names)
    if len(set(labels)) != n:
        raise ValueError("labels must be unique")
    if not np.isfinite(array).all():
        raise ValueError(f"{values} must be finite")


@dataclass(frozen=True)
class Dataset:
    """Labeled n×p table of finite real descriptor values."""

    labels: tuple[str, ...]
    values: np.ndarray
    column_names: tuple[str, ...]

    def __post_init__(self):
        _check_table(self, "values", names_optional=False)
        for kind, names in (("label", self.labels), ("column name", self.column_names)):
            bad = next((name for name in names if "," in name), None)
            if bad is not None:  # the table format splits cells on ","
                raise ValueError(f"{kind} {bad!r} does not survive the table format: no commas")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def content_hash(self) -> str:
        """SHA-256 of the canonical table serialization (provenance key)."""
        return self._content_hash

    @cached_property
    def _content_hash(self) -> str:
        # Computed once: the labels, names and read-only values cannot change.
        from .io import format_table

        return hashlib.sha256(format_table(self).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class NormalizationStats:
    """Per-column mean/s.d. recorded by :func:`normalize`."""

    means: np.ndarray
    sds: np.ndarray
    mode: SdMode

    def __post_init__(self):
        object.__setattr__(self, "means", _readonly(self.means))
        object.__setattr__(self, "sds", _readonly(self.sds))
        object.__setattr__(self, "mode", SdMode(self.mode))
        if self.means.shape != self.sds.shape:
            raise ValueError("means/sds length mismatch")
        if not np.isfinite(self.means).all():
            raise ValueError("means must be finite")
        if not (np.isfinite(self.sds).all() and (self.sds > 0).all()):
            raise ValueError("sds must be positive and finite")


@dataclass(frozen=True)
class NormalizedDataset:
    """Z-scored coordinates plus the stats that produced them."""

    labels: tuple[str, ...]
    coords: np.ndarray
    stats: NormalizationStats
    column_names: tuple[str, ...] = ()
    source_hash: str | None = None
    normalized: bool = True

    def __post_init__(self):
        _check_table(self, "coords", names_optional=True)
        p = self.coords.shape[1]
        if self.stats.means.shape != (p,):
            raise ValueError(f"stats of shape {self.stats.means.shape} for {p} columns")

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def p(self) -> int:
        return self.coords.shape[1]


def normalize(data: Dataset, mode: SdMode = SdMode.SAMPLE) -> NormalizedDataset:
    """Z-score each column: (value - column mean) / column s.d.

    ``mode`` picks the s.d. convention (sample n-1 by default; see README for
    why sample is the documented default). Constant columns, and columns
    whose s.d. underflows to 0.0, raise :class:`ZeroVariance`; fewer than
    two rows raise :class:`TooFewPoints`; a column whose mean or s.d.
    overflows double precision raises :class:`Overflow`.
    """
    mode = SdMode(mode)
    if data.n < 2:
        raise TooFewPoints(f"normalize needs n >= 2, got {data.n}")
    values = data.values
    ddof = 1 if mode is SdMode.SAMPLE else 0
    with np.errstate(over="ignore", invalid="ignore"):
        means = values.mean(axis=0)
        sds = values.std(axis=0, ddof=ddof)
    # A constant column's mean may round off its value, so its s.d. is not always 0.0.
    zero = np.flatnonzero((values == values[0]).all(axis=0) | (sds == 0.0))
    if zero.size:
        k = int(zero[0])
        raise ZeroVariance(k, data.column_names[k])
    # A mean that overflowed leaves its s.d. non-finite too.
    if not np.isfinite(sds).all():
        k = int(np.flatnonzero(~np.isfinite(sds))[0])
        raise Overflow(
            f"column {data.column_names[k]!r} (index {k}) overflows double "
            "precision when standardized"
        )
    coords = (values - means) / sds
    return NormalizedDataset(
        labels=data.labels,
        coords=coords,
        stats=NormalizationStats(means=means, sds=sds, mode=mode),
        column_names=data.column_names,
        source_hash=data.content_hash(),
    )


def identity_normalized(data: Dataset, mode: SdMode = SdMode.SAMPLE) -> NormalizedDataset:
    """Wrap raw values unchanged (the --no-normalize path): mean-0/sd-1 placeholders."""
    return NormalizedDataset(
        labels=data.labels,
        coords=data.values,
        stats=NormalizationStats(
            means=np.zeros(data.p), sds=np.ones(data.p), mode=SdMode(mode)
        ),
        column_names=data.column_names,
        source_hash=data.content_hash(),
        normalized=False,
    )


def _distinct_rows(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """A level's rows grouped by value, or None where no two rows are equal.

    Rows are equal when every column compares equal, so ``-0.0`` matches
    ``0.0``. Returns ``(rows, starts)``: value k is held by
    ``rows[starts[k]:starts[k + 1]]`` in ascending order, led by its
    representative, and the values come in ``lexsort`` order. A level with
    a non-finite coordinate counts as one without copies, so that its
    distances report the overflow.
    """
    first = coords[:, 0].copy()  # equal rows have equal first columns
    first.sort()
    if not np.logical_or.reduce(first[1:] == first[:-1]):
        return None
    order = np.lexsort(coords.T)  # stable: equal rows in one run, lowest row first
    ranked = coords[order]
    same = np.logical_and.reduce(ranked[1:] == ranked[:-1], axis=1)
    if not np.logical_or.reduce(same) or not np.logical_and.reduce(np.isfinite(coords), axis=None):
        return None
    edges = np.empty(same.size + 2, dtype=bool)  # each value's first row, then the end
    edges[0] = edges[-1] = True
    np.logical_not(same, out=edges[1:-1])
    return order, edges.nonzero()[0]


@dataclass(frozen=True)
class DistanceMatrix:
    """One level's distances over its ``n`` rows; every array is read-only.

    ``entries`` holds the condensed upper triangle, row-major; ``nearest``
    each point's least squared distance to another. Both cover every row,
    unless rows repeat: then ``rows`` and ``starts`` group them by value
    (value k is held by ``rows[starts[k]:starts[k + 1]]``), both cover one
    representative per value, and ``nearest`` is 0.0 for a value with copies.
    """

    n: int
    entries: np.ndarray = field(repr=False)
    nearest: np.ndarray = field(repr=False)
    rows: np.ndarray | None = field(default=None, repr=False)
    starts: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        for name in ("entries", "nearest", "rows", "starts"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _frozen(getattr(self, name)))

    def pairs_within(self, radius: float):
        """The row pairs ``(i, j, d)`` with ``d <= radius``, each once.

        Where rows repeat, the representatives' pairs are expanded to the
        pairs of their copies, with every two copies of one value at +0.0.
        """
        pairs = _kernels.pairs_within(self.entries, self.nearest.size, radius)
        if self.rows is None:
            return pairs
        return _kernels.expand_copies(*pairs, self.rows, self.starts)


def matrix_from_coords(coords: np.ndarray) -> DistanceMatrix:
    """A level's condensed Euclidean distances, computed once per distinct row.

    Copies lie at the same distance from every other row, and at +0.0 from
    each other, so only their representatives' pairs are computed, none
    where every row holds one value, and each value with copies has a least
    distance of 0.0. The same pass keeps each point's least squared
    distance for the cut-off. Raises :class:`Overflow` when a distance is
    not finite (squared differences beyond double precision, or coordinates
    that already were).
    """
    if type(coords) is not np.ndarray or coords.ndim != 2 or coords.dtype != np.float64:
        coords = np.atleast_2d(np.asarray(coords, dtype=np.float64))
    n = coords.shape[0]
    if n < 2:
        raise TooFewPoints(f"distance matrix needs n >= 2, got {n}")
    if coords.shape[1] < 1:
        raise ValueError("coordinates must have at least one column")
    rows, starts = _distinct_rows(coords) or (None, None)
    reps = coords if rows is None else coords[rows[starts[:-1]]]
    nearest = np.empty(len(reps))
    nearest.fill(np.inf)
    entries = _finite_distances(_kernels.pairwise_condensed, reps, nearest)
    if rows is not None:
        nearest[starts[1:] - starts[:-1] > 1] = 0.0
    return DistanceMatrix(n, entries, nearest, rows, starts)


def _finite_distances(kernel, *args, of: str = "pairwise", where=True) -> np.ndarray:
    """``kernel(*args)``, a distance array, or :class:`Overflow` if one is not finite.

    Overflow surfaces as a non-finite distance, not as a warning. A kernel
    yields no negative distance, and a NaN or inf makes the maximum
    non-finite, so one reduction checks the whole array, or the entries a
    boolean ``where`` selects; an empty selection passes.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = kernel(*args)
    if not math.isfinite(np.maximum.reduce(out, axis=None, initial=0.0, where=where)):
        raise Overflow(f"{of} distances overflow double precision; rescale the descriptors")
    return out
