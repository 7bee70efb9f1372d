"""Dataset ingestion, synthetic benchmark generation, splitting, scaling."""

from __future__ import annotations

import csv
import math
import operator
from collections import deque
from dataclasses import dataclass
from itertools import islice, repeat
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import IngestionError, InputError, ParameterError
from .subgroup import Dataset, first_appearance


@dataclass(frozen=True)
class CsvSchema:
    """How to read a CSV file into a dataset.

    The file needs a header row.  Labels map to +1 when the cell equals
    ``positive_label_token`` and -1 otherwise.  ``sensitive_column`` may
    be a tuple of column names, combined into one categorical product key.
    ``feature_columns`` defaults to every remaining column; text columns
    are one-hot encoded in first-appearance order.  The sensitive value is
    also appended to the features unless ``include_sensitive`` is False
    (dropping it does not remove its correlations with other columns).
    """

    label_column: str
    sensitive_column: Union[str, tuple]
    positive_label_token: str
    sensitive_kind: str = "categorical"
    feature_columns: Optional[Sequence[str]] = None
    include_sensitive: bool = True

    def __post_init__(self):
        if self.sensitive_kind not in ("categorical", "real"):
            raise ParameterError(
                f"sensitive_kind must be categorical or real, got "
                f"{self.sensitive_kind!r}")
        sens = self.sensitive_column
        names = sens if isinstance(sens, tuple) else (sens,)
        if self.label_column in names:
            raise ParameterError("label and sensitive columns must be distinct")
        if isinstance(sens, tuple) and self.sensitive_kind == "real":
            raise ParameterError("a combined sensitive key must be categorical")


@dataclass(frozen=True)
class SynthSpec:
    """Two-group Gaussian benchmark with group-dependent label noise.

    Group 0 is easy (class means far apart, little noise) and group 1 is
    hard (close means along an orthogonal direction, frequent label
    flips), so plain risk minimisation leaves a visible gap between the
    subgroup risks.  ``class_means[g]`` holds the 2-d means for the
    negative and positive class of group g.
    """

    m: int = 400
    group_fractions: tuple = (0.5, 0.5)
    class_means: tuple = (((-2.0, 0.0), (2.0, 0.0)),
                          ((0.0, -0.5), (0.0, 0.5)))
    noise_rates: tuple = (0.05, 0.25)
    seed: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise ParameterError("m must be positive")
        f0, f1 = self.group_fractions
        if not (0.0 < f0 < 1.0 and 0.0 < f1 < 1.0) or abs(f0 + f1 - 1.0) > 1e-12:
            raise ParameterError("group fractions must lie in (0,1) and sum to 1")
        if len(self.class_means) != 2 or any(len(g) != 2 for g in self.class_means):
            raise ParameterError("class_means needs two 2-d points per group")
        if any(not 0.0 <= r < 0.5 for r in self.noise_rates):
            raise ParameterError("noise rates must lie in [0, 0.5)")


def generate_synth(spec: SynthSpec) -> Dataset:
    """Draw the benchmark dataset; a pure function of the spec fields."""
    rng = np.random.default_rng(spec.seed)
    groups = (rng.random(spec.m) < spec.group_fractions[1]).astype(int)
    clean = rng.integers(0, 2, spec.m) * 2 - 1
    means = np.array(spec.class_means, dtype=float)  # shape (2, 2, 2)
    centers = means[groups, (clean + 1) // 2]
    feats = centers + rng.standard_normal((spec.m, 2))
    flips = rng.random(spec.m) < np.asarray(spec.noise_rates)[groups]
    labels = clean * np.where(flips, -1, 1)
    return Dataset(feats, labels, groups)


class SplitResult(NamedTuple):
    train: Dataset
    test: Dataset
    stratified: bool


def split(dataset: Dataset, train_fraction: float, seed: int = 0) -> SplitResult:
    """Shuffle rows into train and test, stratified by (label, group).

    Cells are coded by ``first_appearance`` (-0.0 and 0.0 in one group).
    Falls back to a plain shuffle (flagged in the result) when some
    (label, group) cell has fewer than two rows, as a NaN's always has.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ParameterError("train fraction must lie strictly in (0, 1)")
    m = dataset.m
    if m < 2:
        raise InputError(f"train fraction {train_fraction!r} leaves one side "
                         f"of a {m}-row split empty")
    rng = np.random.default_rng(seed)
    target = int(round(train_fraction * m))
    target = min(max(target, 1), m - 1)

    groups, _ = first_appearance(dataset.sensitive)
    codes, first = first_appearance(2 * groups + (dataset.labels > 0.0))
    sizes = np.bincount(codes)
    if np.any(sizes < 2):
        perm = rng.permutation(m)
        return SplitResult(dataset.take(perm[:target]), dataset.take(perm[target:]),
                           False)

    # strata go in repr order of their first rows' (label, group) keys; a
    # stable sort by code lists each stratum's rows in ascending order
    keys = [repr(k) for k in zip(dataset.labels[first].tolist(),
                                 dataset.sensitive[first].tolist())]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    strata = np.split(np.argsort(codes, kind="stable"), np.cumsum(sizes)[:-1])
    shares = train_fraction * sizes[order]
    takes = np.floor(shares).astype(int)
    # hand leftover slots to the largest fractional remainders, stable order
    leftover = np.argsort(np.floor(shares) - shares, kind="stable")
    takes[leftover[:max(target - int(takes.sum()), 0)]] += 1
    in_train = np.zeros(m, dtype=bool)
    for c, take in zip(order, takes):
        in_train[strata[c][rng.permutation(sizes[c])[:take]]] = True
    return SplitResult(dataset.take(np.flatnonzero(in_train)),
                       dataset.take(np.flatnonzero(~in_train)), True)


@dataclass(frozen=True, eq=False)
class Scaler:
    """Column-wise affine transform fitted on a training set."""

    mean: np.ndarray
    scale: np.ndarray

    def transform(self, features: np.ndarray) -> np.ndarray:
        # the bits of (X - mean) / scale with one temporary: the output
        out = np.subtract(features, self.mean, dtype=float)
        out /= self.scale
        return out


def standardize(train: Dataset, test: Optional[Dataset] = None):
    """Zero-mean unit-variance columns, fitted on train and applied to both.

    Zero-variance columns pass through untouched.  Returns the transformed
    datasets plus the fitted scaler.
    """
    mu = train.features.mean(axis=0)
    sd = train.features.std(axis=0)
    constant = sd == 0.0
    mu = np.where(constant, 0.0, mu)
    sd = np.where(constant, 1.0, sd)
    scaler = Scaler(mu, sd)

    def apply(ds: Optional[Dataset]):
        if ds is None:
            return None
        return Dataset(scaler.transform(ds.features), ds.labels, ds.sensitive,
                       ds.group_weighting)

    return apply(train), apply(test), scaler


# Rows per block in load_csv.  The per-row lists are dropped block by
# block: with all rows of a file alive at once, the cyclic GC walks them
# again and again.  Reading and transposing a 2e5-row, 6-column file took
# 0.72 s whole, against 0.23 s in 256-row blocks, 0.26 s in 1024 and
# 0.37 s in 4096 (medians of 5, Python 3.11, 2 x86 vCPUs).
_BLOCK_ROWS = 256


def _float_column(column: list) -> Optional[np.ndarray]:
    """The cells as floats, or None when one of them is not a number."""
    try:
        return np.fromiter(map(float, column), float, count=len(column))
    except ValueError:
        return None


def _all_finite(values: np.ndarray) -> bool:
    # min and max propagate NaN; unlike isfinite they need no bool array
    return not values.size or (math.isfinite(values.min())
                               and math.isfinite(values.max()))


def _read_columns(reader, width: int):
    """Transpose the data rows onto per-column lists, one row block at a time.

    Returns the columns of the rows before the first ragged row, how many
    rows those are, and the ragged row's (row number, cell count) or None.
    After a ragged row the rest of the file is still read, so that a later
    read error wins.
    """
    columns = [[] for _ in range(width)]
    m, ragged = 0, None
    while ragged is None and (block := list(islice(reader, _BLOCK_ROWS))):
        if set(map(len, block)) != {width}:
            k = next(i for i, row in enumerate(block) if len(row) != width)
            ragged = (m + k + 2, len(block[k]))
            del block[k:]
            deque(reader, maxlen=0)
        for column, cells in zip(columns, zip(*block)):
            column.extend(cells)
        m += len(block)
    return columns, m, ragged


def load_csv(path, schema: CsvSchema) -> Dataset:
    """Read a CSV file into a dataset according to the schema.

    The file is read in blocks of rows, each transposed onto per-column
    lists.  The columns are then checked and converted one at a time, and
    each column's cells are released as soon as it is converted, so at
    most one column exists both as cells and as numbers.  The feature
    matrix is allocated once and filled in place: numeric columns as they
    are, text columns (and a categorical sensitive column) as one-hot
    blocks.  Only one error is raised, in this order of precedence:

    1. a read error (unreadable file, non-UTF-8 text, malformed CSV)
       anywhere in the file;
    2. an empty file, duplicate header names, no data rows, then a
       missing or clashing column;
    3. the first bad row in file order: a row whose cell count differs
       from the header's, else its first missing (blank) cell in label,
       sensitive, feature column order;
    4. the first real sensitive value that is not a finite number;
    5. the first feature cell that parses as a number but is not finite
       (``nan``, ``inf``, ``1e999``): the earliest row, then the earliest
       column in feature order;
    6. no feature columns.

    Row numbers count the header as row 1 and each record as one row.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is not None:
                cells, m, ragged = _read_columns(reader, len(header))
    except OSError as exc:
        raise IngestionError(f"{path}: cannot read ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise IngestionError(f"{path}: row {reader.line_num}: {exc}") from None
    if header is None:
        raise IngestionError(f"{path}: empty file")
    if len(set(header)) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise IngestionError(f"{path}: duplicate header names {dupes}")
    if m == 0 and ragged is None:
        raise IngestionError(f"{path}: no data rows")

    # from here on the dict holds the only reference to each column's cells
    column = dict(zip(header, cells))
    del cells
    sens_names = (schema.sensitive_column
                  if isinstance(schema.sensitive_column, tuple)
                  else (schema.sensitive_column,))
    for name in (schema.label_column, *sens_names):
        if name not in column:
            raise IngestionError(f"{path}: missing column {name!r}")

    if schema.feature_columns is None:
        reserved = {schema.label_column, *sens_names}
        feature_names = [h for h in header if h not in reserved]
    else:
        feature_names = list(schema.feature_columns)
        for name in feature_names:
            if name not in column:
                raise IngestionError(f"{path}: missing column {name!r}")
            if name == schema.label_column or name in sens_names:
                raise ParameterError(
                    f"feature column {name!r} clashes with the label or "
                    f"sensitive column; it is handled separately")
    column = {name: column[name]
              for name in (schema.label_column, *sens_names, *feature_names)}

    # the first blank cell of each scanned column that has one, in check order
    missing = []

    def scanned(name: str) -> list:
        cells = column[name]
        if not all(map(str.strip, cells)):
            missing.append((next(r for r, cell in enumerate(cells, start=2)
                                 if not cell.strip()), name))
        return cells

    labels = np.where(np.fromiter(
        map(operator.eq, scanned(schema.label_column),
            repeat(schema.positive_label_token)), bool, count=m), 1.0, -1.0)
    del column[schema.label_column]

    # the cells of a real sensitive column with a value that is not a
    # finite number
    bad_real = None
    if schema.sensitive_kind == "real":
        sensitive = _float_column(scanned(sens_names[0]))
        if sensitive is None or not _all_finite(sensitive):
            bad_real = column[sens_names[0]]
    else:
        keys = [scanned(n) for n in sens_names]
        sensitive, first = first_appearance(
            keys[0] if len(keys) == 1 else list(zip(*keys)))
        del keys
    for name in sens_names:
        column.pop(name, None)

    # each feature column as floats, or a text column as its codes and
    # each code's first row, whose count is its one-hot width; a float
    # parse already fails on a blank cell, so only those it rejects are scanned
    blocks = {}
    # (row, feature index, name, cell) of each float column's first
    # non-finite cell
    not_finite = []
    for j, name in enumerate(feature_names):
        if name not in blocks:
            values = _float_column(column[name])
            if values is None:
                values = first_appearance(scanned(name))
            elif not _all_finite(values):
                i = int(np.argmin(np.isfinite(values)))
                not_finite.append((i + 2, j, name, column[name][i]))
            blocks[name] = values
            del column[name]

    if missing:
        # min keeps the earliest row, and of equal rows the earliest column
        r, name = min(missing, key=lambda rn: rn[0])
        raise IngestionError(f"{path}: row {r}, column {name!r}: missing value")
    if ragged is not None:
        raise IngestionError(f"{path}: row {ragged[0]} has {ragged[1]} cells, "
                             f"expected {len(header)}")
    if bad_real is not None:
        for r, cell in enumerate(bad_real, start=2):
            try:
                finite = math.isfinite(float(cell))
            except ValueError:
                raise IngestionError(
                    f"{path}: row {r}, column {sens_names[0]!r}: cannot "
                    f"parse {cell!r} as a number") from None
            if not finite:
                # precedence 4 goes before every feature cell
                not_finite = [(r, 0, sens_names[0], cell)]
                break
    if not_finite:
        r, _, name, cell = min(not_finite)
        raise IngestionError(f"{path}: row {r}, column {name!r}: {cell!r} is "
                             f"not a finite number")

    parts = [blocks[name] for name in feature_names]
    if schema.include_sensitive:
        parts.append(sensitive if schema.sensitive_kind == "real"
                     else (sensitive, first))
    if not parts:
        raise IngestionError(f"{path}: no feature columns")
    widths = [1 if isinstance(p, np.ndarray) else len(p[1]) for p in parts]
    features = np.zeros((m, sum(widths)))
    rows = np.arange(m)
    j = 0
    for width, part in zip(widths, parts):
        if isinstance(part, np.ndarray):
            features[:, j] = part
        else:
            features[:, j:j + width][rows, part[0]] = 1.0
        j += width
    return Dataset(features, labels, sensitive)
