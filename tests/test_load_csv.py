"""load_csv against a row-wise reference: same datasets, same first error.

``reference_load_csv`` is the row-wise loader the column-wise one
replaced: it reads every row into memory, checks rows in file order
(cell count first, then blank cells in label, sensitive, feature column
order) and converts column by column.  On a seeded corpus the two must
return the same bytes, or raise the same exception type with the same
message.  The corpus is run at several row-block sizes so that anomalies
land on the first, last and inner rows of a block.
"""

import csv
import io
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from grouprisk import CsvSchema, load_csv
from grouprisk import data
from grouprisk.errors import IngestionError, ParameterError
from grouprisk.subgroup import Dataset, first_appearance


def _parse_float(path, token, row, column):
    try:
        return float(token)
    except ValueError:
        raise IngestionError(
            f"{path}: row {row}, column {column!r}: cannot parse {token!r} "
            f"as a number") from None


def _one_hot(codes, n):
    hot = np.zeros((codes.size, n))
    hot[np.arange(codes.size), codes] = 1.0
    return hot


def reference_load_csv(path, schema):
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
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
    if not rows:
        raise IngestionError(f"{path}: no data rows")

    col_index = {name: i for i, name in enumerate(header)}
    sens_names = (schema.sensitive_column
                  if isinstance(schema.sensitive_column, tuple)
                  else (schema.sensitive_column,))
    for name in (schema.label_column, *sens_names):
        if name not in col_index:
            raise IngestionError(f"{path}: missing column {name!r}")

    if schema.feature_columns is None:
        reserved = {schema.label_column, *sens_names}
        feature_names = [h for h in header if h not in reserved]
    else:
        feature_names = list(schema.feature_columns)
        for name in feature_names:
            if name not in col_index:
                raise IngestionError(f"{path}: missing column {name!r}")
            if name == schema.label_column or name in sens_names:
                raise ParameterError(
                    f"feature column {name!r} clashes with the label or "
                    f"sensitive column; it is handled separately")

    for r, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise IngestionError(
                f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
        for name in (schema.label_column, *sens_names, *feature_names):
            if row[col_index[name]].strip() == "":
                raise IngestionError(
                    f"{path}: row {r}, column {name!r}: missing value")

    labels = np.array([1.0 if row[col_index[schema.label_column]] ==
                       schema.positive_label_token else -1.0 for row in rows])

    if schema.sensitive_kind == "real":
        sensitive = np.array([_parse_float(path, row[col_index[sens_names[0]]],
                                           r, sens_names[0])
                              for r, row in enumerate(rows, start=2)])
    else:
        sensitive, levels = first_appearance(
            [tuple(row[col_index[n]] for n in sens_names) for row in rows])

    columns = []
    for name in feature_names:
        tokens = [row[col_index[name]] for row in rows]
        try:
            columns.append(np.array([float(t) for t in tokens]))
        except ValueError:
            codes, values = first_appearance(tokens)
            columns.extend(_one_hot(codes, len(values)).T)

    if schema.include_sensitive:
        if schema.sensitive_kind == "real":
            columns.append(sensitive.astype(float))
        else:
            columns.extend(_one_hot(sensitive, len(levels)).T)

    if not columns:
        raise IngestionError(f"{path}: no feature columns")
    return Dataset(np.column_stack(columns), labels, sensitive)


HEADER = ["x1", "g", "label", "txt", "h", "s", "x2"]
FIELD_LIMIT = csv.field_size_limit()


def _clean_rows(rng, m):
    """m valid rows; quoted commas and newlines land in the text column."""
    def pick(options):
        return rng.choice(options, m).tolist()
    columns = [[f"{x:.6g}" for x in rng.normal(size=m)],
               pick(["north", "south", "east"]), pick(["yes", "no", " yes"]),
               pick(["plain", "a,b", "two\nlines", 'say "hi"', " padded "]),
               pick(["p", "q"]), [f"{x:.1f}" for x in rng.uniform(20, 80, m)],
               pick(["1", "2.5", "-3e2", " 7 "])]
    return [list(row) for row in zip(*columns)]


def _inject(rng, rows):
    """Spoil up to three rows with the anomalies load_csv must report."""
    kinds = ["blank", "blank", "ragged", "ragged", "bad_real", "csv_error",
             "not_utf8", "none", "none"]
    for kind in rng.choice(kinds, size=int(rng.integers(0, 4))):
        i = int(rng.integers(0, len(rows)))
        row = rows[i]
        if kind == "blank":
            row[int(rng.integers(0, len(row)))] = str(rng.choice(["", "  ", "\t"]))
        elif kind == "ragged":
            rows[i] = row[:-1] if rng.random() < 0.5 else row + ["extra"]
        elif kind == "bad_real":
            row[HEADER.index("s")] = "n/a"
        elif kind == "csv_error":
            row[HEADER.index("txt")] = "x" * (FIELD_LIMIT + 1)
        elif kind == "not_utf8":
            row[HEADER.index("txt")] = "caf\udcff"


def _schema(rng):
    sens = rng.choice(["g", "gh", "s"])
    sensitive = {"g": "g", "gh": ("g", "h"), "s": "s"}[sens]
    features = rng.choice(["all", "subset", "with_txt", "clash", "unknown"],
                          p=[0.5, 0.2, 0.2, 0.05, 0.05])
    feature_columns = {"all": None, "subset": ("x1", "x2"),
                       "with_txt": ("txt", "x1"), "clash": ("x1", "label"),
                       "unknown": ("x1", "nope")}[features]
    return CsvSchema(label_column="label", sensitive_column=sensitive,
                     positive_label_token="yes",
                     sensitive_kind="real" if sens == "s" else "categorical",
                     feature_columns=feature_columns,
                     include_sensitive=bool(rng.random() < 0.7))


def _write(path, rows, header=HEADER):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    path.write_bytes(buf.getvalue().encode("utf-8", "surrogateescape"))


def _outcome(loader, path, schema):
    try:
        ds = loader(path, schema)
    except (IngestionError, ParameterError) as exc:
        return type(exc).__name__, str(exc)
    return ("ok", *((a.dtype.str, a.shape, a.tobytes())
                    for a in (ds.features, ds.labels, ds.sensitive)))


def _assert_same(path, schema):
    got = _outcome(load_csv, path, schema)
    assert got == _outcome(reference_load_csv, path, schema), (path, schema)
    return got


def _kind(outcome):
    if outcome[0] == "ok":
        return "ok"
    for key in ("missing value", "cells, expected", "cannot parse",
                "field larger", "not UTF-8", "missing column", "clashes"):
        if key in outcome[1]:
            return key
    return outcome[1]


@pytest.mark.parametrize("block", [1, 3, 256])
def test_matches_reference(tmp_path, monkeypatch, block):
    monkeypatch.setattr(data, "_BLOCK_ROWS", block, raising=False)
    rng = np.random.default_rng(170 + block)
    kinds = Counter()
    for case in range(150):
        m = int(rng.integers(1, 12 if block < 256 else 700))
        rows = _clean_rows(rng, m)
        _inject(rng, rows)
        path = tmp_path / f"c{case}.csv"
        _write(path, rows)
        kinds[_kind(_assert_same(path, _schema(rng)))] += 1
    # the corpus reaches every outcome it is meant to compare
    assert {"ok", "missing value", "cells, expected", "cannot parse",
            "field larger", "not UTF-8"} <= set(kinds), kinds


def _case(tmp_path, rows, schema=None, header=HEADER):
    path = tmp_path / "case.csv"
    _write(path, rows, header)
    return _assert_same(path, schema or CsvSchema("label", "g", "yes"))


@pytest.mark.parametrize("block", [1, 2, 3, 256])
def test_error_precedence(tmp_path, monkeypatch, block):
    monkeypatch.setattr(data, "_BLOCK_ROWS", block, raising=False)
    rng = np.random.default_rng(17)
    clean = _clean_rows(rng, 6)

    def spoil(*edits):
        rows = [list(r) for r in clean]
        for i, col, value in edits:
            if col is None:
                rows[i] = value
            else:
                rows[i][HEADER.index(col)] = value
        return rows

    short = ["1", "north"]
    # a ragged row after an earlier blank cell: the blank cell wins
    out = _case(tmp_path, spoil((1, "x2", " "), (4, None, short)))
    assert out[1].endswith("row 3, column 'x2': missing value")
    # a ragged row before a blank cell: the ragged row wins
    out = _case(tmp_path, spoil((1, None, short), (4, "x1", "")))
    assert out[1].endswith("row 3 has 2 cells, expected 7")
    # a blank cell in a later column of an earlier row beats an earlier
    # column of a later row; within a row, label, sensitive, features
    out = _case(tmp_path, spoil((2, "x2", ""), (3, "label", "")))
    assert out[1].endswith("row 4, column 'x2': missing value")
    out = _case(tmp_path, spoil((2, "x1", ""), (2, "g", ""), (2, "label", "")))
    assert out[1].endswith("row 4, column 'label': missing value")
    # read errors after a ragged row win over it
    out = _case(tmp_path, spoil((0, None, short),
                                (5, "txt", "x" * (FIELD_LIMIT + 1))))
    assert "field larger than field limit" in out[1]
    out = _case(tmp_path, spoil((0, None, short), (5, "txt", "\udcff")))
    assert "not UTF-8 text" in out[1]
    # a bad real cell is reported only once every row is well formed
    real = CsvSchema("label", "s", "yes", sensitive_kind="real")
    out = _case(tmp_path, spoil((1, "s", "n/a"), (3, "x1", "")), real)
    assert out[1].endswith("row 5, column 'x1': missing value")
    out = _case(tmp_path, spoil((1, "s", "n/a"), (3, "s", "?")), real)
    assert out[1].endswith("row 3, column 's': cannot parse 'n/a' as a number")
    # ragged rows at every position, including each block's first and last
    for i in range(len(clean)):
        out = _case(tmp_path, spoil((i, None, clean[i] + ["x"])))
        assert out[1].endswith(f"row {i + 2} has 8 cells, expected 7")
    # only the named columns are checked for blank cells
    subset = CsvSchema("label", ("g", "h"), "yes", feature_columns=("x1",),
                       include_sensitive=False)
    assert _case(tmp_path, spoil((2, "txt", " ")), subset)[0] == "ok"
    # header-level errors
    assert _case(tmp_path, [], header=HEADER)[1].endswith("no data rows")
    assert "duplicate header" in _case(tmp_path, clean,
                                       header=HEADER[:-1] + ["x1"])[1]
    assert _case(tmp_path, [[]], header=[])[1].endswith(
        "missing column 'label'")


def test_non_finite_cells_name_row_and_column(tmp_path):
    # float cells that are not finite: the earliest row, then the earliest
    # feature column; a real sensitive value comes first (precedence 4
    # before 5), and a blank cell before either
    path = tmp_path / "inf.csv"
    header = ["a", "b", "t", "s", "label"]
    rows = [["1", "2", "u", "0.5", "1"], ["2", "inf", "nan", "1", "0"],
            ["nan", "3", "v", "2", "0"], ["3", "4", "u", "3", "1"]]

    def error(edits=(), **schema):
        spoilt = [list(r) for r in rows]
        for i, j, cell in edits:
            spoilt[i][j] = cell
        _write(path, spoilt, header)
        with pytest.raises(IngestionError) as err:
            load_csv(path, CsvSchema("label", "s", "1", **schema))
        return str(err.value).removeprefix(f"{path}: ")

    # the text column's 'nan' is a level, not a number
    assert error() == "row 3, column 'b': 'inf' is not a finite number"
    assert error([(1, 0, "-1e999")]) == \
        "row 3, column 'a': '-1e999' is not a finite number"
    assert error([(1, 0, "-1e999")], feature_columns=("b", "a")) == \
        "row 3, column 'b': 'inf' is not a finite number"
    real = dict(sensitive_kind="real")
    assert error([(3, 3, "NaN")], **real) == \
        "row 5, column 's': 'NaN' is not a finite number"
    assert error([(2, 3, "inf"), (3, 3, "n/a")], **real) == \
        "row 4, column 's': 'inf' is not a finite number"
    assert error([(2, 3, "n/a"), (3, 3, "inf")], **real) == \
        "row 4, column 's': cannot parse 'n/a' as a number"
    assert error([(3, 1, " ")]) == "row 5, column 'b': missing value"


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_close_to_the_cells(tmp_path):
    # each column's cells are released once converted and the matrix is
    # filled in place, so loading needs well under one more feature matrix
    # than holding the file's cells; keeping the feature columns' cells
    # to the end takes about 0.9 of one, a column_stack copy more than 2
    rng = np.random.default_rng(19)
    m = 20_000
    columns = [*([f"{x:.6f}" for x in rng.normal(size=m)] for _ in range(3)),
               rng.choice(["red", "green", "blue", "grey"], m).tolist(),
               rng.choice(["north", "south", "east", "west", "centre"],
                          m).tolist(),
               rng.choice(["0", "1"], m).tolist()]
    path = tmp_path / "wide.csv"
    _write(path, [list(row) for row in zip(*columns)],
           ["x1", "x2", "x3", "colour", "region", "label"])
    schema = CsvSchema("label", "region", "1")

    def read_cells():
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            data._read_columns(reader, len(next(reader)))

    features = load_csv(path, schema).features
    assert features.shape == (m, 12)
    excess = _traced_peak(lambda: load_csv(path, schema)) - \
        _traced_peak(read_cells)
    assert excess < features.nbytes / 2
