import copy
import csv
import io
import math
import pickle
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knnsweep import dataset
from knnsweep import (
    ColumnKind,
    CsvFormatError,
    Dataset,
    SchemaError,
    SplitSpec,
    apply_standardizer,
    fit,
    fit_standardizer,
    load_csv,
    load_features_csv,
    predict,
    predict_one,
    split,
    write_csv,
)

from conftest import make_dataset


def _write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadCsv:
    def test_basic_numeric(self, tmp_path):
        p = _write(tmp_path, "a,b,y\n1,2,10\n3,4,20\n")
        ds = load_csv(p, "y")
        assert ds.n_rows == 2 and ds.n_columns == 2
        assert ds.column_names == ("a", "b")
        assert ds.column_kinds == (ColumnKind.NUMERIC, ColumnKind.NUMERIC)
        assert np.array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(ds.target, [10.0, 20.0])

    def test_categorical_first_appearance_codes(self, tmp_path):
        p = _write(tmp_path, "color,y\nred,1\nblue,2\nred,3\n")
        ds = load_csv(p, "y", categorical_columns={"color"})
        assert ds.column_kinds == (ColumnKind.CATEGORICAL,)
        assert np.array_equal(ds.features[:, 0], [0.0, 1.0, 0.0])

    def test_query_file_takes_the_training_codebook(self, tmp_path):
        train = load_csv(_write(tmp_path, "c,y\na,1\nb,2\n"), "y", categorical_columns={"c"})
        assert train.codebooks == {"c": ("a", "b")}
        query = load_features_csv(_write(tmp_path, "c\nb\na\nb\n", "q.csv"),
                                  categorical_columns={"c"}, codebooks=train.codebooks)
        assert query.features[:, 0].tolist() == [1.0, 0.0, 1.0]
        assert query.codebooks == train.codebooks
        assert split(train, SplitSpec(0.5, 1))[0].codebooks == train.codebooks

    def test_label_missing_from_the_codebook_names_row_and_column(self, tmp_path):
        q = _write(tmp_path, "c\na\nz\n", "q.csv")
        with pytest.raises(CsvFormatError, match=r"row 2, column 'c': label 'z'"):
            load_features_csv(q, categorical_columns={"c"}, codebooks={"c": ("a", "b")})

    def test_unparseable_cell_names_row_and_column(self, tmp_path):
        p = _write(tmp_path, "a,b,y\n1,abc,10\n")
        with pytest.raises(CsvFormatError, match=r"row 1.*'b'"):
            load_csv(p, "y")

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv", "y")

    def test_empty_file_missing_header(self, tmp_path):
        p = _write(tmp_path, "")
        with pytest.raises(CsvFormatError, match="header"):
            load_csv(p, "y")

    @pytest.mark.parametrize("body, per_cell", [
        ("1,2,x\n3,4,z\n", False),
        ('1,2,"x\nx"\n3,4,z\n', True),  # a quoted label across lines
    ], ids=["c-reader", "per-cell"])
    def test_leading_byte_order_mark_is_ignored(self, tmp_path, body, per_cell):
        p = tmp_path / "bom.csv"
        p.write_bytes(("\ufeffy,a,c\n" + body).encode("utf-8"))
        with mock.patch.object(dataset, "_parse_rows", wraps=dataset._parse_rows) as loop:
            ds = load_csv(p, "y", categorical_columns={"c"})
        assert loop.call_count == per_cell
        assert ds.column_names == ("a", "c")
        assert ds.features.tolist() == [[2.0, 0.0], [4.0, 1.0]]
        assert ds.target.tolist() == [1.0, 3.0]

    def test_header_csv_reader_rejects(self, tmp_path):
        p = _write(tmp_path, "a," + "b" * 140_000 + "\n1,2\n")
        with pytest.raises(CsvFormatError) as err:
            load_features_csv(p)
        assert str(err.value) == f"{p}: header row: field larger than field limit (131072)"

    def test_duplicate_header(self, tmp_path):
        p = _write(tmp_path, "a,a,y\n1,2,3\n")
        with pytest.raises(CsvFormatError, match="duplicate"):
            load_csv(p, "y")

    def test_missing_target_column(self, tmp_path):
        p = _write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(CsvFormatError, match="target"):
            load_csv(p, "y")

    def test_empty_body(self, tmp_path):
        p = _write(tmp_path, "a,y\n")
        with pytest.raises(CsvFormatError, match="no data rows"):
            load_csv(p, "y")

    def test_target_as_the_only_column(self, tmp_path):
        p = _write(tmp_path, "y\n1\n2\n")
        with pytest.raises(CsvFormatError, match="no feature columns besides the target$"):
            load_csv(p, "y")

    def test_target_listed_as_categorical(self, tmp_path):
        p = _write(tmp_path, "a,y\n1,2\n")
        with pytest.raises(CsvFormatError, match="categorical"):
            load_csv(p, "y", categorical_columns={"y"})

    def test_unknown_categorical_column(self, tmp_path):
        p = _write(tmp_path, "a,y\n1,2\n")
        with pytest.raises(CsvFormatError, match="not in header"):
            load_csv(p, "y", categorical_columns={"z"})

    def test_missing_value_rejected(self, tmp_path):
        p = _write(tmp_path, "a,b,y\n1,,10\n")
        with pytest.raises(CsvFormatError, match=r"row 1.*'b'"):
            load_csv(p, "y")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, tmp_path, bad):
        p = _write(tmp_path, f"a,y\n{bad},10\n")
        with pytest.raises(CsvFormatError, match="non-finite"):
            load_csv(p, "y")

    def test_ragged_row(self, tmp_path):
        p = _write(tmp_path, "a,b,y\n1,2,3\n4,5\n")
        with pytest.raises(CsvFormatError, match="row 2"):
            load_csv(p, "y")

    def test_features_only_loader(self, tmp_path):
        p = _write(tmp_path, "a,b\n1,2\n3,4\n")
        ds = load_features_csv(p)
        assert ds.column_names == ("a", "b")
        assert np.array_equal(ds.target, [0.0, 0.0])

    # The first fault in row-major order is named; within a row the features
    # come in header order and the target after them.
    @pytest.mark.parametrize("text, categorical, codebooks, message", [
        ("y,a,b\nabc,1,xyz\n", (), None,
         "row 1, column 'b': cannot parse 'xyz' as a number"),
        ("a,y\n1,2\nq,3\n4\n", (), None,
         "row 2, column 'a': cannot parse 'q' as a number"),
        ("c,n,y\nr,1,1\n ,inf,2\n", ("c",), None,
         "row 2, column 'c': missing value"),
        ("n,c,y\n1,r,1\n-inf, ,2\n", ("c",), None,
         "row 2, column 'n': non-finite value '-inf'"),
        ("c,n\na,1\nz,nan\n", ("c",), {"c": ("a", "b")},
         "row 2, column 'c': label 'z' does not occur in the training data"),
    ])
    def test_first_fault_message_is_pinned(self, tmp_path, text, categorical, codebooks, message):
        p = _write(tmp_path, text)
        with pytest.raises(CsvFormatError) as err:
            if codebooks is None:
                load_csv(p, "y", categorical_columns=categorical)
            else:
                load_features_csv(p, categorical_columns=categorical, codebooks=codebooks)
        assert str(err.value) == f"{p}: {message}"


@st.composite
def _real_cells(draw):
    """A float written by repr or %.17g, with optional `_` separators
    between digits and whitespace padding on both sides."""
    value = draw(st.floats(allow_nan=False, allow_infinity=False)
                 | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308]))
    text = repr(value) if draw(st.booleans()) else "%.17g" % value
    gaps = [i for i in range(1, len(text)) if text[i - 1].isdigit() and text[i].isdigit()]
    for i in sorted(draw(st.sets(st.sampled_from(gaps))) if gaps else (), reverse=True):
        text = text[:i] + "_" + text[i:]
    # \x1c-\x1f are padding that str.strip removes and float alone rejects
    pad = st.text(alphabet=" \t\xa0\u2003\v\f\x85\u3000\x1c\x1d\x1e\x1f", max_size=3)
    return draw(pad) + text + draw(pad)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(rows=st.lists(st.tuples(_real_cells(), _real_cells()), min_size=1, max_size=12))
@example(rows=[("\x1c1.5", "2"), ("\v-0.0\u3000", "\x855e-324")])
def test_loaded_reals_are_float_of_the_stripped_cell(tmp_path_factory, rows):
    p = tmp_path_factory.mktemp("reals") / "data.csv"
    p.write_text("x,y\n" + "".join(f"{x},{y}\n" for x, y in rows), encoding="utf-8")
    with mock.patch.object(dataset, "_parse_rows", wraps=dataset._parse_rows) as per_cell:
        ds = load_csv(p, "y")
    want_x = np.array([float(x.strip()) for x, _ in rows])
    want_y = np.array([float(y.strip()) for _, y in rows])
    assert ds.features[:, 0].tobytes() == want_x.tobytes()
    assert ds.target.tobytes() == want_y.tobytes()
    # loadtxt rejects the `_` separators float accepts, and strips the same
    # padding: exactly the files holding a `_` take the per-cell loop
    assert per_cell.call_count == any("_" in x + y for x, y in rows)


def _text(rows, lineterminator="\n", quoting=csv.QUOTE_MINIMAL):
    buf = io.StringIO()
    csv.writer(buf, lineterminator=lineterminator, quoting=quoting).writerows(rows)
    return buf.getvalue()


class TestPerCellLoop:
    """First faults and codes where good rows come before or after them."""

    def test_first_fault_after_good_rows_is_pinned(self, tmp_path):
        # row 4 only parses after strip; row 6 holds the first fault, row 7 a later one
        p = _write(tmp_path, "a,c,y\n1,r,1\n2,s,2\n3,r,3\n\x1c4,t,4\n5,s,5\n6, ,nan\n7,r\n")
        with pytest.raises(CsvFormatError) as err:
            load_csv(p, "y", categorical_columns={"c"})
        assert str(err.value) == f"{p}: row 6, column 'c': missing value"

    @pytest.mark.parametrize("good_rows", [1, 2, 3])
    def test_ragged_row_after_good_rows(self, tmp_path, good_rows):
        rows = [[str(i), str(i)] for i in range(1, good_rows + 1)]
        p = _write(tmp_path, _text([["a", "y"], *rows, ["1"], ["x", "2"]]))
        with pytest.raises(CsvFormatError) as err:
            load_csv(p, "y")
        assert str(err.value) == f"{p}: row {good_rows + 1} has 1 cells, expected 2"

    def test_codes_follow_first_appearance(self, tmp_path):
        p = _write(tmp_path, "c,d,y\nb,x,1\na,x,2\nb,y,3\nc,z,4\na,y,5\nd,x,6\n")
        with mock.patch.object(dataset, "_parse_rows", wraps=dataset._parse_rows) as per_cell:
            ds = load_csv(p, "y", categorical_columns={"c", "d"})
            q = _write(tmp_path, "c,d\nd,z\nc,y\nb,x\na,x\n", "q.csv")
            query = load_features_csv(q, categorical_columns={"c", "d"}, codebooks=ds.codebooks)
        assert per_cell.call_count == 0
        assert ds.features.tolist() == [[0, 0], [1, 0], [0, 1], [2, 2], [1, 1], [3, 0]]
        assert ds.codebooks == {"c": ("b", "a", "c", "d"), "d": ("x", "y", "z")}
        assert query.features.tolist() == [[3, 2], [2, 1], [0, 0], [1, 0]]
        assert query.codebooks == ds.codebooks
        unseen = _write(tmp_path, "c,d\nd,z\nc,y\nb,x\na,w\n", "unseen.csv")
        with pytest.raises(CsvFormatError) as err:
            load_features_csv(unseen, categorical_columns={"c", "d"}, codebooks=ds.codebooks)
        assert str(err.value) == (f"{unseen}: row 4, column 'd': "
                                  "label 'w' does not occur in the training data")

    def test_fault_before_an_undecodable_byte_is_reported_first(self, tmp_path):
        # the bad byte is decoded more than 8 KiB after row 2
        body = b"a,y\n1,1\nq,2\n" + b"3.25,3.5\n" * 1000
        p = tmp_path / "bytes.csv"
        p.write_bytes(body + b"\xff,4\n")
        with pytest.raises(CsvFormatError) as err:
            load_csv(p, "y")
        assert str(err.value) == f"{p}: row 2, column 'a': cannot parse 'q' as a number"
        p.write_bytes(body.replace(b"q", b"2") + b"\xff,4\n")
        with pytest.raises(CsvFormatError) as err:
            load_csv(p, "y")
        assert str(err.value) == f"{p}: row 1003: cannot decode byte 0xff as UTF-8"


def _per_cell_reference(path, target, categorical, codebooks):
    """The row-major per-cell loader, written out: (features, target,
    codebooks) of a file, or the CsvFormatError message of its first fault."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        names = [h for h in header if h != target]
        books = {name: {label: code for code, label in enumerate(codebooks.get(name, ()))}
                 for name in names if name in categorical}
        values = {name: [] for name in header}
        row_no = 0
        while True:
            try:
                row = next(reader)
            except StopIteration:
                break
            except csv.Error as err:
                return f"{path}: row {row_no + 1}: {err}"
            row_no += 1
            if len(row) != len(header):
                return f"{path}: row {row_no} has {len(row)} cells, expected {len(header)}"
            for name in [*names, target] if target else names:
                cell = row[header.index(name)].strip()
                where = f"{path}: row {row_no}, column {name!r}: "
                if name not in books:
                    try:
                        value = float(cell)
                    except ValueError:
                        return where + f"cannot parse {cell!r} as a number"
                    if not math.isfinite(value):
                        return where + f"non-finite value {cell!r}"
                    values[name].append(value)
                elif cell == "":
                    return where + "missing value"
                elif name in codebooks and cell not in books[name]:
                    return where + f"label {cell!r} does not occur in the training data"
                else:
                    values[name].append(float(books[name].setdefault(cell, len(books[name]))))
    if not row_no:
        return f"{path}: no data rows after the header"
    features = np.array([values[name] for name in names]).T
    target_values = np.array(values[target]) if target else np.zeros(row_no)
    return features.tobytes(), target_values.tobytes(), {n: tuple(b) for n, b in books.items()}


def _loaded(path, target, categorical, codebooks):
    """What the loader gives, in ``_per_cell_reference``'s terms, and
    whether it took the per-cell loop; any warning fails the load."""
    with warnings.catch_warnings(), \
            mock.patch.object(dataset, "_parse_rows", wraps=dataset._parse_rows) as per_cell:
        warnings.simplefilter("error")
        try:
            if target is None:
                ds = load_features_csv(path, categorical_columns=categorical, codebooks=codebooks)
            else:
                ds = load_csv(path, target, categorical_columns=categorical)
        except CsvFormatError as err:
            return str(err), per_cell.called
    return (ds.features.tobytes(), ds.target.tobytes(), ds.codebooks), per_cell.called


_PERFBENCH_STYLE = "x0,x1,x2,y\n" + "".join(
    ",".join(map(repr, row)) + "\n"
    for row in np.random.Generator(np.random.PCG64(7)).normal(size=(300, 4)).tolist())


class TestCReader:
    """Which files numpy's C reader reads, and which go to the per-cell
    loop; either way the result equals the per-cell reference."""

    @pytest.mark.parametrize("text, categorical", [
        (_PERFBENCH_STYLE, ()),
        ('"x","c","y"\r\n"1.5","a",2\r\n-3,"b b",4e-3\r\n" 7 ","a"," -0.0"\r\n', ("c",)),
        ("c,d,y\nb,x,1\na,x,2\nb,y,3\nc,z,4\n", ("c", "d")),
    ], ids=["perfbench-style", "r-style", "categorical"])
    def test_plain_files_skip_the_per_cell_loop(self, tmp_path, text, categorical):
        p = _write(tmp_path, text)
        want = _per_cell_reference(p, "y", categorical, {})
        assert isinstance(want, tuple)
        assert _loaded(p, "y", categorical, {}) == (want, False)

    @pytest.mark.parametrize("raw, per_cell", [
        (b"a,y\n1,2\n\n3,4\n", True),
        (b"a,y\n1,2\n3,4\n\n", True),
        (b"a,y\r\n1,2\r\n\r\n", True),
        (b"a,y\r1,2\r\r3,4\r", True),
        (b"a,y\n1,2\n  \n", True),
        (b"a\n1\n \t\n", True),
        (b"a,y\n1,2,3\n4,5,6\n", True),
        (b"a,y\nnan,1\n", True),
        (b"a,y\n1,-inf\n", True),
        (b"a,y\n1_0,1\n", True),
        ("a,y\n\u0661\u0662,1\n".encode(), True),
        (b'c,y\n"a\rb",1\n', True),
        (b'c,y\n"a\r\nb",1\n', True),
        (b"a,y\n1\x00,2\n", True),
        (b"c,y\na\x00,1\n", True),
        (b"a,y\n0." + b"0" * 139_998 + b"1,1\n", True),
        (b'a,y\n"' + b"\n " * 70_000 + b'1",1\n', True),
        (b'"a\nb",y\n1,2\n', False),
        (b"a,y\n", True),
        (b"a,y", True),
    ], ids=["blank-line", "trailing-blank-line", "crlf-blank-line", "cr-blank-line",
            "whitespace-line", "whitespace-line-one-column", "wider-than-header", "nan", "inf",
            "underscore", "arabic-indic-digits", "cr-in-label", "crlf-in-label", "nul-in-number",
            "nul-in-label", "field-over-csv-limit", "field-over-csv-limit-across-lines",
            "multi-line-header", "header-only", "header-only-unterminated"])
    def test_boundary_files_match_the_per_cell_reference(self, tmp_path, raw, per_cell):
        p = tmp_path / "data.csv"
        p.write_bytes(raw)
        target = None if raw.startswith(b"a\n") else "y"
        categorical = {"c"} if raw.startswith(b"c,") else set()
        assert _loaded(p, target, categorical, {}) == (
            _per_cell_reference(p, target, categorical, {}), per_cell)


REALS = st.sampled_from(["1", " -2.5 ", "3e2", "\x1d7", "8\x1e", "\u30001\xa0"])
LABELS = st.sampled_from(["a", " b", "1", "\x1fa", 'g"h'])
# cells float reads and loadtxt does not, labels with line breaks, and faults
ODD = st.sampled_from(["nan", "c\rd", "1_0", "-inf", "e\r\nf", "\u0661\u0662", "1e999",
                       "c\nd", "", " ", "0x1", '"q"', "z", "0." + "0" * 139_998 + "1"])
# raw edits after csv.writer: a blank line, a whitespace-only line, a NUL
EDITS = st.sampled_from(["\n", "\r\n", " \n", "\x00"])


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(data=st.data(), n=st.integers(0, 9))
def test_loader_equals_the_per_cell_reference(tmp_path_factory, data, n):
    first = data.draw(st.sampled_from(["a", "a", "a\nb"]))
    header = [first, "b", "y"]
    categorical = data.draw(st.sets(st.sampled_from([first, "b"])))
    # rows of the header's width, or all one cell wider
    extra = data.draw(st.sampled_from([[], [], [], ["1"]]))
    rows = [[data.draw(LABELS if name in categorical else REALS) for name in header] + extra
            for _ in range(n)]
    # up to two odd cells and one ragged row, anywhere
    for i, j, cell in data.draw(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 2), ODD),
                                         max_size=2)):
        if i < n:
            rows[i][j] = cell
    ragged = data.draw(st.sampled_from([None] * 9 + list(range(n))))
    if ragged is not None:
        rows[ragged] = rows[ragged][:data.draw(st.sampled_from([1, 2]))]
    frozen = data.draw(st.booleans())
    codebooks = {name: ("c\nd", "a", "b", "1", 'g"h') for name in categorical} if frozen else {}
    target = None if frozen else "y"
    end = data.draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    head = ",".join(f'"{name}"' for name in header) + end
    text = head + _text(rows, end, data.draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])))
    where = st.integers(len(head), len(text))
    for at, edit in data.draw(st.lists(st.tuples(where, EDITS), max_size=1)):
        text = text[:at] + edit + text[at:]
    p = tmp_path_factory.mktemp("loader") / "data.csv"
    p.write_bytes(text.encode("utf-8"))
    assert _loaded(p, target, categorical, codebooks)[0] == _per_cell_reference(
        p, target, categorical, codebooks)


def _byte_search_data_lines(raw, skip):
    """The pre-scan written with byte searches, the reference for
    ``dataset._data_lines``: every pattern and every block searched in
    the whole string."""
    step = max(csv.field_size_limit() // 2, 1)
    if any(bad in raw for bad in (b"\0", b"\n\n", b"\r\r", b"\n\r")) or any(
            raw.find(b"\n", i, i + step) < 0 and raw.find(b"\r", i, i + step) < 0
            for i in range(0, len(raw), step)):
        return 0
    breaks = raw.count(b"\n") + raw.count(b"\r") - raw.count(b"\r\n")
    return breaks + (not raw.endswith((b"\n", b"\r"))) - skip


# short lines, each ended by LF, CR LF, CR or nothing (which joins it to
# the next); an empty line is a blank line, and a NUL is placed on its own
_SCAN_INPUTS = st.lists(st.tuples(
    st.sampled_from([b"1", b"1,2", b'"a",23', b"23,1,a", b'1"', b",", b""]),
    st.sampled_from([b"\n", b"\r\n", b"\r", b""])), max_size=12).map(
    lambda lines: b"".join(line + end for line, end in lines))


# csv.field_size_limit 8 makes 4-byte blocks; spans of 1-8 bytes split them or hold several
@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(raw=_SCAN_INPUTS, nul=st.sampled_from([None] * 9 + [0, 7, 48]), skip=st.integers(0, 2),
       limit=st.sampled_from([8, 12, 20, 6, 4, 131072]), span=st.sampled_from([1, 2, 3, 5, 8]))
@example(raw=b"1,2\r\n3,4\n", nul=None, skip=0, limit=8, span=4)  # CR LF across a span edge
@example(raw=b"1,2\n\n3\n", nul=None, skip=0, limit=8, span=4)  # LF LF across a span edge
@example(raw=b"a,y\n1,2\r", nul=None, skip=1, limit=8, span=4)  # a lone CR at the end
@example(raw=b"a,y\n1,2\n", nul=5, skip=1, limit=8, span=4)
@example(raw=b"", nul=None, skip=0, limit=8, span=4)
@example(raw=b"", nul=None, skip=1, limit=131072, span=1)
@example(raw=b"a,y\n1,2", nul=None, skip=1, limit=8, span=4)  # no line break at the end
def test_data_lines_equals_the_byte_search(raw, nul, skip, limit, span):
    if nul is not None:
        raw = raw[:nul] + b"\0" + raw[nul:]
    old = csv.field_size_limit(limit)
    try:
        with mock.patch.object(dataset, "_SCAN_BYTES", span):
            got = dataset._data_lines(raw, skip)
        want = _byte_search_data_lines(raw, skip)
    finally:
        csv.field_size_limit(old)
    assert (type(got), got) == (int, want)


@pytest.mark.parametrize("limit", [131072, 1 << 30], ids=["default-limit", "raised-limit"])
def test_data_lines_peaks_below_one_mib_on_a_4_mb_file(limit):
    # numpy reports its buffers to tracemalloc; masks over the whole file
    # would peak at several MiB here
    rows = np.random.Generator(np.random.PCG64(11)).normal(size=(50_000, 4)).tolist()
    raw = ("x0,x1,x2,y\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)).encode()
    assert len(raw) > 3_500_000
    old = csv.field_size_limit(limit)
    tracemalloc.start()
    try:
        lines = dataset._data_lines(raw, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        csv.field_size_limit(old)
    assert lines == 50_000
    assert peak < 1 << 20

class TestRoundTrip:
    def test_numeric_and_categorical_bit_exact(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(11))
        n = 40
        numeric = np.column_stack(
            [
                rng.normal(0, 1, n),
                rng.uniform(-1e9, 1e9, n),
                rng.uniform(0, 1, n) * 1e-12,
            ]
        )
        codes = rng.integers(0, 5, n).astype(float)
        # force first-appearance order so codes are 0,1,2,... in order of debut
        codes[:5] = [0, 1, 2, 3, 4]
        features = np.column_stack([numeric, codes])
        ds = Dataset(
            features=features,
            target=rng.normal(0, 10, n),
            column_kinds=(ColumnKind.NUMERIC,) * 3 + (ColumnKind.CATEGORICAL,),
            column_names=("a", "b", "c", "cat"),
        )
        out = tmp_path / "roundtrip.csv"
        write_csv(ds, out, target_name="y")
        back = load_csv(out, "y", categorical_columns={"cat"})
        assert back.column_names == ds.column_names
        assert back.column_kinds == ds.column_kinds
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.target, ds.target)

    def test_awkward_reals_survive(self, tmp_path):
        values = np.array([0.1 + 0.2, 1e-300, -1e300, 2.0 / 3.0, 123456789.123456789])
        ds = make_dataset(values, target=values)
        out = tmp_path / "reals.csv"
        write_csv(ds, out, target_name="y")
        back = load_csv(out, "y")
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.target, ds.target)

    def test_codes_out_of_debut_order_are_refused(self, tmp_path):
        # reloading would code [1, 0, 1] as [0, 1, 0]
        ds = make_dataset([1.0, 0.0, 1.0], kinds=(ColumnKind.CATEGORICAL,), names=("cat",))
        out = tmp_path / "codes.csv"
        with pytest.raises(ValueError, match="categorical column 'cat'"):
            write_csv(ds, out, target_name="y")
        assert not out.exists()

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_split_training_side_round_trips_with_its_codebook(self, tmp_path, seed):
        # seeds 2, 3 and 5 leave the codes of c out of debut order
        rows = "".join(f"{'abc'[i % 3]},{i},{i * i}\n" for i in range(20))
        ds = load_csv(_write(tmp_path, "c,x,y\n" + rows), "y", categorical_columns={"c"})
        train, _ = split(ds, SplitSpec(0.8, seed))
        out = tmp_path / "train.csv"
        write_csv(train, out, target_name="y")
        back = load_csv(out, "y", categorical_columns={"c"}, codebooks=train.codebooks)
        assert back.codebooks == train.codebooks == {"c": ("a", "b", "c")}
        assert back.features.tobytes() == train.features.tobytes()
        assert back.target.tobytes() == train.target.tobytes()

    def test_labels_and_codebook_survive(self, tmp_path):
        ds = load_csv(_write(tmp_path, "c,x,y\nb,1,1\na,2,2\n"), "y", categorical_columns={"c"})
        out = tmp_path / "out.csv"
        write_csv(ds, out, target_name="y")
        back = load_csv(out, "y", categorical_columns={"c"})
        assert back.codebooks == {"c": ("b", "a")}
        assert back.features.tobytes() == ds.features.tobytes()
        q = _write(tmp_path, "c,x\na,0\nb,0\n", "q.csv")
        query = load_features_csv(q, categorical_columns={"c"}, codebooks=back.codebooks)
        assert query.features[:, 0].tolist() == [1.0, 0.0]

    def test_labels_are_quoted_by_csv_rules(self, tmp_path):
        labels = ("x,y", 'say "hi"', "two\nlines", "cr\rhere", "1.5")
        ds = Dataset(features=np.array([[0.0, 0.5], [1.0, 2.0], [2.0, 3.0], [3.0, 4.0],
                                        [4.0, 5.0], [1.0, 6.0]]),
                     target=np.arange(6.0),
                     column_kinds=(ColumnKind.CATEGORICAL, ColumnKind.NUMERIC),
                     column_names=("c", "n"), codebooks={"c": labels})
        out = tmp_path / "quoted.csv"
        write_csv(ds, out, target_name="y")
        assert out.read_text(encoding="utf-8").startswith('c,n,y\n"x,y",0.5,0\n"say ""hi""",2,1\n')
        back = load_csv(out, "y", categorical_columns={"c"})
        assert back.codebooks == {"c": labels}
        assert back.features.tobytes() == ds.features.tobytes()
        assert back.target.tobytes() == ds.target.tobytes()

    @pytest.mark.parametrize("labels", [("a", ""), ("a", " b"), ("a\t", "b"), ("a", "a"), ("a",)])
    def test_labels_a_reload_would_not_give_back_are_refused(self, tmp_path, labels):
        ds = Dataset(features=np.array([[0.0], [1.0]]), target=np.zeros(2),
                     column_kinds=(ColumnKind.CATEGORICAL,), column_names=("c",),
                     codebooks={"c": labels})
        out = tmp_path / "labels.csv"
        with pytest.raises(ValueError, match="categorical column 'c'"):
            write_csv(ds, out, target_name="y")
        assert not out.exists()

    def test_names_are_quoted_by_csv_rules(self, tmp_path):
        ds = make_dataset([1.0, 2.0], target=[0.0, 1.0], names=("a,b",))
        out = tmp_path / "names.csv"
        write_csv(ds, out, target_name='say "y"')
        back = load_csv(out, 'say "y"')
        assert back.column_names == ("a,b",)
        assert back.features.tobytes() == ds.features.tobytes()
        assert back.target.tobytes() == ds.target.tobytes()

    @pytest.mark.parametrize("names, target, bad", [((" a",), "y", " a"), (("a",), "y\t", "y\t"),
                                                    (("a", "b", "a"), "y", "a")])
    def test_names_a_reload_would_not_give_back_are_refused(self, tmp_path, names, target, bad):
        ds = make_dataset(np.zeros((2, len(names))), names=names)
        out = tmp_path / "names.csv"
        with pytest.raises(ValueError, match=re.escape(f"column {bad!r}")):
            write_csv(ds, out, target_name=target)
        assert not out.exists()

    def test_target_name_collision(self, tmp_path):
        ds = make_dataset([1.0, 2.0], names=("y",))
        with pytest.raises(ValueError, match="collides"):
            write_csv(ds, tmp_path / "x.csv", target_name="y")


class TestDatasetInvariants:
    def test_row_count_mismatch(self):
        with pytest.raises(ValueError, match="row count"):
            Dataset(
                features=np.zeros((3, 1)),
                target=np.zeros(2),
                column_kinds=(ColumnKind.NUMERIC,),
                column_names=("a",),
            )

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN or infinite"):
            make_dataset([1.0, np.nan])

    def test_non_integer_categorical_rejected(self):
        with pytest.raises(ValueError, match="integer codes"):
            make_dataset([0.5, 1.0], kinds=(ColumnKind.CATEGORICAL,))

    def test_negative_categorical_rejected(self):
        with pytest.raises(ValueError, match="integer codes"):
            make_dataset([-1.0, 1.0], kinds=(ColumnKind.CATEGORICAL,))

    def test_immutability(self):
        ds = make_dataset([1.0, 2.0])
        with pytest.raises(ValueError):
            ds.features[0, 0] = 9.0

    @pytest.mark.parametrize("features, target, kinds, names, message", [
        (np.zeros(3), np.zeros(3), (ColumnKind.NUMERIC,), ("a",), "features must be a 2-D matrix"),
        (np.zeros((3, 1)), np.zeros((3, 1)), (ColumnKind.NUMERIC,), ("a",),
         "target must be a 1-D vector"),
        (np.zeros((3, 0)), np.zeros(3), (), (), "dataset needs at least one feature column"),
        (np.zeros((3, 2)), np.zeros(3), (ColumnKind.NUMERIC,), ("a", "b"),
         "column_kinds/column_names must match the feature columns"),
        (np.zeros((3, 2)), np.zeros(3), (ColumnKind.NUMERIC,) * 2, ("a",),
         "column_kinds/column_names must match the feature columns"),
    ], ids=["1-d features", "2-d target", "no columns", "kinds", "names"])
    def test_shape_faults(self, features, target, kinds, names, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Dataset(features=features, target=target, column_kinds=kinds, column_names=names)

    def test_codebook_for_a_numeric_column_rejected(self):
        with pytest.raises(ValueError, match="^codebooks must name categorical feature columns only$"):
            Dataset(features=np.zeros((2, 1)), target=np.zeros(2), column_kinds=(ColumnKind.NUMERIC,),
                    column_names=("a",), codebooks={"a": ("x",)})

    def test_codebooks_are_immutable(self, tmp_path):
        ds = load_csv(_write(tmp_path, "c,y\na,1\nb,2\n"), "y", categorical_columns={"c"})
        for mutate in (lambda b: b.__setitem__("c", ("b", "a")), lambda b: b.__delitem__("c"),
                       lambda b: b.update(c=("b", "a")), lambda b: b.setdefault("d", ()),
                       lambda b: b.pop("c"), lambda b: b.popitem(), lambda b: b.clear()):
            with pytest.raises(TypeError, match="^codebooks are immutable$"):
                mutate(ds.codebooks)
        books = ds.codebooks
        with pytest.raises(TypeError):
            books |= {"d": ()}
        assert ds.codebooks == {"c": ("a", "b")} and repr(ds.codebooks) == "{'c': ('a', 'b')}"
        for copied in (pickle.loads(pickle.dumps(ds.codebooks)), copy.deepcopy(ds.codebooks),
                       pickle.loads(pickle.dumps(ds)).codebooks):
            assert copied == ds.codebooks and type(copied) is type(ds.codebooks)

    @pytest.mark.parametrize("copy_of", [lambda obj: pickle.loads(pickle.dumps(obj)),
                                         copy.deepcopy], ids=["pickle", "deepcopy"])
    def test_copies_keep_their_arrays_read_only(self, tmp_path, copy_of):
        ds = load_csv(_write(tmp_path, "c,x,y\na,1.5,1\nb,-2,2\n"), "y", categorical_columns={"c"})
        s = fit_standardizer(ds)
        data, params = copy_of(ds), copy_of(s)
        for copied, original in ((data.features, ds.features), (data.target, ds.target),
                                 (params.means, s.means), (params.sds, s.sds)):
            assert copied.tobytes() == original.tobytes() and not copied.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                copied[0] = 9.0
        assert (data.column_kinds, data.column_names) == (ds.column_kinds, ds.column_names)
        assert (params.column_kinds, params.column_names) == (s.column_kinds, s.column_names)
        assert data.codebooks == ds.codebooks and type(data.codebooks) is type(ds.codebooks)


class TestSplit:
    def test_80_20(self):
        ds = make_dataset(np.arange(10.0), target=np.arange(10.0))
        train, test = split(ds, SplitSpec(train_fraction=0.8, seed=1))
        assert train.n_rows == 8 and test.n_rows == 2
        seen = sorted(train.target.tolist() + test.target.tolist())
        assert seen == list(range(10))

    def test_deterministic(self):
        ds = make_dataset(np.arange(25.0), target=np.arange(25.0))
        spec = SplitSpec(train_fraction=0.6, seed=99)
        a_train, a_test = split(ds, spec)
        b_train, b_test = split(ds, spec)
        assert np.array_equal(a_train.features, b_train.features)
        assert np.array_equal(a_test.features, b_test.features)

    def test_seed_changes_partition(self):
        ds = make_dataset(np.arange(50.0), target=np.arange(50.0))
        a, _ = split(ds, SplitSpec(seed=1))
        b, _ = split(ds, SplitSpec(seed=2))
        assert not np.array_equal(a.features, b.features)

    def test_single_row_errors(self):
        ds = make_dataset([1.0])
        with pytest.raises(ValueError, match="split"):
            split(ds, SplitSpec())

    def test_empty_side_errors(self):
        ds = make_dataset(np.arange(5.0))
        with pytest.raises(ValueError, match="empty side"):
            split(ds, SplitSpec(train_fraction=0.1, seed=0))

    def test_partition_property_randomized(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(50):
            n = int(rng.integers(2, 60))
            frac = float(rng.uniform(0.05, 0.95))
            ds = make_dataset(np.arange(float(n)), target=np.arange(float(n)))
            n_train = int(n * frac)
            if n_train < 1 or n_train >= n:
                with pytest.raises(ValueError):
                    split(ds, SplitSpec(train_fraction=frac, seed=7))
                continue
            train, test = split(ds, SplitSpec(train_fraction=frac, seed=7))
            assert train.n_rows + test.n_rows == n
            seen = sorted(train.target.tolist() + test.target.tolist())
            assert seen == list(range(n))

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(2, 3000), seed=st.integers(0, 2**64 - 1))
    @example(n=100_001, seed=2**63 + 5)
    def test_shuffle_matches_the_per_step_fisher_yates(self, n, seed):
        # oracle: one rng.integers call per swap, from i = n-1 down to 1
        rng = np.random.Generator(np.random.PCG64(seed))
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            j = int(rng.integers(0, i + 1))
            perm[i], perm[j] = perm[j], perm[i]
        ds = make_dataset(np.arange(float(n)), target=np.arange(float(n)))
        train, test = split(ds, SplitSpec(train_fraction=0.5, seed=seed))
        assert train.target.tolist() + test.target.tolist() == perm

    @pytest.mark.parametrize("frac", [0.0, 1.0, -0.5, 1.5])
    def test_invalid_fraction(self, frac):
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=frac)

    @pytest.mark.parametrize("seed", [-1, 2**64, 3.7])
    def test_invalid_seed(self, seed):
        with pytest.raises(ValueError):
            SplitSpec(seed=seed)


class TestStandardizer:
    def test_two_point_symmetry(self):
        train = make_dataset([0.0, 10.0])
        s = fit_standardizer(train)
        out = apply_standardizer(s, train)
        assert np.array_equal(out.features[:, 0], [-1.0, 1.0])

    def test_constant_column_maps_to_zero(self):
        train = make_dataset([7.0, 7.0, 7.0])
        s = fit_standardizer(train)
        out = apply_standardizer(s, train)
        assert np.array_equal(out.features[:, 0], [0.0, 0.0, 0.0])
        # zero-sd rule also applies to unseen values
        other = make_dataset([123.0])
        assert apply_standardizer(s, other).features[0, 0] == 0.0

    def test_categorical_unchanged(self):
        train = make_dataset(
            np.column_stack([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0]]),
            kinds=(ColumnKind.NUMERIC, ColumnKind.CATEGORICAL),
        )
        out = apply_standardizer(fit_standardizer(train), train)
        assert np.array_equal(out.features[:, 1], [0.0, 1.0, 0.0])

    def test_train_statistics_applied_to_test(self):
        train = make_dataset([0.0, 10.0])
        test = make_dataset([20.0])
        out = apply_standardizer(fit_standardizer(train), test)
        assert out.features[0, 0] == pytest.approx(3.0)

    def test_standardized_train_mean_zero_sd_one(self):
        rng = np.random.Generator(np.random.PCG64(8))
        train = make_dataset(rng.uniform(-50, 90, (200, 4)))
        out = apply_standardizer(fit_standardizer(train), train)
        for j in range(4):
            col = out.features[:, j]
            assert abs(np.mean(col)) <= 1e-9
            assert abs(np.std(col) - 1.0) <= 1e-9

    def test_values_above_1e154_keep_their_spread(self):
        train = make_dataset([1e300, -1e300, 5e299])
        s = fit_standardizer(train)
        assert s.means[0] == pytest.approx(5e299 / 3, rel=1e-12)
        assert s.sds[0] == pytest.approx(np.std([1.0, -1.0, 0.5]) * 1e300, rel=1e-12)
        out = apply_standardizer(s, train).features[:, 0]
        assert np.isfinite(out).all() and len(set(out.tolist())) == 3

    def test_subnormal_column_keeps_its_spread(self):
        # squared deviations of these values underflow to 0
        train = make_dataset([5e-324, 1e-323, 0.0, 1.5e-323], target=[1.0, 2.0, 3.0, 4.0])
        s = fit_standardizer(train)
        assert s.sds[0] == 5e-324
        out = apply_standardizer(s, train).features[:, 0]
        assert out.tolist() == [-1.0, 0.0, -2.0, 1.0]
        model = fit(train, 1, standardize=True)
        assert predict_one(model, [1.5e-323]) == 4.0

    def test_overflowing_z_score_names_the_column(self):
        # sd is subnormal, so the finite query 1.0 has no finite z-score
        train = make_dataset([0.0, 5e-324, 1e-323], names=("x",))
        model = fit(train, 1, standardize=True)
        message = r"column 'x': z-score overflows the float range \(training sd 5e-324\)"
        with pytest.raises(ValueError, match=message):
            predict_one(model, [1.0])
        with pytest.raises(ValueError, match=message):
            predict(model, make_dataset([1.0], names=("x",)))

    def test_schema_mismatch(self):
        train = make_dataset([1.0, 2.0], names=("a",))
        other = make_dataset([1.0, 2.0], names=("b",))
        with pytest.raises(SchemaError):
            apply_standardizer(fit_standardizer(train), other)

    def test_target_untouched(self):
        train = make_dataset([1.0, 5.0], target=[10.0, 20.0])
        out = apply_standardizer(fit_standardizer(train), train)
        assert np.array_equal(out.target, [10.0, 20.0])

    def test_empty_fit_errors(self):
        ds = make_dataset(np.zeros((0, 1)))
        with pytest.raises(ValueError, match="empty"):
            fit_standardizer(ds)
