"""Tabular regression data: CSV loading, train/test splitting, standardization.

A :class:`Dataset` stores a float64 feature matrix plus a target vector.
Categorical columns are kept as non-negative integer codes cast to float,
assigned in first-appearance order at load time, so repeated loads of the
same file are deterministic without any global label dictionary. The
Dataset carries each categorical column's codebook, so a query file can
be coded with the training file's labels.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

# Bytes the CSV pre-scan (_data_lines) masks at a time. On a 3.9 MB file, masks over
# the whole file peaked at 12 MB under tracemalloc, 64 KiB spans at 0.26 MB.
_SCAN_BYTES = 1 << 16


class CsvFormatError(ValueError):
    """A CSV file violates the expected layout or cell grammar."""


class SchemaError(ValueError):
    """Two tables that must share a column schema do not."""


class ColumnKind(Enum):
    NUMERIC = "numeric"
    CATEGORICAL = "categorical"


class _FrozenDict(dict):
    """A dict whose mutating methods raise TypeError; pickles as itself."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("codebooks are immutable")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix + target vector with per-column kind metadata.

    Invariants enforced at construction:

    * ``features`` is 2-D float64 with one row per observation,
      ``target`` is 1-D with matching length;
    * ``column_kinds`` and ``column_names`` align with the feature columns;
    * every value is finite (no NaN/inf survives a successful load);
    * categorical columns hold exact integer codes >= 0;
    * ``codebooks`` maps categorical column names to their labels in code
      order (label ``codebooks[name][c]`` has code c); loaded files fill
      it, and a column without an entry has no known labels.
    """

    features: np.ndarray
    target: np.ndarray
    column_kinds: tuple[ColumnKind, ...] = field(default=())
    column_names: tuple[str, ...] = field(default=())
    codebooks: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        features = np.array(self.features, dtype=np.float64, order="C")
        target = np.array(self.target, dtype=np.float64)
        kinds = tuple(self.column_kinds)
        names = tuple(str(n) for n in self.column_names)
        books = _FrozenDict({str(name): tuple(str(label) for label in labels)
                             for name, labels in dict(self.codebooks).items()})
        if features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if target.ndim != 1:
            raise ValueError("target must be a 1-D vector")
        if features.shape[0] != target.shape[0]:
            raise ValueError(
                f"row count mismatch: {features.shape[0]} feature rows "
                f"vs {target.shape[0]} target values"
            )
        if features.shape[1] < 1:
            raise ValueError("dataset needs at least one feature column")
        if not (len(kinds) == features.shape[1] == len(names)):
            raise ValueError("column_kinds/column_names must match the feature columns")
        if not np.isfinite(features).all() or not np.isfinite(target).all():
            raise ValueError("dataset contains NaN or infinite values")
        for j, kind in enumerate(kinds):
            if kind is ColumnKind.CATEGORICAL:
                col = features[:, j]
                if col.size and (np.any(col != np.floor(col)) or np.any(col < 0)):
                    raise ValueError(
                        f"categorical column {names[j]!r} must hold integer codes >= 0"
                    )
        categorical = {name for name, kind in zip(names, kinds) if kind is ColumnKind.CATEGORICAL}
        if not categorical.issuperset(books):
            raise ValueError("codebooks must name categorical feature columns only")
        features.setflags(write=False)
        target.setflags(write=False)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "column_kinds", kinds)
        object.__setattr__(self, "column_names", names)
        object.__setattr__(self, "codebooks", books)

    def __reduce__(self):
        # through the constructor, which freezes the arrays that pickle and
        # deepcopy would otherwise hand back writable
        return type(self), (self.features, self.target, self.column_kinds, self.column_names,
                            dict(self.codebooks))

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_columns(self) -> int:
        return self.features.shape[1]

    def take(self, row_indices) -> "Dataset":
        """New Dataset holding the given rows, in the given order."""
        idx = list(row_indices)
        return Dataset(
            features=self.features[idx],
            target=self.target[idx],
            column_kinds=self.column_kinds,
            column_names=self.column_names,
            codebooks=self.codebooks,
        )


@dataclass(frozen=True)
class SplitSpec:
    """Deterministic train/test split: fraction of rows kept for training
    plus the shuffle seed. Identical (dataset, spec) pairs always produce
    identical splits."""

    train_fraction: float = 0.8
    seed: int = 42

    def __post_init__(self) -> None:
        if not (0.0 < self.train_fraction < 1.0):
            raise ValueError(
                f"train_fraction must lie in (0, 1), got {self.train_fraction}"
            )
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")


def _read_dataset(path, target_column, categorical_columns, codebooks=None) -> Dataset:
    """Shared CSV parser. target_column=None loads a feature-only file,
    whose target is all zeros. A categorical column named in ``codebooks``
    is coded with that codebook; its other columns code labels in
    first-appearance order.

    The data rows are read by numpy's C reader (``_load_table``). A file
    it might read otherwise than ``csv.reader`` and ``_parse_cell`` would,
    or that has any fault, goes through the per-cell loop (``_parse_rows``)
    instead, with fresh codebooks; that loop names the first fault in
    row-major order. Both give the same values and codes."""
    categorical = set(categorical_columns)
    fixed = dict(codebooks or {})
    if target_column is not None and target_column in categorical:
        raise CsvFormatError(
            f"target column {target_column!r} cannot be listed as categorical"
        )
    path = Path(path)
    # The decoder reads ahead of csv.reader, so a byte that is not UTF-8
    # is let through as a surrogate and refused with the row that holds it.
    with path.open("r", encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file, missing header row") from None
        except csv.Error as err:
            raise CsvFormatError(f"{path}: header row: {err}") from None
        bad = _undecodable(header)
        if bad:
            raise CsvFormatError(f"{path}: header row: {bad}")
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            raise CsvFormatError(f"{path}: duplicate column names in header")
        if target_column is not None and target_column not in header:
            raise CsvFormatError(f"{path}: target column {target_column!r} not in header")
        unknown = categorical.difference(header)
        if unknown:
            raise CsvFormatError(
                f"{path}: categorical column(s) not in header: {sorted(unknown)}"
            )
        feature_names = [h for h in header if h != target_column]
        if not feature_names:
            raise CsvFormatError(f"{path}: no feature columns besides the target")
        kinds = tuple(
            ColumnKind.CATEGORICAL if name in categorical else ColumnKind.NUMERIC
            for name in feature_names
        )

        def columns():
            """(header position, name, codebook or None, codebook fixed),
            target last, each with a fresh codebook."""
            return [(header.index(name), name,
                     {label: code for code, label in enumerate(fixed.get(name, ()))}
                     if name in categorical else None, name in fixed)
                    for name in [*feature_names, target_column] if name is not None]

        cols = columns()
        values = _load_table(path, reader.line_num, len(header), cols)
        if values is None:
            cols = columns()
            values = _parse_rows(path, reader, len(header), cols)
    target = values.pop() if target_column is not None else np.zeros(len(values[0]))
    return Dataset(
        features=np.column_stack(values),
        target=target,
        column_kinds=kinds,
        column_names=tuple(feature_names),
        codebooks={name: tuple(book) for _, name, book, _ in cols if book is not None},
    )


def _load_table(path, skip, width, columns) -> list[np.ndarray] | None:
    """One column array per entry of ``columns``, read by ``np.loadtxt``
    past the ``skip`` header lines, or None where the file needs the
    per-cell loop.

    loadtxt quotes fields as ``csv.reader`` does, and parses a number as
    ``float`` of the stripped cell does, with the same rounding; a cell
    ``float`` accepts but loadtxt does not (``1_0``, non-ASCII digits)
    fails the call. Categorical cells go through ``_parse_cell``, which
    loadtxt calls in row order, so codebooks grow in first-appearance
    order. The file is given up where loadtxt fails, where a value is not
    finite, and where the table is not one row of the header's width per
    line: a quoted field across lines, which loadtxt reads with LF for
    each CR, leaves fewer rows than lines. ``_data_lines`` gives up, before
    the call, a blank line, which loadtxt would skip, and what
    ``csv.reader`` might reject."""
    lines = _data_lines(path.read_bytes(), skip)
    if not lines:
        return None
    converters = {pos: lambda cell, book=book, frozen=frozen: _parse_cell(cell.strip(), book, frozen)
                  for pos, _, book, frozen in columns if book is not None}
    try:
        table = np.loadtxt(path, delimiter=",", quotechar='"', comments=None, encoding="utf-8",
                           ndmin=2, skiprows=skip, converters=converters)
    except ValueError:  # a cell it rejects, a ragged row, an undecodable byte
        return None
    if table.shape != (lines, width) or not np.isfinite(table).all():
        return None
    return [table[:, pos] for pos, *_ in columns]


def _data_lines(raw: bytes, skip: int) -> int:
    """The number of lines in ``raw`` after its first ``skip``, or 0 where
    it has a blank line or where ``csv.reader`` might raise csv.Error: on
    a NUL byte, or on a field over ``csv.field_size_limit()``. A field
    within one line is shorter than that where every block of half that
    many bytes holds a line break.

    The bytes are read in spans of ``_SCAN_BYTES``, so the masks stay
    small whatever the file's size and the limit. A span also reads the
    byte past its end, so a pair of line breaks across two spans is seen:
    any pair but CR LF is a blank line. The block of the last break seen
    carries across spans, so a block split by a span edge is seen whole."""
    step = max(csv.field_size_limit() // 2, 1)
    if b"\0" in raw:
        return 0
    data = np.frombuffer(raw, dtype=np.uint8)
    breaks, last = 0, -1
    for start in range(0, data.size, _SCAN_BYTES):
        part = data[start:start + _SCAN_BYTES + 1]
        own = min(_SCAN_BYTES, data.size - start)
        cr, lf = part == 13, part == 10
        brk = cr | lf
        pairs = int(np.count_nonzero(brk[:-1] & brk[1:]))
        crlf = int(np.count_nonzero(cr[:-1] & lf[1:]))
        first, head = divmod(start, step)  # the block that holds start, and its bytes before start
        hit = np.logical_or.reduceat(brk[:own], np.maximum(np.arange(-head, own, step), 0))
        hit = hit.tobytes().rstrip(b"\0")  # a byte per block, from first to the last with a break
        if pairs != crlf or hit and (last + 1 < first or 0 in hit[last + 1 - first:]):
            return 0
        breaks += int(np.count_nonzero(brk[:own])) - crlf
        last = first + len(hit) - 1 if hit else last
    if last != (data.size - 1) // step:
        return 0
    return breaks + (not raw.endswith((b"\n", b"\r"))) - skip


def _parse_rows(path, reader, width, columns) -> list[np.ndarray]:
    """The per-cell loop over the reader's rows, in row-major order, and
    the only code that raises a row or cell CsvFormatError: the first
    fault names its row, and its column where a cell is at fault."""
    values: list[list[float]] = [[] for _ in columns]
    row_no = 0
    try:
        for row_no, row in enumerate(reader, start=1):
            bad = _undecodable(row)
            if bad:
                raise CsvFormatError(f"{path}: row {row_no}: {bad}")
            if len(row) != width:
                raise CsvFormatError(f"{path}: row {row_no} has {len(row)} cells, expected {width}")
            for (pos, name, book, frozen), out in zip(columns, values):
                try:
                    out.append(_parse_cell(row[pos].strip(), book, frozen))
                except CsvFormatError as err:
                    raise CsvFormatError(f"{path}: row {row_no}, column {name!r}: {err}") from None
    except csv.Error as err:
        raise CsvFormatError(f"{path}: row {row_no + 1}: {err}") from None
    if not row_no:
        raise CsvFormatError(f"{path}: no data rows after the header")
    return [np.array(out) for out in values]


def _undecodable(cells) -> str | None:
    """What is wrong with the first byte in ``cells`` that is not UTF-8,
    or None where every byte decoded. errors="surrogateescape" reads such
    a byte b as the lone surrogate U+DC00 + b, which no UTF-8 text holds
    and which alone does not encode back."""
    for cell in cells:
        if not cell.isascii():
            try:
                cell.encode("utf-8")
            except UnicodeEncodeError as err:
                return f"cannot decode byte 0x{ord(cell[err.start]) - 0xDC00:02x} as UTF-8"
    return None


def _parse_cell(cell, book, frozen) -> float:
    """One stripped cell: a finite real where ``book`` is None, else the
    label's code in ``book``, which codes an unseen label next unless
    ``frozen``. A bad cell raises CsvFormatError saying what is wrong with
    it; the caller adds where it is."""
    if book is None:
        try:
            value = float(cell)
        except ValueError:
            raise CsvFormatError(f"cannot parse {cell!r} as a number") from None
        if not math.isfinite(value):
            raise CsvFormatError(f"non-finite value {cell!r}")
        return value
    if cell == "":
        raise CsvFormatError("missing value")
    code = book.get(cell) if frozen else book.setdefault(cell, len(book))
    if code is None:
        raise CsvFormatError(f"label {cell!r} does not occur in the training data")
    return float(code)


def load_csv(path, target_column: str, categorical_columns=(), codebooks=None) -> Dataset:
    """Load a UTF-8 (leading BOM ignored), comma-separated file with one header row.

    Every non-target column must parse as a real number unless listed in
    ``categorical_columns``, in which case its labels are mapped to dense
    integer codes in first-appearance order, or, for a column named in
    ``codebooks``, to their code in that codebook (a label it lacks raises
    CsvFormatError). Missing and non-finite cells are rejected with the
    offending row and column named.
    """
    return _read_dataset(path, target_column, categorical_columns, codebooks)


def load_features_csv(path, categorical_columns=(), codebooks=None) -> Dataset:
    """Load a feature-only CSV (no target column); the target is all zeros.

    Used for query files, which carry feature columns only. Pass the
    training Dataset's ``codebooks`` so that each categorical label gets
    its training code; a label the codebook lacks raises CsvFormatError
    naming the row and column.
    """
    return _read_dataset(path, None, categorical_columns, codebooks)


def write_csv(data: Dataset, path, target_name: str = "target") -> None:
    """Write a Dataset back to CSV; reloading reproduces its features and
    target bit-exactly.

    Reals are emitted with 17 significant digits (lossless for float64).
    Names and labels are quoted by CSV rules where they hold a comma, quote
    or line break. A categorical column with a codebook entry is emitted as
    its labels: a reload with ``codebooks=data.codebooks`` gives back its
    codes and codebook whatever their order, and one without codes the
    labels by first appearance. A categorical column without a codebook
    entry is emitted as bare integer codes, which a reload gives back only
    where they first appear in the order 0, 1, 2, ...; any other such
    column, and a name or label that a reload would not give back (with
    whitespace around it, repeated, or an empty or missing label), raises
    ValueError naming the column, and nothing is written.
    """
    if target_name in data.column_names:
        raise ValueError(f"target name {target_name!r} collides with a feature column")
    names = [*data.column_names, target_name]
    for i, name in enumerate(names):
        if name != name.strip() or name in names[:i]:
            raise ValueError(f"column {name!r}: a reload would not give back its name "
                             "(whitespace around it, or repeated)")
    cell_text: list[tuple[str, ...] | None] = []
    for name, kind, col in zip(data.column_names, data.column_kinds, data.features.T):
        labels = data.codebooks.get(name)
        debuts = list(dict.fromkeys(col.tolist())) if kind is ColumnKind.CATEGORICAL else []
        if labels is None and debuts != list(range(len(debuts))):
            raise ValueError(f"categorical column {name!r}: codes do not first appear "
                             "as 0, 1, 2, ..., so a reload would recode them")
        if labels is not None and (
                len(labels) <= max(debuts, default=-1) or len(set(labels)) < len(labels)
                or any(label == "" or label != label.strip() for label in labels)):
            raise ValueError(f"categorical column {name!r}: its codebook has labels that "
                             "a reload would not give back")
        cell_text.append(None if labels is None else tuple(map(_csv_field, labels)))
    lines = [",".join(map(_csv_field, names))]
    for row, y in zip(data.features.tolist(), data.target.tolist()):
        cells = [f"{v:.17g}" if kind is ColumnKind.NUMERIC
                 else str(int(v)) if text is None else text[int(v)]
                 for v, kind, text in zip(row, data.column_kinds, cell_text)]
        lines.append(",".join([*cells, f"{y:.17g}"]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _csv_field(text: str) -> str:
    """``text`` as one CSV field: in double quotes, with its quotes
    doubled, where it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def split(data: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Partition rows into (train, test) with a seeded Fisher-Yates shuffle.

    Row order within each side follows the shuffle; the same (data, spec)
    pair always yields the same partition. Raises if either side would be
    empty.
    """
    n = data.n_rows
    if n < 2:
        raise ValueError(f"cannot split a dataset with {n} row(s)")
    n_train = int(n * spec.train_fraction)
    if n_train < 1 or n_train >= n:
        raise ValueError(
            f"train_fraction {spec.train_fraction} leaves an empty side for {n} rows"
        )
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    perm = list(range(n))
    # swap target j of step i, drawn from [0, i], for i = n-1 down to 1
    swaps = rng.integers(0, np.arange(n, 1, -1)).tolist()
    for i, j in zip(range(n - 1, 0, -1), swaps):
        perm[i], perm[j] = perm[j], perm[i]
    return data.take(perm[:n_train]), data.take(perm[n_train:])


@dataclass(frozen=True)
class Standardizer:
    """Per-column z-score parameters fitted on training rows only.

    Categorical columns carry identity placeholders and pass through
    unchanged; a numeric column with zero standard deviation maps to
    all-zero after transform.
    """

    column_names: tuple[str, ...]
    column_kinds: tuple[ColumnKind, ...]
    means: np.ndarray
    sds: np.ndarray

    def __post_init__(self) -> None:
        means = np.array(self.means, dtype=np.float64)
        sds = np.array(self.sds, dtype=np.float64)
        means.setflags(write=False)
        sds.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "sds", sds)
        object.__setattr__(self, "column_names", tuple(self.column_names))
        object.__setattr__(self, "column_kinds", tuple(self.column_kinds))

    def __reduce__(self):  # through the constructor, as Dataset's
        return type(self), (self.column_names, self.column_kinds, self.means, self.sds)

    def transform(self, features: np.ndarray) -> np.ndarray:
        """Apply the fitted transform to a raw (m, d) feature matrix; returns a copy.

        Where x - mean overflows (values near the float limit on both sides
        of the mean), that entry is x / sd - mean / sd instead; a finite x
        whose z-score overflows even so is a ValueError naming the column.
        """
        raw = np.asarray(features, dtype=np.float64)
        numeric = np.array([kind is ColumnKind.NUMERIC for kind in self.column_kinds], dtype=bool)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            z = np.subtract(raw, self.means)
            z /= self.sds
            rows, cols = np.nonzero(~np.isfinite(z))
            z[rows, cols] = raw[rows, cols] / self.sds[cols] - (self.means / self.sds)[cols]
        scaled = numeric & (self.sds != 0.0)
        lost = cols[np.isfinite(raw[rows, cols]) & ~np.isfinite(z[rows, cols]) & scaled[cols]]
        if lost.size:
            j = int(lost.min())
            raise ValueError(f"column {self.column_names[j]!r}: z-score overflows "
                             f"the float range (training sd {float(self.sds[j])!r})")
        z[:, ~scaled] = np.where(numeric[~scaled], 0.0, raw[:, ~scaled])
        return z


def _column_stat(stat, col: np.ndarray) -> float:
    """``stat(col)``; where that overflows (sd squares values above about
    1e154 past float range), ``stat(col / s) * s`` with s = max |col|."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(stat(col))
    if np.isfinite(value):
        return value
    scale = float(np.max(np.abs(col)))
    return float(stat(col / scale)) * scale


def _column_sd(col: np.ndarray) -> float:
    """Population sd of ``col``. Where the squared deviations underflow to
    0 on a non-constant column (deviations below about 1e-162), the sd of
    col * 2^-e, times 2^e, with 2^e the binade of max |col|; scaling those
    values up by a power of two is exact."""
    sd = _column_stat(np.std, col)
    if sd == 0.0 and np.any(col != col[0]):
        exponent = int(np.frexp(np.max(np.abs(col)))[1])
        sd = float(np.ldexp(np.std(np.ldexp(col, -exponent)), exponent))
    return sd


def fit_standardizer(train: Dataset) -> Standardizer:
    """Fit per-column mean/sd (population sd) on the numeric training columns."""
    if train.n_rows == 0:
        raise ValueError("cannot fit a standardizer on an empty dataset")
    means = np.zeros(train.n_columns)
    sds = np.ones(train.n_columns)
    for j, kind in enumerate(train.column_kinds):
        if kind is ColumnKind.NUMERIC:
            col = train.features[:, j]
            means[j] = _column_stat(np.mean, col)
            sds[j] = _column_sd(col)
    return Standardizer(
        column_names=train.column_names,
        column_kinds=train.column_kinds,
        means=means,
        sds=sds,
    )


def apply_standardizer(s: Standardizer, data: Dataset) -> Dataset:
    """Transform numeric columns to (value - mean) / sd; everything else unchanged."""
    if data.column_names != s.column_names or data.column_kinds != s.column_kinds:
        raise SchemaError("dataset schema does not match the fitted standardizer")
    return Dataset(
        features=s.transform(data.features),
        target=data.target,
        column_kinds=data.column_kinds,
        column_names=data.column_names,
        codebooks=data.codebooks,
    )
