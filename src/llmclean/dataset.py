"""Typed in-memory tables: CSV ingestion, missing-value normalization, splitting.

A table is an immutable grid of variant-typed cells. Cells are typed per
column at load time (number / timestamp / text). Each column is stored
dictionary-encoded: one int code per row plus a tuple of the column's
distinct cells, so equal cells share one code and one immutable Cell. The
loader, :func:`normalize_missing`, :func:`dataset_to_csv` and the detection
kernels work on codes and on each column's distinct values; ``Dataset.rows``
is a view built on first use. The usual missing-value placeholders are
folded into a dedicated Missing variant by :func:`normalize_missing`. All
operations are pure and return new values, so datasets can be shared freely
across workers.
"""

from __future__ import annotations

import csv
import io
import math
import random
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from enum import Enum
from functools import cached_property
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import SchemaError, StructuralError

#: Placeholder spellings commonly used for missing data, matched
#: case-insensitively after trimming.
DEFAULT_PLACEHOLDER_TOKENS = ("N/A", "nan", "none", "null", "")

#: Integers at or above this magnitude are read as epoch milliseconds.
#: (100_000_000_000 ms is early 1973; plain measurements rarely get there.)
EPOCH_MS_MIN = 100_000_000_000

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_INT_RE = re.compile(r"[+-]?\d+")

T = TypeVar("T")


class CellKind(Enum):
    TEXT = "text"
    NUMBER = "number"
    TIMESTAMP = "timestamp"
    MISSING = "missing"


@dataclass(frozen=True, slots=True)
class Cell:
    """One table cell: text, finite number, epoch-ms timestamp, or missing."""

    kind: CellKind
    value: str | float | int | None

    @staticmethod
    def text(value: str) -> "Cell":
        return Cell(CellKind.TEXT, value)

    @staticmethod
    def number(value: float) -> "Cell":
        # Non-finite numbers are never stored; they collapse to Missing.
        if not math.isfinite(value):
            return MISSING
        return Cell(CellKind.NUMBER, float(value))

    @staticmethod
    def timestamp(epoch_ms: int) -> "Cell":
        if epoch_ms < 0:
            raise ValueError(f"timestamp must be >= 0, got {epoch_ms}")
        return Cell(CellKind.TIMESTAMP, int(epoch_ms))

    @property
    def is_missing(self) -> bool:
        return self.kind is CellKind.MISSING


MISSING = Cell(CellKind.MISSING, None)


def cell_text(cell: Cell) -> str:
    """Canonical string form of a cell (used for CSV output and grouping keys)."""
    if cell.kind is CellKind.TEXT:
        return str(cell.value)
    if cell.kind is CellKind.NUMBER:
        v = float(cell.value)
        return str(int(v)) if v.is_integer() else repr(v)
    if cell.kind is CellKind.TIMESTAMP:
        return str(int(cell.value))
    return ""


def modal_value(counts: Mapping[T, int], key: Callable[[T], str] = cell_text) -> T:
    """Most frequent key of ``counts``; ties go to the smallest ``key(value)``."""
    top = max(counts.values())
    return min((value for value, n in counts.items() if n == top), key=key)


@dataclass(frozen=True, slots=True)
class CellRef:
    """Reference to one cell: 0-based row index plus column name."""

    row: int
    column: str


@dataclass(frozen=True)
class PlaceholderSet:
    """Missing-value spellings, matched case-insensitively after trimming."""

    tokens: frozenset[str]

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("placeholder set must not be empty")
        object.__setattr__(
            self, "tokens", frozenset(t.strip().lower() for t in self.tokens)
        )

    @classmethod
    def default(cls) -> "PlaceholderSet":
        return cls(frozenset(DEFAULT_PLACEHOLDER_TOKENS))

    def matches(self, text: str) -> bool:
        return text.strip().lower() in self.tokens


def _encoder() -> defaultdict:
    """A dict that gives each key not seen before the next code (0, 1, 2, ...)."""
    codes: defaultdict = defaultdict()
    codes.default_factory = codes.__len__
    return codes


class Column:
    """One dictionary-encoded column: row ``i`` holds ``values[codes[i]]``.

    ``values`` are the column's distinct cells in order of first appearance,
    so equal cells always share one code. The derived indexes below are
    built on first use; the column never changes.
    """

    def __init__(self, values: tuple[Cell, ...], codes: tuple[int, ...]):
        self.values = values
        self.codes = codes

    @classmethod
    def merged(cls, cells: Sequence[Cell], codes: Iterable[int]) -> "Column":
        """Column whose row ``i`` holds ``cells[codes[i]]``, equal cells merged."""
        # Keyed by kind identity: hashing a Cell runs Python code per call.
        first = _encoder()
        remap = list(map(first.__getitem__, [(id(c.kind), c.value) for c in cells]))
        if len(first) == len(cells):
            return cls(tuple(cells), tuple(codes))
        cell_of = dict(zip(reversed(remap), reversed(cells)))  # each code's first cell
        values = tuple(map(cell_of.__getitem__, range(len(first))))
        return cls(values, tuple(map(remap.__getitem__, codes)))

    def cells(self) -> Iterator[Cell]:
        """The column's cells in row order."""
        return map(self.values.__getitem__, self.codes)

    @cached_property
    def texts(self) -> tuple[str, ...]:
        """``cell_text`` of each distinct value, by code."""
        return tuple(map(cell_text, self.values))

    @cached_property
    def missing_code(self) -> int | None:
        kinds = [cell.kind for cell in self.values]
        return kinds.index(CellKind.MISSING) if CellKind.MISSING in kinds else None

    @cached_property
    def _positions(self) -> tuple[list[int], ...]:
        positions: tuple[list[int], ...] = tuple([] for _ in self.values)
        for i, code in enumerate(self.codes):
            positions[code].append(i)
        return positions

    def codes_of(self, text: str) -> list[int]:
        """Codes of the non-missing values whose ``cell_text`` is ``text``."""
        return [
            k for k, t in enumerate(self.texts) if t == text and k != self.missing_code
        ]

    def rows_of(self, codes: Iterable[int]) -> list[int]:
        """Ascending indices of the rows holding any of ``codes``."""
        return sorted(chain.from_iterable(map(self._positions.__getitem__, codes)))


def _transpose(columns: Sequence[Iterable[T]], n_rows: int) -> Iterable[tuple[T, ...]]:
    return zip(*columns) if columns else repeat((), n_rows)


class Dataset:
    """Immutable table: unique non-empty headers and equal-length cell rows.

    Each column is stored dictionary-encoded (:class:`Column`); every pass of
    ``detect`` works on codes and dictionaries. ``rows`` is a view built on
    first use. A dataset built from rows keeps those row tuples as its view
    and encodes its columns on first use. Equality compares headers and rows.
    """

    def __init__(self, headers: Sequence[str], rows: Iterable[tuple[Cell, ...]]):
        self.headers = tuple(headers)
        _check_headers(self.headers)
        self.rows = tuple(rows)
        self.n_rows = len(self.rows)
        width = len(self.headers)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise StructuralError(
                    f"row {i + 1} has {len(row)} cells, expected {width}", row=i + 1
                )

    @classmethod
    def from_lists(
        cls, headers: Sequence[str], rows: Iterable[Sequence[Cell]]
    ) -> "Dataset":
        return cls(tuple(headers), tuple(tuple(r) for r in rows))

    @classmethod
    def from_columns(
        cls, headers: Sequence[str], columns: Sequence[Column], n_rows: int
    ) -> "Dataset":
        d = cls.__new__(cls)
        d.headers = tuple(headers)
        _check_headers(d.headers)
        d.columns = tuple(columns)
        d.n_rows = n_rows
        return d

    @cached_property
    def rows(self) -> tuple[tuple[Cell, ...], ...]:
        return tuple(_transpose([c.cells() for c in self.columns], self.n_rows))

    @cached_property
    def columns(self) -> tuple[Column, ...]:
        every_row = range(self.n_rows)
        return tuple(
            Column.merged(list(map(itemgetter(j), self.rows)), every_row)
            for j in range(self.n_cols)
        )

    @property
    def n_cols(self) -> int:
        return len(self.headers)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.headers == other.headers and self.rows == other.rows

    def __repr__(self) -> str:
        return f"Dataset(headers={self.headers!r}, rows={self.rows!r})"

    def column_index(self, name: str) -> int:
        """Resolve a column by name, falling back to a case-insensitive match.

        The fallback exists because rule texts and canonical schemas mix
        spellings like ``Sensor`` and ``sensor``; an ambiguous fold (two
        headers differing only in case) is an error.
        """
        try:
            return self.headers.index(name)
        except ValueError:
            pass
        folded = name.lower()
        hits = [i for i, h in enumerate(self.headers) if h.lower() == folded]
        if not hits:
            raise SchemaError(f"unknown column {name!r}")
        if len(hits) > 1:
            raise SchemaError(f"column name {name!r} is ambiguous")
        return hits[0]

    def has_column(self, name: str) -> bool:
        try:
            self.column_index(name)
            return True
        except SchemaError:
            return False

    def column(self, name: str) -> tuple[Cell, ...]:
        return tuple(self.columns[self.column_index(name)].cells())

    def cell(self, row: int, column: str) -> Cell:
        col = self.columns[self.column_index(column)]
        return col.values[col.codes[row]]


def _check_headers(headers: tuple[str, ...]) -> None:
    seen: set[str] = set()
    for name in headers:
        if not name:
            raise SchemaError("empty header name")
        if name in seen:
            raise SchemaError(f"duplicate header {name!r}")
        seen.add(name)


def _parse_number_text(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _parse_timestamp_text(text: str) -> int | None:
    s = text.strip()
    if not s:
        return None
    if _INT_RE.fullmatch(s):
        v = int(s)
        return v if v >= EPOCH_MS_MIN else None
    iso = s[:-1] + "+00:00" if s.endswith(("Z", "z")) else s
    try:
        dt = datetime.fromisoformat(iso)
    except ValueError:
        return None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    ms = (dt - _EPOCH) // timedelta(milliseconds=1)
    return ms if ms >= 0 else None


def _majority_parse(
    weights: dict[str, int], parse: Callable[[str], object | None]
) -> dict[str, object] | None:
    """Parse every value if more than half the total weight parses, else None.

    Stops as soon as the values that failed carry half the weight, since the
    rest can then no longer win the vote.
    """
    half = sum(weights.values()) / 2
    parsed: dict[str, object] = {}
    hits = misses = 0
    for value, n in weights.items():
        result = parse(value)
        if result is None:
            misses += n
            if misses >= half:
                return None
        else:
            hits += n
            parsed[value] = result
    return parsed if hits > half else None


def _type_column(raws: list[str], raw_codes: list[int]) -> Column:
    """Type one column given its distinct raw values and each row's raw code.

    The kind is a majority vote over non-empty values, each distinct value
    weighted by its count: timestamps are tried first because epoch integers
    also parse as floats, numbers next, text is the fallback. A value that
    does not fit the winning kind, and every empty or whitespace-only value,
    stays text (NaN/inf collapse to Missing). Each distinct raw value is
    parsed once, and raw values that type to equal cells share one code.
    """
    counts = Counter(raw_codes)
    filled = {raw: counts[k] for k, raw in enumerate(raws) if raw.strip()}
    typed: dict[str, Cell] = {}
    for parse, make in (
        (_parse_timestamp_text, Cell.timestamp),
        (_parse_number_text, Cell.number),
    ):
        parsed = _majority_parse(filled, parse)
        if parsed is not None:
            typed = {v: make(x) for v, x in parsed.items()}
            break
    if not typed:  # distinct raw strings are distinct text cells
        return Column(tuple(Cell(CellKind.TEXT, v) for v in raws), tuple(raw_codes))
    cells = [typed.get(v) or Cell(CellKind.TEXT, v) for v in raws]
    return Column.merged(cells, raw_codes)


_CHUNK_ROWS = 4096


def load_csv(source: BinaryIO | bytes, has_header: bool = True) -> Dataset:
    """Read an RFC-4180-style UTF-8 CSV into a typed dataset.

    Cell types are inferred per column: mostly-numeric columns become
    numbers, columns of ISO-8601 dates or epoch-millisecond integers become
    timestamps, everything else stays text. Raw empty fields stay as empty
    text until :func:`normalize_missing` runs. Records are streamed into
    per-column raw-value codes, so only distinct raw strings are kept.
    """
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    text_stream = io.TextIOWrapper(source, encoding="utf-8", newline="")
    reader: Iterator[list[str]] = csv.reader(text_stream)
    first = next(reader, None)
    if first is None:
        raise StructuralError("empty CSV input")

    if has_header:
        headers = first
    else:
        headers = [f"col_{i + 1}" for i in range(len(first))]
        reader = chain([first], reader)
    if len(set(headers)) != len(headers):
        dupes = sorted({h for h in headers if headers.count(h) > 1})
        raise SchemaError(f"duplicate header {dupes[0]!r}")

    width = len(headers)
    encoders = [_encoder() for _ in headers]
    raw_codes: list[list[int]] = [[] for _ in headers]
    n_rows = 0
    for chunk in iter(lambda: list(islice(reader, _CHUNK_ROWS)), []):
        for i, rec in enumerate(chunk, start=n_rows):
            if len(rec) != width:
                raise StructuralError(
                    f"row {i + 1} has {len(rec)} fields, expected {width}", row=i + 1
                )
        for encoder, codes, raw in zip(encoders, raw_codes, zip(*chunk)):
            codes.extend(map(encoder.__getitem__, raw))
        n_rows += len(chunk)
    columns = [_type_column(list(e), codes) for e, codes in zip(encoders, raw_codes)]
    return Dataset.from_columns(headers, columns, n_rows)


def dataset_to_csv(d: Dataset) -> str:
    """Render a dataset back to CSV text (missing cells as empty fields)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(d.headers)
    texts = [map(c.texts.__getitem__, c.codes) for c in d.columns]
    writer.writerows(_transpose(texts, d.n_rows))
    return buf.getvalue()


def normalize_missing(d: Dataset, placeholders: PlaceholderSet | None = None) -> Dataset:
    """Fold placeholder text cells ("N/A", "null", empty, ...) into Missing.

    Works on each column's distinct values; a column without placeholders is
    shared unchanged. Idempotent; never touches number or timestamp cells.
    """
    p = placeholders or PlaceholderSet.default()
    columns = []
    for column in d.columns:
        folded = [
            MISSING if cell.kind is CellKind.TEXT and p.matches(cell.value) else cell
            for cell in column.values
        ]
        if any(a is not b for a, b in zip(folded, column.values)):
            column = Column.merged(folded, column.codes)
        columns.append(column)
    return Dataset.from_columns(d.headers, columns, d.n_rows)


def split_train_validation(
    d: Dataset, fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Deterministically partition rows into (train, validation).

    The first output gets round(fraction * n_rows) rows (half-up); together
    the outputs are an exact partition of the input rows.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    if d.n_rows < 2:
        raise ValueError("need at least 2 rows to split")
    k = math.floor(fraction * d.n_rows + 0.5)
    indices = list(range(d.n_rows))
    random.Random(seed).shuffle(indices)
    train_idx = sorted(indices[:k])
    val_idx = sorted(indices[k:])
    train = Dataset(d.headers, tuple(d.rows[i] for i in train_idx))
    val = Dataset(d.headers, tuple(d.rows[i] for i in val_idx))
    return train, val
