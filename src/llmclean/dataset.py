"""Typed in-memory tables: CSV ingestion, missing-value normalization, splitting.

A table is an immutable grid of variant-typed cells. Cells are typed per
column at load time (number / timestamp / text): the loader works over each
column's distinct raw values, so each one is parsed once and equal raw values
of a column share one immutable Cell. The usual missing-value placeholders
are folded into a dedicated Missing variant by :func:`normalize_missing`.
All operations are pure and return new values, so datasets can be shared
freely across workers.
"""

from __future__ import annotations

import csv
import io
import math
import random
import re
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from enum import Enum
from typing import BinaryIO, Callable, Iterable, Mapping, Sequence, TypeVar

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


@dataclass(frozen=True)
class Dataset:
    """Immutable table: unique non-empty headers and equal-length cell rows."""

    headers: tuple[str, ...]
    rows: tuple[tuple[Cell, ...], ...]

    def __post_init__(self):
        seen: set[str] = set()
        for name in self.headers:
            if not name:
                raise SchemaError("empty header name")
            if name in seen:
                raise SchemaError(f"duplicate header {name!r}")
            seen.add(name)
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

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.headers)

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
        idx = self.column_index(name)
        return tuple(row[idx] for row in self.rows)

    def cell(self, row: int, column: str) -> Cell:
        return self.rows[row][self.column_index(column)]


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


def _type_column(raw: Sequence[str]) -> list[Cell]:
    """Type one column, parsing each distinct raw value once.

    The kind is a majority vote over non-empty values, each distinct value
    weighted by its count: timestamps are tried first because epoch integers
    also parse as floats, numbers next, text is the fallback. A value that
    does not fit the winning kind, and every empty or whitespace-only value,
    stays text (NaN/inf collapse to Missing). Equal raw values share one Cell.
    """
    counts = Counter(raw)
    filled = {v: n for v, n in counts.items() if v.strip()}
    typed: dict[str, Cell] = {}
    for parse, make in (
        (_parse_timestamp_text, Cell.timestamp),
        (_parse_number_text, Cell.number),
    ):
        parsed = _majority_parse(filled, parse)
        if parsed is not None:
            typed = {v: make(x) for v, x in parsed.items()}
            break
    cells = {v: typed[v] if v in typed else Cell(CellKind.TEXT, v) for v in counts}
    return list(map(cells.__getitem__, raw))


def load_csv(source: BinaryIO | bytes, has_header: bool = True) -> Dataset:
    """Read an RFC-4180-style UTF-8 CSV into a typed dataset.

    Cell types are inferred per column: mostly-numeric columns become
    numbers, columns of ISO-8601 dates or epoch-millisecond integers become
    timestamps, everything else stays text. Raw empty fields stay as empty
    text until :func:`normalize_missing` runs.
    """
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    text_stream = io.TextIOWrapper(source, encoding="utf-8", newline="")
    reader = csv.reader(text_stream)
    records = list(reader)
    if not records:
        raise StructuralError("empty CSV input")

    if has_header:
        headers = records[0]
        data = records[1:]
    else:
        headers = [f"col_{i + 1}" for i in range(len(records[0]))]
        data = records
    if len(set(headers)) != len(headers):
        dupes = sorted({h for h in headers if headers.count(h) > 1})
        raise SchemaError(f"duplicate header {dupes[0]!r}")

    width = len(headers)
    for i, rec in enumerate(data):
        if len(rec) != width:
            raise StructuralError(
                f"row {i + 1} has {len(rec)} fields, expected {width}", row=i + 1
            )

    if width:
        rows = tuple(zip(*(_type_column(col) for col in zip(*data))))
    else:
        rows = ((),) * len(data)
    return Dataset(tuple(headers), rows)


def dataset_to_csv(d: Dataset) -> str:
    """Render a dataset back to CSV text (missing cells as empty fields)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(d.headers)
    for row in d.rows:
        writer.writerow([cell_text(c) for c in row])
    return buf.getvalue()


def normalize_missing(d: Dataset, placeholders: PlaceholderSet | None = None) -> Dataset:
    """Fold placeholder text cells ("N/A", "null", empty, ...) into Missing.

    Idempotent; never touches number or timestamp cells.
    """
    p = placeholders or PlaceholderSet.default()
    rows = tuple(
        tuple(
            MISSING
            if cell.kind is CellKind.TEXT and p.matches(str(cell.value))
            else cell
            for cell in row
        )
        for row in d.rows
    )
    return Dataset(d.headers, rows)


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
