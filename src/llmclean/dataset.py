"""Typed in-memory tables: CSV ingestion and missing-value normalization.

A table is an immutable grid of variant-typed cells, typed per column at
load time (number / timestamp / text). Each column is stored dictionary-
encoded: one int code per row plus a tuple of the column's distinct cells,
each held by some row, so equal cells share one code and one immutable Cell.
Columns are what every stage reads and builds (loading, normalizing, writing,
detection, error injection, graph building); ``Dataset.rows`` is a view built
on first use. The usual missing-value placeholders are folded into a
dedicated Missing variant by :func:`normalize_missing`. All operations are
pure and return new values, so datasets can be shared freely across workers.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections import Counter, defaultdict
from enum import Enum
from functools import cached_property
from itertools import chain, compress, count, islice, repeat
from operator import add, attrgetter, ge, is_, itemgetter, methodcaller, or_
from typing import BinaryIO, Callable, Collection, Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import SchemaError, StructuralError
from .frozen import Frozen, set_field

#: Placeholder spellings commonly used for missing data, matched
#: case-insensitively after trimming.
DEFAULT_PLACEHOLDER_TOKENS = ("N/A", "nan", "none", "null", "")
_PLACEHOLDERS = frozenset(t.lower() for t in DEFAULT_PLACEHOLDER_TOKENS)

#: Integers at or above this magnitude are read as epoch milliseconds.
#: (100_000_000_000 ms is early 1973; plain measurements rarely get there.)
EPOCH_MS_MIN = 100_000_000_000

#: The smallest float a timestamp's text can read as. A text that parses both
#: as a float and as ISO 8601 holds no ``-`` or ``:``, so its date is the
#: basic ``YYYYMMDD`` form, read as that number or more (a ``.``, ``_`` or
#: exponent follows it), and dates before 1970 are refused. An epoch-ms
#: integer reads as at least ``EPOCH_MS_MIN``.
_TIMESTAMP_FLOAT_MIN = 19_700_101

_INT_RE = re.compile(r"[+-]?\d+")

T = TypeVar("T")


class CellKind(Enum):
    TEXT = "text"
    NUMBER = "number"
    TIMESTAMP = "timestamp"
    MISSING = "missing"


class Cell(Frozen):
    """One table cell: text, finite number, epoch-ms timestamp, or missing."""

    __slots__ = _fields = ("kind", "value")

    def __init__(self, kind: CellKind, value: str | float | int | None):
        set_field(self, "kind", kind)
        set_field(self, "value", value)

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


def _cells(kind: CellKind, values: Sequence[str | float | int]) -> list[Cell]:
    """``Cell(kind, v)`` for each value, built in C-level passes.

    ``Cell.__init__`` runs Python code per cell; the slot descriptors set
    the same two fields without it. (``any`` drains each pass: a
    descriptor's ``__set__`` returns None.)
    """
    cells = list(map(object.__new__, repeat(Cell, len(values))))
    any(map(Cell.kind.__set__, cells, repeat(kind)))
    any(map(Cell.value.__set__, cells, values))
    return cells


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


class CellRef(Frozen):
    """Reference to one cell: 0-based row index plus column name."""

    __slots__ = _fields = ("row", "column")

    def __init__(self, row: int, column: str):
        set_field(self, "row", row)
        set_field(self, "column", column)


def _encoder() -> defaultdict:
    """A dict that gives each key not seen before the next code (0, 1, 2, ...).

    The counter holds no reference back to the dict, so a finished encoder is
    freed by reference counting alone and leaves no cyclic garbage.
    """
    return defaultdict(count().__next__)


_value = attrgetter("value")


def _is_text(cells: Iterable[Cell]) -> list[bool]:
    """Whether each cell is a text cell, in one C-level pass."""
    return list(map(is_, map(attrgetter("kind"), cells), repeat(CellKind.TEXT)))


class Column:
    """One dictionary-encoded column: row ``i`` holds ``values[codes[i]]``.

    ``values`` are the column's distinct cells, each held by some row (built
    by :meth:`merged` wherever cells may repeat or go unused). The derived
    indexes below are built on first use; the column never changes.
    """

    def __init__(self, values: tuple[Cell, ...], codes: tuple[int, ...]):
        self.values = values
        self.codes = codes

    @classmethod
    def merged(cls, cells: Sequence[Cell], codes: Iterable[int]) -> "Column":
        """Column whose row ``i`` holds ``cells[codes[i]]``, equal cells merged
        and cells no row holds dropped (the rest keep their order)."""
        codes = tuple(codes)
        # Keyed by kind identity: hashing a Cell runs Python code per call.
        first = _encoder()
        remap = list(map(first.__getitem__, [(id(c.kind), c.value) for c in cells]))
        if len(first) == len(cells) and len(set(codes)) == len(cells):
            return cls(tuple(cells), codes)
        merged = list(map(remap.__getitem__, codes))
        used = sorted(set(merged))
        if len(used) < len(first):  # renumber without the cells no row holds
            merged = list(map(dict(zip(used, count())).__getitem__, merged))
        cell_of = dict(zip(reversed(remap), reversed(cells)))  # each code's first cell
        return cls(tuple(map(cell_of.__getitem__, used)), tuple(merged))

    def replaced(self, cells: Mapping[int, Cell]) -> "Column":
        """This column with row ``i`` holding ``cells[i]`` for each given row."""
        codes = list(self.codes)
        for code, row in enumerate(cells, start=len(self.values)):
            codes[row] = code
        return Column.merged(self.values + tuple(cells.values()), codes)

    def cells(self) -> Iterator[Cell]:
        """The column's cells in row order."""
        return map(self.values.__getitem__, self.codes)

    @cached_property
    def texts(self) -> tuple[str, ...]:
        """``cell_text`` of each distinct value, by code."""
        if all(_is_text(self.values)):  # a text cell's text is its value
            return tuple(map(_value, self.values))
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

    def row_indices(self, codes: Iterable[int]) -> list[int]:
        """Ascending indices of the rows holding any of ``codes``."""
        return sorted(chain.from_iterable(map(self._positions.__getitem__, codes)))


def group_modes(
    det: Column, dep: Column, pairs: Mapping[tuple[int, int], int] | None = None
) -> dict[int, int]:
    """Modal ``dep`` code of each non-missing ``det`` code.

    Counts the rows where both cells are present; ties go to the smallest
    ``cell_text``. ``pairs`` are the rows' ``(det, dep)`` code counts, when
    the caller has them already.
    """
    groups: dict[int, dict[int, int]] = defaultdict(dict)
    for (a, b), n in (pairs or Counter(zip(det.codes, dep.codes))).items():
        if a != det.missing_code and b != dep.missing_code:
            groups[a][b] = n
    texts = dep.texts
    return {a: min(counts, key=lambda b: (-counts[b], texts[b])) for a, counts in groups.items()}


def _transpose(columns: Sequence[Iterable[T]], n_rows: int) -> Iterable[tuple[T, ...]]:
    return zip(*columns) if columns else repeat((), n_rows)


class Dataset:
    """Immutable table: unique non-empty headers and equal-length cell rows.

    Each column is stored dictionary-encoded (:class:`Column`); stages read
    and build columns. ``rows`` is a view built on first use. A dataset
    built from rows encodes its columns at once and keeps those row tuples
    as its view. Equality compares headers and rows.
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
        every_row = range(self.n_rows)
        self.columns = tuple(
            Column.merged(list(map(itemgetter(j), self.rows)), every_row)
            for j in range(width)
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
    if not (s[:4].isascii() and s[:4].isdigit()):  # fromisoformat needs a 4-digit year
        return None
    from datetime import datetime, timedelta, timezone  # only ISO texts need it

    iso = s[:-1] + "+00:00" if s.endswith(("Z", "z")) else s
    try:
        dt = datetime.fromisoformat(iso)
    except ValueError:
        return None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    ms = (dt - datetime(1970, 1, 1, tzinfo=timezone.utc)) // timedelta(milliseconds=1)
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


def _timestamps_all(stripped: list[str]) -> list[int] | None:
    """Every stripped value as epoch ms, or None unless each is an unsigned
    epoch-ms integer."""
    if not all(map(str.isdecimal, stripped)):  # isdecimal is _INT_RE's \d+ without a sign
        return None
    ints = list(map(int, stripped))
    return ints if min(ints) >= EPOCH_MS_MIN else None


def _numbers_all(values: list[str]) -> list[float] | None:
    """Every value as a float, or None unless each is a finite number."""
    try:
        floats = list(map(float, values))
    except ValueError:
        return None
    return floats if all(map(math.isfinite, floats)) else None


_HEAD1 = itemgetter(slice(1))
_HEAD4 = itemgetter(slice(4))
_NUMBER_LEADS = frozenset("+-.iInN")


def _may_be_timestamp(stripped: list[str]) -> Iterator[bool]:
    """Whether each stripped value passes a test every timestamp passes.

    An epoch-ms integer at or above ``EPOCH_MS_MIN`` has 12 or more digits
    or a leading ``+``; an ISO-8601 text starts with a 4-digit year.
    """
    signed = map(str.startswith, stripped, repeat("+"))
    return map(or_, map(str.isdigit, map(_HEAD4, stripped)), signed)


def _may_be_number(stripped: list[str]) -> Iterator[bool]:
    """Whether each stripped value passes a test every float passes.

    ``float`` strips less whitespace than ``str.strip``, then needs a digit,
    a sign, a point or the first letter of ``inf``/``infinity``/``nan``.
    """
    heads = list(map(_HEAD1, stripped))
    return map(or_, map(str.isdigit, heads), map(_NUMBER_LEADS.__contains__, heads))


# Per kind, in vote order: a test every value of the kind passes, the batch
# parse of the common case (every value parses), the per-value parse, and
# the cell constructor. Every value that passes the timestamp test passes the
# number test too: a 4-digit head starts with a digit, and ``+`` leads both.
_KINDS = (
    (CellKind.TIMESTAMP, _may_be_timestamp, _timestamps_all, _parse_timestamp_text,
     Cell.timestamp),
    (CellKind.NUMBER, _may_be_number, _numbers_all, _parse_number_text, Cell.number),
)


def _typed_column(typed: Mapping[str, Cell], raws: list[str], raw_codes: list[int]) -> Column:
    """The column where each raw value in ``typed`` holds its cell, any other as text."""
    return Column.merged([typed.get(v) or Cell(CellKind.TEXT, v) for v in raws], raw_codes)


def _batch_column(
    kind: CellKind, xs: list, values: list[str], raws: list[str], raw_codes: list[int]
) -> Column:
    """The column where each non-blank raw value in ``values`` is ``Cell(kind, x)``."""
    cells = _cells(kind, xs)
    if len(values) == len(raws) and len(set(xs)) == len(xs):
        return Column(tuple(cells), tuple(raw_codes))
    return _typed_column(dict(zip(values, cells)), raws, raw_codes)


def _type_column(raws: list[str], raw_codes: list[int]) -> Column:
    """Type one column given its distinct raw values and each row's raw code.

    The kind is a majority vote over non-empty values, each distinct value
    weighted by its count: timestamps are tried first because epoch integers
    also parse as floats, numbers next, text is the fallback. A value that
    does not fit the winning kind, and every empty or whitespace-only value,
    stays text (NaN/inf collapse to Missing). Each distinct raw value is
    parsed once, and raw values that type to equal cells share one code.

    Passes that cannot change the result are skipped. When each raw value is
    held by one row, every weight is 1 and no count is taken. A kind's parses
    are skipped when the values that pass its necessary test (leading
    characters, checked in C-level passes) carry at most half the weight;
    the number test runs first, since every timestamp passes it. A kind that
    parses every non-empty value wins outright and its cells are built in
    C-level passes; only otherwise is the vote counted value by value. When
    every value is a finite float, only those reading at least
    ``_TIMESTAMP_FLOAT_MIN`` can be timestamps, which bounds that vote
    without the timestamp test.
    """
    _, may_be_timestamp, timestamps_all, parse_timestamp, make_timestamp = _KINDS[0]
    _, may_be_number, numbers_all, parse_number, make_number = _KINDS[1]
    stripped = list(map(str.strip, raws))
    values = list(compress(raws, stripped))  # the non-blank raw values
    if len(raws) == len(raw_codes):  # each raw value is held by one row
        weights = None
        total = len(values)
    else:
        counts = Counter(raw_codes)
        weights = list(compress(map(counts.__getitem__, range(len(raws))), stripped))
        total = sum(weights)
    stripped = list(filter(None, stripped))  # aligned with ``values``

    def can_win(passes: Iterable[bool]) -> bool:
        hits = sum(passes) if weights is None else sum(compress(weights, passes))
        return 2 * hits > total

    def vote(parse: Callable[[str], object | None]) -> dict[str, object] | None:
        return _majority_parse(dict(zip(values, weights or repeat(1))), parse)

    if can_win(may_be_number(stripped)):  # else neither kind can (no values: total 0)
        xs = timestamps_all(stripped)
        if xs is not None:
            return _batch_column(CellKind.TIMESTAMP, xs, values, raws, raw_codes)
        floats = numbers_all(values)
        if floats is None:
            may_be = may_be_timestamp(stripped)
        else:
            may_be = map(ge, floats, repeat(_TIMESTAMP_FLOAT_MIN))
        if can_win(may_be) and (parsed := vote(parse_timestamp)) is not None:
            return _typed_column({v: make_timestamp(x) for v, x in parsed.items()}, raws, raw_codes)
        if floats is not None:
            return _batch_column(CellKind.NUMBER, floats, values, raws, raw_codes)
        if (parsed := vote(parse_number)) is not None:
            return _typed_column({v: make_number(x) for v, x in parsed.items()}, raws, raw_codes)
    # Distinct raw strings are distinct text cells.
    return Column(tuple(_cells(CellKind.TEXT, raws)), tuple(raw_codes))


_BLOCK_CHARS = 1 << 15
_CHUNK_ROWS = 4096


def _check_widths(counts: list[int], width: int, first_row: int) -> None:
    """Raise at the first record whose field count is not ``width``.

    ``counts`` are the field counts of consecutive records, the first of
    which is data row ``first_row`` (1-based).
    """
    if counts.count(width) != len(counts):
        i = next(i for i, n in enumerate(counts) if n != width)
        row = first_row + i
        raise StructuralError(
            f"row {row} has {counts[i]} fields, expected {width}", row=row
        )


def _records(
    text: io.TextIOWrapper, width: int, maxsplit: int
) -> Iterator[list[list[str]]]:
    """The data records after the header, in chunks, each checked to hold ``width`` fields.

    The text is read in blocks of ``_BLOCK_CHARS`` characters, each carried
    on to the end of its last line. A block holding no quote, no CR and no
    line longer than the field size limit is split with ``str`` methods in
    C-level passes: each line is one record, cut at its first ``maxsplit``
    commas (enough to reach every kept field), and a blank line has 0
    fields, as in ``csv.reader``. The first block that fails this test goes
    to ``csv.reader`` with the rest of the stream, and its records hold
    every field. Every earlier record ended at a line end, so both paths
    see the same records.
    """
    limit = csv.field_size_limit()
    row = 1
    rest: Iterable[str] = text
    for block in iter(lambda: text.read(_BLOCK_CHARS), ""):
        block += text.readline()
        lines = block.split("\n")
        if not lines[-1]:
            lines.pop()  # the text after the block's last newline
        if '"' in block or "\r" in block or max(map(len, lines)) > limit:
            rest = chain(io.StringIO(block, newline=""), text)
            break
        commas = map(methodcaller("count", ","), lines)
        _check_widths(list(map(add, commas, map(bool, lines))), width, row)
        yield list(map(methodcaller("split", ",", maxsplit), lines))
        row += len(lines)
    reader = csv.reader(rest)
    while True:
        records: list[list[str]] = []
        try:
            records.extend(islice(reader, _CHUNK_ROWS))  # keeps the records read before an error
        except csv.Error as exc:
            bad = row + len(records)
            raise StructuralError(f"row {bad}: {exc}", row=bad) from None
        if not records:
            return
        _check_widths(list(map(len, records)), width, row)
        yield records
        row += len(records)


def _open_csv(
    source: BinaryIO | bytes, columns: Collection[str] | None
) -> tuple[list[str], list[int], Iterator[list[list[str]]]]:
    """The header row, the indices of the kept columns and the record chunks."""
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    text_stream = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
    try:
        headers = next(csv.reader(text_stream), None)
    except csv.Error as exc:
        raise StructuralError(f"header: {exc}", row=0) from None
    if headers is None:
        raise StructuralError("empty CSV input")
    if len(set(headers)) != len(headers):
        dupes = sorted({h for h in headers if headers.count(h) > 1})
        raise SchemaError(f"duplicate header {dupes[0]!r}")
    kept = [j for j, h in enumerate(headers) if columns is None or h.lower() in columns]
    return headers, kept, _records(text_stream, len(headers), kept[-1] + 1 if kept else 0)


def read_headers(source: BinaryIO | bytes) -> tuple[str, ...]:
    """The header row of a CSV whose every record :func:`load_csv` would accept.

    Checks what ``load_csv`` checks and keeps no column.
    """
    headers, _, chunks = _open_csv(source, ())
    for _ in chunks:
        pass
    _check_headers(tuple(headers))
    return tuple(headers)


def load_csv(source: BinaryIO | bytes, columns: Collection[str] | None = None) -> Dataset:
    """Read an RFC-4180-style UTF-8 CSV with a header row into a typed dataset.

    Cell types are inferred per column: mostly-numeric columns become
    numbers, columns of ISO-8601 dates or epoch-millisecond integers become
    timestamps, everything else stays text. Raw empty fields stay as empty
    text until :func:`normalize_missing` runs. Records are streamed into
    per-column raw-value codes, so only distinct raw strings are kept. A
    leading UTF-8 byte order mark is dropped.

    ``columns``, when given, holds case-folded names: the dataset keeps only
    the headers whose ``lower()`` is among them, in file order, and the other
    fields are neither encoded nor typed. Every header, record and field is
    still checked (duplicate or empty headers, record width, field size,
    UTF-8).
    """
    headers, kept, chunks = _open_csv(source, columns)
    encoders = [_encoder() for _ in kept]
    raw_codes: list[list[int]] = [[] for _ in kept]
    n_rows = 0
    for records in chunks:
        for encoder, codes, j in zip(encoders, raw_codes, kept):
            codes.extend(map(encoder.__getitem__, map(itemgetter(j), records)))
        n_rows += len(records)
    _check_headers(tuple(headers))
    typed = [_type_column(list(e), codes) for e, codes in zip(encoders, raw_codes)]
    return Dataset.from_columns([headers[j] for j in kept], typed, n_rows)


def dataset_to_csv(d: Dataset) -> str:
    """Render a dataset back to CSV text (missing cells as empty fields)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(d.headers)
    texts = [map(c.texts.__getitem__, c.codes) for c in d.columns]
    writer.writerows(_transpose(texts, d.n_rows))
    return buf.getvalue()


def placeholder_flags(texts: Iterable[str]) -> Iterator[bool]:
    """Whether each text spells a missing value: one of the placeholder
    tokens, case-insensitively, after trimming. Lazy, and no Python-level
    call per text, so a column's distinct texts are checked in C."""
    return map(_PLACEHOLDERS.__contains__, map(str.lower, map(str.strip, texts)))


def normalize_missing(d: Dataset) -> Dataset:
    """Fold placeholder text cells ("N/A", "null", empty, ...) into Missing.

    Works on each column's distinct values, matching all its text values in
    one pass; a column without placeholders is shared unchanged. Idempotent;
    never touches number or timestamp cells.
    """
    columns = []
    for column in d.columns:
        is_text = _is_text(column.values)
        texts = map(_value, compress(column.values, is_text))
        hits = list(placeholder_flags(texts))
        if any(hits):
            folded = list(column.values)
            for code in compress(compress(count(), is_text), hits):  # the texts that hit
                folded[code] = MISSING
            column = Column.merged(folded, column.codes)
        columns.append(column)
    return Dataset.from_columns(d.headers, columns, d.n_rows)
