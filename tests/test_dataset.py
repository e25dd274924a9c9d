from __future__ import annotations

import csv
import gc
import io
import warnings
from datetime import datetime

import pytest
from hypothesis import example, given, strategies as st

from llmclean import dataset
from llmclean.dataset import (
    EPOCH_MS_MIN,
    _may_be_number,
    _may_be_timestamp,
    _parse_timestamp_text,
    _type_column,
    Cell,
    CellKind,
    Column,
    Dataset,
    MISSING,
    cell_text,
    dataset_to_csv,
    load_csv,
    normalize_missing,
    read_headers,
)
from llmclean.errors import LLMCleanError, SchemaError, StructuralError

from conftest import IOT_HEADERS, make_iot_dataset
from oracles import (
    _oracle_number,
    _oracle_timestamp,
    oracle_load_csv,
    oracle_normalize_missing,
    oracle_type_values,
)


def _load(text: str, **kw) -> Dataset:
    return load_csv(io.BytesIO(text.encode("utf-8")), **kw)


class TestLoadCsvProjection:
    def test_keeps_folded_matches_in_file_order(self):
        text = "B,a,x,A,c\n1,u,2,v,3\n4,w,5,z,6\n"
        d = _load(text, columns={"a", "c"})
        assert d.headers == ("a", "A", "c")
        full = _load(text)
        for name in d.headers:
            assert d.columns[d.column_index(name)].codes == full.columns[full.column_index(name)].codes
            assert d.column(name) == full.column(name)
        assert d.n_rows == 2

    def test_no_columns_keeps_the_row_count(self):
        d = _load("a,b\n1,2\n3,4\n", columns=())
        assert (d.headers, d.columns, d.n_rows) == ((), (), 2)

    @pytest.mark.parametrize(
        "data",
        [
            b"a,b\n1,2\n3\n",  # short row
            b"a,b\n1,2\n3,4,5\n",  # long row
            b"a,b\n1,\xff\n",  # bad UTF-8 in b
            b"a,b,b\n1,2,3\n",  # duplicate header
            b"a,\n1,2\n",  # empty header
            b"",  # no header at all
        ],
        ids=["short-row", "long-row", "bad-utf8", "duplicate-header", "empty-header", "empty"],
    )
    def test_unread_columns_still_checked(self, data):
        with pytest.raises((LLMCleanError, ValueError)) as full:
            load_csv(data)
        for columns in ({"a"}, ()):
            with pytest.raises(type(full.value)) as projected:
                load_csv(data, columns=columns)
            assert str(projected.value) == str(full.value)


class TestLoadCsv:
    def test_minimal_csv(self):
        d = _load("a,b\n1,x\n2,y\n")
        assert d.headers == ("a", "b")
        assert d.n_rows == 2
        assert d.rows[0][0] == Cell.number(1.0)
        assert d.rows[1][1] == Cell.text("y")

    def test_ragged_row_reports_index(self):
        with pytest.raises(StructuralError) as exc:
            _load("a\n1\n1,2\n")
        assert exc.value.row == 2

    def test_duplicate_header(self):
        with pytest.raises(SchemaError):
            _load("a,a\n1,2\n")

    def test_iot_schema_fixture(self):
        d = make_iot_dataset()
        csv_text = dataset_to_csv(d)
        reloaded = _load(csv_text)
        assert reloaded.headers == IOT_HEADERS
        assert reloaded.n_rows == 1000
        assert reloaded == d

    def test_timestamp_inference_iso_and_epoch(self):
        d = _load("t1,t2\n2021-03-01T12:00:00Z,1700000000000\n2021-03-02T00:00:00,1700000000001\n")
        assert d.rows[0][0].kind is CellKind.TIMESTAMP
        assert d.rows[0][1] == Cell.timestamp(1_700_000_000_000)

    def test_numeric_column_with_stray_text_keeps_text_cell(self):
        d = _load("v\n1.5\n2.5\noops\n")
        assert d.rows[0][0].kind is CellKind.NUMBER
        assert d.rows[2][0] == Cell.text("oops")

    def test_nan_in_numeric_column_becomes_missing(self):
        d = _load("v\n1.0\n2.0\nnan\n")
        assert d.rows[2][0] is MISSING

    def test_quoted_fields(self):
        d = _load('a,b\n"x,y",2\n')
        assert d.rows[0][0] == Cell.text("x,y")


# Raw spellings by what they parse as, so a column can be built to land its
# kind vote anywhere, exactly on half included.
_STAMPS = st.one_of(
    st.integers(EPOCH_MS_MIN, EPOCH_MS_MIN + 3).map(str),
    st.datetimes(datetime(1970, 1, 2), datetime(2100, 1, 1)).map(datetime.isoformat),
    st.datetimes(datetime(1970, 1, 2), datetime(2100, 1, 1)).map(lambda t: f"{t.isoformat()}Z"),
)
_NUMBERS = st.one_of(
    st.integers(EPOCH_MS_MIN - 3, EPOCH_MS_MIN - 1).map(str),
    st.integers(-1000, 1000).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", " 2.5 ", "1e400"]),
    # Equal numbers spelled apart, which must share one cell.
    st.sampled_from(["1", "1.0", "+1", " 1", "1e0", "-0", "0.0"]),
)
_TEXTS = st.one_of(
    st.text(alphabet='bdxy ,"', max_size=5).filter(str.strip),
    st.sampled_from(["N/A", "null", "none", "1969-12-31T00:00:00Z", "2021-13-01"]),
    st.sampled_from([" n/a ", "NULL", "None ", " NaN"]),
)
_BLANKS = st.sampled_from(["", " ", "\t"])
_ANY = st.one_of(_STAMPS, _NUMBERS, _TEXTS, _BLANKS)

_EPOCHS = st.integers(EPOCH_MS_MIN, 10 * EPOCH_MS_MIN)
_ARABIC_DIGITS = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")
# Spellings of mostly one kind, drawn all distinct: such columns reach the
# loader's batch pass, and its merge of spellings that parse equal.
_DISTINCT = st.sampled_from(
    [
        _EPOCHS.map(str),
        st.one_of(_EPOCHS, st.integers(0, EPOCH_MS_MIN - 1)).map(str),
        st.one_of(
            st.floats(allow_nan=False, allow_infinity=False).map(repr),
            st.sampled_from(["0.0", "-0.0", "0", "-0"]),
        ),
        st.one_of(
            st.integers(-(10**6), 10**6).map(str),
            st.sampled_from(["1_000", "1000", "1e3", "+1000", "+100000000000"]),
        ),
        st.one_of(_EPOCHS, st.integers(0, 10**6)).map(lambda n: str(n).translate(_ARABIC_DIGITS)),
        st.one_of(st.floats().map(repr), st.sampled_from(["inf", "-inf", "nan", "Infinity", "1e400"])),
        st.one_of(st.text(alphabet="bdxy ", min_size=1, max_size=5), _TEXTS),
    ]
)


@st.composite
def _column(draw, n_rows: int) -> list[str]:
    shape = draw(st.sampled_from(["repeats", "distinct", "tie"]))
    if shape == "repeats":
        # Few distinct values, many repeats, any mix of kinds.
        pool = draw(st.lists(_ANY, min_size=1, max_size=4))
        return draw(st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows))
    if shape == "distinct":
        blanks = draw(st.lists(_BLANKS, max_size=min(2, n_rows)))
        size = n_rows - len(blanks)
        values = draw(st.lists(draw(_DISTINCT), min_size=size, max_size=size, unique=True))
        return draw(st.permutations(values + blanks))
    # Half the non-blank cells of one kind, half of another: the vote ties.
    hit, miss = draw(st.permutations([_STAMPS, _NUMBERS, _TEXTS]))[:2]
    half = n_rows // 2
    values = draw(st.lists(hit, min_size=half, max_size=half))
    values += draw(st.lists(miss, min_size=half, max_size=half))
    values += draw(st.lists(_BLANKS, min_size=n_rows % 2, max_size=n_rows % 2))
    return draw(st.permutations(values))


@st.composite
def _csv_bytes(draw) -> bytes:
    n_rows = draw(st.integers(0, 12))
    columns = draw(st.lists(_column(n_rows), min_size=1, max_size=4))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"c{i}" for i in range(len(columns))])
    writer.writerows(zip(*columns))
    return buf.getvalue().encode("utf-8")


def _rowwise_csv(d: Dataset) -> str:
    # Reference rendering: cell_text of every cell, row by row.
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(d.headers)
    for row in d.rows:
        writer.writerow([cell_text(c) for c in row])
    return buf.getvalue()


# ISO spellings the year check must let through, and year-less or
# non-ASCII ones that fromisoformat rejects anyway.
_TIMESTAMP_SPELLINGS = [
    "20240101", "20240101T000005Z", "2024-W01-2", "2024-01-01T00:00:05Z", "2024-01-01T00:00:05z",
    "2024-01-01", " 2024-01-01 12:00:00+05:30 ", "2024-001", "2024", "2024-",
    "\u0662\u0660\u0662\u0664-01-01", "\uff12\uff10\uff12\uff14-01-01",
    "+2024-01-01", "-2024-01-01", "Z", "z", "24-01-01", "1e5", "12.5", "abcd",
]


class TestTimestampParse:
    @given(
        st.one_of(
            st.sampled_from(_TIMESTAMP_SPELLINGS),
            st.tuples(st.sampled_from(_TIMESTAMP_SPELLINGS), st.text(max_size=12)).map("".join),
            st.text(),
        )
    )
    def test_year_check_changes_no_parse(self, text):
        # _oracle_timestamp is the parse without the year check.
        assert _parse_timestamp_text(text) == _oracle_timestamp(text)


# Spellings at the edges of the leading-character tests that let a kind's
# vote be lost before any parse: Unicode and superscript digits, signs,
# inf/nan spellings, padding (float strips less than str.strip), ISO dates
# and signed epoch integers.
_VOTE_SPELLINGS = [
    "\u0661\u0662\u0663" + "4" * 9, "\uff11" * 12, "\u00b9\u00b2\u00b3\u2074", "\u00b2",
    "+100000000000", "-100000000000", "+ 100000000000", "100000000000", "99999999999",
    "+1.5", "-2", ".5", "-.5", "+.5e3", "+", "-", ".", "1_000", "1e5", "e5",
    "inf", "-inf", "+Infinity", "INF", "iNfInItY", "nan", "NaN", "-nan", "+NAN", "nano", "i",
    " 12 ", "\t3.5\n", "\u20071\u2007", "\u30001", "\x1c1", "1\x1f", "\x1c2024-01-01",
    "2024-01-01", " 2024-01-01T00:00:05Z ", "\uff12\uff10\uff12\uff14-01-01", "2024",
    "x1", "N/A", "", " ",
]
_VOTE_VALUES = st.one_of(st.sampled_from(_VOTE_SPELLINGS), st.text(max_size=6))


class TestVoteBound:
    @given(_VOTE_VALUES)
    def test_every_parse_passes_its_kinds_test(self, text):
        stripped = [text.strip()]
        if _oracle_timestamp(text) is not None:
            assert next(_may_be_timestamp(stripped))
        if _oracle_number(text) is not None:
            assert next(_may_be_number(stripped))

    @given(st.lists(_VOTE_VALUES, max_size=12))
    def test_matches_exhaustive_vote(self, values):
        raws = list(dict.fromkeys(values))
        column = _type_column(raws, [raws.index(v) for v in values])
        assert list(column.cells()) == oracle_type_values(values)

    @pytest.mark.parametrize("codes", [["abc1", "abc2", "5"], ["a1", "+x", "1", "b"]])
    def test_lost_votes_are_not_parsed(self, codes, monkeypatch):
        # Half the weight or less passes each kind's test: nothing is parsed.
        def refuse(values):
            raise AssertionError(f"parsed {values!r}")

        monkeypatch.setattr(dataset, "_KINDS", tuple(
            (kind, may_be, refuse, refuse, make) for kind, may_be, _, _, make in dataset._KINDS
        ))
        column = _type_column(codes, list(range(len(codes))))
        assert [c.kind for c in column.values] == [CellKind.TEXT] * len(codes)

    @pytest.mark.parametrize(
        "values,kind",
        [
            (["1.5", "-2", "3e2", " 4.25 "], CellKind.NUMBER),
            (["abc1", "x", "2024-01-01T00:00:05Z", "7"], CellKind.TEXT),
        ],
    )
    def test_unneeded_timestamp_tests_are_skipped(self, values, kind, monkeypatch):
        # All finite floats bound the timestamp vote; lost number leads settle text.
        def refuse(stripped):
            raise AssertionError(f"timestamp test ran on {stripped!r}")

        stamp, number = dataset._KINDS
        monkeypatch.setattr(dataset, "_KINDS", (stamp[:1] + (refuse,) + stamp[2:], number))
        for repeat in (1, 2):
            column = _type_column(values, list(range(len(values))) * repeat)
            assert {c.kind for c in column.values} == {kind}

    @given(
        st.one_of(
            st.sampled_from(["19700101.00", "19700101_00", "19700101e00", "20240101.12",
                             " 20240101_12 ", "20240101.123456", "19691231.23"]),
            st.from_regex(r"\s?[0-9]{4,12}[._eE]?[0-9]{0,8}(\.[0-9]{1,6})?\s?", fullmatch=True),
        )
    )
    def test_timestamps_read_as_floats_are_bounded(self, text):
        # What lets an all-float column bound its timestamp vote from the floats.
        try:
            x = float(text)
        except ValueError:
            return
        if _parse_timestamp_text(text) is not None:
            assert x >= dataset._TIMESTAMP_FLOAT_MIN


class TestLoadCsvOracle:
    @given(_csv_bytes())
    def test_matches_per_cell_typing(self, data):
        d = load_csv(data)
        expected = oracle_load_csv(data)
        assert d == expected
        assert Dataset(d.headers, d.rows) == d
        assert dataset_to_csv(d) == _rowwise_csv(expected)
        normalized = normalize_missing(d)
        assert normalized == oracle_normalize_missing(expected)
        assert dataset_to_csv(normalized) == _rowwise_csv(normalized)
        for column in d.columns + normalized.columns:  # equal cells share one code
            assert len(set(column.values)) == len(column.values)

    @pytest.mark.parametrize("text", ["a,b\n", "\n\n", "t\n1700000000000\nx\n"])
    def test_edge_shapes_match_per_cell_typing(self, text):
        data = text.encode("utf-8")
        assert load_csv(data) == oracle_load_csv(data)

    @pytest.mark.parametrize(
        "values",
        [
            ["0.0", "-0.0", "2.5"],
            ["1_000", "1000", "7"],
            ["100000000000", "+100000000000", "100000000001"],
            ["\u0661" + "\u0660" * 11, "100000000000", "100000000002"],
            ["100000000000", "100000000001", "5"],
            ["1.5", "inf", "nan", "2.5"],
            ["0.0", "-0.0", " "],
            ["1.5", "2.25", "3.125", "100000000000"],
            ["100000000000", "100000000001", "100000000002", "1.5"],
            ["+100000000000", " 100000000001 ", "100000000002\t", "+100000000003"],
            ["nan", "inf", "1.5", "-inf", "nan"],
            ["nan", "100000000000", "100000000001", "inf"],
            ["\u0661\u0662", "3", "4.5"],
            ["\u0661" + "\u0660" * 11, "\u0662" + "\u0660" * 11, "1.5"],
            ["20240101.12", "20240102_13", "1.5"],
            ["19700101.00", "2.5", "3.5", "19700101e00"],
            ["a1", "2.5", "3.5", "4.5"],
        ],
    )
    def test_batch_edge_columns_match_per_cell_typing(self, values):
        # Once per row every weight is 1; twice per row the vote counts weights.
        for repeat in (1, 2):
            data = ("c\n" + "".join(f"{v}\n" for v in values * repeat)).encode("utf-8")
            d = load_csv(data)
            assert d == oracle_load_csv(data)
            assert len(set(d.columns[0].values)) == len(d.columns[0].values)

    def test_equal_raw_values_share_one_cell(self):
        d = _load("a,b\nx,1.5\nx,1.5\ny,2\n")
        assert d.rows[0][0] is d.rows[1][0]
        assert d.rows[0][1] is d.rows[1][1]


# Fields with no quote, comma or line break, which the str.split path reads,
# and fields csv.writer must quote, which send their chunk to csv.reader.
_PLAIN = st.one_of(_STAMPS, _NUMBERS, st.text(alphabet="bdxy ", max_size=5), _BLANKS)
_QUOTED = st.sampled_from(["x,y", 'say "hi"', '"', "two\nlines", "cr\rlf\r\n", ",", ""])
_SPLIT_HEADERS = ["a", "B", "c", "D"]


@st.composite
def _split_csv(draw) -> bytes:
    """A CSV whose records mostly take the split path, with some of the shapes
    only csv.reader reads: quoted fields, CR line ends, a blank line, and
    maybe no final newline."""
    width = draw(st.integers(1, len(_SPLIT_HEADERS)))
    n_rows = draw(st.integers(0, 20))
    rows = [draw(st.lists(_PLAIN, min_size=width, max_size=width)) for _ in range(n_rows)]
    ends = ["\n"] * n_rows
    if n_rows:
        rows_at = st.integers(0, n_rows - 1)
        quoted = st.tuples(rows_at, st.integers(0, width - 1), _QUOTED)
        for i, j, value in draw(st.lists(quoted, max_size=2)):
            rows[i][j] = value
        cr_ends = st.tuples(rows_at, st.sampled_from(["\r\n", "\r"]))
        for i, end in draw(st.lists(cr_ends, max_size=2)):
            ends[i] = end
        if draw(st.booleans()):
            i = draw(rows_at)
            ends[i] += draw(st.sampled_from(["\n", "\r\n"]))  # a blank line after row i
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")  # quotes every field holding \r or \n
    for row, end in zip([_SPLIT_HEADERS[:width]] + rows, ["\n"] + ends):
        writer.writerow(row)
        buf.seek(buf.tell() - 2)
        buf.truncate()
        buf.write(end)
    text = buf.getvalue()
    if n_rows and draw(st.booleans()):
        text = text.removesuffix(ends[-1])  # no final newline
    return text.encode("utf-8")


class TestRecordSplitting:
    """Both record splitters, switching from str.split to csv.reader mid-file."""

    @given(_split_csv(), st.none() | st.sets(st.sampled_from([h.lower() for h in _SPLIT_HEADERS])))
    @example(b"a,B\n1,2\n3,4\n5,6\n7,8\r\n9,x\r", None)
    @example(b'a,B\n1,2\n3,4\n5,6\n"7\n8",9\n"x,y",""""\n', {"a"})
    def test_matches_csv_reader(self, data, columns):
        with pytest.MonkeyPatch.context() as patch:
            # Blocks of a line or two and chunks of 3 records, so the path can switch mid-file.
            patch.setattr(dataset, "_BLOCK_CHARS", 8)
            patch.setattr(dataset, "_CHUNK_ROWS", 3)
            self._check(data, columns)

    def _check(self, data, columns):
        header, *records = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
        bad = next(((i, len(r)) for i, r in enumerate(records, 1) if len(r) != len(header)), None)
        if bad is not None:  # a blank line: 0 fields
            with pytest.raises(StructuralError) as exc:
                load_csv(data, columns=columns)
            row, fields = bad
            assert str(exc.value) == f"row {row} has {fields} fields, expected {len(header)}"
            assert exc.value.row == row
            return
        full = oracle_load_csv(data)
        kept = [j for j, h in enumerate(full.headers) if columns is None or h.lower() in columns]
        expected = Dataset.from_lists(
            [full.headers[j] for j in kept], [[row[j] for j in kept] for row in full.rows]
        )
        assert load_csv(data, columns=columns) == expected

    @pytest.mark.parametrize(
        "text,row,fields,width",
        [
            ("a,b\n1,2\n\n3,4\n", 2, 0, 2),  # blank line, split path
            ("a,b\n1,2\n\"3\",4\n\n", 3, 0, 2),  # blank line, csv.reader path
            ("a,b\n1,2\n3,4,5\n", 2, 3, 2),
            ("a,b\n1,2\n3\n", 2, 1, 2),
            ("a\n1\n\n", 2, 0, 1),
        ],
    )
    def test_width_errors_name_the_row(self, text, row, fields, width):
        with pytest.raises(StructuralError) as exc:
            _load(text)
        assert exc.value.row == row
        assert str(exc.value) == f"row {row} has {fields} fields, expected {width}"

    def test_blank_records_of_a_blank_header(self):
        # A blank header line gives 0 columns; each blank line is then a record.
        assert _load("\n\n\n").n_rows == _load("\n\r\n\n").n_rows == 2

    def test_over_long_lines_and_fields(self):
        old = csv.field_size_limit(10)
        try:
            # Lines longer than the limit go to csv.reader, which accepts fields within it.
            data = b"a,b\n" + b"0123456789,x\n" * 3
            assert load_csv(data) == oracle_load_csv(data)
            for text, row in [("a,b\n1,2\n3,0123456789x\n", 2), ('a\n1\n2\n"0123456789x"\n', 3)]:
                with pytest.raises(StructuralError) as exc:
                    _load(text)
                assert exc.value.row == row
                assert str(exc.value) == f"row {row}: field larger than field limit (10)"
            with pytest.raises(StructuralError, match=r"^header: field larger"):
                _load("0123456789x\n1\n")
        finally:
            csv.field_size_limit(old)

    def test_byte_order_mark_is_dropped(self):
        text = "sensor,value\ns1,2\n,3\n"
        data = b"\xef\xbb\xbf" + text.encode("utf-8")
        d = load_csv(data)
        assert d == _load(text)
        assert dataset_to_csv(d) == text
        assert load_csv(data, columns={"sensor"}).headers == ("sensor",)


class TestCallerFileStaysOpen:
    @pytest.mark.parametrize(
        "data,error",
        [
            (b"a,b\n1,2\n", None),  # read to the end
            (b"a,b\n1,2\n3\n", StructuralError),  # a width error stops the read
            (b"a,b\n\"0123456789x\",1\n", StructuralError),  # so does a csv.Error
            (b"0123456789x\n1\n", StructuralError),  # a csv.Error in the header
            (b"", StructuralError),  # empty input
            (b"a,a\n1,2\n", SchemaError),  # duplicate header
        ],
    )
    @pytest.mark.parametrize("read", [load_csv, read_headers])
    def test_no_text_wrapper_left_unclosed(self, data, error, read, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(data)
        old = csv.field_size_limit(10)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with path.open("rb") as fh:
                    if error is None:
                        read(fh)
                    else:
                        with pytest.raises(error):
                            read(fh)
                    assert not fh.closed
                gc.collect()
        finally:
            csv.field_size_limit(old)
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


class TestBulkCells:
    @pytest.mark.parametrize(
        "kind,values",
        [
            (CellKind.TEXT, ["x", "", " 1 ", "N/A"]),
            (CellKind.NUMBER, [0.0, -0.0, 2.5, 1e300]),
            (CellKind.TIMESTAMP, [EPOCH_MS_MIN, 1_700_000_000_000]),
        ],
    )
    def test_equal_to_cells_built_by_init(self, kind, values):
        # A column's Cells are built from its payloads' types on first use.
        cells = list(Column(tuple(values), range(len(values))).values)
        expected = [Cell(kind, v) for v in values]
        assert cells == expected
        assert list(map(hash, cells)) == list(map(hash, expected))
        assert list(map(repr, cells)) == list(map(repr, expected))
        assert all(type(c) is Cell for c in cells)
        with pytest.raises(AttributeError):
            cells[0].value = "changed"
        with pytest.raises(AttributeError):
            cells[0].kind = CellKind.MISSING


def test_load_and_normalize_leave_no_cyclic_garbage():
    # A voted column (t), a batch-typed one with a merge (v: -0.0/0.0), and
    # text columns with placeholders to fold (c, m).
    rows = [(1_700_000_000_000 + i, f"{i}.5", f"code{i}", "N/A" if i % 3 else "x") for i in range(50)]
    rows += [(1, "-0.0", "null", "1_000"), (2, "0.0", "", "1000")]
    data = "t,v,c,m\n" + "".join(",".join(map(str, r)) + "\n" for r in rows)
    gc.collect()
    gc.disable()
    try:
        normalize_missing(_load(data))
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0


class TestNormalizeMissing:
    def test_placeholders_fold(self):
        d = Dataset.from_lists(["c"], [[Cell.text("N/A")], [Cell.text("NULL")], [Cell.text("nonempty")]])
        out = normalize_missing(d)
        assert out.rows[0][0] is MISSING
        assert out.rows[1][0] is MISSING  # uppercase variant
        assert out.rows[2][0] == Cell.text("nonempty")

    def test_whitespace_trimmed(self):
        d = Dataset.from_lists(["c"], [[Cell.text("  none ")]])
        assert normalize_missing(d).rows[0][0] is MISSING

    def test_numbers_and_timestamps_untouched(self):
        d = Dataset.from_lists(
            ["a", "b"], [[Cell.number(0.0), Cell.timestamp(5)]]
        )
        assert normalize_missing(d) == d

    @given(
        st.lists(
            st.text(max_size=8).map(Cell.text) | st.floats(allow_nan=False, allow_infinity=False).map(Cell.number),
            min_size=1,
            max_size=20,
        )
    )
    def test_idempotent(self, cells):
        d = Dataset.from_lists(["c"], [[c] for c in cells])
        once = normalize_missing(d)
        assert normalize_missing(once) == once


class TestCellInvariants:
    def test_non_finite_numbers_collapse_to_missing(self):
        assert Cell.number(float("nan")) is MISSING
        assert Cell.number(float("inf")) is MISSING

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError):
            Cell.timestamp(-1)

    def test_cell_text_forms(self):
        assert cell_text(Cell.number(42.0)) == "42"
        assert cell_text(Cell.number(2.5)) == "2.5"
        assert cell_text(Cell.timestamp(1700000000000)) == "1700000000000"
        assert cell_text(MISSING) == ""


class TestDatasetStructure:
    def test_column_lookup_case_insensitive(self):
        d = Dataset.from_lists(["Sensor"], [[Cell.text("s")]])
        assert d.column_index("sensor") == 0

    def test_ambiguous_fold_is_error(self):
        d = Dataset.from_lists(["Sensor", "SENSOR"], [[Cell.text("x"), Cell.text("y")]])
        assert d.column_index("Sensor") == 0  # exact match still fine
        with pytest.raises(SchemaError):
            d.column_index("sensor")

    def test_row_width_enforced(self):
        with pytest.raises(StructuralError):
            Dataset.from_lists(["a", "b"], [[Cell.text("only one")]])
