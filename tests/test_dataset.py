from __future__ import annotations

import csv
import io
from datetime import datetime

import pytest
from hypothesis import given, strategies as st

from llmclean.dataset import (
    EPOCH_MS_MIN,
    Cell,
    CellKind,
    Dataset,
    MISSING,
    PlaceholderSet,
    cell_text,
    dataset_to_csv,
    load_csv,
    normalize_missing,
    split_train_validation,
)
from llmclean.errors import SchemaError, StructuralError

from conftest import IOT_HEADERS, make_iot_dataset
from oracles import oracle_load_csv, oracle_normalize_missing


def _load(text: str, **kw) -> Dataset:
    return load_csv(io.BytesIO(text.encode("utf-8")), **kw)


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

    def test_no_header_mode(self):
        d = _load("1,2\n3,4\n", has_header=False)
        assert d.headers == ("col_1", "col_2")
        assert d.n_rows == 2

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


@st.composite
def _column(draw, n_rows: int) -> list[str]:
    if draw(st.booleans()):
        # Few distinct values, many repeats, any mix of kinds.
        pool = draw(st.lists(_ANY, min_size=1, max_size=4))
        return draw(st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows))
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


class TestLoadCsvOracle:
    @given(_csv_bytes(), st.booleans())
    def test_matches_per_cell_typing(self, data, has_header):
        d = load_csv(data, has_header=has_header)
        expected = oracle_load_csv(data, has_header)
        assert d == expected
        assert Dataset(d.headers, d.rows) == d
        assert dataset_to_csv(d) == _rowwise_csv(expected)
        normalized = normalize_missing(d)
        assert normalized == oracle_normalize_missing(expected)
        assert dataset_to_csv(normalized) == _rowwise_csv(normalized)
        for column in normalized.columns:  # equal cells share one code
            assert len(set(column.values)) == len(column.values)

    @pytest.mark.parametrize("text", ["a,b\n", "\n\n", "t\n1700000000000\nx\n"])
    def test_edge_shapes_match_per_cell_typing(self, text):
        data = text.encode("utf-8")
        assert load_csv(data) == oracle_load_csv(data)

    def test_equal_raw_values_share_one_cell(self):
        d = _load("a,b\nx,1.5\nx,1.5\ny,2\n")
        assert d.rows[0][0] is d.rows[1][0]
        assert d.rows[0][1] is d.rows[1][1]


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

    def test_custom_placeholder_set(self):
        p = PlaceholderSet(frozenset({"missing!"}))
        d = Dataset.from_lists(["c"], [[Cell.text("MISSING!")], [Cell.text("")]])
        out = normalize_missing(d, p)
        assert out.rows[0][0] is MISSING
        assert out.rows[1][0] == Cell.text("")  # '' not in the custom set

    def test_empty_placeholder_set_rejected(self):
        with pytest.raises(ValueError):
            PlaceholderSet(frozenset())


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


class TestSplit:
    def test_sizes_and_partition(self):
        d = make_iot_dataset(n_rows=10)
        train, val = split_train_validation(d, 0.8, seed=7)
        assert (train.n_rows, val.n_rows) == (8, 2)
        combined = sorted(train.rows + val.rows, key=lambda r: cell_text(r[6]))
        assert combined == sorted(d.rows, key=lambda r: cell_text(r[6]))

    def test_deterministic(self):
        d = make_iot_dataset(n_rows=10)
        assert split_train_validation(d, 0.8, 7) == split_train_validation(d, 0.8, 7)

    def test_two_rows(self):
        d = make_iot_dataset(n_rows=2)
        train, val = split_train_validation(d, 0.5, 0)
        assert (train.n_rows, val.n_rows) == (1, 1)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.7])
    def test_bad_fraction(self, fraction):
        d = make_iot_dataset(n_rows=4)
        with pytest.raises(ValueError):
            split_train_validation(d, fraction, 0)

    @given(st.integers(min_value=2, max_value=40), st.integers(), st.floats(min_value=0.05, max_value=0.95))
    def test_partition_property(self, n, seed, fraction):
        d = make_iot_dataset(n_rows=n)
        train, val = split_train_validation(d, fraction, seed)
        assert train.n_rows + val.n_rows == n
        assert sorted(map(id, train.rows + val.rows)) == sorted(map(id, d.rows))


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
