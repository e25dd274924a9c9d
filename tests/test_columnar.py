"""The columnar stages against their row-based references, and the column invariant.

Every ``Column`` a stage returns holds distinct values, and every value is
held by some row: ``set(codes) == set(range(len(values)))``. Counts of
distinct values (graph entities, uncovered sensors) rely on it.
"""

from __future__ import annotations

import csv
import io

import pytest
from hypothesis import given, settings, strategies as st

from llmclean.dataset import (
    MISSING,
    Cell,
    CellKind,
    Column,
    Dataset,
    dataset_to_csv,
    load_csv,
    normalize_missing,
    payload_kind,
)
from llmclean.detection import columns_read, run_all
from llmclean.errors import LLMCleanError
from llmclean.evaluation import ErrorSpec, inject_errors
from llmclean.generation import generate_columns, sanitize_for_graph, split_sensors
from llmclean.rules import SensorSpec, parse_rule_file

from oracles import (
    oracle_inject_errors,
    oracle_load_csv,
    oracle_normalize_missing,
    oracle_sanitize_for_graph,
)

HEADERS = ("sensor", "Device", "location", "value")
SENSORS = ("s1", "s2", "s3", "", "N/A")
NOISE = (
    st.sampled_from(["d1", "d2", "d3", "", "null"]),
    st.sampled_from(["r1", "r2", ""]),
)
VALUES = st.sampled_from(["1", "2.5", "-3", "0", "40", "1e3", "abc", ""])
TARGETS = st.sampled_from(list(HEADERS) + ["SENSOR", "Value"])
FD_PAIRS = st.sampled_from(
    [("sensor", "Device"), ("Device", "location"), ("location", "sensor"),
     ("sensor", "value"), ("SENSOR", "sensor")]
)


def check_columns(d: Dataset) -> None:
    for column in d.columns:
        assert len(set(column.values)) == len(column.values)
        assert set(column.codes) == set(range(len(column.values)))


@st.composite
def tables(draw) -> bytes:
    """A CSV whose Device and location mostly follow the sensor, with noise."""
    rows = [HEADERS]
    for _ in range(draw(st.integers(0, 40))):
        k = draw(st.integers(0, len(SENSORS) - 1))
        if draw(st.integers(0, 3)) == 0:
            device, location = draw(st.tuples(*NOISE))
        else:
            device, location = f"d{k % 3 + 1}", f"r{k % 2 + 1}"
        rows.append((SENSORS[k], device, location, draw(VALUES)))
    return "\n".join(map(",".join, rows)).encode("utf-8") + b"\n"


def targets(max_size: int):
    return st.lists(TARGETS, min_size=1, max_size=max_size, unique=True).map(tuple)


@st.composite
def error_specs(draw) -> ErrorSpec:
    rate = st.sampled_from([0.0, 0.05, 0.1, 0.3])
    fd_pair = draw(FD_PAIRS)
    return ErrorSpec(
        missing_rate=draw(rate),
        outlier_rate=draw(rate),
        fd_swap_rate=draw(rate),
        outlier_multiplier=draw(st.sampled_from([100.0, -2.0, 0.5])),
        seed=draw(st.integers(0, 2**16)),
        missing_columns=draw(st.none() | targets(3)),
        outlier_columns=draw(st.none() | targets(2)),
        fd_determinant=fd_pair[0],
        fd_dependent=fd_pair[1],
    )


def _names_a_column_twice(d: Dataset, names) -> bool:
    cols = [d.column_index(name) for name in names]
    return len(set(cols)) < len(cols)


def _run(f, *args):
    try:
        return f(*args)
    except (ValueError, LLMCleanError) as exc:
        return exc


@settings(max_examples=300, deadline=None)
@given(data=tables(), spec=error_specs())
def test_columnar_stages_match_row_references(data, spec):
    raw = load_csv(data)
    clean = normalize_missing(raw)
    check_columns(raw)
    check_columns(clean)

    got = _run(inject_errors, clean, spec)
    if isinstance(got, ValueError) and "twice" in str(got):
        # Naming one column twice is refused, whatever the rate; the row
        # reference accepted it.
        assert any(
            _names_a_column_twice(clean, names)
            for names in (
                (spec.fd_determinant, spec.fd_dependent),
                spec.missing_columns or (),
                spec.outlier_columns or (),
            )
        )
        dirty = clean
    else:
        expected = _run(oracle_inject_errors, clean, spec)
        if isinstance(expected, Exception):
            assert type(got) is type(expected)
            dirty = clean
        else:
            dirty, truth = got
            assert dirty == expected[0]
            assert truth == expected[1]
            assert dataset_to_csv(dirty) == dataset_to_csv(expected[0])
    check_columns(dirty)

    for table in (clean, normalize_missing(dirty)):
        sanitized = sanitize_for_graph(table)
        assert sanitized == oracle_sanitize_for_graph(table)
        check_columns(sanitized)

    split = split_sensors(clean, [("value", "t"), ("sensor", "u"), ("value", "t")])
    check_columns(split)
    assert split.n_rows == 3 * clean.n_rows
    for table in (split, Dataset.from_columns(HEADERS[:2], clean.columns[:2], clean.n_rows)):
        widened, _ = generate_columns(table)
        check_columns(widened)


@pytest.mark.parametrize(
    "spec",
    [
        ErrorSpec(missing_rate=0.1, missing_columns=("sensor", "SENSOR")),
        ErrorSpec(outlier_rate=0.3, outlier_columns=("value", "value")),
        ErrorSpec(fd_swap_rate=0.1, fd_determinant="Device", fd_dependent="device"),
    ],
)
def test_a_column_named_twice_is_refused(spec):
    clean = normalize_missing(load_csv(b"sensor,Device,value\ns1,d1,1\ns2,d2,2\ns1,d1,3\n"))
    with pytest.raises(ValueError, match="twice"):
        inject_errors(clean, spec)


# The column store: distinct payloads plus an array of narrow codes.


def _ref_text(cell: Cell) -> str:
    """Canonical text of a cell, by its kind."""
    if cell.kind is CellKind.TEXT:
        return cell.value
    if cell.kind is CellKind.NUMBER:
        return str(int(cell.value)) if cell.value.is_integer() else repr(cell.value)
    return "" if cell.kind is CellKind.MISSING else str(cell.value)


@pytest.mark.parametrize(
    "n,typecode", [(256, "B"), (257, "H"), (65_536, "H"), (65_537, "I")]
)
def test_codes_take_the_narrowest_typecode(n, typecode):
    # One text and one number column with n distinct values, read twice over,
    # and a column of 3 values that stays one byte a row.
    rows = [(f"k{i}", f"{i}.5", f"g{i % 3}") for i in range(n)] * 2
    text = "key,x,g\n" + "".join(f"{a},{b},{c}\n" for a, b, c in rows)
    d = load_csv(text.encode())
    assert [c.codes.typecode for c in d.columns] == [typecode, typecode, "B"]
    assert [len(c.payloads) for c in d.columns] == [n, n, 3]
    assert dataset_to_csv(d) == text
    cells = [[Cell.text(a), Cell.number(float(b)), Cell.text(c)] for a, b, c in rows]
    expected = Dataset.from_lists(d.headers, cells)
    assert d.rows == expected.rows
    assert [c.codes.typecode for c in expected.columns] == [typecode, typecode, "B"]
    assert Column.merged(list(range(n)) + [0], [n] * 3).codes.typecode == "B"


_SPELLINGS = st.sampled_from([
    "abc", "x1", " 1 ", "1", "1.0", "+1", "2.5", "-0", "0", "1e3", "nan", "inf",
    "1700000000000", "+1700000000000", "1700000000000.0", "2024-01-01T00:00:05Z",
    "2024-01-01", "", " ", "N/A", "null", "None", " nan ",
])


@st.composite
def mixed_tables(draw) -> bytes:
    """A CSV whose columns each draw from a few spellings of text, numbers,
    epoch-ms and ISO timestamps, and placeholders."""
    pools = draw(st.lists(st.lists(_SPELLINGS, min_size=1, max_size=4, unique=True),
                          min_size=1, max_size=3))
    n_rows = draw(st.integers(0, 12))
    rows = [[draw(st.sampled_from(pool)) for pool in pools] for _ in range(n_rows)]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([[f"c{j}" for j in range(len(pools))], *rows])
    return buf.getvalue().encode()


@settings(max_examples=300, deadline=None)
@given(data=mixed_tables())
def test_payload_columns_match_their_cells(data):
    raw = load_csv(data)
    reference = oracle_load_csv(data)
    for d, ref in ((raw, reference), (normalize_missing(raw), oracle_normalize_missing(reference))):
        for j, column in enumerate(d.columns):
            cells = [row[j] for row in ref.rows]
            distinct = tuple(dict.fromkeys(cells))  # first-held order
            assert column.values == distinct
            assert column.texts == tuple(map(_ref_text, distinct))
            assert column.missing_code == (distinct.index(MISSING) if MISSING in distinct else None)
            assert list(column.cells()) == cells
            assert [payload_kind(p) for p in column.payloads] == [c.kind for c in distinct]


def test_payload_kind_is_exhaustive():
    kinds = {payload_kind(p) for p in ("x", 1.5, 1_700_000_000_000, None)}
    assert kinds == set(CellKind)
    for payload in (True, b"x", 1j):
        with pytest.raises(TypeError, match="no cell kind holds"):
            payload_kind(payload)
        with pytest.raises(TypeError):
            Column((payload,), [0]).values
    with pytest.raises(TypeError, match="cannot hold"):
        Cell(CellKind.NUMBER, 5)


def test_split_sensors_keeps_a_timestamp_and_an_equal_number_apart():
    d = Dataset.from_lists(["t", "n"], [[Cell.timestamp(5), Cell.number(5.0)]] * 2)
    split = split_sensors(d, [("t", "t"), ("n", "n")])
    assert split.columns[1].payloads == (5, 5.0)
    assert [type(p) for p in split.columns[1].payloads] == [int, float]
    assert split.column("value") == (Cell.timestamp(5), Cell.number(5.0)) * 2


_DETECT_RULES = """\
denial: t1&EQ(t1.sensor,"")
denial: t1&t2&EQ(t1.SensingDevice,t2.SensingDevice)&IQ(t1.Device,t2.Device)
device_link: t1&t2&EQ(t1.sensor,t2.sensor)&IQ(t1.Device,t2.Device)
capability: t1&EQ(t1.sensor,"ds18b20_7")
matching: t1&t2&SIM75(t1.CodeA,t2.CodeA)&SIM75(t1.CodeB,t2.CodeB)
"""


def test_detect_builds_no_cells():
    # The criterion-7 columns: a missing sensor, a swapped Device, an
    # out-of-range reading and a near-duplicate CodeA pair.
    rows = [
        (f"ds18b20_{i % 9}", f"sd{i % 9}", f"dev{i % 3}", f"{20 + i % 7}.5",
         str(1_700_000_000_000 + i), f"code{i:03d}", f"{i:03d}edoc")
        for i in range(60)
    ]
    rows[3] = ("",) + rows[3][1:]
    rows[5] = rows[5][:2] + ("dev9",) + rows[5][3:]
    rows[7] = rows[7][:3] + ("900.5",) + rows[7][4:]
    rows[8] = rows[8][:5] + ("code007", "zzz")
    header = "sensor,SensingDevice,Device,value,timestamp,CodeA,CodeB\n"
    data = (header + "".join(",".join(r) + "\n" for r in rows)).encode()
    rules = parse_rule_file(_DETECT_RULES)
    raw = load_csv(data, columns_read(rules))
    d = normalize_missing(raw)
    report = run_all(d, rules, specs={"ds18b20": SensorSpec("ds18b20", -55.0, 125.0)})
    report.to_json()
    assert {f.reason for f in report.findings} == {
        "missing_value", "fd_violation", "capability_range", "matching_violation"
    }
    for column in raw.columns + d.columns:
        assert "values" not in vars(column)
