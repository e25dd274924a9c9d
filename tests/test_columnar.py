"""The columnar stages against their row-based references, and the column invariant.

Every ``Column`` a stage returns holds distinct values, and every value is
held by some row: ``set(codes) == set(range(len(values)))``. Counts of
distinct values (graph entities, uncovered sensors) rely on it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from llmclean.dataset import Dataset, dataset_to_csv, load_csv, normalize_missing
from llmclean.errors import LLMCleanError
from llmclean.evaluation import ErrorSpec, inject_errors
from llmclean.generation import generate_columns, sanitize_for_graph, split_sensors

from oracles import oracle_inject_errors, oracle_sanitize_for_graph

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
