"""Rule enforcement against datasets: cell-level error findings.

Missing-value rules scan one column; FD-style rules group rows by the
determinant column and flag every dependent cell deviating from the group's
modal value (ties broken toward the lexicographically smallest candidate, and
the mode itself is never flagged). Matching rules compare row pairs under a
normalized string-similarity metric, with prefix blocking to stay sub-
quadratic on large tables. Capability rules check sensor readings against
min/max specs; temporal rules check message ordering between linked devices.
Every kernel works on the dataset's dictionary-encoded columns: rows are
selected through codes, and per-value work (cell text, block keys, verdicts)
runs once per distinct value.

Missing values never double-count: rows with a missing determinant are
excluded from FD grouping, and pairs touching a missing cell are skipped by
matching and temporal checks. A missing *dependent* cell does deviate from
its group's mode and is flagged.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from itertools import compress, count
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .dataset import (
    CellRef,
    Column,
    Dataset,
    group_modes,
    placeholder_flags,
)
from .errors import RuleError, SchemaError
from .frozen import Frozen, set_field
from .rules import ColumnRef, DependencyKind, Literal, OfdRule, Predicate, SensorSpec, lookup_spec

BLOCK_KEY_LEN = 4

# Columns the kernels resolve by name rather than through a rule's predicates:
# capability rules read a sensor's readings, temporal rules its timestamps,
# paired by the first correlation column the table has.
SENSOR_COLUMN = "sensor"
VALUE_COLUMN = "value"
TIMESTAMP_COLUMN = "timestamp"
_CORRELATION_COLUMNS = ("message", "message_id", "correlation", "correlation_id")


class Finding(Frozen):
    __slots__ = _fields = ("cell", "rule_id", "reason")

    def __init__(self, cell: CellRef, rule_id: str, reason: str):
        set_field(self, "cell", cell)
        set_field(self, "rule_id", rule_id)
        set_field(self, "reason", reason)


class DetectionReport:
    def __init__(
        self,
        findings: list[Finding] | None = None,
        skipped_rules: list[tuple[str, str]] | None = None,
        duration_ms: float = 0.0,
        uncovered_sensors: int = 0,
    ):
        self.findings = [] if findings is None else findings
        self.skipped_rules = [] if skipped_rules is None else skipped_rules
        self.duration_ms = duration_ms
        self.uncovered_sensors = uncovered_sensors

    @property
    def flagged_cells(self) -> set[tuple[int, str]]:
        return {(f.cell.row, f.cell.column) for f in self.findings}

    @property
    def per_rule_counts(self) -> dict[str, int]:
        counts: Counter[str] = Counter(f.rule_id for f in self.findings)
        return dict(sorted(counts.items()))

    def to_json(self) -> str:
        return json.dumps(
            {
                "findings": [
                    {
                        "row": f.cell.row,
                        "column": f.cell.column,
                        "rule": f.rule_id,
                        "reason": f.reason,
                    }
                    for f in self.findings
                ],
                "skipped_rules": [
                    {"rule": rule_id, "error": message}
                    for rule_id, message in self.skipped_rules
                ],
                "duration_ms": self.duration_ms,
                "flagged_cell_count": len(self.flagged_cells),
                "per_rule_counts": self.per_rule_counts,
                "uncovered_sensors": self.uncovered_sensors,
            },
            indent=2,
        )


def levenshtein(a: str, b: str) -> int:
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
            )
        previous = current
    return previous[-1]


def similarity(a: str, b: str) -> float:
    """Normalized string similarity: 1 - edit_distance / max_length."""
    if a == b:
        return 1.0
    longest = max(len(a), len(b))
    return 1.0 - levenshtein(a, b) / longest


def _across(rule: OfdRule, predicate: Predicate) -> str:
    """The one column ``predicate`` compares between the rule's two tuples."""
    left, right = predicate.left, predicate.right
    if not (
        isinstance(left, ColumnRef)
        and isinstance(right, ColumnRef)
        and left.column == right.column
        and left.alias != right.alias
    ):
        raise RuleError(f"rule {rule.id!r}: {predicate.op} must compare one column across tuples")
    return left.column


def fd_columns(rule: OfdRule) -> tuple[str, str]:
    """Determinant/dependent columns of an FD-shaped binary rule."""
    if len(rule.aliases) != 2 or len(rule.predicates) != 2:
        raise RuleError(f"rule {rule.id!r} is not a binary FD rule")
    eq = [p for p in rule.predicates if p.op == "EQ"]
    iq = [p for p in rule.predicates if p.op == "IQ"]
    if len(eq) != 1 or len(iq) != 1:
        raise RuleError(f"rule {rule.id!r} must pair one EQ with one IQ predicate")
    return _across(rule, eq[0]), _across(rule, iq[0])


def _resolve(d: Dataset, rule_id: str, column: str) -> int:
    try:
        return d.column_index(column)
    except SchemaError as exc:
        raise RuleError(f"rule {rule_id!r}: {exc}") from None


def detect_missing(d: Dataset, rule: OfdRule) -> list[Finding]:
    """Enforce a unary denial rule (dataset already missing-normalized).

    A placeholder literal flags every missing cell of the column; any other
    literal flags text cells equal to it.
    """
    if len(rule.aliases) != 1 or len(rule.predicates) != 1:
        raise RuleError(f"rule {rule.id!r} is not a unary rule")
    pred = rule.predicates[0]
    if pred.op != "EQ":
        raise RuleError(f"rule {rule.id!r}: unary rules must use EQ")
    operands = (pred.left, pred.right)
    literals = [o for o in operands if isinstance(o, Literal)]
    columns = [o for o in operands if isinstance(o, ColumnRef)]
    if len(literals) != 1 or len(columns) != 1:
        raise RuleError(f"rule {rule.id!r}: unary rule needs one column and one literal")
    col_idx = _resolve(d, rule.id, columns[0].column)
    column = d.columns[col_idx]
    literal = literals[0].value
    if any(placeholder_flags([literal])):
        hits = [] if column.missing_code is None else [column.missing_code]
    else:  # only a text payload equals a str
        hits = [k for k, payload in enumerate(column.payloads) if payload == literal]
    name = d.headers[col_idx]
    return [
        Finding(CellRef(i, name), rule.id, "missing_value") for i in column.row_indices(hits)
    ]


def detect_fd_violations(d: Dataset, rule: OfdRule) -> list[Finding]:
    """Group by determinant, flag dependent cells deviating from the mode.

    Works on ``(determinant code, dependent code)`` pair counts: each
    group's mode is taken once, then the rows holding a deviating pair are
    flagged.
    """
    det, dep = fd_columns(rule)
    det_col = d.columns[_resolve(d, rule.id, det)]
    dep_idx = _resolve(d, rule.id, dep)
    dep_col = d.columns[dep_idx]
    dep_name = d.headers[dep_idx]

    pairs = Counter(zip(det_col.codes, dep_col.codes))
    modes = group_modes(det_col, dep_col, pairs)
    deviating = {(a, b) for a, b in pairs if a in modes and b != modes[a]}
    return [
        Finding(CellRef(i, dep_name), rule.id, "fd_violation")
        for i in _rows_holding(deviating, det_col, dep_col)
    ]


def _rows_holding(pairs: set[tuple[int, int]], a: Column, b: Column) -> Iterable[int]:
    """Ascending indices of the rows whose ``(a, b)`` codes are in ``pairs``."""
    if not pairs:
        return ()
    return compress(count(), map(pairs.__contains__, zip(a.codes, b.codes)))


def _sim_predicates(rule: OfdRule) -> tuple[str, float, str, float]:
    if (
        len(rule.aliases) != 2
        or len(rule.predicates) != 2
        or any(p.op != "SIM" for p in rule.predicates)
    ):
        raise RuleError(f"rule {rule.id!r} is not a binary matching rule")
    first, second = rule.predicates
    return _across(rule, first), first.sim_threshold, _across(rule, second), second.sim_threshold


def detect_matching_violations(
    d: Dataset, rule: OfdRule, exact: bool = False
) -> list[Finding]:
    """Flag both dependent cells of pairs where A-similarity holds but B's fails.

    Each SIM predicate carries its own threshold. By default candidate pairs
    are restricted to rows sharing the first ``BLOCK_KEY_LEN`` characters of
    the determinant value (cheap blocking, which misses pairs that differ in
    those characters); ``exact=True`` enumerates all pairs.
    """
    col_a, theta_a, col_b, theta_b = _sim_predicates(rule)
    a_col = d.columns[_resolve(d, rule.id, col_a)]
    b_idx = _resolve(d, rule.id, col_b)
    b_col = d.columns[b_idx]
    b_name = d.headers[b_idx]

    # Rows with equal (A, B) codes compare alike with every other row, and
    # never flag each other (similarity 1.0 meets any threshold), so each
    # distinct pair is compared once.
    a_missing, b_missing = a_col.missing_code, b_col.missing_code
    a_texts, b_texts = a_col.texts, b_col.texts
    distinct = list(dict.fromkeys(zip(a_col.codes, b_col.codes)))
    if a_missing is not None or b_missing is not None:
        distinct = [(a, b) for a, b in distinct if a != a_missing and b != b_missing]
    if exact:
        blocks = [distinct]
    else:
        # Only keys that two or more pairs share make a block.
        a_keys = list(map(itemgetter(slice(BLOCK_KEY_LEN)), a_texts))
        keys = list(map(a_keys.__getitem__, map(itemgetter(0), distinct)))
        shared = {key for key, n in Counter(keys).items() if n > 1}
        keyed: dict[str, list[tuple[int, int]]] = defaultdict(list)
        for key, pair in compress(zip(keys, distinct), map(shared.__contains__, keys)):
            keyed[key].append(pair)
        blocks = list(keyed.values())

    flagged: set[tuple[int, int]] = set()
    for block in blocks:
        texts_a = [a_texts[a] for a, _ in block]
        texts_b = [b_texts[b] for _, b in block]
        for x in range(len(block)):
            for y in range(x + 1, len(block)):
                ax, ay = texts_a[x], texts_a[y]
                longest = max(len(ax), len(ay))
                if longest and 1.0 - abs(len(ax) - len(ay)) / longest < theta_a:
                    continue  # length gap alone rules the pair out
                if similarity(ax, ay) < theta_a:
                    continue
                if similarity(texts_b[x], texts_b[y]) < theta_b:
                    flagged.add(block[x])
                    flagged.add(block[y])
    return [
        Finding(CellRef(i, b_name), rule.id, "matching_violation")
        for i in _rows_holding(flagged, a_col, b_col)
    ]


def detect_capability_violations(
    d: Dataset, rule: OfdRule, spec: SensorSpec
) -> list[Finding]:
    """Check the readings of rows whose sensor is the rule's literal against
    ``spec`` (closed interval).

    The literal is matched against the sensor column's distinct values. A
    table without ``sensor`` or ``value`` columns raises RuleError.
    """
    sensor_id = _capability_sensor(rule)
    sensors = d.columns[_resolve(d, rule.id, SENSOR_COLUMN)]
    value_idx = _resolve(d, rule.id, VALUE_COLUMN)
    values = d.columns[value_idx]
    value_name = d.headers[value_idx]
    payloads, codes = values.payloads, values.codes
    findings: list[Finding] = []
    for i in sensors.row_indices(sensors.codes_of(sensor_id)):
        value = payloads[codes[i]]
        if value is None:
            continue
        if type(value) is not float:
            findings.append(Finding(CellRef(i, value_name), rule.id, "type_mismatch"))
        elif not spec.min_value <= value <= spec.max_value:
            findings.append(Finding(CellRef(i, value_name), rule.id, "capability_range"))
    return findings


def temporal_link(rule: OfdRule) -> tuple[str, str, str]:
    """Extract (device column, from-device, to-device) out of a temporal rule."""
    if len(rule.aliases) != 2 or len(rule.predicates) != 2:
        raise RuleError(f"rule {rule.id!r} is not a temporal link rule")
    by_alias: dict[str, tuple[str, str]] = {}
    for pred in rule.predicates:
        if pred.op != "EQ" or not isinstance(pred.left, ColumnRef) or not isinstance(
            pred.right, Literal
        ):
            raise RuleError(f"rule {rule.id!r}: temporal rules pin each alias's device")
        by_alias[pred.left.alias] = (pred.left.column, pred.right.value)
    if set(by_alias) != set(rule.aliases):
        raise RuleError(f"rule {rule.id!r}: each alias needs a device predicate")
    column, from_device = by_alias[rule.aliases[0]]
    other_column, to_device = by_alias[rule.aliases[1]]
    if column != other_column:
        raise RuleError(f"rule {rule.id!r}: both device predicates must compare one column")
    return column, from_device, to_device


def detect_temporal_violations(d: Dataset, rule: OfdRule) -> list[Finding]:
    """Flag downstream timestamp cells that do not strictly follow upstream ones.

    Rows are paired by a correlation column when one exists; otherwise the
    k-th timestamp (in ascending order) of the upstream device is compared
    with the k-th of the downstream device.
    """
    device_col, from_device, to_device = temporal_link(rule)
    devices = d.columns[_resolve(d, rule.id, device_col)]
    try:
        ts_idx = d.column_index(TIMESTAMP_COLUMN)
    except SchemaError:
        raise RuleError(f"rule {rule.id!r}: dataset has no timestamp column") from None
    ts_name = d.headers[ts_idx]
    ts_codes = d.columns[ts_idx].codes
    # Timestamps and numbers compare as floats; text and missing never do.
    stamps = [
        None if p is None or type(p) is str else float(p) for p in d.columns[ts_idx].payloads
    ]

    corr_idx = None
    for name in _CORRELATION_COLUMNS:
        if d.has_column(name):
            corr_idx = d.column_index(name)
            break

    def rows_for(device: str) -> list[tuple[float, int]]:
        return [
            (stamps[ts_codes[i]], i)
            for i in devices.row_indices(devices.codes_of(device))
            if stamps[ts_codes[i]] is not None
        ]

    findings: list[Finding] = []
    seen: set[int] = set()

    def check(t_from: float, t_to: float, downstream_row: int):
        if t_from >= t_to and downstream_row not in seen:
            seen.add(downstream_row)
            findings.append(
                Finding(CellRef(downstream_row, ts_name), rule.id, "temporal_order")
            )

    froms, tos = rows_for(from_device), rows_for(to_device)
    if corr_idx is not None:
        corr = d.columns[corr_idx]
        corr_missing = corr.missing_code
        pairs: dict[str, tuple[list[tuple[float, int]], list[tuple[float, int]]]] = {}
        for side, entries in enumerate((froms, tos)):
            for ts, i in entries:
                code = corr.codes[i]
                if code != corr_missing:
                    pairs.setdefault(corr.texts[code], ([], []))[side].append((ts, i))
        for key in sorted(pairs):
            froms, tos = pairs[key]
            for t_from, _ in froms:
                for t_to, row_to in tos:
                    check(t_from, t_to, row_to)
    else:
        for (t_from, _), (t_to, row_to) in zip(sorted(froms), sorted(tos)):
            check(t_from, t_to, row_to)

    findings.sort(key=lambda f: f.cell.row)
    return findings


def columns_read(rules: Iterable[OfdRule]) -> frozenset[str]:
    """Case-folded names of the columns that :func:`run_all` may read for ``rules``.

    These are the columns the rules' predicates name, plus the ones kernels
    resolve by name: sensor and value for capability rules (the uncovered-
    sensor count reads sensor too), timestamp and the correlation columns for
    temporal rules. A table loaded with only the headers that fold onto these
    names gives the same report as the whole table.
    """
    names: set[str] = set()
    for rule in rules:
        for pred in rule.predicates:
            names.update(o.column for o in (pred.left, pred.right) if isinstance(o, ColumnRef))
        if rule.kind is DependencyKind.CAPABILITY:
            names.update((SENSOR_COLUMN, VALUE_COLUMN))
        elif rule.kind is DependencyKind.TEMPORAL:
            names.update((TIMESTAMP_COLUMN, *_CORRELATION_COLUMNS))
    return frozenset(map(str.lower, names))


def _dispatch(
    d: Dataset,
    rule: OfdRule,
    specs: Mapping[str, SensorSpec],
    exact_matching: bool,
) -> list[Finding]:
    kind = rule.kind
    if kind is DependencyKind.DENIAL:
        if len(rule.aliases) == 1:
            return detect_missing(d, rule)
        return detect_fd_violations(d, rule)
    if kind in (DependencyKind.DEVICE_LINK, DependencyKind.LOCALITY):
        return detect_fd_violations(d, rule)
    if kind is DependencyKind.MATCHING:
        return detect_matching_violations(d, rule, exact=exact_matching)
    if kind is DependencyKind.CAPABILITY:
        spec = _capability_spec(rule, specs)
        return [] if spec is None else detect_capability_violations(d, rule, spec)
    return detect_temporal_violations(d, rule)  # the one kind left


def _capability_sensor(rule: OfdRule) -> str:
    if len(rule.predicates) != 1:
        raise RuleError(f"rule {rule.id!r} is not a capability rule")
    pred = rule.predicates[0]
    if pred.op != "EQ" or not isinstance(pred.right, Literal):
        raise RuleError(f"rule {rule.id!r}: capability rule must pin the sensor id")
    if not isinstance(pred.left, ColumnRef) or pred.left.column.lower() != SENSOR_COLUMN:
        raise RuleError(f"rule {rule.id!r}: capability rule must compare the sensor column")
    return pred.right.value


def _capability_spec(rule: OfdRule, specs: Mapping[str, SensorSpec]) -> SensorSpec | None:
    return rule.spec or lookup_spec(specs, _capability_sensor(rule))


def run_all(
    d: Dataset,
    rules: Sequence[OfdRule],
    specs: Mapping[str, SensorSpec] | None = None,
    exact_matching: bool = False,
) -> DetectionReport:
    """Enforce every rule; merge findings with (cell, rule) de-duplication.

    Structurally equal rules (same kind, aliases, predicates and spec) are
    checked once and their findings reported under each rule's id. A rule
    that cannot be applied is recorded under ``skipped_rules`` and never
    aborts the remaining rules. Distinct sensors in the data that no
    capability rule with a spec checks (a rule whose literal is the sensor
    id and whose spec is its own or, failing that, the spec map's) are
    counted as uncovered.
    """
    specs = specs or {}
    start = time.perf_counter()
    report = DetectionReport()
    seen: set[tuple[int, str, str]] = set()
    checked: dict[tuple[OfdRule, SensorSpec | None], list[Finding]] = {}
    for rule in rules:
        check = (rule, rule.spec)
        if check not in checked:
            try:
                checked[check] = _dispatch(d, rule, specs, exact_matching)
            except RuleError as exc:  # not cached: the message names this rule
                report.skipped_rules.append((rule.id, str(exc)))
                continue
        for f in checked[check]:
            key = (f.cell.row, f.cell.column, rule.id)
            if key not in seen:
                seen.add(key)
                report.findings.append(Finding(f.cell, rule.id, f.reason))

    if any(r.kind is DependencyKind.CAPABILITY for r in rules) and d.has_column(SENSOR_COLUMN):
        covered = {
            _capability_sensor(rule)
            for rule in rules
            if rule.kind is DependencyKind.CAPABILITY
            and (rule, rule.spec) in checked
            and _capability_spec(rule, specs) is not None
        }
        sensors = d.columns[d.column_index(SENSOR_COLUMN)]
        present = {t for p, t in zip(sensors.payloads, sensors.texts) if p is not None}
        report.uncovered_sensors = len(present - covered)

    report.findings.sort(key=lambda f: (f.cell.row, f.cell.column, f.rule_id))
    report.duration_ms = (time.perf_counter() - start) * 1000.0
    return report
