"""Independent reference implementations used to cross-check the engine.

Everything here is written from the dependency definitions directly, with
naive enumeration and no shared code paths with the package internals (cell
access helpers aside). Slow on purpose; only run at desk scale.
"""

from __future__ import annotations

import csv
import io
import re
from datetime import datetime, timedelta, timezone
from functools import lru_cache
from itertools import combinations

from llmclean.dataset import (
    EPOCH_MS_MIN,
    Cell,
    CellKind,
    Dataset,
    PlaceholderSet,
    cell_text,
)
from llmclean.ensemble import EvalRecord
from llmclean.rules import ColumnRef, DependencyKind, Literal, OfdRule


@lru_cache(maxsize=None)
def lev_recursive(a: str, b: str) -> int:
    if not a:
        return len(b)
    if not b:
        return len(a)
    if a[0] == b[0]:
        return lev_recursive(a[1:], b[1:])
    return 1 + min(
        lev_recursive(a[1:], b),
        lev_recursive(a, b[1:]),
        lev_recursive(a[1:], b[1:]),
    )


def sim_recursive(a: str, b: str) -> float:
    if a == b:
        return 1.0
    return 1.0 - lev_recursive(a, b) / max(len(a), len(b))


def _fd_shape(rule: OfdRule) -> tuple[str, str]:
    eq = next(p for p in rule.predicates if p.op == "EQ")
    iq = next(p for p in rule.predicates if p.op == "IQ")
    return eq.left.column, iq.left.column


def _mode_lex_smallest(values):
    # values: list of canonical strings; most frequent, ties to the smallest
    best = None
    for v in sorted(set(values)):
        n = values.count(v)
        if best is None or n > best[1]:
            best = (v, n)
    return best[0]


def oracle_findings(
    d: Dataset,
    rules,
    specs=None,
) -> set[tuple[int, str, str]]:
    """Set of (row, column, rule_id) the definitions say must be flagged."""
    specs = specs or {}
    out: set[tuple[int, str, str]] = set()
    placeholders = PlaceholderSet.default()

    for rule in rules:
        if rule.kind is DependencyKind.DENIAL and len(rule.aliases) == 1:
            pred = rule.predicates[0]
            literal = next(o for o in (pred.left, pred.right) if isinstance(o, Literal))
            column = next(o for o in (pred.left, pred.right) if isinstance(o, ColumnRef))
            idx = d.column_index(column.column)
            name = d.headers[idx]
            for i, row in enumerate(d.rows):
                cell = row[idx]
                if placeholders.matches(literal.value):
                    hit = cell.kind is CellKind.MISSING
                else:
                    hit = cell.kind is CellKind.TEXT and cell.value == literal.value
                if hit:
                    out.add((i, name, rule.id))

        elif rule.kind in (
            DependencyKind.DENIAL,
            DependencyKind.DEVICE_LINK,
            DependencyKind.LOCALITY,
        ):
            det_col, dep_col = _fd_shape(rule)
            det = d.column_index(det_col)
            dep = d.column_index(dep_col)
            dep_name = d.headers[dep]
            det_values = sorted(
                {cell_text(r[det]) for r in d.rows if not r[det].is_missing}
            )
            for det_value in det_values:
                members = [
                    i
                    for i, r in enumerate(d.rows)
                    if not r[det].is_missing and cell_text(r[det]) == det_value
                ]
                present = [
                    cell_text(d.rows[i][dep])
                    for i in members
                    if not d.rows[i][dep].is_missing
                ]
                if not present:
                    continue
                legitimate = _mode_lex_smallest(present)
                for i in members:
                    cell = d.rows[i][dep]
                    if cell.is_missing or cell_text(cell) != legitimate:
                        out.add((i, dep_name, rule.id))

        elif rule.kind is DependencyKind.MATCHING:
            first, second = rule.predicates
            a = d.column_index(first.left.column)
            b = d.column_index(second.left.column)
            b_name = d.headers[b]
            for i, j in combinations(range(d.n_rows), 2):
                cells = (d.rows[i][a], d.rows[j][a], d.rows[i][b], d.rows[j][b])
                if any(c.is_missing for c in cells):
                    continue
                if sim_recursive(cell_text(cells[0]), cell_text(cells[1])) < first.sim_threshold:
                    continue
                if sim_recursive(cell_text(cells[2]), cell_text(cells[3])) < second.sim_threshold:
                    out.add((i, b_name, rule.id))
                    out.add((j, b_name, rule.id))

        elif rule.kind is DependencyKind.CAPABILITY:
            literal = rule.predicates[0].right.value
            spec = rule.spec or specs.get(literal)
            if spec is None:
                head, sep, tail = literal.rpartition("_")
                if sep and tail.isdigit():
                    spec = specs.get(head)
            if spec is None:
                continue
            sensor = d.column_index("sensor")
            value = d.column_index("value")
            value_name = d.headers[value]
            for i, row in enumerate(d.rows):
                if row[sensor].is_missing or cell_text(row[sensor]) != literal:
                    continue
                cell = row[value]
                if cell.is_missing:
                    continue
                if cell.kind is not CellKind.NUMBER:
                    out.add((i, value_name, rule.id))
                elif not spec.min_value <= float(cell.value) <= spec.max_value:
                    out.add((i, value_name, rule.id))

        elif rule.kind is DependencyKind.TEMPORAL:
            by_alias = {p.left.alias: (p.left.column, p.right.value) for p in rule.predicates}
            device_col = by_alias[rule.aliases[0]][0]
            from_dev = by_alias[rule.aliases[0]][1]
            to_dev = by_alias[rule.aliases[1]][1]
            device = d.column_index(device_col)
            ts = d.column_index("timestamp")
            ts_name = d.headers[ts]
            corr = None
            for name in ("message", "message_id", "correlation", "correlation_id"):
                if d.has_column(name):
                    corr = d.column_index(name)
                    break

            def usable(i, dev):
                row = d.rows[i]
                return (
                    not row[device].is_missing
                    and cell_text(row[device]) == dev
                    and row[ts].kind in (CellKind.TIMESTAMP, CellKind.NUMBER)
                )

            if corr is not None:
                keys = sorted(
                    {
                        cell_text(r[corr])
                        for r in d.rows
                        if not r[corr].is_missing
                    }
                )
                for key in keys:
                    froms = [
                        i for i in range(d.n_rows)
                        if usable(i, from_dev)
                        and not d.rows[i][corr].is_missing
                        and cell_text(d.rows[i][corr]) == key
                    ]
                    tos = [
                        i for i in range(d.n_rows)
                        if usable(i, to_dev)
                        and not d.rows[i][corr].is_missing
                        and cell_text(d.rows[i][corr]) == key
                    ]
                    for i in froms:
                        for j in tos:
                            if float(d.rows[i][ts].value) >= float(d.rows[j][ts].value):
                                out.add((j, ts_name, rule.id))
            else:
                froms = sorted(
                    (float(d.rows[i][ts].value), i)
                    for i in range(d.n_rows)
                    if usable(i, from_dev)
                )
                tos = sorted(
                    (float(d.rows[i][ts].value), i)
                    for i in range(d.n_rows)
                    if usable(i, to_dev)
                )
                for (tf, _), (tt, j) in zip(froms, tos):
                    if tf >= tt:
                        out.add((j, ts_name, rule.id))
    return out


def oracle_consensus(results, threshold) -> list[str]:
    universe = sorted({label for answer in results for label in answer})
    votes = [label for answer in results for label in set(answer)]
    return [label for label in universe if votes.count(label) >= threshold]


def oracle_f1(predicted, truth) -> float:
    pred, true = set(predicted), set(truth)
    if not pred and not true:
        return 1.0
    if not pred or not true:
        return 0.0
    inter = len(pred & true)
    p = inter / len(pred)
    r = inter / len(true)
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def oracle_mean_f1(records: list[EvalRecord], prompts, threshold) -> float:
    total = 0.0
    for record in records:
        consensus = oracle_consensus(
            [record.per_prompt[p] for p in prompts], threshold
        )
        total += oracle_f1(consensus, record.truth)
    return total / len(records)


def all_subsets(prompts):
    items = sorted(prompts)
    subsets = []
    for size in range(1, len(items) + 1):
        subsets.extend(combinations(items, size))
    return subsets


def oracle_best_ensemble(records_train, records_val, prompts, tr_range):
    """Exhaustive two-phase search; returns (train_max, val_max, winners)."""
    admissible = [
        (threshold, subset)
        for threshold in range(tr_range + 1)
        for subset in all_subsets(prompts)
        if threshold <= len(subset)
    ]
    train_scores = {
        cfg: oracle_mean_f1(records_train, cfg[1], cfg[0]) for cfg in admissible
    }
    train_max = max(train_scores.values())
    retained = [cfg for cfg, f1 in train_scores.items() if f1 >= train_max - 1e-12]
    val_scores = {cfg: oracle_mean_f1(records_val, cfg[1], cfg[0]) for cfg in retained}
    val_max = max(val_scores.values())
    winners = {cfg for cfg, f1 in val_scores.items() if f1 >= val_max - 1e-12}
    return train_max, val_max, winners


# --------------------------------------------------------------------------
# Loader reference: every cell parsed on its own, with no sharing of parses.


def _oracle_timestamp(text: str) -> int | None:
    s = text.strip()
    if not s:
        return None
    if re.fullmatch(r"[+-]?\d+", s):
        v = int(s)
        return v if v >= EPOCH_MS_MIN else None
    iso = s[:-1] + "+00:00" if s.endswith(("Z", "z")) else s
    try:
        dt = datetime.fromisoformat(iso)
    except ValueError:
        return None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    ms = (dt - datetime(1970, 1, 1, tzinfo=timezone.utc)) // timedelta(milliseconds=1)
    return ms if ms >= 0 else None


def _oracle_number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _oracle_column_kind(values: list[str]) -> CellKind:
    # Majority vote over non-empty values, one parse per cell: timestamp
    # first (epoch integers also parse as floats), then number, else text.
    non_empty = [v for v in values if v.strip() != ""]
    if not non_empty:
        return CellKind.TEXT
    half = len(non_empty) / 2
    if sum(1 for v in non_empty if _oracle_timestamp(v) is not None) > half:
        return CellKind.TIMESTAMP
    if sum(1 for v in non_empty if _oracle_number(v) is not None) > half:
        return CellKind.NUMBER
    return CellKind.TEXT


def _oracle_type_cell(raw: str, kind: CellKind) -> Cell:
    if raw == "":
        return Cell.text("")
    if kind is CellKind.TIMESTAMP:
        ms = _oracle_timestamp(raw)
        if ms is not None:
            return Cell.timestamp(ms)
    elif kind is CellKind.NUMBER:
        num = _oracle_number(raw)
        if num is not None:
            return Cell.number(num)  # NaN/inf collapse to Missing
    return Cell.text(raw)


def oracle_load_csv(data: bytes, has_header: bool = True) -> Dataset:
    """Typed dataset of a well-formed CSV, typing each cell separately."""
    records = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
    if has_header:
        headers, body = records[0], records[1:]
    else:
        headers = [f"col_{i + 1}" for i in range(len(records[0]))]
        body = records
    kinds = [_oracle_column_kind([rec[c] for rec in body]) for c in range(len(headers))]
    rows = [[_oracle_type_cell(rec[c], kinds[c]) for c in range(len(headers))] for rec in body]
    return Dataset.from_lists(headers, rows)


def oracle_normalize_missing(d: Dataset) -> Dataset:
    """Row-wise placeholder folding: every text cell checked on its own."""
    placeholders = PlaceholderSet.default()
    return Dataset.from_lists(
        d.headers,
        [
            [
                Cell(CellKind.MISSING, None)
                if c.kind is CellKind.TEXT and placeholders.matches(c.value)
                else c
                for c in row
            ]
            for row in d.rows
        ],
    )
