"""Independent reference implementations used to cross-check the engine.

Everything here is written from the dependency definitions directly, with
naive enumeration and no shared code paths with the package internals (cell
access helpers aside). Slow on purpose; only run at desk scale.
"""

from __future__ import annotations

import csv
import io
import math
import random
import re
import statistics
from collections import Counter, defaultdict
from datetime import datetime, timedelta, timezone
from functools import lru_cache
from itertools import combinations

from llmclean.dataset import (
    DEFAULT_PLACEHOLDER_TOKENS,
    EPOCH_MS_MIN,
    Cell,
    CellKind,
    CellRef,
    Dataset,
    cell_text,
)
from llmclean.ensemble import EvalRecord
from llmclean.evaluation import Corruption, ErrorSpec, GroundTruth, round_half_up
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


def _is_placeholder(text: str) -> bool:
    """A missing-value spelling: a placeholder token, ignoring case and edge spaces."""
    return text.strip().lower() in {t.lower() for t in DEFAULT_PLACEHOLDER_TOKENS}


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

    for rule in rules:
        if rule.kind is DependencyKind.DENIAL and len(rule.aliases) == 1:
            pred = rule.predicates[0]
            literal = next(o for o in (pred.left, pred.right) if isinstance(o, Literal))
            column = next(o for o in (pred.left, pred.right) if isinstance(o, ColumnRef))
            idx = d.column_index(column.column)
            name = d.headers[idx]
            for i, row in enumerate(d.rows):
                cell = row[idx]
                if _is_placeholder(literal.value):
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


def oracle_type_values(values: list[str]) -> list[Cell]:
    """One column's cells from its raw values (one per row): every row votes
    and every cell is parsed on its own."""
    kind = _oracle_column_kind(values)
    return [_oracle_type_cell(v, kind) for v in values]


def oracle_load_csv(data: bytes) -> Dataset:
    """Typed dataset of a well-formed CSV, typing each cell separately."""
    records = list(csv.reader(io.StringIO(data.decode("utf-8-sig"), newline="")))
    headers, body = records[0], records[1:]
    kinds = [_oracle_column_kind([rec[c] for rec in body]) for c in range(len(headers))]
    rows = [[_oracle_type_cell(rec[c], kinds[c]) for c in range(len(headers))] for rec in body]
    return Dataset.from_lists(headers, rows)


def oracle_normalize_missing(d: Dataset) -> Dataset:
    """Row-wise placeholder folding: every text cell checked on its own."""
    return Dataset.from_lists(
        d.headers,
        [
            [
                Cell(CellKind.MISSING, None)
                if c.kind is CellKind.TEXT and _is_placeholder(c.value)
                else c
                for c in row
            ]
            for row in d.rows
        ],
    )


# Row-based references for error injection and the graph's working copy:
# every cell is read through ``Dataset.rows`` and the result is rebuilt from
# a row grid. Group modes are counted per group here, independently of
# ``dataset.group_modes``.


def _modal_cell(counts: Counter) -> Cell:
    """Most frequent cell; ties go to the smallest ``cell_text``."""
    top = max(counts.values())
    return min((cell for cell, n in counts.items() if n == top), key=cell_text)


def oracle_numeric_columns(d: Dataset) -> list[str]:
    numeric = []
    for c, name in enumerate(d.headers):
        cells = [row[c] for row in d.rows if not row[c].is_missing]
        if cells and sum(x.kind is CellKind.NUMBER for x in cells) > len(cells) / 2:
            numeric.append(name)
    return numeric


def oracle_inject_errors(d: Dataset, spec: ErrorSpec) -> tuple[Dataset, GroundTruth]:
    """``evaluation.inject_errors`` on a grid of rows, drawing the same random stream."""
    rng = random.Random(spec.seed)
    grid: list[list[Cell]] = [list(row) for row in d.rows]
    corrupted: set[tuple[int, int]] = set()
    entries: list[Corruption] = []

    def take(ref_row: int, ref_col: int, new_cell: Cell, kind: str):
        corrupted.add((ref_row, ref_col))
        entries.append(
            Corruption(CellRef(ref_row, d.headers[ref_col]), grid[ref_row][ref_col], kind)
        )
        grid[ref_row][ref_col] = new_cell

    if spec.fd_swap_rate > 0:
        det_idx = d.column_index(spec.fd_determinant)
        dep_idx = d.column_index(spec.fd_dependent)
        groups: dict[Cell, list[int]] = defaultdict(list)
        for i, row in enumerate(d.rows):
            if not row[det_idx].is_missing and not row[dep_idx].is_missing:
                groups[row[det_idx]].append(i)
        modes = {
            det_value: _modal_cell(Counter(d.rows[i][dep_idx] for i in rows))
            for det_value, rows in groups.items()
        }
        quota = {det_value: (len(rows) - 1) // 2 for det_value, rows in groups.items()}
        eligible = [
            (i, det_value)
            for det_value in sorted(groups, key=cell_text)
            for i in groups[det_value]
        ]
        count = round_half_up(spec.fd_swap_rate * d.n_rows)
        rng.shuffle(eligible)
        taken = 0
        for i, det_value in eligible:
            if taken >= count:
                break
            if quota[det_value] <= 0:
                continue
            own_mode = modes[det_value]
            other_modes = sorted(
                {
                    cell_text(m)
                    for dv, m in modes.items()
                    if dv != det_value and m != grid[i][dep_idx] and m != own_mode
                }
            )
            if not other_modes:
                continue
            take(i, dep_idx, Cell.text(rng.choice(other_modes)), "fd_swap")
            quota[det_value] -= 1
            taken += 1
        if taken < count:
            raise ValueError(f"fd_swap capacity exhausted: wanted {count}, placed {taken}")

    if spec.missing_rate > 0:
        cols = [d.column_index(c) for c in spec.missing_columns or d.headers]
        eligible = [(i, c) for c in cols for i in range(d.n_rows) if (i, c) not in corrupted]
        count = round_half_up(spec.missing_rate * d.n_rows * len(cols))
        if count > len(eligible):
            raise ValueError("missing_rate exceeds remaining capacity")
        for i, c in rng.sample(eligible, count):
            take(i, c, Cell.text(rng.choice(DEFAULT_PLACEHOLDER_TOKENS)), "missing")

    if spec.outlier_rate > 0:
        targets = spec.outlier_columns or oracle_numeric_columns(d)
        if not targets:
            raise ValueError("no numeric columns available for outliers")
        cols = [d.column_index(c) for c in targets]
        eligible = [
            (i, c)
            for c in cols
            for i in range(d.n_rows)
            if (i, c) not in corrupted and grid[i][c].kind is CellKind.NUMBER
        ]
        count = round_half_up(spec.outlier_rate * d.n_rows * len(cols))
        if count > len(eligible):
            raise ValueError("outlier_rate exceeds remaining capacity")
        for i, c in rng.sample(eligible, count):
            old = float(grid[i][c].value)
            new_value = old * spec.outlier_multiplier if old != 0 else spec.outlier_multiplier
            if not math.isfinite(new_value) or new_value == old:
                raise ValueError(f"outlier_multiplier {spec.outlier_multiplier} fails on {old}")
            take(i, c, Cell.number(new_value), "outlier")

    return Dataset(d.headers, tuple(map(tuple, grid))), GroundTruth(tuple(entries))


def oracle_sanitize_for_graph(d: Dataset) -> Dataset:
    """``generation.sanitize_for_graph`` on rows, grouped by each sensor's text."""
    sensor_idx = d.column_index("sensor")
    structural = [
        d.column_index(name)
        for name in ("system", "device", "sensingdevice", "location")
        if d.has_column(name)
    ]
    value_idx = d.column_index("value") if d.has_column("value") else None

    groups: dict[str, list[int]] = {}
    for i, row in enumerate(d.rows):
        if not row[sensor_idx].is_missing:
            groups.setdefault(cell_text(row[sensor_idx]), []).append(i)

    repairs: dict[tuple[int, int], Cell] = {}
    dropped: set[int] = set()
    for rows in groups.values():
        for col in structural:
            counts = Counter(d.rows[i][col] for i in rows if not d.rows[i][col].is_missing)
            if not counts:
                continue
            mode = _modal_cell(counts)
            for i in rows:
                if d.rows[i][col] != mode:
                    repairs[(i, col)] = mode
        if value_idx is not None:
            numbers = [
                (i, float(d.rows[i][value_idx].value))
                for i in rows
                if d.rows[i][value_idx].kind is CellKind.NUMBER
            ]
            if len(numbers) >= 4:
                q1, _, q3 = statistics.quantiles(
                    sorted(v for _, v in numbers), n=4, method="inclusive"
                )
                low, high = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
                dropped.update(i for i, v in numbers if not low <= v <= high)

    return Dataset(
        d.headers,
        tuple(
            tuple(repairs.get((i, c), cell) for c, cell in enumerate(row))
            for i, row in enumerate(d.rows)
            if i not in dropped
        ),
    )


# --------------------------------------------------------------------------
# Column-pair profiling reference: g3 counted per pair from the rows.


def _g3(pairs: list[tuple[Cell, Cell]]) -> float:
    """Share of the ``(x, y)`` rows to remove so that x determines y."""
    groups: dict[Cell, Counter] = defaultdict(Counter)
    for x, y in pairs:
        groups[x][y] += 1
    kept = sum(max(counts.values()) for counts in groups.values())
    return (len(pairs) - kept) / len(pairs)


def _present_pairs(d: Dataset, i: int, j: int) -> list[tuple[Cell, Cell]]:
    return [
        (row[i], row[j]) for row in d.rows
        if not row[i].is_missing and not row[j].is_missing
    ]


def oracle_fd_candidates(d: Dataset, max_error: float) -> list[tuple[str, str]]:
    """Column pairs, in ``combinations`` order, where ``X -> Y`` or ``Y -> X``
    has a g3 error of at most ``max_error`` over the rows with both cells
    present; a pair with no such row is kept."""
    candidates = []
    for i, j in combinations(range(d.n_cols), 2):
        pairs = _present_pairs(d, i, j)
        if not pairs or min(_g3(pairs), _g3([(y, x) for x, y in pairs])) <= max_error:
            candidates.append((d.headers[i], d.headers[j]))
    return candidates


def oracle_fd_directions(d: Dataset, max_error: float) -> dict[tuple[str, str], tuple[bool, bool]]:
    """Every column pair ``(X, Y)``, in ``combinations`` order, with whether
    ``X -> Y`` and ``Y -> X`` each have a g3 error of at most ``max_error``
    over the rows with both cells present; with no such row, nothing has to
    be removed and both hold."""
    directions = {}
    for i, j in combinations(range(d.n_cols), 2):
        pairs = _present_pairs(d, i, j)
        directions[d.headers[i], d.headers[j]] = (
            not pairs or _g3(pairs) <= max_error,
            not pairs or _g3([(y, x) for x, y in pairs]) <= max_error,
        )
    return directions
