"""Benchmark harness: seeded error injection and detection scoring.

Injection writes a ground-truth manifest alongside the dirtied table so that
detector output can be scored cell-by-cell. Scoring follows the empty-set
conventions used elsewhere: a perfect empty report against an empty truth is
1.0, an empty report against real errors is 0.0.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter, defaultdict
from itertools import chain, pairwise
from typing import Collection, Mapping, Sequence

from .dataset import (
    Cell,
    CellRef,
    Dataset,
    DEFAULT_PLACEHOLDER_TOKENS,
    cell_text,
    group_modes,
)
from .detection import DetectionReport
from .ensemble import score_micro_f1
from .frozen import Frozen, set_field


def round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


class ErrorSpec(Frozen):
    """How much of each corruption kind to inject, and where.

    Targets default to every column for missing values and to the numeric
    columns for outliers. FD swaps need an explicit determinant/dependent
    column pair; a swapped cell receives another determinant group's modal
    value, and no group ever has half or more of its rows corrupted, so the
    modal detection method can still recover the legitimate value.
    """

    __slots__ = _fields = (
        "missing_rate", "outlier_rate", "fd_swap_rate", "outlier_multiplier", "seed",
        "missing_columns", "outlier_columns", "fd_determinant", "fd_dependent",
    )

    def __init__(
        self,
        missing_rate: float = 0.0,
        outlier_rate: float = 0.0,
        fd_swap_rate: float = 0.0,
        outlier_multiplier: float = 100.0,
        seed: int = 0,
        missing_columns: tuple[str, ...] | None = None,
        outlier_columns: tuple[str, ...] | None = None,
        fd_determinant: str | None = None,
        fd_dependent: str | None = None,
    ):
        for name, value in zip(self._fields, (
            missing_rate, outlier_rate, fd_swap_rate, outlier_multiplier, seed,
            missing_columns, outlier_columns, fd_determinant, fd_dependent,
        )):
            set_field(self, name, value)
        for name in ("missing_rate", "outlier_rate", "fd_swap_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        # A non-finite outlier would be stored as a missing cell.
        if not math.isfinite(self.outlier_multiplier):
            raise ValueError(f"outlier_multiplier must be finite, got {self.outlier_multiplier}")
        if self.outlier_multiplier == 1:  # every "outlier" would equal its clean reading
            raise ValueError("outlier_multiplier must not be 1")
        if self.fd_swap_rate > 0 and not (self.fd_determinant and self.fd_dependent):
            raise ValueError("fd_swap_rate needs fd_determinant and fd_dependent")


class Corruption(Frozen):
    __slots__ = _fields = ("ref", "original", "kind")

    def __init__(self, ref: CellRef, original: Cell, kind: str):
        set_field(self, "ref", ref)
        set_field(self, "original", original)
        set_field(self, "kind", kind)  # missing | outlier | fd_swap


class GroundTruth(Frozen):
    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple[Corruption, ...]):
        refs = [c.ref for c in entries]
        if len(set(refs)) != len(refs):
            raise ValueError("duplicate cell in ground truth")
        set_field(self, "entries", entries)

    def refs(self) -> set[tuple[int, str]]:
        return {(c.ref.row, c.ref.column) for c in self.entries}

    def __len__(self) -> int:
        return len(self.entries)

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(
                {
                    "row": c.ref.row,
                    "column": c.ref.column,
                    "kind": c.kind,
                    "original": cell_text(c.original),
                    "original_kind": c.original.kind.value,
                },
                sort_keys=True,
            )
            for c in self.entries
        ]
        return "\n".join(lines) + ("\n" if lines else "")


def _numeric_columns(d: Dataset) -> list[str]:
    numeric = []
    for name, column in zip(d.headers, d.columns):
        types = Counter(map(type, map(column.payloads.__getitem__, column.codes)))
        present = d.n_rows - types[type(None)]
        if present and types[float] > present / 2:
            numeric.append(name)
    return numeric


def _resolve_targets(d: Dataset, names: Sequence[str], field: str) -> list[int]:
    """Column indices of ``names``; a column named twice (after case folding) is an error."""
    cols = [d.column_index(name) for name in names]
    for k, c in enumerate(cols):
        if c in cols[:k]:
            raise ValueError(f"{field} names column {d.headers[c]!r} twice")
    return cols


def _with_cells(d: Dataset, changes: Mapping[tuple[int, int], Cell]) -> Dataset:
    """``d`` holding ``changes[(row, column index)]`` in those cells.

    Columns without a change are shared unchanged.
    """
    by_column: dict[int, dict[int, str | float | int | None]] = defaultdict(dict)
    for (row, col), cell in changes.items():
        by_column[col][row] = cell.value
    columns = [
        column.replaced(by_column[c]) if c in by_column else column
        for c, column in enumerate(d.columns)
    ]
    return Dataset.from_columns(d.headers, columns, d.n_rows)


def _free_positions(
    n_rows: int, cols: Sequence[int], changed: Collection[tuple[int, int]]
) -> list[int]:
    """Positions ``j * n_rows + i`` of the cells (row ``i``, column ``cols[j]``)
    not in ``changed``, ascending: the cells in column-major order.

    ``random.sample`` reads only a population's length and items, so it draws
    the same cells from these ints as from the ``(row, column)`` pairs.
    """
    slot = {c: j for j, c in enumerate(cols)}
    skipped = sorted(slot[c] * n_rows + i for i, c in changed if c in slot)
    edges = [-1, *skipped, n_rows * len(cols)]
    return list(chain.from_iterable(range(lo + 1, hi) for lo, hi in pairwise(edges)))


def inject_errors(d: Dataset, spec: ErrorSpec) -> tuple[Dataset, GroundTruth]:
    """Corrupt a clean dataset deterministically; return (dirty, truth).

    Counts are round-half-up of rate x eligible cells per corruption kind.
    Missing cells get a placeholder token (as a dirty export would); outliers
    are multiplied by the configured factor; FD swaps replace the dependent
    value with a different group's mode. Every target column the spec names
    is resolved, whatever its rate: an unknown column, or one named twice, is
    an error.
    """
    fd_cols = _resolve_targets(
        d, [c for c in (spec.fd_determinant, spec.fd_dependent) if c], "the fd pair"
    )
    missing_cols = _resolve_targets(d, spec.missing_columns or (), "missing_columns")
    outlier_cols = _resolve_targets(d, spec.outlier_columns or (), "outlier_columns")
    rng = random.Random(spec.seed)
    changes: dict[tuple[int, int], Cell] = {}  # (row, column index) -> new cell
    entries: list[Corruption] = []

    def take(row: int, col: int, new_cell: Cell, kind: str):
        entries.append(Corruption(CellRef(row, d.headers[col]), d.columns[col].cell(row), kind))
        changes[(row, col)] = new_cell

    # FD swaps go first: they need intact groups to pick replacement modes.
    if spec.fd_swap_rate > 0:
        det_idx, dep_idx = fd_cols
        det, dep = d.columns[det_idx], d.columns[dep_idx]
        modes = group_modes(det, dep)
        groups: dict[int, list[int]] = defaultdict(list)  # rows with both cells present
        for i, (a, b) in enumerate(zip(det.codes, dep.codes)):
            if a in modes and b != dep.missing_code:
                groups[a].append(i)
        quota = {a: (len(rows) - 1) // 2 for a, rows in groups.items()}
        eligible = [(i, a) for a in sorted(groups, key=det.texts.__getitem__) for i in groups[a]]
        count = round_half_up(spec.fd_swap_rate * d.n_rows)
        rng.shuffle(eligible)
        taken = 0
        for i, a in eligible:
            if taken >= count:
                break
            if quota[a] <= 0:
                continue
            excluded = (dep.codes[i], modes[a])  # the cell's value and its group's mode
            other_modes = sorted({dep.texts[m] for m in modes.values() if m not in excluded})
            if not other_modes:
                continue
            take(i, dep_idx, Cell.text(rng.choice(other_modes)), "fd_swap")
            quota[a] -= 1
            taken += 1
        if taken < count:
            raise ValueError(
                f"fd_swap capacity exhausted: wanted {count}, placed {taken}"
            )

    if spec.missing_rate > 0:
        cols = missing_cols or range(len(d.headers))
        eligible = _free_positions(d.n_rows, cols, changes)
        count = round_half_up(spec.missing_rate * d.n_rows * len(cols))
        if count > len(eligible):
            raise ValueError("missing_rate exceeds remaining capacity")
        for position in rng.sample(eligible, count):
            j, i = divmod(position, d.n_rows)
            token = rng.choice(DEFAULT_PLACEHOLDER_TOKENS)
            take(i, cols[j], Cell.text(token), "missing")

    if spec.outlier_rate > 0:
        cols = outlier_cols or _resolve_targets(d, _numeric_columns(d), "outlier_columns")
        if not cols:
            raise ValueError("no numeric columns available for outliers")
        eligible = [
            (i, c)
            for c in cols
            for i, code in enumerate(d.columns[c].codes)
            if (i, c) not in changes and type(d.columns[c].payloads[code]) is float
        ]
        count = round_half_up(spec.outlier_rate * d.n_rows * len(cols))
        if count > len(eligible):
            raise ValueError("outlier_rate exceeds remaining capacity")
        for i, c in rng.sample(eligible, count):
            old = d.columns[c].cell(i).value
            new_value = old * spec.outlier_multiplier if old != 0 else spec.outlier_multiplier
            if not math.isfinite(new_value):
                raise ValueError(
                    f"outlier_multiplier {spec.outlier_multiplier} takes {old} out of float range"
                )
            if new_value == old:
                raise ValueError(
                    f"outlier_multiplier {spec.outlier_multiplier} leaves the reading {old} unchanged"
                )
            take(i, c, Cell.number(new_value), "outlier")

    return _with_cells(d, changes), GroundTruth(tuple(entries))


def score_detection(
    report: DetectionReport | set[tuple[int, str]],
    truth: GroundTruth,
    dataset: Dataset | None = None,
) -> tuple[float, float, float]:
    """Cell-level precision/recall/F1 of flagged cells against the manifest."""
    flagged = report if isinstance(report, set) else report.flagged_cells
    truth_refs = truth.refs()
    if dataset is not None:
        for row, column in flagged | truth_refs:
            if not 0 <= row < dataset.n_rows or not dataset.has_column(column):
                raise ValueError(f"cell ({row}, {column!r}) outside the dataset")
    return score_micro_f1(
        {f"{r}\x00{c}" for r, c in flagged},
        {f"{r}\x00{c}" for r, c in truth_refs},
    )
