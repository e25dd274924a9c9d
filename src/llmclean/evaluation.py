"""Benchmark harness: seeded error injection and detection/repair scoring.

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
from dataclasses import dataclass

from .dataset import (
    Cell,
    CellKind,
    CellRef,
    Dataset,
    DEFAULT_PLACEHOLDER_TOKENS,
    cell_text,
    modal_value,
)
from .detection import DetectionReport
from .ensemble import score_micro_f1


def round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


@dataclass(frozen=True)
class ErrorSpec:
    """How much of each corruption kind to inject, and where.

    Targets default to every column for missing values and to the numeric
    columns for outliers. FD swaps need an explicit determinant/dependent
    column pair; a swapped cell receives another determinant group's modal
    value, and no group ever has half or more of its rows corrupted, so the
    modal detection method can still recover the legitimate value.
    """

    missing_rate: float = 0.0
    outlier_rate: float = 0.0
    fd_swap_rate: float = 0.0
    outlier_multiplier: float = 100.0
    seed: int = 0
    missing_columns: tuple[str, ...] | None = None
    outlier_columns: tuple[str, ...] | None = None
    fd_determinant: str | None = None
    fd_dependent: str | None = None

    def __post_init__(self):
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


@dataclass(frozen=True)
class Corruption:
    ref: CellRef
    original: Cell
    kind: str  # missing | outlier | fd_swap


@dataclass(frozen=True)
class GroundTruth:
    entries: tuple[Corruption, ...]

    def __post_init__(self):
        refs = [c.ref for c in self.entries]
        if len(set(refs)) != len(refs):
            raise ValueError("duplicate cell in ground truth")

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

    @classmethod
    def from_jsonl(cls, text: str) -> "GroundTruth":
        entries = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            kind = CellKind(obj["original_kind"])
            raw = obj["original"]
            if kind is CellKind.NUMBER:
                original = Cell.number(float(raw))
            elif kind is CellKind.TIMESTAMP:
                original = Cell.timestamp(int(raw))
            elif kind is CellKind.MISSING:
                original = Cell(CellKind.MISSING, None)
            else:
                original = Cell.text(raw)
            entries.append(
                Corruption(CellRef(obj["row"], obj["column"]), original, obj["kind"])
            )
        return cls(tuple(entries))


_INJECTABLE_PLACEHOLDERS = tuple(DEFAULT_PLACEHOLDER_TOKENS)


def _numeric_columns(d: Dataset) -> list[str]:
    numeric = []
    for c, name in enumerate(d.headers):
        cells = [row[c] for row in d.rows if not row[c].is_missing]
        if cells and sum(x.kind is CellKind.NUMBER for x in cells) > len(cells) / 2:
            numeric.append(name)
    return numeric


def inject_errors(d: Dataset, spec: ErrorSpec) -> tuple[Dataset, GroundTruth]:
    """Corrupt a clean dataset deterministically; return (dirty, truth).

    Counts are round-half-up of rate x eligible cells per corruption kind.
    Missing cells get a placeholder token (as a dirty export would); outliers
    are multiplied by the configured factor; FD swaps replace the dependent
    value with a different group's mode.
    """
    rng = random.Random(spec.seed)
    grid: list[list[Cell]] = [list(row) for row in d.rows]
    corrupted: set[tuple[int, int]] = set()
    entries: list[Corruption] = []

    def take(ref_row: int, ref_col: int, new_cell: Cell, kind: str):
        corrupted.add((ref_row, ref_col))
        entries.append(
            Corruption(
                CellRef(ref_row, d.headers[ref_col]), grid[ref_row][ref_col], kind
            )
        )
        grid[ref_row][ref_col] = new_cell

    # FD swaps go first: they need intact groups to pick replacement modes.
    if spec.fd_swap_rate > 0:
        det_idx = d.column_index(spec.fd_determinant)
        dep_idx = d.column_index(spec.fd_dependent)
        groups: dict[Cell, list[int]] = defaultdict(list)
        for i, row in enumerate(d.rows):
            if not row[det_idx].is_missing and not row[dep_idx].is_missing:
                groups[row[det_idx]].append(i)
        modes: dict[Cell, Cell] = {}
        for det_value, rows in groups.items():
            modes[det_value] = modal_value(Counter(d.rows[i][dep_idx] for i in rows))
        quota = {
            det_value: (len(rows) - 1) // 2
            for det_value, rows in groups.items()
        }
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
            replacement = rng.choice(other_modes)
            take(i, dep_idx, Cell.text(replacement), "fd_swap")
            quota[det_value] -= 1
            taken += 1
        if taken < count:
            raise ValueError(
                f"fd_swap capacity exhausted: wanted {count}, placed {taken}"
            )

    if spec.missing_rate > 0:
        targets = spec.missing_columns or d.headers
        cols = [d.column_index(c) for c in targets]
        eligible = [
            (i, c) for c in cols for i in range(d.n_rows) if (i, c) not in corrupted
        ]
        count = round_half_up(spec.missing_rate * d.n_rows * len(cols))
        if count > len(eligible):
            raise ValueError("missing_rate exceeds remaining capacity")
        for i, c in rng.sample(eligible, count):
            token = rng.choice(_INJECTABLE_PLACEHOLDERS)
            take(i, c, Cell.text(token), "missing")

    if spec.outlier_rate > 0:
        targets = spec.outlier_columns or _numeric_columns(d)
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
            if not math.isfinite(new_value):
                raise ValueError(
                    f"outlier_multiplier {spec.outlier_multiplier} takes {old} out of float range"
                )
            if new_value == old:
                raise ValueError(
                    f"outlier_multiplier {spec.outlier_multiplier} leaves the reading {old} unchanged"
                )
            take(i, c, Cell.number(new_value), "outlier")

    dirty = Dataset(d.headers, tuple(tuple(row) for row in grid))
    return dirty, GroundTruth(tuple(entries))


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


@dataclass(frozen=True)
class RepairScore:
    rmse: float | None
    precision: float
    recall: float
    f1: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "numeric": {"rmse": self.rmse},
                "categorical": {
                    "precision": self.precision,
                    "recall": self.recall,
                    "f1": self.f1,
                },
            },
            indent=2,
        )


def score_repair(
    repaired: Dataset, clean: Dataset, truth: GroundTruth, dirty: Dataset | None = None
) -> RepairScore:
    """Score an externally repaired dataset against the clean original.

    Numeric columns: RMSE between repaired and clean over the truth cells
    (None when no numeric truth cells exist). Categorical columns: a repair
    action is any cell that differs from the dirty dataset; precision is
    correct actions over all actions, recall is correct actions over the
    truth cells in categorical columns.
    """
    if repaired.headers != clean.headers or repaired.n_rows != clean.n_rows:
        raise ValueError("repaired dataset shape differs from clean dataset")
    if dirty is None:
        dirty = _reconstruct_dirty(clean, truth)
    if dirty.headers != clean.headers or dirty.n_rows != clean.n_rows:
        raise ValueError("dirty dataset shape differs from clean dataset")

    numeric = set(_numeric_columns(clean))
    truth_refs = truth.refs()

    squared: list[float] = []
    numeric_truth = 0
    for row, column in sorted(truth_refs):
        if column not in numeric:
            continue
        numeric_truth += 1
        clean_cell = clean.cell(row, column)
        repaired_cell = repaired.cell(row, column)
        if (
            clean_cell.kind is CellKind.NUMBER
            and repaired_cell.kind is CellKind.NUMBER
        ):
            squared.append((float(repaired_cell.value) - float(clean_cell.value)) ** 2)
    rmse = math.sqrt(sum(squared) / numeric_truth) if numeric_truth else None

    actions: set[tuple[int, str]] = set()
    correct: set[tuple[int, str]] = set()
    categorical = [h for h in clean.headers if h not in numeric]
    for column in categorical:
        c_idx = clean.column_index(column)
        for i in range(clean.n_rows):
            if repaired.rows[i][c_idx] != dirty.rows[i][c_idx]:
                actions.add((i, column))
                if repaired.rows[i][c_idx] == clean.rows[i][c_idx]:
                    correct.add((i, column))
    cat_truth = {(r, c) for r, c in truth_refs if c not in numeric}

    inter = len(correct)
    precision = inter / len(actions) if actions else (1.0 if not cat_truth else 0.0)
    recall = inter / len(cat_truth) if cat_truth else (1.0 if not actions else 0.0)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return RepairScore(rmse, precision, recall, f1)


def _reconstruct_dirty(clean: Dataset, truth: GroundTruth) -> Dataset:
    grid = [list(row) for row in clean.rows]
    for c in truth.entries:
        col = clean.column_index(c.ref.column)
        # Without the real dirty table, mark the cell as changed; any value
        # different from both clean and repaired suffices for action counting.
        grid[c.ref.row][col] = Cell.text("\x00corrupted")
    return Dataset(clean.headers, tuple(tuple(r) for r in grid))


def repair_with_truth(dirty: Dataset, truth: GroundTruth) -> Dataset:
    """Perfect repair: restore every corrupted cell's original value."""
    grid = [list(row) for row in dirty.rows]
    for c in truth.entries:
        grid[c.ref.row][dirty.column_index(c.ref.column)] = c.original
    return Dataset(dirty.headers, tuple(tuple(r) for r in grid))

