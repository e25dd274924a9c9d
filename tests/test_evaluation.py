from __future__ import annotations

import pytest

from llmclean.dataset import (
    Cell,
    CellKind,
    Dataset,
    PlaceholderSet,
    normalize_missing,
)
from llmclean.detection import DetectionReport, Finding, run_all
from llmclean.dataset import CellRef
from llmclean.evaluation import (
    Corruption,
    ErrorSpec,
    GroundTruth,
    inject_errors,
    repair_with_truth,
    round_half_up,
    score_detection,
    score_repair,
)
from llmclean.rules import DependencyKind, parse_rule

from conftest import make_iot_dataset


def numeric_table(n=1000):
    return Dataset.from_lists(
        ["v"], [[Cell.number(20.0 + (i % 7))] for i in range(n)]
    )


class TestInjectErrors:
    def test_thirteen_percent_missing(self):
        d = numeric_table(1000)
        dirty, truth = inject_errors(d, ErrorSpec(missing_rate=0.13, seed=1))
        assert len(truth) == 130
        placeholders = PlaceholderSet.default()
        changed = [
            i for i in range(1000)
            if dirty.rows[i][0] != d.rows[i][0]
        ]
        assert len(changed) == 130
        for i in changed:
            cell = dirty.rows[i][0]
            assert cell.kind is CellKind.TEXT and placeholders.matches(cell.value)

    def test_zero_rates_identity(self):
        d = numeric_table(50)
        dirty, truth = inject_errors(d, ErrorSpec())
        assert dirty == d
        assert len(truth) == 0

    def test_deterministic_for_seed(self):
        d = numeric_table(200)
        spec = ErrorSpec(missing_rate=0.1, outlier_rate=0.05, seed=9)
        assert inject_errors(d, spec) == inject_errors(d, spec)

    def test_outliers_leave_range(self):
        d = numeric_table(100)
        dirty, truth = inject_errors(d, ErrorSpec(outlier_rate=0.1, seed=2))
        assert len(truth) == 10
        for c in truth.entries:
            new = dirty.cell(c.ref.row, c.ref.column)
            assert float(new.value) >= 100 * 20.0

    def test_fd_swap_uses_other_groups_mode(self):
        rows = []
        for g, dev in (("sd1", "d1"), ("sd2", "d2"), ("sd3", "d3")):
            rows.extend([[Cell.text(g), Cell.text(dev)]] * 10)
        d = Dataset.from_lists(["SensingDevice", "Device"], rows)
        spec = ErrorSpec(
            fd_swap_rate=0.1, seed=4, fd_determinant="SensingDevice", fd_dependent="Device"
        )
        dirty, truth = inject_errors(d, spec)
        assert len(truth) == 3
        for c in truth.entries:
            new = dirty.cell(c.ref.row, c.ref.column)
            assert new != c.original
            assert new.value in {"d1", "d2", "d3"}

    def test_fd_swap_keeps_group_majority(self):
        rows = [[Cell.text("sd1"), Cell.text("d1")]] * 6
        d = Dataset.from_lists(["SensingDevice", "Device"], rows)
        spec = ErrorSpec(
            fd_swap_rate=1.0, seed=0, fd_determinant="SensingDevice", fd_dependent="Device"
        )
        with pytest.raises(ValueError):
            inject_errors(d, spec)  # single group cannot absorb 100% swaps

    def test_capacity_error(self):
        d = numeric_table(10)
        with pytest.raises(ValueError):
            inject_errors(
                d, ErrorSpec(missing_rate=0.9, outlier_rate=0.9, seed=0)
            )

    def test_repair_with_truth_restores_clean(self):
        d = make_iot_dataset(n_rows=120)
        spec = ErrorSpec(
            missing_rate=0.1,
            outlier_rate=0.05,
            seed=5,
            missing_columns=("System", "Location"),
            outlier_columns=("Value",),
        )
        dirty, truth = inject_errors(d, spec)
        assert repair_with_truth(dirty, truth) == d

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            ErrorSpec(missing_rate=1.5)
        with pytest.raises(ValueError):
            ErrorSpec(fd_swap_rate=0.1)  # no fd pair named

    @pytest.mark.parametrize("multiplier", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_multiplier_rejected(self, multiplier):
        with pytest.raises(ValueError, match="outlier_multiplier"):
            ErrorSpec(outlier_rate=0.1, outlier_multiplier=multiplier)

    def test_no_op_multiplier_rejected(self):
        with pytest.raises(ValueError, match="outlier_multiplier"):
            ErrorSpec(outlier_rate=0.1, outlier_multiplier=1.0)

    def test_unchanged_outlier_rejected(self):
        # A zero reading is replaced by the multiplier itself, so 0 leaves it 0.
        zeros = Dataset.from_lists(["v"], [[Cell.number(0.0)]] * 4)
        spec = ErrorSpec(outlier_rate=0.5, outlier_multiplier=0.0)
        with pytest.raises(ValueError, match="unchanged"):
            inject_errors(zeros, spec)

    def test_overflowing_outlier_rejected(self):
        spec = ErrorSpec(outlier_rate=0.5, outlier_multiplier=1e308)
        with pytest.raises(ValueError, match="outlier_multiplier"):
            inject_errors(numeric_table(10), spec)

    def test_truth_jsonl_round_trip(self):
        d = make_iot_dataset(n_rows=40)
        _, truth = inject_errors(
            d, ErrorSpec(missing_rate=0.2, seed=6, missing_columns=("System",))
        )
        assert GroundTruth.from_jsonl(truth.to_jsonl()) == truth

    def test_round_half_up(self):
        assert round_half_up(0.5) == 1
        assert round_half_up(1.4999) == 1
        assert round_half_up(129.5) == 130

    def test_missing_detector_recovers_exact_manifest(self):
        # 13% missing over 1000 rows; the unary rule flags exactly those cells
        clean = Dataset.from_lists(
            ["System"], [[Cell.text(f"s{i % 5}")] for i in range(1000)]
        )
        dirty, truth = inject_errors(clean, ErrorSpec(missing_rate=0.13, seed=13))
        rule = parse_rule('t1&EQ(t1.System,"")', DependencyKind.DENIAL, "m")
        report = run_all(normalize_missing(dirty), [rule])
        assert report.flagged_cells == truth.refs()
        assert len(truth) == 130


def report_for(cells):
    return DetectionReport(
        findings=[Finding(CellRef(r, c), "r1", "x") for r, c in cells]
    )


def truth_for(cells):
    return GroundTruth(
        tuple(Corruption(CellRef(r, c), Cell.text("orig"), "missing") for r, c in cells)
    )


class TestScoreDetection:
    def test_perfect(self):
        cells = {(0, "a"), (1, "a")}
        assert score_detection(report_for(cells), truth_for(cells)) == (1.0, 1.0, 1.0)

    def test_partial_overlap_arithmetic(self):
        flagged = {(i, "a") for i in range(50)}
        truth_cells = {(i, "a") for i in range(10, 90)}  # 80 true errors, 40 found
        p, r, f1 = score_detection(report_for(flagged), truth_for(truth_cells))
        assert p == pytest.approx(0.8)
        assert r == pytest.approx(0.5)
        assert f1 == pytest.approx(2 * 0.8 * 0.5 / 1.3)

    def test_empty_flags_nonempty_truth(self):
        assert score_detection(report_for(set()), truth_for({(0, "a")})) == (0.0, 0.0, 0.0)

    def test_empty_vs_empty_is_one(self):
        assert score_detection(report_for(set()), truth_for(set())) == (1.0, 1.0, 1.0)

    def test_out_of_range_refs_rejected(self):
        d = Dataset.from_lists(["a"], [[Cell.text("x")]])
        with pytest.raises(ValueError):
            score_detection(report_for({(5, "a")}), truth_for(set()), d)
        with pytest.raises(ValueError):
            score_detection(report_for(set()), truth_for({(0, "ghost")}), d)


class TestScoreRepair:
    def _fixture(self):
        clean = Dataset.from_lists(
            ["num", "cat"],
            [
                [Cell.number(10.0), Cell.text("a")],
                [Cell.number(20.0), Cell.text("b")],
                [Cell.number(30.0), Cell.text("c")],
                [Cell.number(40.0), Cell.text("d")],
            ],
        )
        spec = ErrorSpec(
            missing_rate=0.5, seed=8, missing_columns=("num", "cat")
        )
        dirty, truth = inject_errors(clean, spec)
        return clean, dirty, truth

    def test_perfect_repair(self):
        clean, dirty, truth = self._fixture()
        repaired = repair_with_truth(dirty, truth)
        score = score_repair(repaired, clean, truth, dirty)
        assert score.rmse in (0.0, None)
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_no_action_zero_scores(self):
        clean, dirty, truth = self._fixture()
        score = score_repair(dirty, clean, truth, dirty)
        cat_truth = [c for c in truth.entries if c.ref.column == "cat"]
        if cat_truth:
            assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)

    def test_rmse_single_cell_off_by_two(self):
        clean = Dataset.from_lists(
            ["v"], [[Cell.number(float(i))] for i in range(8)]
        )
        truth = GroundTruth(
            tuple(
                Corruption(CellRef(i, "v"), clean.rows[i][0], "outlier")
                for i in range(4)
            )
        )
        dirty = Dataset.from_lists(
            ["v"],
            [[Cell.number(999.0)] if i < 4 else row for i, row in enumerate(clean.rows)],
        )
        repaired_rows = [list(r) for r in clean.rows]
        repaired_rows[0][0] = Cell.number(2.0)  # off by exactly 2
        repaired = Dataset.from_lists(["v"], repaired_rows)
        score = score_repair(repaired, clean, truth, dirty)
        assert score.rmse == pytest.approx(1.0)  # sqrt(4/4)

    def test_shape_mismatch(self):
        clean, dirty, truth = self._fixture()
        small = Dataset.from_lists(["num", "cat"], [list(clean.rows[0])])
        with pytest.raises(ValueError):
            score_repair(small, clean, truth, dirty)


class TestMeasureRuntime:
    def test_duration_grows_with_rule_count(self):
        d = make_iot_dataset(n_rows=400)
        d = normalize_missing(d)
        rule = parse_rule(
            "t1&t2&EQ(t1.SensingDevice,t2.SensingDevice)&IQ(t1.Device,t2.Device)",
            DependencyKind.DENIAL,
            "fd",
        )
        few = [rule] * 2
        many = [rule] * 40
        samples_few = []
        samples_many = []
        for _ in range(3):
            samples_few.append(run_all(d, few).duration_ms)
            samples_many.append(run_all(d, many).duration_ms)
        assert min(samples_many) > min(samples_few)
