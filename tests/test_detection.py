from __future__ import annotations

import csv
import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from llmclean import detection
from llmclean.dataset import (
    Cell,
    Dataset,
    MISSING,
    cell_text,
    dataset_to_csv,
    load_csv,
    normalize_missing,
)
from llmclean.detection import (
    columns_read,
    detect_capability_violations,
    detect_fd_violations,
    detect_matching_violations,
    detect_missing,
    detect_temporal_violations,
    levenshtein,
    run_all,
    similarity,
)
from llmclean.errors import RuleError
from llmclean.rules import DependencyKind, OfdRule, SensorSpec, parse_rule, strip_instance_suffix

from conftest import make_iot_dataset, random_rule
from oracles import (
    lev_recursive,
    oracle_findings,
    oracle_load_csv,
    oracle_normalize_missing,
)

def rule(text: str, kind=DependencyKind.DENIAL, rule_id="r1") -> OfdRule:
    return parse_rule(text, kind, rule_id=rule_id)


def table(headers, *rows) -> Dataset:
    def cell(v):
        if v is None:
            return MISSING
        if isinstance(v, float):
            return Cell.number(v)
        if isinstance(v, int):
            return Cell.timestamp(v) if v >= 10**11 else Cell.number(float(v))
        return Cell.text(v)

    return Dataset.from_lists(headers, [[cell(v) for v in row] for row in rows])


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a,b,expected",
        [("", "", 0), ("abc", "abc", 0), ("abc", "abd", 1), ("kitten", "sitting", 3)],
    )
    def test_known_distances(self, a, b, expected):
        assert levenshtein(a, b) == expected

    def test_against_recursive_reference(self):
        rng = random.Random(0)
        alphabet = "ab1"
        for _ in range(200):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 7)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 7)))
            assert levenshtein(a, b) == lev_recursive(a, b)

    def test_similarity_bounds(self):
        assert similarity("same", "same") == 1.0
        assert similarity("", "") == 1.0
        assert 0.0 <= similarity("abc", "xyz") <= 1.0


class TestDetectMissing:
    def test_flags_missing_cells(self):
        d = table(["System"], ["s1"], [None], ["s2"])
        findings = detect_missing(d, rule('t1&EQ(t1.System,"")'))
        assert [(f.cell.row, f.cell.column) for f in findings] == [(1, "System")]

    def test_clean_column_no_findings(self):
        d = table(["System"], ["s1"], ["s2"])
        assert detect_missing(d, rule('t1&EQ(t1.System,"")')) == []

    def test_placeholder_literal_variants(self):
        d = normalize_missing(table(["c"], ["nan"], ["keep"]))
        findings = detect_missing(d, rule('t1&EQ(t1.c,"N/A")'))
        assert len(findings) == 1

    def test_non_placeholder_literal_matches_text(self):
        d = table(["c"], ["bad"], ["fine"])
        findings = detect_missing(d, rule('t1&EQ(t1.c,"bad")'))
        assert [(f.cell.row) for f in findings] == [0]

    def test_unknown_column(self):
        d = table(["a"], ["x"])
        with pytest.raises(RuleError):
            detect_missing(d, rule('t1&EQ(t1.nope,"")'))


FD_RULE = "t1&t2&EQ(t1.SensingDevice,t2.SensingDevice)&IQ(t1.Device,t2.Device)"


class TestDetectFdViolations:
    def test_minority_row_flagged(self):
        rows = [["s", "d1"]] * 9 + [["s", "d2"]]
        d = table(["SensingDevice", "Device"], *rows)
        findings = detect_fd_violations(d, rule(FD_RULE))
        assert [(f.cell.row, f.cell.column) for f in findings] == [(9, "Device")]

    def test_uniform_groups_clean(self):
        d = table(["SensingDevice", "Device"], ["a", "d1"], ["a", "d1"], ["b", "d2"])
        assert detect_fd_violations(d, rule(FD_RULE)) == []

    def test_tie_breaks_to_lexicographically_smallest(self):
        d = table(["SensingDevice", "Device"], ["s", "a"], ["s", "a"], ["s", "b"], ["s", "b"])
        findings = detect_fd_violations(d, rule(FD_RULE))
        assert sorted(f.cell.row for f in findings) == [2, 3]

    def test_missing_determinant_skipped(self):
        d = table(["SensingDevice", "Device"], [None, "d1"], [None, "d2"], ["s", "d1"])
        assert detect_fd_violations(d, rule(FD_RULE)) == []

    def test_missing_dependent_flagged(self):
        d = table(["SensingDevice", "Device"], ["s", "d1"], ["s", "d1"], ["s", None])
        findings = detect_fd_violations(d, rule(FD_RULE))
        assert [f.cell.row for f in findings] == [2]

    def test_all_missing_dependents_skipped(self):
        d = table(["SensingDevice", "Device"], ["s", None], ["s", None])
        assert detect_fd_violations(d, rule(FD_RULE)) == []

    def test_mode_never_flagged(self):
        rng = random.Random(3)
        rows = []
        for g in range(5):
            size = rng.randint(1, 6)
            for _ in range(size):
                rows.append([f"g{g}", rng.choice(["x", "y"])])
        d = table(["SensingDevice", "Device"], *rows)
        findings = detect_fd_violations(d, rule(FD_RULE))
        by_group: dict[str, int] = {}
        for f in findings:
            det = d.rows[f.cell.row][0].value
            by_group[det] = by_group.get(det, 0) + 1
        for g, count in by_group.items():
            group_size = sum(1 for r in d.rows if r[0].value == g)
            assert count < group_size


MATCH_RULE = "t1&t2&SIM75(t1.ProviderNumber,t2.ProviderNumber)&SIM75(t1.PhoneNumber,t2.PhoneNumber)"


class TestDetectMatchingViolations:
    def test_identical_pair_clean(self):
        d = table(["ProviderNumber", "PhoneNumber"], ["10018", "2125551234"], ["10018", "2125551234"])
        assert detect_matching_violations(d, rule(MATCH_RULE, DependencyKind.MATCHING)) == []

    def test_similar_determinant_dissimilar_dependent(self):
        d = table(
            ["ProviderNumber", "PhoneNumber"],
            ["10018", "2125551234"],
            ["10018", "9995550000"],
        )
        # reference similarity: identical A (1.0 >= .75); B distance is high
        assert similarity("2125551234", "9995550000") < 0.75
        findings = detect_matching_violations(d, rule(MATCH_RULE, DependencyKind.MATCHING))
        assert {(f.cell.row, f.cell.column) for f in findings} == {
            (0, "PhoneNumber"),
            (1, "PhoneNumber"),
        }

    def test_threshold_one_distinct_determinants(self):
        text = "t1&t2&SIM100(t1.A,t2.A)&SIM100(t1.B,t2.B)"
        d = table(["A", "B"], ["aaa", "x"], ["bbb", "y"], ["ccc", "z"])
        assert detect_matching_violations(d, rule(text, DependencyKind.MATCHING)) == []

    def test_blocking_equals_exact_on_shared_prefixes(self):
        rng = random.Random(1)
        rows = []
        for _ in range(60):
            base = rng.choice(["10018", "10019", "20011"])
            phone = rng.choice(["2125551234", "2125551235", "9995550000"])
            rows.append([base, phone])
        d = table(["ProviderNumber", "PhoneNumber"], *rows)
        r = rule(MATCH_RULE, DependencyKind.MATCHING)
        blocked = detect_matching_violations(d, r, exact=False)
        exact = detect_matching_violations(d, r, exact=True)
        assert blocked == exact

    def test_missing_cells_skipped(self):
        d = table(["A", "B"], ["aa", None], ["aa", "zz"])
        assert detect_matching_violations(d, rule(MATCH_RULE.replace("ProviderNumber", "A").replace("PhoneNumber", "B"), DependencyKind.MATCHING)) == []


class TestDetectCapabilityViolations:
    SPEC = SensorSpec("ds18b20", -55.0, 125.0)
    RULE = rule('t1&EQ(t1.sensor,"ds18b20_1")', DependencyKind.CAPABILITY, "cap")

    def test_out_of_range_flagged(self):
        d = table(["sensor", "value"], ["ds18b20_1", 999.0], ["ds18b20_1", 20.0])
        findings = detect_capability_violations(d, self.RULE, self.SPEC)
        assert [(f.cell.row, f.reason) for f in findings] == [(0, "capability_range")]

    def test_boundary_values_not_flagged(self):
        d = table(["sensor", "value"], ["ds18b20_1", -55.0], ["ds18b20_1", 125.0])
        assert detect_capability_violations(d, self.RULE, self.SPEC) == []

    def test_other_sensor_rows_not_checked(self):
        d = table(["sensor", "value"], ["mystery_9", 999.0], ["ds18b20_2", 999.0])
        assert detect_capability_violations(d, self.RULE, self.SPEC) == []

    def test_sensor_without_spec_uncovered(self):
        d = table(["sensor", "value"], ["mystery_9", 1.0])
        assert detect_capability_violations(d, self.RULE, self.SPEC) == []
        report = run_all(d, [self.RULE], specs={"ds18b20": self.SPEC})
        assert report.findings == []
        assert report.uncovered_sensors == 1

    def test_text_value_is_type_mismatch(self):
        d = table(["sensor", "value"], ["ds18b20_1", "hot"])
        findings = detect_capability_violations(d, self.RULE, self.SPEC)
        assert findings[0].reason == "type_mismatch"

    def test_suffix_stripping(self):
        assert strip_instance_suffix("ds18b20_1") == "ds18b20"
        assert strip_instance_suffix("wsdcgq11lm") == "wsdcgq11lm"
        assert strip_instance_suffix("a_b_2") == "a_b"


TEMPORAL_RULE_TEXT = 't1&t2&EQ(t1.Device,"dev_a")&EQ(t2.Device,"dev_b")'


def temporal_rule():
    return parse_rule(TEMPORAL_RULE_TEXT, DependencyKind.TEMPORAL, rule_id="tr")


class TestDetectTemporalViolations:
    def test_ordered_pair_clean(self):
        d = table(
            ["Device", "timestamp", "message"],
            ["dev_a", 10**12 + 100, "m1"],
            ["dev_b", 10**12 + 250, "m1"],
        )
        assert detect_temporal_violations(d, temporal_rule()) == []

    def test_reversed_pair_flags_downstream(self):
        d = table(
            ["Device", "timestamp", "message"],
            ["dev_a", 10**12 + 250, "m1"],
            ["dev_b", 10**12 + 100, "m1"],
        )
        findings = detect_temporal_violations(d, temporal_rule())
        assert [(f.cell.row, f.cell.column) for f in findings] == [(1, "timestamp")]

    def test_equal_timestamps_flagged(self):
        d = table(
            ["Device", "timestamp", "message"],
            ["dev_a", 10**12, "m1"],
            ["dev_b", 10**12, "m1"],
        )
        assert len(detect_temporal_violations(d, temporal_rule())) == 1

    def test_rank_pairing_without_correlation_column(self):
        d = table(
            ["Device", "timestamp"],
            ["dev_a", 10**12 + 1],
            ["dev_b", 10**12 + 2],
            ["dev_a", 10**12 + 5],
            ["dev_b", 10**12 + 3],
        )
        findings = detect_temporal_violations(d, temporal_rule())
        assert [f.cell.row for f in findings] == [3]

    def test_self_linked_rule_with_correlation_column(self):
        # Every row is both upstream and downstream, as in the oracle.
        d = load_csv(
            b"Device,timestamp,message\n"
            b"dev_a,2024-01-01T00:00:05,m1\n"
            b"dev_a,2024-01-01T00:00:01,m1\n"
        )
        r = rule(
            't1&t2&EQ(t1.Device,"dev_a")&EQ(t2.Device,"dev_a")', DependencyKind.TEMPORAL, "self"
        )
        got = {(f.cell.row, f.cell.column, f.rule_id) for f in run_all(d, [r]).findings}
        assert got == oracle_findings(d, [r], {}) == {(0, "timestamp", "self"), (1, "timestamp", "self")}

    def test_missing_timestamp_column(self):
        d = table(["Device"], ["dev_a"])
        with pytest.raises(RuleError):
            detect_temporal_violations(d, temporal_rule())


class TestRunAll:
    def test_no_rules_empty_report(self):
        d = table(["a"], ["x"])
        report = run_all(d, [])
        assert report.findings == []
        assert report.duration_ms >= 0.0

    def test_union_of_rule_findings(self):
        d = table(
            ["System", "SensingDevice", "Device"],
            ["s1", "sd", "d1"],
            [None, "sd", "d1"],
            ["s1", "sd", "d2"],
        )
        missing_rule = rule('t1&EQ(t1.System,"")', rule_id="m")
        fd_rule = rule(FD_RULE, rule_id="f")
        report = run_all(d, [missing_rule, fd_rule])
        assert report.flagged_cells == {(1, "System"), (2, "Device")}
        assert report.per_rule_counts == {"f": 1, "m": 1}

    def test_malformed_rule_skipped_others_survive(self):
        d = table(["System"], [None])
        good = rule('t1&EQ(t1.System,"")', rule_id="good")
        bad = rule('t1&EQ(t1.Ghost,"")', rule_id="bad")
        report = run_all(d, [good, bad])
        assert report.flagged_cells == {(0, "System")}
        assert [r for r, _ in report.skipped_rules] == ["bad"]

    def test_predicate_within_one_tuple_skipped(self):
        # EQ(t1.Device,t1.Device) compares a cell with itself, not two tuples:
        # no FD or matching rule, so the rule is skipped, not enforced.
        d = table(["Device", "sensor"], ["d1", "s1"], ["d1", "s1"], ["d1", "s2"])
        same = [
            rule("t1&t2&EQ(t1.Device,t1.Device)&IQ(t2.sensor,t2.sensor)", rule_id="fd"),
            rule("t1&t2&SIM75(t1.Device,t1.Device)&SIM75(t2.sensor,t2.sensor)",
                 DependencyKind.MATCHING, "sim"),
        ]
        report = run_all(d, same)
        assert report.findings == []
        assert [r for r, _ in report.skipped_rules] == ["fd", "sim"]
        swapped = [
            rule("t1&t2&EQ(t2.Device,t1.Device)&IQ(t2.sensor,t1.sensor)", rule_id="fd"),
            rule("t1&t2&SIM75(t2.Device,t1.Device)&SIM75(t2.sensor,t1.sensor)",
                 DependencyKind.MATCHING, "sim"),
        ]
        report = run_all(d, swapped)
        assert report.skipped_rules == []
        assert report.per_rule_counts == {"fd": 1, "sim": 3}

    def test_capability_dispatch_uses_specs_argument(self):
        d = table(["sensor", "value"], ["ds18b20_1", 999.0])
        cap = rule('t1&EQ(t1.sensor,"ds18b20_1")', DependencyKind.CAPABILITY, "cap")
        report = run_all(d, [cap], specs={"ds18b20": SensorSpec("ds18b20", -55, 125)})
        assert report.flagged_cells == {(0, "value")}
        assert report.uncovered_sensors == 0

    def test_capability_without_sensor_columns_skipped(self):
        d = table(["a", "b"], [None, "x"])
        missing = rule('t1&EQ(t1.a,"")', rule_id="missing")
        cap = rule('t1&EQ(t1.sensor,"m")', DependencyKind.CAPABILITY, "cap")
        report = run_all(d, [missing, cap], specs={"m": SensorSpec("m", 0, 1)})
        assert report.flagged_cells == {(0, "a")}
        assert [r for r, _ in report.skipped_rules] == ["cap"]

    @pytest.mark.parametrize("column, skipped", [
        ("Device", True), ("sensor", False), ("Sensor", False),
    ])
    def test_capability_rule_must_compare_the_sensor_column(self, column, skipped):
        # Row 0's sensor is s1, row 1's Device is s1; both readings are out of range.
        d = table(["sensor", "value", "Device"], ["s1", 999.0, "d1"], ["s2", 999.0, "s1"])
        cap = rule(f't1&EQ(t1.{column},"s1")', DependencyKind.CAPABILITY, "cap")
        report = run_all(d, [cap], specs={"s1": SensorSpec("s1", 0, 10)})
        if skipped:
            assert report.findings == []
            assert report.skipped_rules == [
                ("cap", "rule 'cap': capability rule must compare the sensor column")
            ]
        else:
            assert report.flagged_cells == {(0, "value")}
            assert report.skipped_rules == []

    @pytest.mark.parametrize("text, message", [
        ('t1&t2&EQ(t1.Device,"dev_a")&EQ(t2.sensor,"dev_b")',
         "both device predicates must compare one column"),
        ('t1&EQ(t1.Device,"dev_a")&EQ(t1.Device,"dev_b")', "is not a temporal link rule"),
    ], ids=["two-columns", "one-alias"])
    def test_temporal_rule_must_link_two_aliases_on_one_column(self, text, message):
        d = table(
            ["Device", "sensor", "timestamp"],
            ["dev_a", "dev_a", 10**12 + 250],
            ["dev_b", "dev_b", 10**12 + 100],
        )
        report = run_all(d, [rule(text, DependencyKind.TEMPORAL, "tr")])
        assert report.findings == []
        [(rule_id, reason)] = report.skipped_rules
        assert rule_id == "tr" and message in reason

    def test_capability_without_spec_counts_uncovered(self):
        d = table(["sensor", "value"], ["mystery_1", 1.0])
        cap = rule('t1&EQ(t1.sensor,"mystery_1")', DependencyKind.CAPABILITY, "cap")
        report = run_all(d, [cap])
        assert report.findings == []
        assert report.uncovered_sensors == 1

    @pytest.mark.parametrize(
        "rows, literal",
        [
            ([["ds18b20_3", 999.0], ["ds18b20_7", 20.0]], "ds18b20_7"),
            ([["ds18b20_1", 999.0]], "ds18b20"),  # the spec fallback picks a spec only
        ],
    )
    def test_uncovered_counts_sensors_no_rule_checks(self, rows, literal):
        d = table(["sensor", "value"], *rows)
        cap = rule(f't1&EQ(t1.sensor,"{literal}")', DependencyKind.CAPABILITY, "cap")
        report = run_all(d, [cap], specs={"ds18b20": SensorSpec("ds18b20", -55, 125)})
        assert report.findings == []
        assert report.uncovered_sensors == 1

    def test_each_distinct_check_runs_once(self, monkeypatch):
        d = table(
            ["sensor", "value", "SensingDevice", "Device"],
            ["m", 5.0, "s", "d1"],
            ["m", 50.0, "s", "d2"],
            ["m", 5.0, "s", "d1"],
        )
        other_fd = "t1&t2&EQ(t1.Device,t2.Device)&IQ(t1.sensor,t2.sensor)"
        cap = rule('t1&EQ(t1.sensor,"m")', DependencyKind.CAPABILITY)
        rules = [
            rule(FD_RULE, rule_id="f1"),
            rule(FD_RULE, rule_id="f2"),
            rule(other_fd, rule_id="g"),
            OfdRule(cap.kind, cap.aliases, cap.predicates, id="narrow", spec=SensorSpec("m", 0, 10)),
            OfdRule(cap.kind, cap.aliases, cap.predicates, id="wide", spec=SensorSpec("m", 0, 100)),
        ]
        alone = {
            (f.cell.row, f.cell.column, f.rule_id)
            for r in rules
            for f in run_all(d, [r]).findings
        }
        calls = []
        fd_kernel = detection.detect_fd_violations
        monkeypatch.setattr(
            detection, "detect_fd_violations", lambda *a: calls.append(a) or fd_kernel(*a)
        )
        report = run_all(d, rules)
        assert {(f.cell.row, f.cell.column, f.rule_id) for f in report.findings} == alone
        assert len(calls) == 2
        assert report.per_rule_counts == {"f1": 1, "f2": 1, "narrow": 1}

        bad = [rule('t1&EQ(t1.Ghost,"")', rule_id=i) for i in ("bad1", "bad2")]
        skipped = run_all(d, bad).skipped_rules
        assert [r for r, _ in skipped] == ["bad1", "bad2"]
        assert all(repr(r) in message for r, message in skipped)

    def test_kernels_reached_through_module_names(self, monkeypatch):
        # perfbench/tracer.py times each kernel by rebinding these module names
        # and sizes the loader's output by n_rows * n_cols.
        d = normalize_missing(
            load_csv(
                b"sensor,value,Device,SensingDevice,timestamp,CodeA,CodeB\n"
                b"m_1,500,dev_a,sd,1000000000002,abcd1,x\n"
                b"N/A,5,dev_b,sd,1000000000001,abcd2,y\n"
            )
        )
        assert (d.n_rows, d.n_cols) == (2, 7)
        rules = [
            rule('t1&EQ(t1.sensor,"")', rule_id="missing"),
            rule(FD_RULE, rule_id="fd"),
            rule(MATCH_RULE.replace("ProviderNumber", "CodeA").replace("PhoneNumber", "CodeB"),
                 DependencyKind.MATCHING, "matching"),
            rule('t1&EQ(t1.sensor,"m_1")', DependencyKind.CAPABILITY, "capability"),
            parse_rule(TEMPORAL_RULE_TEXT, DependencyKind.TEMPORAL, rule_id="temporal"),
        ]
        calls = []
        for name in ("detect_missing", "detect_fd_violations", "detect_matching_violations",
                     "detect_capability_violations", "detect_temporal_violations"):
            kernel = getattr(detection, name)
            monkeypatch.setattr(
                detection, name,
                lambda *a, _k=kernel, _n=name, **kw: calls.append(_n) or _k(*a, **kw),
            )
        report = run_all(d, rules, specs={"m": SensorSpec("m", 0, 100)})
        assert sorted(calls) == sorted(
            ["detect_missing", "detect_fd_violations", "detect_matching_violations",
             "detect_capability_violations", "detect_temporal_violations"]
        )
        assert report.per_rule_counts == {
            "capability": 1, "fd": 1, "matching": 2, "missing": 1, "temporal": 1,
        }

    def test_deduplicates_same_cell_same_rule(self):
        d = table(["SensingDevice", "Device"], ["s", "d1"], ["s", "d2"], ["s", "d1"])
        fd = rule(FD_RULE, rule_id="f")
        report = run_all(d, [fd, fd])
        assert len(report.findings) == 1

    def test_report_json_schema(self):
        import json

        d = table(["System"], [None])
        report = run_all(d, [rule('t1&EQ(t1.System,"")', rule_id="m")])
        payload = json.loads(report.to_json())
        assert payload["findings"] == [
            {"row": 0, "column": "System", "rule": "m", "reason": "missing_value"}
        ]
        assert set(payload) >= {"findings", "skipped_rules", "duration_ms"}


from conftest import random_dataset_and_rules as _random_dataset_and_rules

# Raw CSV spellings per column: equal numbers spelled apart, placeholders in
# mixed case and with padding, blanks (missing determinants and dependents).
_RAW_POOLS = {
    "sensor": ["ds18b20_1", "ds18b20_2", "m_1", "", " N/A ", "null", "NULL", "none "],
    "value": ["1", "1.0", "+1", " 1", "1e0", "999", "-60", "20.5", "", "N/A", " nan", "hot"],
    "Device": ["dev_a", "dev_b", "dev_c", "", "n/a"],
    "SensingDevice": ["sd1", "sd2", "", "Null"],
    "timestamp": ["100000000000", "100000000001", "+100000000001", "", "2021-03-01T00:00:00Z", "x"],
    "Code": ["abcd1", "abcd2", "abce1", "zz", "", "abcd1 "],
}
_LOADED_RULES = [
    ('t1&EQ(t1.sensor,"")', DependencyKind.DENIAL),
    ('t1&EQ(t1.Device,"N/A")', DependencyKind.DENIAL),
    ('t1&EQ(t1.Device,"dev_c")', DependencyKind.DENIAL),
    (FD_RULE, DependencyKind.DENIAL),
    ("t1&t2&EQ(t1.sensor,t2.sensor)&IQ(t1.Device,t2.Device)", DependencyKind.DEVICE_LINK),
    ("t1&t2&EQ(t1.Device,t2.Device)&IQ(t1.value,t2.value)", DependencyKind.LOCALITY),
    ("t1&t2&EQ(t1.value,t2.value)&IQ(t1.Code,t2.Code)", DependencyKind.LOCALITY),
    ("t1&t2&SIM75(t1.Code,t2.Code)&SIM75(t1.Device,t2.Device)", DependencyKind.MATCHING),
    ("t1&t2&SIM60(t1.value,t2.value)&SIM90(t1.sensor,t2.sensor)", DependencyKind.MATCHING),
    ('t1&EQ(t1.sensor,"ds18b20_1")', DependencyKind.CAPABILITY),
    (TEMPORAL_RULE_TEXT, DependencyKind.TEMPORAL),
    ('t1&t2&EQ(t1.Device,"dev_a")&EQ(t2.Device,"dev_a")', DependencyKind.TEMPORAL),
    ('t1&t2&EQ(t1.Device,"")&EQ(t2.Device,"dev_a")', DependencyKind.TEMPORAL),
]


def _draw_loaded_table(data) -> bytes:
    """CSV bytes of a random table drawn from ``_RAW_POOLS``, maybe with a message column."""
    n_rows = data.draw(st.integers(1, 14))
    columns = {
        name: data.draw(st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows))
        for name, pool in _RAW_POOLS.items()
    }
    if data.draw(st.booleans()):
        columns["message"] = data.draw(
            st.lists(st.sampled_from(["m1", "m2", "", " N/A"]), min_size=n_rows, max_size=n_rows)
        )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(zip(*columns.values()))
    return buf.getvalue().encode("utf-8")


def _loaded_rules() -> tuple[list[OfdRule], dict[str, SensorSpec]]:
    rules = [rule(text, kind, f"r{i}") for i, (text, kind) in enumerate(_LOADED_RULES)]
    for literal in ("m_1", ""):  # a missing sensor never matches a literal
        own = rule(f't1&EQ(t1.sensor,"{literal}")', DependencyKind.CAPABILITY)
        rules.append(
            OfdRule(own.kind, own.aliases, own.predicates, id=f"own{literal}",
                    spec=SensorSpec("m", 0, 10))
        )
    return rules, {"ds18b20": SensorSpec("ds18b20", -55.0, 125.0)}


def _rowwise_blocked_matching(d: Dataset, r: OfdRule) -> set[int]:
    """Rows the prefix-blocked matching check flags, comparing every row pair."""
    first, second = r.predicates
    a, b = d.column_index(first.left.column), d.column_index(second.left.column)
    flagged = set()
    for i in range(d.n_rows):
        for j in range(i + 1, d.n_rows):
            cells = (d.rows[i][a], d.rows[j][a], d.rows[i][b], d.rows[j][b])
            if any(c.is_missing for c in cells):
                continue
            ai, aj, bi, bj = map(cell_text, cells)
            if ai[:detection.BLOCK_KEY_LEN] != aj[:detection.BLOCK_KEY_LEN]:
                continue
            if similarity(ai, aj) >= first.sim_threshold and similarity(bi, bj) < second.sim_threshold:
                flagged |= {i, j}
    return flagged


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_run_all_matches_definition_oracle(self, seed):
        d, rules, specs = _random_dataset_and_rules(seed)
        report = run_all(d, rules, specs=specs, exact_matching=True)
        got = {(f.cell.row, f.cell.column, f.rule_id) for f in report.findings}
        expected = oracle_findings(d, rules, specs)
        assert got == expected
        assert not report.skipped_rules

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_loaded_tables_match_definition_oracle(self, data):
        raw = _draw_loaded_table(data)
        d = normalize_missing(load_csv(raw))
        reference = oracle_normalize_missing(oracle_load_csv(raw))
        rules, specs = _loaded_rules()
        report = run_all(d, rules, specs=specs, exact_matching=True)
        got = {(f.cell.row, f.cell.column, f.rule_id) for f in report.findings}
        assert got == oracle_findings(reference, rules, specs)
        assert not report.skipped_rules
        matching = [r for r in rules if r.kind is DependencyKind.MATCHING]
        for r in matching:
            blocked = {f.cell.row for f in detect_matching_violations(d, r)}
            assert blocked == _rowwise_blocked_matching(reference, r)

    def test_capability_literal_selects_rows(self):
        d = table(
            ["sensor", "value"], ["ds18b20_1", 999.0], ["ds18b20", 999.0], ["ds18b20", 20.0]
        )
        specs = {"ds18b20": SensorSpec("ds18b20", -55.0, 125.0)}
        cap = rule('t1&EQ(t1.sensor,"ds18b20")', DependencyKind.CAPABILITY, "cap")
        report = run_all(d, [cap], specs=specs)
        got = {(f.cell.row, f.cell.column, f.rule_id) for f in report.findings}
        assert got == oracle_findings(d, [cap], specs) == {(1, "value", "cap")}

    def test_rule_without_spec_borrows_no_other_rules_spec(self):
        # Both rules pin sensor s1; only ``own`` carries a spec, and the spec
        # map has none, so ``plain`` checks nothing and s1 counts as covered
        # through ``own`` alone.
        d = table(["sensor", "value"], ["s1", 50.0])
        base = rule('t1&EQ(t1.sensor,"s1")', DependencyKind.CAPABILITY)
        rules = [
            OfdRule(base.kind, base.aliases, base.predicates, id="plain"),
            OfdRule(base.kind, base.aliases, base.predicates, id="own",
                    spec=SensorSpec("s1", 0, 10)),
        ]
        report = run_all(d, rules, specs={})
        got = {(f.cell.row, f.cell.column, f.rule_id) for f in report.findings}
        assert got == oracle_findings(d, rules, {}) == {(0, "value", "own")}
        assert report.uncovered_sensors == 0

    def test_findings_sorted_and_unique(self):
        d, rules, specs = _random_dataset_and_rules(99)
        report = run_all(d, rules, specs=specs, exact_matching=True)
        keys = [(f.cell.row, f.cell.column, f.rule_id) for f in report.findings]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    def test_row_permutation_covariance(self):
        d, rules, specs = _random_dataset_and_rules(7)
        rng = random.Random(0)
        perm = list(range(d.n_rows))
        rng.shuffle(perm)
        shuffled = Dataset(d.headers, tuple(d.rows[i] for i in perm))
        base = run_all(d, rules, specs=specs, exact_matching=True)
        moved = run_all(shuffled, rules, specs=specs, exact_matching=True)
        remapped = {
            (perm.index(f.cell.row), f.cell.column, f.rule_id) for f in base.findings
        }
        # base row i sits at shuffled position perm.index(i)
        got = {(f.cell.row, f.cell.column, f.rule_id) for f in moved.findings}
        assert got == remapped


def _report(raw: bytes, rules, specs=None, columns=None):
    report = run_all(normalize_missing(load_csv(raw, columns=columns)), rules, specs=specs)
    return report.findings, report.skipped_rules, report.uncovered_sensors


def assert_projection_keeps_report(raw: bytes, rules, specs=None):
    """A table loaded with only the columns the rules read gives the same report."""
    assert _report(raw, rules, specs, columns_read(rules)) == _report(raw, rules, specs)


class TestColumnProjection:
    def test_columns_read(self):
        rules = [
            rule("t1&t2&EQ(t1.SensingDevice,t2.SensingDevice)&IQ(t1.Device,t2.Device)"),
            rule('t1&EQ(t1.Sensor,"s1")', DependencyKind.CAPABILITY),
            rule(TEMPORAL_RULE_TEXT, DependencyKind.TEMPORAL),
        ]
        assert columns_read(rules) == {
            "sensingdevice", "device", "sensor", "value", "timestamp",
            "message", "message_id", "correlation", "correlation_id",
        }
        assert columns_read([]) == frozenset()

    @pytest.mark.parametrize("seed", range(60))
    def test_random_rule_sets(self, seed):
        d, rules, specs = _random_dataset_and_rules(seed)
        assert_projection_keeps_report(dataset_to_csv(d).encode("utf-8"), rules, specs)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_loaded_tables(self, data):
        assert_projection_keeps_report(_draw_loaded_table(data), *_loaded_rules())

    def test_iot_fixture(self):
        raw = dataset_to_csv(make_iot_dataset()).encode("utf-8")
        rules = [rule(text, kind, f"r{i}") for i, (text, kind) in enumerate(_LOADED_RULES)]
        assert_projection_keeps_report(raw, rules, {"ds18b20": SensorSpec("ds18b20", -55.0, 125.0)})

    @pytest.mark.parametrize("seed", range(40))
    def test_random_rules_skip_alike(self, seed):
        # Random column names and shapes: most rules are skipped, some on an
        # ambiguous fold (a/A), and the messages must not change.
        rng = random.Random(seed)
        drawn = [random_rule(rng) for _ in range(6)]
        rules = [OfdRule(r.kind, r.aliases, r.predicates, id=f"r{i}", spec=r.spec)
                 for i, r in enumerate(drawn)]
        raw = b"a,A,b,X,c_1,sensor,value,timestamp,message\n" + b"x,y,1,2,3,s,4,100000000000,m\n" * 3
        assert_projection_keeps_report(raw, rules)

    @pytest.mark.parametrize(
        "raw, text, kind",
        [
            # a rule column resolved through the case-insensitive fallback
            (b"sensor,Device,x\ns1,d1,1\ns1,d2,2\ns1,d1,3\n",
             "t1&t2&EQ(t1.Sensor,t2.Sensor)&IQ(t1.Device,t2.Device)", DependencyKind.DEVICE_LINK),
            # two headers folding onto the rule's column: skipped as ambiguous
            (b"Sensor,sensor,Device\na,a,d1\na,a,d2\n",
             "t1&t2&EQ(t1.SENSOR,t2.SENSOR)&IQ(t1.Device,t2.Device)", DependencyKind.DEVICE_LINK),
            # a temporal rule pairs rows by the message column it never names
            (b"Device,timestamp,message,x\nup,100000000005,m1,a\ndown,100000000001,m1,b\n"
             b"up,100000000001,m2,c\ndown,100000000009,m2,d\n",
             't1&t2&EQ(t1.Device,"up")&EQ(t2.Device,"down")', DependencyKind.TEMPORAL),
            # a capability rule on a table without value: skipped
            (b"sensor,x\nds18b20_1,1\n", 't1&EQ(t1.sensor,"ds18b20_1")', DependencyKind.CAPABILITY),
        ],
        ids=["fold", "ambiguous-fold", "temporal-message", "capability-no-value"],
    )
    def test_named_cases(self, raw, text, kind):
        rules = [rule(text, kind)]
        specs = {"ds18b20": SensorSpec("ds18b20", -55.0, 125.0)}
        projected = _report(raw, rules, specs, columns_read(rules))
        assert projected == _report(raw, rules, specs)
        assert projected[0] or projected[1]  # each case finds or skips something
