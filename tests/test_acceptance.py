"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import functools
import json
import random
import string
import time

from llmclean.cli import main
from llmclean.context_model import ATTACHED_TO, DEPLOYED_AT, deserialize, edge, extract_ofds
from llmclean.dataset import (
    Cell,
    Dataset,
    dataset_to_csv,
    load_csv,
)
from llmclean.detection import DetectionReport, fd_columns, run_all
from llmclean.ensemble import (
    EvalRecord,
    SearchSpec,
    find_best_ensemble,
    find_consensus,
    mean_ensemble_f1,
    score_micro_f1,
)
from llmclean.evaluation import (
    Corruption,
    ErrorSpec,
    GroundTruth,
    inject_errors,
    score_detection,
)
from llmclean.errors import RuleParseError
from llmclean.rules import DependencyKind, SensorSpec, parse_rule, render_rule
from llmclean.dataset import CellRef
from llmclean.detection import Finding

from conftest import (
    make_cassette,
    make_iot_dataset,
    iot_pipeline_responses,
    random_dataset_and_rules,
    random_rule,
    write_sensor_specs,
)
from oracles import (
    oracle_best_ensemble,
    oracle_consensus,
    oracle_findings,
    oracle_mean_f1,
)

LABELS = ["A", "B", "C", "D", "E", "F"]


def criterion(number: int, name: str, bound_s: float):
    """Time the body, print the acceptance line, enforce the bound."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            ok = False
            try:
                fn(*args, **kwargs)
                ok = True
            finally:
                elapsed = time.perf_counter() - start
                verdict = "PASS" if ok and elapsed < bound_s else "FAIL"
                print(
                    f"[criterion {number}] {name}: {verdict} "
                    f"({elapsed:.2f}s, bound {bound_s:g}s)"
                )
            assert elapsed < bound_s, f"criterion {number} exceeded {bound_s}s"

        return wrapper

    return decorate


@criterion(1, "detection oracle equivalence", 30.0)
def test_criterion_1_detection_oracle_equivalence():
    checked = 0
    for seed in range(60):
        d, rules, specs = random_dataset_and_rules(seed)
        if not rules:
            continue
        report = run_all(d, rules, specs=specs, exact_matching=True)
        got = {(f.cell.row, f.cell.column, f.rule_id) for f in report.findings}
        expected = oracle_findings(d, rules, specs)
        assert got == expected, f"seed {seed}: engine/oracle mismatch"
        assert not report.skipped_rules
        checked += 1
    assert checked >= 50


@criterion(2, "consensus correctness", 5.0)
def test_criterion_2_consensus_counting_oracle():
    rng = random.Random(20240)
    for _ in range(1000):
        results = [
            {lbl for lbl in LABELS if rng.random() < 0.4}
            for _ in range(rng.randint(0, 5))
        ]
        threshold = rng.randint(0, 6)
        got = find_consensus(results, threshold)
        assert got == oracle_consensus(results, threshold)
        # monotone in the threshold
        assert set(find_consensus(results, threshold + 1)) <= set(got)
        # permutation-invariant
        shuffled = list(results)
        rng.shuffle(shuffled)
        assert find_consensus(shuffled, threshold) == got


def _random_records(rng: random.Random, n: int, prompts: list[str]) -> list[EvalRecord]:
    records = []
    for i in range(n):
        truth = {lbl for lbl in LABELS if rng.random() < 0.3}
        answers = {p: {lbl for lbl in LABELS if rng.random() < 0.3} for p in prompts}
        records.append(EvalRecord.make(f"i{i}", truth, answers))
    return records


@criterion(3, "ensemble search exactness", 10.0)
def test_criterion_3_ensemble_exhaustive_equality():
    for seed in range(20):
        rng = random.Random(seed)
        prompts = [f"p{i}" for i in range(rng.randint(1, 4))]
        train = _random_records(rng, rng.randint(2, 10), prompts)
        val = _random_records(rng, rng.randint(2, 10), prompts)
        tr_range = rng.randint(0, 4)

        configs = find_best_ensemble(train, val, prompts, SearchSpec(tr_range))
        train_max, val_max, winners = oracle_best_ensemble(train, val, prompts, tr_range)

        assert {(c.threshold, c.prompts) for c in configs} == winners, f"seed {seed}"
        for config in configs:
            got_train = mean_ensemble_f1(train, config.prompts, config.threshold)
            got_val = mean_ensemble_f1(val, config.prompts, config.threshold)
            assert abs(got_train - train_max) <= 1e-12
            assert abs(got_val - val_max) <= 1e-12
            assert abs(oracle_mean_f1(val, config.prompts, config.threshold) - val_max) <= 1e-12


@criterion(4, "signal-prompt recovery", 30.0)
def test_criterion_4_signal_prompt_recovery():
    prompts = ["signal", "n1", "n2", "n3"]
    for seed in range(5):
        rng = random.Random(1000 + seed)

        def make_records(n):
            records = []
            for i in range(n):
                truth = {rng.choice(LABELS)}
                answers = {
                    "signal": set(truth) if rng.random() < 0.95 else {rng.choice(LABELS)},
                }
                for noise in ("n1", "n2", "n3"):
                    answers[noise] = {rng.choice(LABELS)}
                records.append(EvalRecord.make(f"i{i}", truth, answers))
            return records

        train = make_records(60)
        val = make_records(60)
        configs = find_best_ensemble(train, val, prompts, SearchSpec(4))
        assert configs, f"seed {seed}: no config returned"
        best_val = max(
            mean_ensemble_f1(val, c.prompts, c.threshold) for c in configs
        )
        assert best_val >= 0.9, f"seed {seed}: val F1 {best_val:.3f} < 0.9"
        for config in configs:
            assert "signal" in config.prompts, f"seed {seed}: {config}"

        # directional property: the chosen ensemble never loses to the best
        # single prompt (single prompts are inside the search space)
        best_single = max(
            mean_ensemble_f1(val, (p,), threshold)
            for p in prompts
            for threshold in (0, 1)
        )
        assert best_val >= best_single - 1e-12


@criterion(5, "end-to-end pipeline with replay cassette", 60.0)
def test_criterion_5_end_to_end_iot_pipeline(tmp_path, capsys):
    clean = make_iot_dataset(n_rows=1000)
    csv_path = tmp_path / "iot.csv"
    csv_path.write_text(dataset_to_csv(clean), encoding="utf-8")
    cassette = make_cassette(tmp_path, iot_pipeline_responses(clean.headers), "e2e.json")
    sensors = write_sensor_specs(tmp_path)
    out_dir = tmp_path / "ctx"

    code = main(
        [
            "build-context", str(csv_path),
            "--backend", "replay", "--cassette", cassette,
            "--sensors", sensors, "--out-dir", str(out_dir),
        ]
    )
    assert code == 0

    graph = deserialize((out_dir / "context.nt").read_text())
    rules = extract_ofds(graph)
    kinds = {r.kind for r in rules}
    assert {
        DependencyKind.DEVICE_LINK,
        DependencyKind.LOCALITY,
        DependencyKind.CAPABILITY,
        DependencyKind.DENIAL,
    } <= kinds
    device_links = {r.id: fd_columns(r) for r in rules if r.kind is DependencyKind.DEVICE_LINK}
    assert device_links == {"device_link:Sensor->Device": ("Sensor", "Device")}
    assert edge(ATTACHED_TO, "ds18b20_1", "sensing_in_1") in graph.triples
    assert edge(ATTACHED_TO, "sensing_in_1", "device_in_1") in graph.triples
    denial_ids = {r.id for r in rules if r.kind is DependencyKind.DENIAL}
    assert denial_ids == {"denial:Device->System", "denial:SensingDevice->Device"}
    localities = {r.id: fd_columns(r) for r in rules if r.kind is DependencyKind.LOCALITY}
    assert localities == {"locality:SensingDevice->Location": ("SensingDevice", "Location")}
    assert edge(DEPLOYED_AT, "sensing_in_1", "Room1") in graph.triples
    capability_specs = {
        r.id: r.spec for r in rules if r.kind is DependencyKind.CAPABILITY
    }
    assert capability_specs["capability:ds18b20_1"].max_value == 125.0

    # Corrupt the transformed table only where the rules can see it: System
    # is pinned by Device, location by SensingDevice, and those determinant
    # columns stay clean; value outliers are covered by capability bounds.
    transformed = load_csv((out_dir / "transformed.csv").read_bytes())
    spec = ErrorSpec(
        missing_rate=0.13,
        outlier_rate=0.05,
        seed=11,
        missing_columns=("System", "location"),
        outlier_columns=("value",),
    )
    dirty, truth = inject_errors(transformed, spec)
    assert len(truth) == round(0.13 * 2 * 1000) + round(0.05 * 1000)
    dirty_path = tmp_path / "dirty.csv"
    dirty_path.write_text(dataset_to_csv(dirty), encoding="utf-8")

    report_dir = tmp_path / "report"
    code = main(
        [
            "detect", str(dirty_path),
            "--graph", str(out_dir / "context.nt"),
            "--sensors", sensors,
            "--out-dir", str(report_dir),
        ]
    )
    assert code == 0
    payload = json.loads((report_dir / "report.json").read_text())
    flagged = {(f["row"], f["column"]) for f in payload["findings"]}
    precision, recall, f1 = score_detection(flagged, truth)
    print(f"  e2e detection: P={precision} R={recall} F1={f1}")
    assert (precision, recall, f1) == (1.0, 1.0, 1.0)


@criterion(6, "rule DSL round-trip and fuzzing", 30.0)
def test_criterion_6_rule_round_trip():
    rng = random.Random(77)
    for i in range(500):
        rule = random_rule(rng)
        text = render_rule(rule)
        assert parse_rule(text, rule.kind) == rule, f"case {i}: {text!r}"

    for verbatim, kind, n_aliases in (
        ('t1&EQ(t1.System,"")', DependencyKind.DENIAL, 1),
        (
            "t1&t2&EQ(t1.SensingDevice,t2.SensingDevice)&IQ(t1.Device,t2.Device)",
            DependencyKind.DENIAL,
            2,
        ),
    ):
        rule = parse_rule(verbatim, kind)
        assert len(rule.aliases) == n_aliases
        assert render_rule(rule) == verbatim

    # fuzz: random byte strings either parse or raise RuleParseError
    for i in range(10_000):
        n = rng.randint(0, 30)
        text = "".join(rng.choice(string.printable) for _ in range(n))
        try:
            parse_rule(text, DependencyKind.DENIAL)
        except RuleParseError:
            pass


@criterion(7, "scale sanity on 100k x 20", 120.0)
def test_criterion_7_scale():
    rng = random.Random(4242)
    n_rows = 100_000

    sensor_cells = [Cell.text(f"ds18b20_{i}") for i in range(50)]
    sensing_cells = [Cell.text(f"sd_{i}") for i in range(100)]
    device_cells = [Cell.text(f"dev_{i}") for i in range(20)]
    filler = Cell.text("constant")
    alphabet = string.ascii_lowercase + string.digits

    headers = ["sensor", "SensingDevice", "Device", "value", "timestamp", "CodeA", "CodeB"]
    headers += [f"extra_{i}" for i in range(13)]
    rows = []
    for i in range(n_rows):
        sd = i % 100
        code = "".join(rng.choice(alphabet) for _ in range(8))
        rows.append(
            (
                sensor_cells[i % 50],
                sensing_cells[sd],
                device_cells[sd % 20],
                Cell.number(rng.uniform(0.0, 50.0)),
                Cell.timestamp(10**12 + i),
                Cell.text(code),
                Cell.text(code[::-1]),
            )
            + (filler,) * 13
        )
    d = Dataset(tuple(headers), tuple(rows))

    rules = [
        parse_rule('t1&EQ(t1.sensor,"")', DependencyKind.DENIAL, "missing"),
        parse_rule(
            "t1&t2&EQ(t1.SensingDevice,t2.SensingDevice)&IQ(t1.Device,t2.Device)",
            DependencyKind.DENIAL,
            "fd",
        ),
        parse_rule(
            "t1&t2&EQ(t1.sensor,t2.sensor)&IQ(t1.Device,t2.Device)",
            DependencyKind.DEVICE_LINK,
            "dl",
        ),
        parse_rule('t1&EQ(t1.sensor,"ds18b20_7")', DependencyKind.CAPABILITY, "cap"),
        parse_rule(
            "t1&t2&SIM75(t1.CodeA,t2.CodeA)&SIM75(t1.CodeB,t2.CodeB)",
            DependencyKind.MATCHING,
            "match",
        ),
    ]
    specs = {"ds18b20": SensorSpec("ds18b20", -55.0, 125.0)}
    report = run_all(d, rules, specs=specs)  # blocking enabled by default
    assert not report.skipped_rules
    # clean by construction: sd -> device is functional, values in range
    assert report.per_rule_counts.get("fd", 0) == 0
    assert report.per_rule_counts.get("cap", 0) == 0


@criterion(8, "metric conventions", 10.0)
def test_criterion_8_metric_conventions():
    def report_for(cells):
        return DetectionReport(
            findings=[Finding(CellRef(r, c), "r", "x") for r, c in cells]
        )

    def truth_for(cells):
        return GroundTruth(
            tuple(Corruption(CellRef(r, c), Cell.text("o"), "missing") for r, c in cells)
        )

    # detection conventions
    cells = {(i, "a") for i in range(8)}
    assert score_detection(report_for(cells), truth_for(cells)) == (1.0, 1.0, 1.0)

    flagged = {(i, "a") for i in range(50)}
    truth_cells = {(i, "a") for i in range(10, 90)}
    p, r, f1 = score_detection(report_for(flagged), truth_for(truth_cells))
    assert (p, r) == (0.8, 0.5)
    assert abs(f1 - 2 * 0.8 * 0.5 / 1.3) < 1e-12

    assert score_detection(report_for(set()), truth_for({(0, "a")})) == (0.0, 0.0, 0.0)
    assert score_detection(report_for(set()), truth_for(set())) == (1.0, 1.0, 1.0)
    assert score_micro_f1(set(), set()) == (1.0, 1.0, 1.0)
