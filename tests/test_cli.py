from __future__ import annotations

import csv
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from llmclean.cli import EXIT_EXTERNAL, EXIT_INPUT, EXIT_OK, main
from llmclean.context_model import deserialize, extract_ofds
from llmclean.dataset import dataset_to_csv, load_csv, normalize_missing
from llmclean.detection import run_all
from llmclean.ensemble import EvalRecord, write_records_jsonl
from llmclean.rules import parse_rule_file

from conftest import (
    IOT_TOPOLOGY,
    make_cassette,
    make_iot_dataset,
    iot_pipeline_responses,
    write_sensor_specs,
)


@pytest.fixture
def iot_csv(tmp_path) -> str:
    path = tmp_path / "iot.csv"
    path.write_text(dataset_to_csv(make_iot_dataset()), encoding="utf-8")
    return str(path)


@pytest.fixture
def cassette(tmp_path, iot_csv) -> str:
    headers = load_csv(Path(iot_csv).read_bytes()).headers
    return make_cassette(tmp_path, iot_pipeline_responses(headers), "iot.json")


def test_importing_cli_does_not_load_requests():
    # Only the remote backend needs requests; detect and replay runs skip its import.
    code = "import sys, llmclean.cli; print('requests' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"


class TestClassify:
    def test_prints_iot(self, iot_csv, cassette, capsys):
        code = main(["classify", iot_csv, "--backend", "replay", "--cassette", cassette])
        assert code == EXIT_OK
        assert capsys.readouterr().out.strip() == "IoT"

    def test_missing_file_exit_one(self, cassette, capsys):
        code = main(["classify", "/nope/missing.csv", "--backend", "replay", "--cassette", cassette])
        assert code == EXIT_INPUT
        assert "error" in capsys.readouterr().err

    def test_remote_without_key_exit_two(self, iot_csv, monkeypatch, capsys):
        monkeypatch.delenv("LLMCLEAN_API_KEY", raising=False)
        code = main(["classify", iot_csv, "--backend", "remote"])
        assert code == EXIT_EXTERNAL
        assert "LLMCLEAN_API_KEY" in capsys.readouterr().err

    def test_unexpected_failure_exit_three(self, iot_csv, cassette, monkeypatch, capsys):
        import llmclean.cli as cli_mod

        def boom(*args, **kwargs):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(cli_mod.generation, "classify_dataset", boom)
        code = main(["classify", iot_csv, "--backend", "replay", "--cassette", cassette])
        assert code == 3
        assert "internal error" in capsys.readouterr().err


class TestEnsembleConfigFile:
    @pytest.mark.parametrize(
        "config,key",
        [
            ({"prompts": ["classify"]}, "'threshold'"),
            ({"threshold": 1}, "'prompts'"),
            ([1, 2], "JSON object"),
            ({"threshold": 1, "prompts": ["ghost"]}, "'ghost'"),
            ({"threshold": 1, "prompts": ["p"], "templates": [{"id": "p"}]}, "'task_text'"),
        ],
    )
    @pytest.mark.parametrize("command", ["classify", "build-context"])
    def test_malformed_config_exit_one(
        self, iot_csv, cassette, tmp_path, capsys, command, config, key
    ):
        path = tmp_path / "ensemble.json"
        path.write_text(json.dumps(config))
        code = main(
            [
                command, iot_csv, "--backend", "replay", "--cassette", cassette,
                "--ensemble-config", str(path), "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert str(path) in err and key in err


def expected_triple_count() -> int:
    devices = {d for d, _, _ in IOT_TOPOLOGY.values()}
    sensing = {s for _, s, _ in IOT_TOPOLOGY.values()}
    locations = {loc for _, _, loc in IOT_TOPOLOGY.values()}
    entities = 1 + len(devices) + len(sensing) + len(IOT_TOPOLOGY) + len(locations)
    entity_triples = entities * 2  # rdf:type + label
    edges = (
        len(IOT_TOPOLOGY)        # sensor -> sensing device
        + len(sensing)           # sensing device -> device
        + len(sensing)           # sensing device -> location
        + len(sensing)           # sensing device partOf device
        + len(devices)           # device partOf system
    )
    capability = len(IOT_TOPOLOGY) * 2 * 5  # 2 bounds x 5 triples (unit set)
    return entity_triples + edges + capability


class TestBuildContext:
    def run_build(self, iot_csv, cassette, tmp_path, out_name="out"):
        out_dir = tmp_path / out_name
        sensors = write_sensor_specs(tmp_path)
        code = main(
            [
                "build-context", iot_csv,
                "--backend", "replay", "--cassette", cassette,
                "--sensors", sensors,
                "--out-dir", str(out_dir),
            ]
        )
        assert code == EXIT_OK
        return out_dir

    def test_graph_triple_arithmetic(self, iot_csv, cassette, tmp_path, capsys):
        out_dir = self.run_build(iot_csv, cassette, tmp_path)
        graph = deserialize((out_dir / "context.nt").read_text())
        assert len(graph.triples) == expected_triple_count()
        assert "class=IoT" in capsys.readouterr().out

    def test_sensor_flag_adds_capability_triples(self, iot_csv, cassette, tmp_path):
        out_dir = self.run_build(iot_csv, cassette, tmp_path)
        text = (out_dir / "context.nt").read_text()
        assert "llmc:metaType" in text
        assert '"MinValue"' in text and '"MaxValue"' in text

    def test_rules_file_covers_all_kinds(self, iot_csv, cassette, tmp_path):
        out_dir = self.run_build(iot_csv, cassette, tmp_path)
        rules = parse_rule_file((out_dir / "rules.ofd").read_text())
        kinds = {r.kind.value for r in rules}
        assert kinds == {"device_link", "locality", "capability", "denial"}

    def test_rerun_byte_identical_artifacts(self, iot_csv, cassette, tmp_path):
        first = self.run_build(iot_csv, cassette, tmp_path, "out1")
        second = self.run_build(iot_csv, cassette, tmp_path, "out2")
        for name in ("context.nt", "transformed.csv", "rules.ofd"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_manifest_records_run(self, iot_csv, cassette, tmp_path):
        out_dir = self.run_build(iot_csv, cassette, tmp_path)
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["class"] == "IoT"
        assert manifest["backend"] == "replay"
        assert manifest["mapping"]["Sensor"] == "Sensor"
        assert set(manifest["outputs"]) == {"graph", "transformed_csv", "rules"}


class TestBuildContextNonIot:
    HEADERS = ["ZipCode", "City", "Score"]

    def _cassette(self, tmp_path):
        from itertools import combinations

        from llmclean.gateway import render_prompt
        from llmclean.generation import (
            CLASSIFY_TEMPLATE,
            CONCEPT_TEMPLATE,
            HIERARCHY_TEMPLATE,
            IOT_REFERENCE_HEADERS,
            RELATED_TEMPLATE,
        )

        entries = {
            render_prompt(
                CLASSIFY_TEMPLATE,
                {"col_names": ", ".join(self.HEADERS), "iot_names": IOT_REFERENCE_HEADERS},
            ): "no"
        }
        for a, b in combinations(self.HEADERS, 2):
            prompt = render_prompt(RELATED_TEMPLATE, {"col_a": a, "col_b": b})
            entries[prompt] = "yes" if (a, b) == ("ZipCode", "City") else "no"
        entries[render_prompt(CONCEPT_TEMPLATE, {"col": "ZipCode"})] = "postal area"
        entries[render_prompt(CONCEPT_TEMPLATE, {"col": "City"})] = "municipality"
        entries[
            render_prompt(HIERARCHY_TEMPLATE, {"col_a": "ZipCode", "col_b": "City"})
        ] = "A"
        return make_cassette(tmp_path, entries, "hospital.json")

    def test_relational_graph_and_rules(self, tmp_path, capsys):
        csv_path = tmp_path / "hospital.csv"
        csv_path.write_text(
            "ZipCode,City,Score\n10018,Springfield,4\n10019,Shelbyville,5\n"
        )
        out_dir = tmp_path / "rel_out"
        code = main(
            [
                "build-context", str(csv_path),
                "--backend", "replay", "--cassette", self._cassette(tmp_path),
                "--out-dir", str(out_dir),
            ]
        )
        assert code == EXIT_OK
        assert "class=NonIoT" in capsys.readouterr().out
        rules = parse_rule_file((out_dir / "rules.ofd").read_text())
        assert [r.kind.value for r in rules] == ["denial"]
        from llmclean.rules import render_rule

        assert render_rule(rules[0]) == (
            "t1&t2&EQ(t1.ZipCode,t2.ZipCode)&IQ(t1.City,t2.City)"
        )


class TestBuildContextSensorSplit:
    HEADERS = ["temperature", "co2", "place", "time"]

    def _cassette(self, tmp_path):
        from llmclean.gateway import render_prompt
        from llmclean.generation import (
            CLASSIFY_TEMPLATE,
            IOT_REFERENCE_HEADERS,
            MAP_COLUMN_TEMPLATE,
            MAPPING_ROLES,
        )

        entries = {
            render_prompt(
                CLASSIFY_TEMPLATE,
                {"col_names": ", ".join(self.HEADERS), "iot_names": IOT_REFERENCE_HEADERS},
            ): "yes"
        }
        split_headers = ["sensor", "value", "place", "time"]
        answers = {
            "Sensor": "sensor",
            "Value": "value",
            "Location": "place",
            "Timestamp": "time",
        }
        for role in MAPPING_ROLES:
            prompt = render_prompt(
                MAP_COLUMN_TEMPLATE,
                {"col_names": ", ".join(split_headers), "concept": role},
            )
            entries[prompt] = answers.get(role, "NONE")
        return make_cassette(tmp_path, entries, "split.json")

    def test_split_rename_generate(self, tmp_path, capsys):
        csv_path = tmp_path / "multi.csv"
        csv_path.write_text(
            "temperature,co2,place,time\n"
            "21.5,400,Room1,1700000000000\n"
            "22.0,410,Room2,1700000001000\n"
        )
        out_dir = tmp_path / "split_out"
        code = main(
            [
                "build-context", str(csv_path),
                "--backend", "replay", "--cassette", self._cassette(tmp_path),
                "--value-columns", "temperature:Temp,co2:CO2",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == EXIT_OK
        transformed = load_csv((out_dir / "transformed.csv").read_bytes())
        # 2 rows x 2 value columns, canonical + generated structure
        assert transformed.n_rows == 4
        assert transformed.headers == (
            "sensor", "value", "location", "timestamp",
            "System", "Device", "SensingDevice",
        )
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["class"] == "IoT"


class TestDetect:
    @pytest.fixture
    def built(self, iot_csv, cassette, tmp_path):
        out_dir = TestBuildContext().run_build(iot_csv, cassette, tmp_path)
        return out_dir

    def test_rules_file_detection(self, built, tmp_path, capsys):
        rules_path = tmp_path / "missing.ofd"
        rules_path.write_text('denial: t1&EQ(t1.System,"")\n')
        csv_path = built / "transformed.csv"
        code = main(["detect", str(csv_path), "--rules", str(rules_path)])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["findings"] == []
        assert "findings=0" in captured.err

    def test_graph_detection_equals_library_composition(self, built, tmp_path, capsys):
        csv_path = built / "transformed.csv"
        out_dir = tmp_path / "report_out"
        code = main(
            [
                "detect", str(csv_path),
                "--graph", str(built / "context.nt"),
                "--out-dir", str(out_dir),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads((out_dir / "report.json").read_text())

        dataset = normalize_missing(load_csv((csv_path).read_bytes()))
        graph = deserialize((built / "context.nt").read_text())
        expected = run_all(dataset, extract_ofds(graph))
        got_cells = {(f["row"], f["column"]) for f in payload["findings"]}
        assert got_cells == expected.flagged_cells

    def test_needs_rules_or_graph(self, built, capsys):
        code = main(["detect", str(built / "transformed.csv")])
        assert code == EXIT_INPUT


class TestEvaluate:
    def _write_simple(self, tmp_path):
        csv_path = tmp_path / "clean.csv"
        csv_path.write_text("System,Value\n" + "".join(f"s{i % 3},20.5\n" for i in range(50)))
        rules_path = tmp_path / "rules.ofd"
        rules_path.write_text('denial: t1&EQ(t1.System,"")\n')
        return str(csv_path), str(rules_path)

    def test_fd_pair_without_colon_exit_one(self, tmp_path, capsys):
        csv_path, rules_path = self._write_simple(tmp_path)
        code = main(
            [
                "evaluate", csv_path, "--rules", rules_path,
                "--fd-pair", "X", "--fd-swap-rate", "0.01",
            ]
        )
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "--fd-pair" in err and "determinant:dependent" in err

    @pytest.mark.parametrize(
        "entry",
        [{"min": 1}, {"min": "low", "max": 2}, {"min": 0, "max": None},
         {"min": float("nan"), "max": 125}, 5, [1, 2]],
    )
    def test_bad_sensor_spec_exit_one(self, tmp_path, capsys, entry):
        csv_path, rules_path = self._write_simple(tmp_path)
        specs_path = tmp_path / "sensors.json"
        specs_path.write_text(json.dumps({"ds18b20": entry}))
        code = main(["evaluate", csv_path, "--rules", rules_path, "--sensors", str(specs_path)])
        assert code == EXIT_INPUT
        assert "'ds18b20'" in capsys.readouterr().err

    def test_sensor_specs_not_an_object_exit_one(self, tmp_path, capsys):
        csv_path, rules_path = self._write_simple(tmp_path)
        specs_path = tmp_path / "sensors.json"
        specs_path.write_text("[1, 2]")
        code = main(["evaluate", csv_path, "--rules", rules_path, "--sensors", str(specs_path)])
        assert code == EXIT_INPUT
        assert "sensor specs" in capsys.readouterr().err

    @pytest.mark.parametrize("multiplier", ["nan", "inf", "-inf", "1e308"])
    def test_non_finite_outlier_exit_one(self, tmp_path, capsys, multiplier):
        csv_path, rules_path = self._write_simple(tmp_path)
        code = main(
            [
                "evaluate", csv_path, "--rules", rules_path,
                "--outlier-rate", "0.5", f"--multiplier={multiplier}",
            ]
        )
        assert code == EXIT_INPUT
        assert "multiplier" in capsys.readouterr().err

    @pytest.mark.parametrize("multiplier, reading", [("1", "20.5"), ("0", "0")])
    def test_no_op_outlier_exit_one(self, tmp_path, capsys, multiplier, reading):
        _, rules_path = self._write_simple(tmp_path)
        csv_path = tmp_path / "three.csv"
        csv_path.write_text("System,Value\n" + "".join(f"s{i},{reading}\n" for i in range(3)))
        code = main(
            [
                "evaluate", str(csv_path), "--rules", rules_path, "--out-dir", str(tmp_path / "out"),
                "--outlier-rate", "0.5", "--multiplier", multiplier, "--seed", "1",
            ]
        )
        assert code == EXIT_INPUT
        assert "multiplier" in capsys.readouterr().err
        assert not (tmp_path / "out" / "metrics.json").exists()

    def test_round_trip_metrics(self, tmp_path, capsys):
        csv_path, rules_path = self._write_simple(tmp_path)
        code = main(
            [
                "evaluate", csv_path, "--rules", rules_path,
                "--missing-rate", "0.2", "--missing-columns", "System",
                "--seed", "7",
            ]
        )
        assert code == EXIT_OK
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["injected"] == 10
        assert (metrics["precision"], metrics["recall"], metrics["f1"]) == (1.0, 1.0, 1.0)

    def test_seed_reproducible(self, tmp_path, capsys):
        csv_path, rules_path = self._write_simple(tmp_path)
        args = [
            "evaluate", csv_path, "--rules", rules_path,
            "--missing-rate", "0.2", "--missing-columns", "System", "--seed", "7",
        ]
        main(args)
        first = json.loads(capsys.readouterr().out)
        main(args)
        second = json.loads(capsys.readouterr().out)
        first.pop("detection_ms")
        second.pop("detection_ms")
        assert first == second

    def test_zero_rates_give_f1_one(self, tmp_path, capsys):
        csv_path, rules_path = self._write_simple(tmp_path)
        code = main(["evaluate", csv_path, "--rules", rules_path])
        assert code == EXIT_OK
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["f1"] == 1.0
        assert metrics["injected"] == 0

    def test_artifacts_written(self, tmp_path, capsys):
        csv_path, rules_path = self._write_simple(tmp_path)
        out_dir = tmp_path / "eval_out"
        main(
            [
                "evaluate", csv_path, "--rules", rules_path,
                "--missing-rate", "0.1", "--missing-columns", "System",
                "--seed", "1", "--out-dir", str(out_dir),
            ]
        )
        assert (out_dir / "dirty.csv").exists()
        assert (out_dir / "truth.jsonl").exists()
        assert (out_dir / "metrics.json").exists()


class TestEnsembleCommand:
    def _records(self):
        return [
            EvalRecord.make("a", {"A"}, {"p1": {"A"}, "p2": {"B"}}),
            EvalRecord.make("b", {"B"}, {"p1": {"B"}, "p2": {"B"}}),
            EvalRecord.make("c", {"C"}, {"p1": {"C"}, "p2": {"A"}}),
            EvalRecord.make("d", {"A"}, {"p1": {"A"}, "p2": {"C"}}),
        ]

    def test_matches_brute_force(self, tmp_path, capsys):
        path = tmp_path / "records.jsonl"
        path.write_text(write_records_jsonl(self._records()))
        code = main(["ensemble", str(path), "--tr-range", "2", "--seed", "0"])
        assert code == EXIT_OK
        configs = json.loads(capsys.readouterr().out)
        assert configs
        for config in configs:
            assert "p1" in config["prompts"]

    def test_tr_range_zero(self, tmp_path, capsys):
        path = tmp_path / "records.jsonl"
        path.write_text(write_records_jsonl(self._records()))
        code = main(["ensemble", str(path), "--tr-range", "0"])
        assert code == EXIT_OK
        configs = json.loads(capsys.readouterr().out)
        assert all(c["threshold"] == 0 for c in configs)

    def test_empty_records_exit_one(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        code = main(["ensemble", str(path)])
        assert code == EXIT_INPUT
        assert "no records" in capsys.readouterr().err

    def test_answers_not_an_object_exit_one(self, tmp_path, capsys):
        path = tmp_path / "records.jsonl"
        path.write_text('{"instance": "a", "truth": ["A"], "answers": ["A"]}\n')
        code = main(["ensemble", str(path)])
        assert code == EXIT_INPUT
        assert "bad record on line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("fraction", ["2", "1", "0", "-0.5", "nan"])
    def test_val_fraction_outside_unit_interval_exit_one(self, tmp_path, capsys, fraction):
        path = tmp_path / "records.jsonl"
        path.write_text(write_records_jsonl(self._records()))
        code = main(["ensemble", str(path), "--val-fraction", fraction])
        assert code == EXIT_INPUT
        assert "--val-fraction" in capsys.readouterr().err

    def test_separate_validation_file(self, tmp_path, capsys):
        train = tmp_path / "train.jsonl"
        val = tmp_path / "val.jsonl"
        train.write_text(write_records_jsonl(self._records()))
        val.write_text(write_records_jsonl(self._records()[:2]))
        code = main(["ensemble", str(train), "--val-records", str(val), "--tr-range", "1"])
        assert code == EXIT_OK


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["m", "min", "max", "unit", "A"]), inner, max_size=3),
    max_leaves=8,
)
NUMBERS = st.integers(-5, 5) | st.just(10**400) | st.floats(allow_nan=True)
SENSOR_SPECS = JSON_VALUES | st.dictionaries(
    st.sampled_from(["m", "m_1", "sensor"]),
    st.fixed_dictionaries({"min": NUMBERS, "max": NUMBERS}, optional={"unit": JSON_VALUES})
    | JSON_VALUES,
    max_size=2,
)
CSV_TOKENS = st.sampled_from(
    ["sensor", "value", "Sensor", "a", "Device", "timestamp", "message", "m", "m_1",
     "1", "-2.5", "1e999", "nan", "", "N/A", "2024-01-01T00:00:00Z", "1700000000000",
     '"x,y"', '"', "\xff"]
)
CSV_BYTES = st.one_of(
    st.binary(max_size=40),
    st.integers(1, 4)
    .flatmap(lambda width: st.lists(st.lists(CSV_TOKENS, min_size=width, max_size=width),
                                    min_size=1, max_size=6))
    .map(lambda rows: "\n".join(map(",".join, rows)).encode("utf-8", "surrogateescape")),
)
RULE_COLUMNS = st.sampled_from(["sensor", "value", "a", "Device", "timestamp", "ghost"])
RULE_LINE = st.builds(
    lambda kind, body: f"{kind}: {body}",
    st.sampled_from(["denial", "matching", "capability", "temporal", "locality",
                     "monitoring", "bogus"]),
    st.one_of(
        st.builds('t1&EQ(t1.{},"{}")'.format, RULE_COLUMNS, CSV_TOKENS),
        st.builds("t1&t2&EQ(t1.{0},t2.{0})&IQ(t1.{1},t2.{1})".format,
                  RULE_COLUMNS, RULE_COLUMNS),
        st.builds("t1&t2&SIM{0}(t1.{1},t2.{1})&SIM{0}(t1.{2},t2.{2})".format,
                  st.integers(0, 100), RULE_COLUMNS, RULE_COLUMNS),
        st.builds('t1&t2&EQ(t1.{0},"{1}")&EQ(t2.{0},"{2}")'.format,
                  RULE_COLUMNS, CSV_TOKENS, CSV_TOKENS),
    ),
)
RULE_TEXT = st.lists(RULE_LINE, max_size=4).map("\n".join) | st.text(
    alphabet='tq12&EQIMS(),."a: #\n', max_size=40
)
LABELS = st.lists(st.sampled_from(["A", "B", 1, None]), max_size=3)
RECORD_LINE = st.one_of(
    st.text(max_size=20),
    st.builds(
        json.dumps,
        st.fixed_dictionaries(
            {},
            optional={
                "instance": JSON_VALUES,
                "truth": LABELS | JSON_VALUES,
                "answers": st.dictionaries(st.sampled_from(["p1", "p2"]), LABELS, max_size=2)
                | JSON_VALUES,
            },
        ),
    ),
)


FLOATS = st.floats(allow_nan=True, allow_infinity=True)
EVAL_COLUMNS = st.sampled_from(["System", "Value", "Ghost"])


class TestFuzzedInputsExitCleanly:
    """Malformed user input is an input error (exit 1), never an internal one."""

    @settings(max_examples=100, deadline=None)
    @given(
        csv_bytes=CSV_BYTES,
        rule_text=RULE_TEXT,
        sensors=SENSOR_SPECS,
        exact=st.booleans(),
    )
    def test_detect(self, csv_bytes, rule_text, sensors, exact):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "data.csv").write_bytes(csv_bytes)
            (tmp / "rules.ofd").write_text(rule_text, encoding="utf-8")
            (tmp / "sensors.json").write_text(json.dumps(sensors), encoding="utf-8")
            argv = [
                "detect", str(tmp / "data.csv"), "--rules", str(tmp / "rules.ofd"),
                "--sensors", str(tmp / "sensors.json"), "--out-dir", str(tmp / "out"),
            ]
            assert main(argv + ["--exact-matching"] * exact) in (EXIT_OK, EXIT_INPUT)

    @settings(max_examples=100, deadline=None)
    @given(
        lines=st.lists(RECORD_LINE, max_size=4),
        fraction=st.floats(allow_nan=True, allow_infinity=True),
        tr_range=st.integers(-1, 3),
    )
    def test_ensemble(self, lines, fraction, tr_range):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.jsonl"
            path.write_text("\n".join(lines), encoding="utf-8")
            argv = ["ensemble", str(path), f"--val-fraction={fraction!r}",
                    f"--tr-range={tr_range}"]
            assert main(argv) in (EXIT_OK, EXIT_INPUT)

    @settings(max_examples=100, deadline=None)
    @given(
        rates=st.lists(st.just(0.0) | st.floats(0, 1) | FLOATS, min_size=3, max_size=3),
        multiplier=st.just(0.0) | FLOATS,
        fd_pair=st.none() | st.sampled_from(["System:Value", "Value:System", "System:Ghost", ":"]),
        columns=st.lists(
            st.none() | st.lists(EVAL_COLUMNS, min_size=1, max_size=2).map(",".join),
            min_size=2, max_size=2,
        ),
    )
    @example(rates=[0.0, 0.5, 0.0], multiplier=float("nan"), fd_pair=None, columns=[None, None])
    @example(rates=[0.0, 0.5, 0.0], multiplier=1.0, fd_pair=None, columns=[None, None])
    def test_evaluate(self, rates, multiplier, fd_pair, columns):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            values = ["0", "20.5", "-3", "1e300"]
            (tmp / "clean.csv").write_text(
                "System,Value\n" + "".join(f"s{i % 3},{values[i % 4]}\n" for i in range(12))
            )
            (tmp / "rules.ofd").write_text('denial: t1&EQ(t1.System,"")\n')
            argv = [
                "evaluate", str(tmp / "clean.csv"), "--rules", str(tmp / "rules.ofd"),
                "--out-dir", str(tmp / "out"), f"--multiplier={multiplier!r}",
            ]
            for flag, rate in zip(("missing-rate", "outlier-rate", "fd-swap-rate"), rates):
                argv.append(f"--{flag}={rate!r}")
            for flag, value in zip(("missing-columns", "outlier-columns", "fd-pair"),
                                   columns + [fd_pair]):
                if value is not None:
                    argv.append(f"--{flag}={value}")
            code = main(argv)
            assert code in (EXIT_OK, EXIT_INPUT)
            if code == EXIT_OK:
                with open(tmp / "out" / "dirty.csv", newline="", encoding="utf-8") as fh:
                    header, *rows = csv.reader(fh)
                for line in (tmp / "out" / "truth.jsonl").read_text().splitlines():
                    entry = json.loads(line)
                    if entry["kind"] == "outlier":
                        dirty = rows[entry["row"]][header.index(entry["column"])]
                        assert dirty not in ("", entry["original"])
