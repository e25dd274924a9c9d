"""Self-tests for the benchmark: each workload at a toy size.

Run with ``python -m pytest perfbench``. Every test runs ``perfbench/run.py``
with the same arguments a benchmark harness passes, and reads its output.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import layer_metrics, union_length  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TOY_SCALE = {"detect-20k": 0.1, "iot-fleet": 0.05, "relational-remote": 0.1}


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--scale", str(TOY_SCALE[workload])],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(l[len("detail "):]) for l in lines if l.startswith("detail "))
    return json.loads(lines[-1]), detail


def assert_metrics(result: dict, wanted: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("workload", sorted(TOY_SCALE))
def test_end_to_end_metrics_repeat(workload):
    first, first_detail = parse(bench(workload, seed=5, trace=0))
    second, second_detail = parse(bench(workload, seed=5, trace=0))
    assert_metrics(first, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert first["metrics"][m["name"]]["value"] > 0, m["name"]
    assert first["metrics"]["f1"] == second["metrics"]["f1"]
    assert first_detail["digest"] == second_detail["digest"]
    assert first_detail["metrics"]["failed_ratio"] == 0


@pytest.mark.parametrize("workload", sorted(TOY_SCALE))
def test_traced_run_reports_every_layer(workload):
    result, detail = parse(bench(workload, seed=6, trace=1))
    assert_metrics(result, SPEC["per_layer"])
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert values["dataset.load_csv.s"] > 0 and values["detection.run_all.s"] > 0
    assert values["trace.overhead_ratio"] > 0
    if workload == "relational-remote":
        assert values["gateway.stub.requests"] >= values["gateway.complete.calls"] > 0
        assert values["evaluation.injected"] > 0
    if workload == "iot-fleet":
        assert values["context_model.extract_ofds.calls"] == 2
        assert values["gateway.complete.calls"] == 8 and values["gateway.stub.requests"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("iot-fleet", seed=1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_union_length_merges_overlaps():
    assert union_length([]) == 0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 10), (2, 3)]) == 10


def _span(i, name, parent, start, end, **attrs):
    return {"id": i, "name": name, "parent": parent, "run": "r", "start": start, "end": end, **attrs}


def test_layer_metrics_self_time_and_overlap_check():
    spans = [
        _span(0, "cli.detect", None, 0.0, 9.0),
        _span(1, "dataset.load_csv", 0, 0.5, 4.5, cells=10),
        _span(2, "detection.run_all", 0, 5.0, 9.0, rules=2, findings=4, flagged_cells=2),
        _span(3, "detection.fd", 2, 5.0, 7.0, findings=3),
        _span(4, "detection.fd", 2, 6.0, 8.0, findings=1),
    ]
    m, problems = layer_metrics([{"spans": spans, "counters": {}}], {"detect": 10.0})
    assert problems == []
    assert m["cli.detect.self_s"] == pytest.approx(2.0)
    assert m["detection.merge.s"] == pytest.approx(1.0)
    assert m["detection.fd.s"] == pytest.approx(4.0) and m["detection.fd.calls"] == 2
    assert m["detection.useful_ratio"] == pytest.approx(0.5) and m["rules.count"] == 2
    # A worker span wrongly hung off the root overlaps run_all: caught.
    spans.append(_span(5, "detection.fd", 0, 6.0, 9.0, findings=0))
    _, problems = layer_metrics([{"spans": spans, "counters": {}}], {"detect": 10.0})
    assert problems and "detect" in problems[0]
