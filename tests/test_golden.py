"""Pinned SHA-256 digests of the CLI's artifacts on the shared fixtures.

Reruns on one commit are compared elsewhere; these digests pin the bytes
across changes to the code, so a refactor that moves a single cell, truth
entry, triple or rule fails here. The values were recorded before the
columnar rewrite of ``evaluation`` and ``generation``; the ``rules.ofd``
digests were re-pinned when a graph's device-link and locality dependencies
became one rule each instead of one per entity.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from llmclean.cli import EXIT_OK, main
from llmclean.dataset import dataset_to_csv

from conftest import iot_pipeline_responses, make_cassette, make_iot_dataset, write_sensor_specs

GOLDEN = {
    "build-context/clean/context.nt": "07a6445b8fa1ec797960ef548f30349eaef3cc3e1258df8dbcdd48021a3b581c",
    "build-context/clean/rules.ofd": "678cc9f10eeba7dfd23cade650c36c10ec291b8a8435216e8055364d43035f42",
    "build-context/clean/transformed.csv": "87dcb01b33c566dc83fa3a01f9600e0a05b4a3ec1c769582a552a555ec4c4c64",
    "evaluate/dirty.csv": "1fc95d2e3cfe9c51c815548891279ae7bb9f93f1f2e980fb53055b345016ed05",
    "evaluate/truth.jsonl": "e4733269bec12510cbacac249229e67d31757686ee69674cffdaa1d1592f5c7a",
    "evaluate/metrics.json": "30883317b37e749ca989882857cab202a0dcab6326fabf140a76841e9d36046b",
    "build-context/dirty/context.nt": "07a6445b8fa1ec797960ef548f30349eaef3cc3e1258df8dbcdd48021a3b581c",
    "build-context/dirty/rules.ofd": "678cc9f10eeba7dfd23cade650c36c10ec291b8a8435216e8055364d43035f42",
    "build-context/dirty/transformed.csv": "b3b52a68edb7a45a30b0d9722d439af59c3be3f24cef808b42313f0eb1d2176d",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _build_context(csv_path: Path, tmp_path: Path, name: str) -> dict[str, str]:
    d = make_iot_dataset()
    cassette = make_cassette(tmp_path, iot_pipeline_responses(d.headers), f"{name}.json")
    out_dir = tmp_path / name
    code = main(
        [
            "build-context", str(csv_path), "--backend", "replay", "--cassette", cassette,
            "--sensors", write_sensor_specs(tmp_path), "--out-dir", str(out_dir),
        ]
    )
    assert code == EXIT_OK
    return {
        f"build-context/{name}/{f}": _sha((out_dir / f).read_bytes())
        for f in ("context.nt", "rules.ofd", "transformed.csv")
    }


def test_artifact_digests(tmp_path, capsys):
    clean_csv = tmp_path / "iot.csv"
    clean_csv.write_text(dataset_to_csv(make_iot_dataset()), encoding="utf-8")
    digests = _build_context(clean_csv, tmp_path, "clean")

    # Inject every corruption kind into the fixture, scored with its own rules,
    # then build a context from the dirty table (structural repairs and IQR drops).
    out_dir = tmp_path / "evaluate"
    code = main(
        [
            "evaluate", str(clean_csv), "--rules", str(tmp_path / "clean" / "rules.ofd"),
            "--sensors", write_sensor_specs(tmp_path),
            "--missing-rate", "0.02", "--outlier-rate", "0.03",
            "--fd-pair", "Sensor:Device", "--fd-swap-rate", "0.04",
            "--seed", "5", "--out-dir", str(out_dir),
        ]
    )
    assert code == EXIT_OK
    metrics = json.loads((out_dir / "metrics.json").read_text())
    metrics.pop("detection_ms")
    digests["evaluate/dirty.csv"] = _sha((out_dir / "dirty.csv").read_bytes())
    digests["evaluate/truth.jsonl"] = _sha((out_dir / "truth.jsonl").read_bytes())
    digests["evaluate/metrics.json"] = _sha(json.dumps(metrics, sort_keys=True).encode())
    digests.update(_build_context(out_dir / "dirty.csv", tmp_path, "dirty"))
    capsys.readouterr()
    assert digests == GOLDEN
