"""Byte pins of the relational `build-context --backend replay` artifacts.

The table holds 3 groups of a 4-level hierarchy (site > area > district >
region), with the columns shuffled so the groups interleave. The cassette
answers every relatedness, concept and hierarchy prompt the table can
raise. The digests were recorded while the model was still asked for every
hierarchy; equal digests show that taking the hierarchies from the data
changed no byte.
"""

from __future__ import annotations

import hashlib
import random
from itertools import combinations

from llmclean.cli import EXIT_OK, main
from llmclean.gateway import ReplayBackend, render_prompt
from llmclean.generation import (
    CLASSIFY_TEMPLATE,
    CONCEPT_TEMPLATE,
    HIERARCHY_TEMPLATE,
    IOT_REFERENCE_HEADERS,
    RELATED_TEMPLATE,
)

from conftest import make_cassette

LEVELS = ("site", "area", "district", "region")  # finest to coarsest
DIVISORS = (1, 5, 20, 60)  # site id -> level id; each divides the next
GROUPS = 3

EXPECTED_SHA256 = {
    "context.nt": "0a3f4c7bbff56c5afbbac69d6d7f73e161a2140fc3e286063d90123976df960a",
    "rules.ofd": "17e5967057ee80dc7f3e81552d4c0d9b4ac6e898e726b5daf32b2ad29283cb7f",
    "transformed.csv": "3f54d2e0f9bd1e869c9f4e665ac89ee46ec94162a51e776fbe8b072e140395c9",
}


def hierarchy_inputs(tmp_path, seed: int = 7, n_rows: int = 600):
    """The CSV path and a cassette answering every relational prompt."""
    rng = random.Random(seed)
    columns = [(g, level) for g in range(GROUPS) for level in range(len(LEVELS))]
    rng.shuffle(columns)
    headers = [f"{LEVELS[level]}_{g}" for g, level in columns]
    lines = [",".join(headers)]
    for _ in range(n_rows):
        sites = [rng.randrange(120) for _ in range(GROUPS)]
        lines.append(",".join(
            f"{LEVELS[level][0]}{g}-{sites[g] // DIVISORS[level]}" for g, level in columns
        ))
    csv_path = tmp_path / "wide.csv"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    entries = {
        render_prompt(
            CLASSIFY_TEMPLATE,
            {"col_names": ", ".join(headers), "iot_names": IOT_REFERENCE_HEADERS},
        ): "no"
    }
    for a, b in combinations(range(len(headers)), 2):
        (ga, la), (gb, lb) = columns[a], columns[b]
        pair = {"col_a": headers[a], "col_b": headers[b]}
        entries[render_prompt(RELATED_TEMPLATE, pair)] = "yes" if ga == gb else "no"
        if ga == gb:
            entries[render_prompt(HIERARCHY_TEMPLATE, pair)] = "A" if la < lb else "B"
    for header, (g, level) in zip(headers, columns):
        entries[render_prompt(CONCEPT_TEMPLATE, {"col": header})] = f"{LEVELS[level]} of network {g}"
    return csv_path, make_cassette(tmp_path, entries)


def test_relational_replay_artifacts_are_pinned(tmp_path, monkeypatch, capsys):
    csv_path, cassette = hierarchy_inputs(tmp_path)
    asked: list[str] = []
    lookup = ReplayBackend.lookup

    def counting_lookup(self, prompt):
        asked.append(prompt)
        return lookup(self, prompt)

    monkeypatch.setattr(ReplayBackend, "lookup", counting_lookup)
    out_dir = tmp_path / "out"
    code = main([
        "build-context", str(csv_path), "--backend", "replay", "--cassette", cassette,
        "--out-dir", str(out_dir),
    ])
    assert code == EXIT_OK
    assert "class=NonIoT" in capsys.readouterr().out
    digests = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in EXPECTED_SHA256
    }
    assert digests == EXPECTED_SHA256
    assert not [p for p in asked if "is an attribute of" in p]
    # classify, relatedness of the 18 same-group pairs, 12 concepts
    assert len(asked) == 1 + 18 + 12
