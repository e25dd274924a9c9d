"""Byte pins of the relational `build-context --backend replay` artifacts.

The table holds 3 groups of a 4-level hierarchy (site > area > district >
region), with the columns shuffled so the groups interleave. The cassette
answers every relatedness and hierarchy prompt the table can raise. The
data orders every related pair, so no hierarchy is asked. The `rules.ofd`
and `transformed.csv` digests date from when the model was still asked for
every hierarchy and for each column's concept; `context.nt` lost the
concept literals, which no rule reads, and a graph that still holds them
gives the same rules.
"""

from __future__ import annotations

import hashlib
import random
from itertools import combinations

from llmclean.cli import EXIT_OK, main
from llmclean.context_model import deserialize, extract_ofds, node_id
from llmclean.gateway import ReplayBackend, render_prompt
from llmclean.generation import (
    CLASSIFY_TEMPLATE,
    HIERARCHY_TEMPLATE,
    IOT_REFERENCE_HEADERS,
    RELATED_TEMPLATE,
)
from llmclean.rules import render_rule_file

from conftest import make_cassette

LEVELS = ("site", "area", "district", "region")  # finest to coarsest
DIVISORS = (1, 5, 20, 60)  # site id -> level id; each divides the next
GROUPS = 3

EXPECTED_SHA256 = {
    "context.nt": "ae795f78cb5bf5ca673998a63890ee2f1f897189697c294f4d7371a926bc58c4",
    "rules.ofd": "17e5967057ee80dc7f3e81552d4c0d9b4ac6e898e726b5daf32b2ad29283cb7f",
    "transformed.csv": "3f54d2e0f9bd1e869c9f4e665ac89ee46ec94162a51e776fbe8b072e140395c9",
}
# `context.nt` as written while each column's concept was still asked: the
# same triples plus one `llmc:concept` literal per column.
CONCEPT_ERA_CONTEXT_SHA256 = "0a3f4c7bbff56c5afbbac69d6d7f73e161a2140fc3e286063d90123976df960a"


def shuffled_columns(seed: int = 7):
    """The (group, level) of each column, and its header, in table order."""
    rng = random.Random(seed)
    columns = [(g, level) for g in range(GROUPS) for level in range(len(LEVELS))]
    rng.shuffle(columns)
    return rng, columns, [f"{LEVELS[level]}_{g}" for g, level in columns]


def hierarchy_inputs(tmp_path, seed: int = 7, n_rows: int = 600):
    """The CSV path and a cassette answering every relational prompt."""
    rng, columns, headers = shuffled_columns(seed)
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
    return csv_path, make_cassette(tmp_path, entries)


def build(tmp_path, csv_path, cassette):
    out_dir = tmp_path / "out"
    code = main([
        "build-context", str(csv_path), "--backend", "replay", "--cassette", cassette,
        "--out-dir", str(out_dir),
    ])
    assert code == EXIT_OK
    return out_dir


def test_relational_replay_artifacts_are_pinned(tmp_path, monkeypatch, capsys):
    csv_path, cassette = hierarchy_inputs(tmp_path)
    asked: list[str] = []
    lookup = ReplayBackend.lookup

    def counting_lookup(self, prompt):
        asked.append(prompt)
        return lookup(self, prompt)

    monkeypatch.setattr(ReplayBackend, "lookup", counting_lookup)
    out_dir = build(tmp_path, csv_path, cassette)
    assert "class=NonIoT" in capsys.readouterr().out
    digests = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in EXPECTED_SHA256
    }
    assert digests == EXPECTED_SHA256
    assert not [p for p in asked if "is an attribute of" in p]
    # classify, relatedness of the 18 same-group pairs
    assert len(asked) == 1 + 18


def test_graph_with_concept_literals_gives_the_same_rules(tmp_path, capsys):
    out_dir = build(tmp_path, *hierarchy_inputs(tmp_path))
    capsys.readouterr()
    _, columns, headers = shuffled_columns()
    lines = (out_dir / "context.nt").read_text(encoding="utf-8").splitlines()
    lines += [
        f'{node_id(header)} llmc:concept "{LEVELS[level]} of network {g}" .'
        for header, (g, level) in zip(headers, columns)
    ]
    old = "\n".join(sorted(lines)) + "\n"
    assert hashlib.sha256(old.encode("utf-8")).hexdigest() == CONCEPT_ERA_CONTEXT_SHA256
    rules = render_rule_file(extract_ofds(deserialize(old)))
    assert rules == (out_dir / "rules.ofd").read_text(encoding="utf-8")
