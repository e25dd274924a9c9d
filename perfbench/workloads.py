"""Seeded input generators and CLI command lists for the benchmark workloads.

Each workload writes its input files into a directory from a seed; the same
seed always gives byte-identical files. The generators also return the
planted ground truth, so the benchmark can score the final flagged cells
without asking the program. The program under test only ever sees the
generated files.

Workloads (full size, ``scale=1``):

* ``detect-20k``: a 20k x 20 table with the columns of acceptance
  criterion 7 (which has 100k rows), made clean by construction, with
  planted missing sensors, Device swaps, out-of-range readings and
  near-duplicate CodeA pairs; five hand-written rules.
* ``iot-fleet``: an 8-column IoT table shaped like the test fixture, with
  120 sensors; the rules come from the context graph.
* ``relational-remote``: a wide table of hierarchical column groups whose
  context is built through the remote backend against a loopback stub.
"""

from __future__ import annotations

import json
import random
import string
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from llmclean.gateway import render_prompt, save_cassette
from llmclean.generation import (
    CLASSIFY_TEMPLATE,
    CONCEPT_TEMPLATE,
    HIERARCHY_TEMPLATE,
    IOT_REFERENCE_HEADERS,
    MAP_COLUMN_TEMPLATE,
    MAPPING_ROLES,
    RELATED_TEMPLATE,
)

PARALLEL = "2"  # every command runs with --parallel 2, sized for a 2-core host
MISSING_TOKENS = ("", "N/A", "null")
SENSOR_SPECS = {
    "ds18b20": {"min": -55.0, "max": 125.0, "unit": "C"},
    "wsdcgq11lm": {"min": -20.0, "max": 60.0, "unit": "C"},
}

Cell = tuple[int, str]  # (0-based data row, column name)
Command = tuple[str, list[str], Path]  # (CLI command, argv, its --out-dir)


@dataclass
class Inputs:
    """Generated files plus what the benchmark needs to check the outputs."""

    dir: Path
    csv: Path
    cells: int  # rows x columns of the input CSV
    truth: frozenset[Cell] = frozenset()  # planted error cells (detect workloads)
    answers: dict[str, str] = field(default_factory=dict)  # stub prompt -> answer
    expected_injected: int | None = None  # evaluate: count its ErrorSpec implies
    seed: int = 0


def round_half_up(x: float) -> int:
    return int(x + 0.5)


def _write_csv(path: Path, headers: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(headers)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_specs(path: Path) -> None:
    path.write_text(json.dumps(SENSOR_SPECS, sort_keys=True), encoding="utf-8")


def _pick_rows(
    rng: random.Random, candidates: list[int], n: int, group_of, room: Counter
) -> list[int]:
    """Draw n rows, keeping every group's planted rows below half of it.

    ``room`` holds how many more rows each group may lose; drawn rows are
    removed from ``candidates`` so the planted sets stay disjoint.
    """
    rng.shuffle(candidates)
    picked, rest = [], []
    for i in candidates:
        groups = group_of(i)
        if len(picked) < n and all(room[g] > 0 for g in groups):
            for g in groups:
                room[g] -= 1
            picked.append(i)
        else:
            rest.append(i)
    if len(picked) < n:
        raise ValueError(f"cannot plant {n} errors below half of every group")
    candidates[:] = rest
    return sorted(picked)


def _bag_distance(a: Counter, b: Counter) -> int:
    """Lower bound on the edit distance of two strings given as letter counts."""
    return max(sum((a - b).values()), sum((b - a).values()))


# --------------------------------------------------------------------------
# detect-20k


DETECT_RULES = """\
denial: t1&EQ(t1.sensor,"")
denial: t1&t2&EQ(t1.SensingDevice,t2.SensingDevice)&IQ(t1.Device,t2.Device)
device_link: t1&t2&EQ(t1.sensor,t2.sensor)&IQ(t1.Device,t2.Device)
capability: t1&EQ(t1.sensor,"ds18b20_7")
matching: t1&t2&SIM75(t1.CodeA,t2.CodeA)&SIM75(t1.CodeB,t2.CodeB)
"""


def detect_20k_shape(scale: float) -> dict[str, int]:
    return {"rows": max(2000, round(20_000 * scale)), "columns": 20}


def generate_detect_20k(seed: int, scale: float, out: Path) -> Inputs:
    """Criterion-7 table, clean by construction apart from the planted errors.

    Rows cycle through 100 sensing devices and 50 sensors; a sensing device's
    Device depends only on its sensor, so both FDs hold. Random codes use
    lower-case letters and digits with CodeB = reverse(CodeA), so similar
    random pairs stay consistent. Near-duplicate pairs use upper-case codes
    (never similar to a random one): the second row copies CodeA with one
    character changed at a uniformly random position and gets an unrelated
    CodeB, so the matching rule should flag both CodeB cells.
    """
    rng = random.Random(seed)
    n = detect_20k_shape(scale)["rows"]
    lower = string.ascii_lowercase + string.digits
    upper = string.ascii_uppercase
    headers = ["sensor", "SensingDevice", "Device", "value", "timestamp", "CodeA", "CodeB"]
    headers += [f"extra_{i}" for i in range(13)]
    filler = ["constant"] * 13
    rows = []
    for i in range(n):
        sd = i % 100
        code = "".join(rng.choices(lower, k=8))
        rows.append(
            [f"ds18b20_{i % 50}", f"sd_{sd}", f"dev_{sd % 50 % 20}",
             repr(rng.uniform(0.0, 50.0)), str(10**12 + i), code, code[::-1]]
            + filler
        )

    room = Counter()
    for i in range(n):
        room[("sd", i % 100)] += 1
        room[("sensor", i % 50)] += 1
    for g in room:
        room[g] = (room[g] - 1) // 2

    def group_of(i):
        return (("sd", i % 100), ("sensor", i % 50))

    truth: set[Cell] = set()
    capability_rows = [i for i in range(n) if i % 50 == 7]
    for i in _pick_rows(rng, capability_rows, max(2, n // 2500), group_of, room):
        low = rng.random() < 0.5
        rows[i][3] = repr(rng.uniform(-400.0, -60.0) if low else rng.uniform(130.0, 900.0))
        truth.add((i, "value"))
    free = [i for i in range(n) if i % 50 != 7] + capability_rows
    for i in _pick_rows(rng, free, max(2, n // 500), group_of, room):
        rows[i][0] = rng.choice(MISSING_TOKENS)
        truth.add((i, "sensor"))
    for i in _pick_rows(rng, free, max(2, n // 200), group_of, room):
        true_device = rows[i][2]
        rows[i][2] = rng.choice([f"dev_{k}" for k in range(20) if f"dev_{k}" != true_device])
        truth.add((i, "Device"))

    placed: list[Counter] = []
    pair_rows = _pick_rows(rng, free, 2 * max(2, n // 1000), lambda i: (), Counter())
    rng.shuffle(pair_rows)
    for first, second in zip(pair_rows[::2], pair_rows[1::2]):
        while True:
            base = "".join(rng.choices(upper, k=8))
            pos = rng.randrange(8)
            dup = base[:pos] + rng.choice(upper.replace(base[pos], "")) + base[pos + 1:]
            bags = [Counter(base), Counter(dup)]
            if all(_bag_distance(b, p) >= 3 for b in bags for p in placed):
                break
        placed += bags
        code_b = base[::-1]
        while True:
            other_b = "".join(rng.choices(upper, k=8))
            if _bag_distance(Counter(code_b), Counter(other_b)) >= 3:
                break
        rows[first][5], rows[first][6] = base, code_b
        rows[second][5], rows[second][6] = dup, other_b
        truth.update({(first, "CodeB"), (second, "CodeB")})

    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "detect.csv"
    _write_csv(csv_path, headers, rows)
    (out / "rules.ofd").write_text(DETECT_RULES, encoding="utf-8")
    _write_specs(out / "sensors.json")
    return Inputs(out, csv_path, n * len(headers), truth=frozenset(truth))


def detect_20k_commands(inputs: Inputs, out: Path) -> list[Command]:
    d = inputs.dir
    return [
        ("detect", ["detect", str(inputs.csv), "--rules", str(d / "rules.ofd"),
                    "--sensors", str(d / "sensors.json"), "--parallel", PARALLEL,
                    "--out-dir", str(out / "detect")], out / "detect"),
    ]


# --------------------------------------------------------------------------
# iot-fleet


IOT_HEADERS = ["System", "Device", "SensingDevice", "Sensor", "Name", "Value", "Timestamp", "Location"]
IOT_ROWS_PER_SENSOR = 8


def iot_fleet_shape(scale: float) -> dict[str, int]:
    sensors = max(8, round(120 * scale))
    return {"sensors": sensors, "rows": sensors * IOT_ROWS_PER_SENSOR, "columns": len(IOT_HEADERS)}


def generate_iot_fleet(seed: int, scale: float, out: Path) -> Inputs:
    """IoT readings: one sensing device per sensor, four sensors per device.

    About 1% of rows each get a missing System, a missing Location, a Device
    swapped for another, or an out-of-range Value. Each sensor keeps fewer
    than half of its rows corrupted, so the modal clean-up restores the
    topology and the context graph stays intact.
    """
    rng = random.Random(seed)
    shape = iot_fleet_shape(scale)
    n_sensors, n = shape["sensors"], shape["rows"]
    n_devices = (n_sensors + 3) // 4

    def sensor_name(k):
        return f"ds18b20_{k}" if k % 2 == 0 else f"wsdcgq11lm_{k}"

    rows = []
    for i in range(n):
        k = i % n_sensors
        rows.append([
            "home_system", f"device_{k // 4}", f"sensing_{k}", sensor_name(k),
            "temperature", f"{rng.uniform(15.0, 30.0):.2f}",
            str(1_700_000_000_000 + i * 1000), f"room_{k // 8}",
        ])

    room = Counter(i % n_sensors for i in range(n))
    for g in room:
        room[g] = (room[g] - 1) // 2
    candidates = list(range(n))
    per_kind = max(1, n // 100)
    truth: set[Cell] = set()
    for i in _pick_rows(rng, candidates, per_kind, lambda i: (i % n_sensors,), room):
        rows[i][0] = rng.choice(MISSING_TOKENS)
        truth.add((i, "System"))
    for i in _pick_rows(rng, candidates, per_kind, lambda i: (i % n_sensors,), room):
        rows[i][7] = rng.choice(MISSING_TOKENS)
        truth.add((i, "Location"))
    for i in _pick_rows(rng, candidates, per_kind, lambda i: (i % n_sensors,), room):
        true_device = (i % n_sensors) // 4
        other = rng.choice([k for k in range(n_devices) if k != true_device])
        rows[i][1] = f"device_{other}"
        truth.add((i, "Device"))
    for i in _pick_rows(rng, candidates, per_kind, lambda i: (i % n_sensors,), room):
        low = rng.random() < 0.5
        rows[i][5] = f"{rng.uniform(-400.0, -60.0) if low else rng.uniform(130.0, 900.0):.2f}"
        truth.add((i, "Value"))

    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "iot.csv"
    _write_csv(csv_path, IOT_HEADERS, rows)
    _write_specs(out / "sensors.json")
    columns = ", ".join(IOT_HEADERS)
    entries = {
        render_prompt(
            CLASSIFY_TEMPLATE, {"col_names": columns, "iot_names": IOT_REFERENCE_HEADERS}
        ): "yes"
    }
    for role in MAPPING_ROLES:
        prompt = render_prompt(MAP_COLUMN_TEMPLATE, {"col_names": columns, "concept": role})
        entries[prompt] = role if role in IOT_HEADERS else "NONE"
    save_cassette(out / "cassette.json", entries)
    return Inputs(out, csv_path, n * len(IOT_HEADERS), truth=frozenset(truth))


def iot_fleet_commands(inputs: Inputs, out: Path) -> list[Command]:
    d = inputs.dir
    sensors = str(d / "sensors.json")
    return [
        ("build-context", ["build-context", str(inputs.csv), "--backend", "replay",
                           "--cassette", str(d / "cassette.json"), "--sensors", sensors,
                           "--parallel", PARALLEL, "--out-dir", str(out / "context")],
         out / "context"),
        ("detect", ["detect", str(inputs.csv), "--graph", str(out / "context" / "context.nt"),
                    "--sensors", sensors, "--parallel", PARALLEL,
                    "--out-dir", str(out / "detect")], out / "detect"),
    ]


# --------------------------------------------------------------------------
# relational-remote


LEVELS = ("site", "area", "district", "region")  # finest to coarsest
LEVEL_FANOUT = (5, 10, 5)  # children per parent between consecutive levels
RELATIONAL_RATES = {"fd_swap": 0.01, "missing": 0.03}
FD_PAIR = f"{LEVELS[2]}_0:{LEVELS[3]}_0"  # swaps land in a coarsest-level column only


def relational_remote_shape(scale: float) -> dict[str, int]:
    groups = max(2, round(5 * scale))
    return {"groups": groups, "rows": max(400, round(2000 * scale)),
            "columns": groups * len(LEVELS)}


def generate_relational_remote(seed: int, scale: float, out: Path) -> Inputs:
    """Wide table of independent 4-level hierarchies (site > area > ...).

    Each group's finer levels determine its coarser ones; columns are shuffled
    so groups interleave. The answer table tells the stub which column pairs
    are related (same group), each column's concept, and which side of a
    related pair is the attribute.
    """
    rng = random.Random(seed)
    shape = relational_remote_shape(scale)
    n_groups, n = shape["groups"], shape["rows"]
    n_sites = LEVEL_FANOUT[0] * LEVEL_FANOUT[1] * LEVEL_FANOUT[2] * 2
    columns = [(g, level) for g in range(n_groups) for level in range(len(LEVELS))]
    rng.shuffle(columns)
    headers = [f"{LEVELS[level]}_{g}" for g, level in columns]

    rows = []
    for _ in range(n):
        sites = [rng.randrange(n_sites) for _ in range(n_groups)]
        row = []
        for g, level in columns:
            idx = sites[g]
            for fanout in LEVEL_FANOUT[:level]:
                idx //= fanout
            row.append(f"{LEVELS[level][0]}{g}-{idx}")
        rows.append(row)

    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "wide.csv"
    _write_csv(csv_path, headers, rows)

    answers = {
        render_prompt(
            CLASSIFY_TEMPLATE,
            {"col_names": ", ".join(headers), "iot_names": IOT_REFERENCE_HEADERS},
        ): "no"
    }
    for a in range(len(headers)):
        (ga, la) = columns[a]
        answers[render_prompt(CONCEPT_TEMPLATE, {"col": headers[a]})] = (
            f"{LEVELS[la]} of network {ga}"
        )
        for b in range(a + 1, len(headers)):
            (gb, lb) = columns[b]
            pair = {"col_a": headers[a], "col_b": headers[b]}
            answers[render_prompt(RELATED_TEMPLATE, pair)] = "yes" if ga == gb else "no"
            if ga == gb:
                answers[render_prompt(HIERARCHY_TEMPLATE, pair)] = "A" if la < lb else "B"
    (out / "answers.json").write_text(json.dumps(answers, sort_keys=True), encoding="utf-8")

    expected = round_half_up(RELATIONAL_RATES["fd_swap"] * n) + round_half_up(
        RELATIONAL_RATES["missing"] * n * len(headers)
    )
    return Inputs(out, csv_path, n * len(headers), answers=answers,
                  expected_injected=expected, seed=seed)


def relational_remote_commands(inputs: Inputs, out: Path) -> list[Command]:
    return [
        ("build-context", ["build-context", str(inputs.csv), "--backend", "remote",
                           "--parallel", PARALLEL, "--out-dir", str(out / "context")],
         out / "context"),
        ("evaluate", ["evaluate", str(inputs.csv), "--graph", str(out / "context" / "context.nt"),
                      "--fd-pair", FD_PAIR,
                      "--fd-swap-rate", str(RELATIONAL_RATES["fd_swap"]),
                      "--missing-rate", str(RELATIONAL_RATES["missing"]),
                      "--seed", str(inputs.seed), "--parallel", PARALLEL,
                      "--out-dir", str(out / "evaluate")], out / "evaluate"),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int, float, Path], Inputs]  # (seed, scale, dir) -> inputs
    commands: Callable[[Inputs, Path], list[Command]]  # (inputs, pass dir) -> commands
    shape: Callable[[float], dict[str, int]]  # scale -> input sizes
    setups_per_pass: int  # set-ups timed before each pass (setup_s is their median)
    uses_stub: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("detect-20k", generate_detect_20k, detect_20k_commands,
                 detect_20k_shape, setups_per_pass=1),
        Workload("iot-fleet", generate_iot_fleet, iot_fleet_commands,
                 iot_fleet_shape, setups_per_pass=40),
        Workload("relational-remote", generate_relational_remote,
                 relational_remote_commands, relational_remote_shape,
                 setups_per_pass=5, uses_stub=True),
    )
}
