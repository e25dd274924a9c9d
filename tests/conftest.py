"""Shared fixture builders: deterministic IoT table, specs, replay cassettes."""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from llmclean.dataset import Cell, Dataset
from llmclean.gateway import render_prompt, save_cassette
from llmclean.generation import (
    CLASSIFY_TEMPLATE,
    IOT_REFERENCE_HEADERS,
    MAP_COLUMN_TEMPLATE,
    MAPPING_ROLES,
)
from llmclean.rules import SensorSpec

IOT_HEADERS = (
    "System", "Device", "SensingDevice", "Sensor",
    "Name", "Value", "Timestamp", "Location",
)

# sensor -> (device, sensing device, location)
IOT_TOPOLOGY = {
    "ds18b20_1": ("device_in_1", "sensing_in_1", "Room1"),
    "ds18b20_2": ("device_in_1", "sensing_in_2", "Room1"),
    "wsdcgq11lm_1": ("device_in_2", "sensing_in_3", "Room2"),
    "wsdcgq11lm_2": ("device_out_1", "sensing_out_1", "Outside"),
}

IOT_SPECS = {
    "ds18b20": SensorSpec("ds18b20", -55.0, 125.0, "C"),
    "wsdcgq11lm": SensorSpec("wsdcgq11lm", -20.0, 60.0, "C"),
}

_BASE_TS = 1_700_000_000_000


def make_iot_dataset(n_rows: int = 1000, seed: int = 42) -> Dataset:
    """Clean sensor-reading table with the 8-column structure above."""
    rng = random.Random(seed)
    sensors = list(IOT_TOPOLOGY)
    rows = []
    for i in range(n_rows):
        sensor = sensors[i % len(sensors)]
        device, sensing, location = IOT_TOPOLOGY[sensor]
        value = round(rng.uniform(15.0, 30.0), 2)
        rows.append(
            (
                Cell.text("home_system"),
                Cell.text(device),
                Cell.text(sensing),
                Cell.text(sensor),
                Cell.text("temperature"),
                Cell.number(value),
                Cell.timestamp(_BASE_TS + i * 1000),
                Cell.text(location),
            )
        )
    return Dataset.from_lists(IOT_HEADERS, rows)


def iot_pipeline_responses(headers) -> dict[str, str]:
    """Prompt->response pairs driving the IoT path: classify yes, map 1:1."""
    bindings = {"col_names": ", ".join(headers), "iot_names": IOT_REFERENCE_HEADERS}
    entries = {render_prompt(CLASSIFY_TEMPLATE, bindings): "yes"}
    answers = {
        "System": "System",
        "Device": "Device",
        "SensingDevice": "SensingDevice",
        "Sensor": "Sensor",
        "Location": "Location",
        "Value": "Value",
        "Timestamp": "Timestamp",
    }
    for role in MAPPING_ROLES:
        prompt = render_prompt(
            MAP_COLUMN_TEMPLATE, {"col_names": ", ".join(headers), "concept": role}
        )
        entries[prompt] = answers.get(role, "NONE")
    return entries


def write_sensor_specs(tmp_path) -> str:
    import json

    path = tmp_path / "sensors.json"
    path.write_text(
        json.dumps(
            {
                model: {"min": s.min_value, "max": s.max_value, "unit": s.unit}
                for model, s in IOT_SPECS.items()
            }
        ),
        encoding="utf-8",
    )
    return str(path)


def make_cassette(tmp_path, entries: dict[str, str], name: str = "cassette.json") -> str:
    path = tmp_path / name
    save_cassette(path, entries)
    return str(path)


def random_dataset_and_rules(seed: int):
    """Small random table plus a random mix of supported rule shapes."""
    from llmclean.dataset import MISSING
    from llmclean.rules import DependencyKind, parse_rule

    rng = random.Random(seed)
    n_rows = rng.randint(5, 200)

    sensors = [f"ds18b20_{i}" for i in range(1, rng.randint(2, 4))]
    devices = [f"dev_{i}" for i in range(1, rng.randint(2, 4))]
    sensing = [f"sd_{i}" for i in range(1, rng.randint(2, 5))]
    codes = [rng.choice(["10018", "10019", "22222", "1001x"]) for _ in range(4)]

    headers = ["sensor", "SensingDevice", "Device", "value", "timestamp", "Code"]
    rows = []
    base_ts = 10**12
    offsets = rng.sample(range(1_000_000), n_rows)  # unique ts for rank pairing
    for i in range(n_rows):
        rows.append(
            [
                Cell.text(rng.choice(sensors)) if rng.random() > 0.05 else MISSING,
                Cell.text(rng.choice(sensing)) if rng.random() > 0.05 else MISSING,
                Cell.text(rng.choice(devices)) if rng.random() > 0.05 else MISSING,
                Cell.number(round(rng.uniform(-100, 200), 1)) if rng.random() > 0.1 else MISSING,
                Cell.timestamp(base_ts + offsets[i]),
                Cell.text(rng.choice(codes)),
            ]
        )
    d = Dataset.from_lists(headers, rows)

    rules = []
    if rng.random() < 0.8:
        rules.append(parse_rule('t1&EQ(t1.sensor,"")', DependencyKind.DENIAL, "miss_sensor"))
    if rng.random() < 0.8:
        rules.append(
            parse_rule(
                "t1&t2&EQ(t1.SensingDevice,t2.SensingDevice)&IQ(t1.Device,t2.Device)",
                DependencyKind.DENIAL,
                "fd1",
            )
        )
    if rng.random() < 0.5:
        rules.append(
            parse_rule(
                "t1&t2&EQ(t1.sensor,t2.sensor)&IQ(t1.Device,t2.Device)",
                DependencyKind.DEVICE_LINK,
                "dl",
            )
        )
    if rng.random() < 0.6:
        pct = rng.choice([60, 75, 90])
        rules.append(
            parse_rule(
                f"t1&t2&SIM{pct}(t1.Code,t2.Code)&SIM{pct}(t1.sensor,t2.sensor)",
                DependencyKind.MATCHING,
                "match",
            )
        )
    if rng.random() < 0.7:
        sensor = rng.choice(sensors)
        rules.append(
            parse_rule(
                f't1&EQ(t1.sensor,"{sensor}")', DependencyKind.CAPABILITY, f"cap_{sensor}"
            )
        )
    if rng.random() < 0.5:
        a, b = rng.choice(devices), rng.choice(devices)  # may pin the same device
        rules.append(
            parse_rule(
                f't1&t2&EQ(t1.Device,"{a}")&EQ(t2.Device,"{b}")',
                DependencyKind.TEMPORAL,
                "temp",
            )
        )
    specs = {"ds18b20": SensorSpec("ds18b20", -55.0, 125.0)}
    return d, rules, specs


def random_rule(rng: random.Random):
    """One random structurally valid rule (for round-trip sweeps)."""
    from llmclean.rules import (
        ColumnRef,
        DependencyKind,
        Literal,
        OfdRule,
        Predicate,
    )

    def ident():
        first = rng.choice("abcXYZ_")
        rest = "".join(rng.choice("abcXYZ_019") for _ in range(rng.randint(0, 6)))
        return first + rest

    def literal_text():
        return "".join(
            chr(rng.randint(32, 126)) for _ in range(rng.randint(0, 8))
        )

    n_aliases = rng.randint(1, 2)
    aliases = tuple(f"t{i + 1}" for i in range(n_aliases))

    def operand():
        if rng.random() < 0.6:
            return ColumnRef(rng.choice(aliases), ident())
        return Literal(literal_text())

    predicates = []
    for required in aliases:  # both aliases must be referenced
        op = rng.choice(["EQ", "IQ", "SIM"])
        threshold = rng.randint(0, 100) / 100 if op == "SIM" else None
        predicates.append(
            Predicate(op, ColumnRef(required, ident()), operand(), threshold)
        )
    for _ in range(rng.randint(0, 3)):
        op = rng.choice(["EQ", "IQ", "SIM"])
        threshold = rng.randint(0, 100) / 100 if op == "SIM" else None
        predicates.append(
            Predicate(op, ColumnRef(rng.choice(aliases), ident()), operand(), threshold)
        )
    kind = rng.choice(list(DependencyKind))
    return OfdRule(kind, aliases, tuple(predicates))
