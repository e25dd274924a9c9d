"""Dataset-to-context-model workflow for IoT and relational tables.

The IoT path classifies the dataset from its headers, maps columns onto the
meta-model concepts, reshapes the table (sensor splitting, canonical
renaming, synthetic column generation), looks up sensor capabilities, runs a
light statistical clean-up on a working copy, and assembles the context
graph. The relational path extracts pairwise column relationships instead
and builds a concept hierarchy graph.
"""

from __future__ import annotations

import json
import logging
import statistics
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import combinations
from pathlib import Path
from typing import Mapping, Protocol, Sequence

from .context_model import (
    ATTACHED_TO,
    Concept,
    ContextGraph,
    DEPLOYED_AT,
    PART_OF,
    RELATED_TO,
    add_edge,
    add_entity,
    add_sensor_bounds,
    validate_graph,
)
from .dataset import Cell, CellKind, Dataset, cell_text, modal_value
from .detection import lookup_spec
from .ensemble import EnsembleConfig, find_consensus
from .errors import GatewayError, LLMCleanError, SchemaError
from .gateway import (
    Backend,
    PromptTemplate,
    ResponseFormat,
    complete,
    complete_many,
    render_prompt,
)
from .rules import SensorSpec, parse_sensor_spec

logger = logging.getLogger(__name__)


class DatasetClass(Enum):
    IOT = "IoT"
    NON_IOT = "NonIoT"


class Hierarchy(Enum):
    ATTRIBUTE_OF_A = "attribute_of_a"  # column_b is an attribute of column_a
    ATTRIBUTE_OF_B = "attribute_of_b"
    INDEPENDENT = "independent"


#: Concept roles resolved against columns, and the canonical column name each
#: one is renamed to. Measurement-level columns use the lowercase canonical
#: spellings; structural columns keep concept-style names. Rule enforcement
#: binds column names case-insensitively, so the mix is harmless.
MAPPING_ROLES: tuple[str, ...] = (
    "System", "Device", "SensingDevice", "Sensor", "Location", "Value", "Timestamp",
)
CANONICAL_NAMES: dict[str, str] = {
    "System": "System",
    "Device": "Device",
    "SensingDevice": "SensingDevice",
    "Sensor": "sensor",
    "Location": "location",
    "Value": "value",
    "Timestamp": "timestamp",
}
_ROLE_CONCEPTS: dict[str, Concept] = {
    "System": Concept.SYSTEM,
    "Device": Concept.DEVICE,
    "SensingDevice": Concept.SENSING_DEVICE,
    "Sensor": Concept.SENSOR,
    "Location": Concept.LOCATION,
}
#: Concepts ``generate_columns`` can synthesize when no column maps to them.
SYNTHESIZABLE = ("System", "Device", "SensingDevice", "Sensor")
SYNTH_SYSTEM_ID = "system_1"
_SYNTH_ID_PREFIXES = {"Device": "device", "SensingDevice": "sensing", "Sensor": "sensor"}

#: Reference header list shown to the model as a known-IoT example.
IOT_REFERENCE_HEADERS = (
    "System, Device, SensingDevice, Sensor, Name, Value, Timestamp, Location"
)

CLASSIFY_TEMPLATE = PromptTemplate(
    id="classify",
    task_text=(
        "Here are column names from an IoT dataset: {iot_names}.\n"
        "Do these names {col_names} suggest an IoT dataset?"
    ),
    response_format=ResponseFormat.YES_NO,
)

MAP_COLUMN_TEMPLATE = PromptTemplate(
    id="map_column",
    task_text=(
        "A tabular dataset has these columns: {col_names}.\n"
        "Which column corresponds to the concept '{concept}'? "
        "Answer NONE if no column does."
    ),
    response_format=ResponseFormat.SINGLE_LABEL,
)

RELATED_TEMPLATE = PromptTemplate(
    id="pair_related",
    task_text=(
        "In a tabular dataset, is there a semantic relationship between the "
        "columns '{col_a}' and '{col_b}'?"
    ),
    response_format=ResponseFormat.YES_NO,
)

CONCEPT_TEMPLATE = PromptTemplate(
    id="pair_concept",
    task_text="What real-world concept does the column '{col}' represent?",
    response_format=ResponseFormat.SINGLE_LABEL,
)

HIERARCHY_TEMPLATE = PromptTemplate(
    id="pair_hierarchy",
    task_text=(
        "Columns '{col_a}' and '{col_b}' are related. If '{col_b}' is an "
        "attribute of '{col_a}', answer A. If '{col_a}' is an attribute of "
        "'{col_b}', answer B. If they are independent concepts, answer NONE."
    ),
    response_format=ResponseFormat.SINGLE_LABEL,
)

DEFAULT_TEMPLATES: dict[str, PromptTemplate] = {
    t.id: t
    for t in (
        CLASSIFY_TEMPLATE,
        MAP_COLUMN_TEMPLATE,
        RELATED_TEMPLATE,
        CONCEPT_TEMPLATE,
        HIERARCHY_TEMPLATE,
    )
}


@dataclass
class ConceptMapping:
    """Concept-role assignments plus everything that failed to map."""

    assignments: dict[str, str] = field(default_factory=dict)  # role -> column
    unmapped_columns: list[str] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)  # roles with no column
    warnings: list[str] = field(default_factory=list)

    def column_for(self, role: str) -> str | None:
        return self.assignments.get(role)

    def renames(self) -> dict[str, str]:
        return {
            column: CANONICAL_NAMES[role]
            for role, column in self.assignments.items()
            if column.lower() != CANONICAL_NAMES[role].lower()
        }


@dataclass(frozen=True)
class ColumnPairRelation:
    column_a: str
    column_b: str
    related: bool
    concept_a: str = ""
    concept_b: str = ""
    hierarchy: Hierarchy = Hierarchy.INDEPENDENT


def classify_dataset(
    headers: Sequence[str],
    backend: Backend,
    config: EnsembleConfig,
    templates: Mapping[str, PromptTemplate] | None = None,
) -> DatasetClass:
    """Vote the ensemble's yes/no prompts and apply the consensus threshold."""
    if not headers:
        raise ValueError("headers must be non-empty")
    templates = templates or DEFAULT_TEMPLATES
    bindings = {
        "col_names": ", ".join(headers),
        "iot_names": IOT_REFERENCE_HEADERS,
    }
    votes: list[set[str]] = []
    for prompt_id in config.prompts:
        template = templates[prompt_id]
        completion = complete(
            backend, render_prompt(template, bindings), ResponseFormat.YES_NO
        )
        votes.append({"yes"} if completion.parsed else set())
    consensus = find_consensus(votes, config.threshold)
    return DatasetClass.IOT if "yes" in consensus else DatasetClass.NON_IOT


def map_columns(
    headers: Sequence[str],
    backend: Backend,
    template: PromptTemplate | None = None,
) -> ConceptMapping:
    """One single-label query per concept role; hallucinated columns become
    warnings rather than errors."""
    template = template or MAP_COLUMN_TEMPLATE
    mapping = ConceptMapping()
    claimed: set[str] = set()
    for role in MAPPING_ROLES:
        prompt = render_prompt(
            template, {"col_names": ", ".join(headers), "concept": role}
        )
        try:
            completion = complete(backend, prompt, ResponseFormat.SINGLE_LABEL)
        except GatewayError as exc:
            mapping.warnings.append(f"{role}: {exc}")
            mapping.missing.append(role)
            continue
        label = str(completion.parsed).strip()
        if label.upper() == "NONE" or not label:
            mapping.missing.append(role)
            continue
        matches = [h for h in headers if h == label] or [
            h for h in headers if h.lower() == label.lower()
        ]
        if not matches:
            mapping.warnings.append(
                f"{role}: model answered unknown column {label!r}"
            )
            mapping.missing.append(role)
        elif matches[0] in claimed:
            mapping.warnings.append(
                f"{role}: column {matches[0]!r} already mapped to another concept"
            )
            mapping.missing.append(role)
        else:
            mapping.assignments[role] = matches[0]
            claimed.add(matches[0])
    mapping.unmapped_columns = [h for h in headers if h not in claimed]
    return mapping


def split_sensors(
    d: Dataset, value_columns: Sequence[tuple[str, str]]
) -> Dataset:
    """Disaggregate multi-reading rows into one row per sensor reading.

    Each input row becomes one output row per (value column, sensor label)
    pair, with the remaining columns replicated. The output schema is
    ``sensor``, ``value``, then the carried columns.
    """
    if not value_columns:
        raise SchemaError("no value columns given")
    indices = []
    for column, label in value_columns:
        indices.append((d.column_index(column), label))
    value_idx = {i for i, _ in indices}
    carried = [i for i in range(d.n_cols) if i not in value_idx]
    headers = ["sensor", "value"] + [d.headers[i] for i in carried]
    rows = []
    for row in d.rows:
        for i, label in indices:
            rows.append(
                tuple([Cell.text(label), row[i]] + [row[j] for j in carried])
            )
    return Dataset.from_lists(headers, rows)


def rename_columns(d: Dataset, mapping: ConceptMapping) -> Dataset:
    """Rewrite mapped headers to the canonical schema; data untouched."""
    renames = mapping.renames()
    new_headers = [renames.get(h, h) for h in d.headers]
    collisions = {h for h in new_headers if new_headers.count(h) > 1}
    if collisions:
        raise SchemaError(f"rename collision on {sorted(collisions)}")
    return Dataset(tuple(new_headers), d.rows)


def _distinct_non_missing(d: Dataset, idx: int) -> list[str]:
    return sorted({cell_text(r[idx]) for r in d.rows if not r[idx].is_missing})


def generate_columns(
    d: Dataset, mapping: ConceptMapping
) -> tuple[Dataset, list[str]]:
    """Append synthetic columns for synthesizable missing concepts.

    The system column holds ``system_1``; device, sensing-device and sensor
    ids are derived one per distinct location (``device_1``, ``device_2``, ...
    in sorted location order, ``_0`` for a missing location, ``_1`` on every
    row when the table has no location column). Returns the widened dataset
    plus the concepts that could not be synthesized. Existing columns are
    never removed or reordered.
    """
    present = {h.lower() for h in d.headers}
    to_add = [c for c in SYNTHESIZABLE if c in mapping.missing and c.lower() not in present]
    excluded = [
        role for role in mapping.missing
        if role not in SYNTHESIZABLE and CANONICAL_NAMES.get(role, role).lower() not in present
    ]
    if not to_add:
        return d, excluded

    if d.has_column("location"):
        location_idx = d.column_index("location")
        index = {loc: k + 1 for k, loc in enumerate(_distinct_non_missing(d, location_idx))}
        slots = [
            0 if r[location_idx].is_missing else index[cell_text(r[location_idx])]
            for r in d.rows
        ]
    else:
        slots = [1] * d.n_rows

    added: list[list[Cell]] = []
    for concept in to_add:
        if concept == "System":
            added.append([Cell.text(SYNTH_SYSTEM_ID)] * d.n_rows)
        else:
            prefix = _SYNTH_ID_PREFIXES[concept]
            ids = {k: Cell.text(f"{prefix}_{k}") for k in set(slots)}
            added.append([ids[k] for k in slots])
    headers = d.headers + tuple(CANONICAL_NAMES[c] for c in to_add)
    rows = tuple(row + extra for row, extra in zip(d.rows, zip(*added)))
    return Dataset(headers, rows), excluded


class KnowledgeSource(Protocol):
    """Anything that can answer 'what is this sensor model's range?'."""

    def lookup(self, sensor_model: str) -> SensorSpec | None: ...


@dataclass
class LocalFileKnowledge:
    """Sensor specs from a JSON file: {"model": {"min":..,"max":..,"unit":..}}.

    The file is read on the first lookup and kept; an entry that is not a
    usable spec answers ``None``.
    """

    path: str

    @cached_property
    def _table(self) -> dict:
        try:
            table = json.loads(Path(self.path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise GatewayError(f"sensor knowledge file unreadable: {exc}") from None
        if not isinstance(table, dict):
            raise GatewayError(f"sensor knowledge file {self.path} is not a JSON object")
        return table

    def lookup(self, sensor_model: str) -> SensorSpec | None:
        if sensor_model not in self._table:
            return None
        try:
            return parse_sensor_spec(sensor_model, self._table[sensor_model])
        except LLMCleanError:
            return None


@dataclass
class LLMKnowledge:
    """Asks the model backend for a model's range: two comma-separated numbers."""

    backend: Backend
    template: PromptTemplate = PromptTemplate(
        id="sensor_range",
        task_text=(
            "What are the minimum and maximum values the sensor model "
            "'{model}' can measure? Answer with two numbers: min, max."
        ),
        response_format=ResponseFormat.LABEL_LIST,
    )

    def lookup(self, sensor_model: str) -> SensorSpec | None:
        prompt = render_prompt(self.template, {"model": sensor_model})
        completion = complete(self.backend, prompt, ResponseFormat.LABEL_LIST)
        labels = list(completion.parsed)
        if len(labels) < 2:
            return None
        try:
            return SensorSpec(sensor_model, float(labels[0]), float(labels[1]))
        except ValueError:  # not numbers, NaN, or min above max
            return None


def extract_sensor_info(
    sensor_model: str,
    sources: Sequence[KnowledgeSource],
    user_overrides: Mapping[str, SensorSpec] | None = None,
) -> SensorSpec | None:
    """User override wins; otherwise the first source with a usable answer.

    Source failures are logged and skipped, never fatal.
    """
    if user_overrides and sensor_model in user_overrides:
        return user_overrides[sensor_model]
    for source in sources:
        try:
            spec = source.lookup(sensor_model)
        except GatewayError as exc:
            logger.warning("sensor source failed for %r: %s", sensor_model, exc)
            continue
        if spec is not None:
            return spec
    return None


_STRUCTURAL_COLUMNS = ("system", "device", "sensingdevice", "sensor", "location")


def sanitize_for_graph(d: Dataset) -> Dataset:
    """Statistically clean a working copy before graph construction.

    Structural categorical cells are repaired to the per-sensor modal value;
    rows whose reading falls outside 1.5x IQR for the sensor are dropped from
    the copy (the caller's dataset is never modified, so detection still sees
    the original errors).
    """
    sensor_idx = d.column_index("sensor")
    structural = [
        d.column_index(name)
        for name in _STRUCTURAL_COLUMNS
        if name != "sensor" and d.has_column(name)
    ]
    value_idx = d.column_index("value") if d.has_column("value") else None

    groups: dict[str, list[int]] = {}
    for i, row in enumerate(d.rows):
        if row[sensor_idx].is_missing:
            continue
        groups.setdefault(cell_text(row[sensor_idx]), []).append(i)

    repairs: dict[tuple[int, int], Cell] = {}
    dropped: set[int] = set()
    for sensor in sorted(groups):
        rows = groups[sensor]
        for col in structural:
            counts = Counter(
                d.rows[i][col] for i in rows if not d.rows[i][col].is_missing
            )
            if not counts:
                continue
            mode = modal_value(counts)
            for i in rows:
                if d.rows[i][col] != mode:
                    repairs[(i, col)] = mode
        if value_idx is not None:
            numbers = [
                (i, float(d.rows[i][value_idx].value))
                for i in rows
                if d.rows[i][value_idx].kind is CellKind.NUMBER
            ]
            if len(numbers) >= 4:
                values = sorted(v for _, v in numbers)
                q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
                iqr = q3 - q1
                low, high = q1 - 1.5 * iqr, q3 + 1.5 * iqr
                for i, v in numbers:
                    if not low <= v <= high:
                        dropped.add(i)

    rows_out = []
    for i, row in enumerate(d.rows):
        if i in dropped:
            continue
        if any((i, c) in repairs for c in range(d.n_cols)):
            row = tuple(repairs.get((i, c), row[c]) for c in range(d.n_cols))
        rows_out.append(row)
    return Dataset(d.headers, tuple(rows_out))


def build_iot_graph(
    d: Dataset,
    specs: Mapping[str, SensorSpec] | None = None,
) -> tuple[ContextGraph, list[str]]:
    """Assemble the context graph from a transformed (canonical) IoT table.

    One entity per distinct value of each structural column; edges come from
    row co-occurrence, resolved to the modal pairing with a warning when a
    source entity co-occurs with several targets. Capability metadata is
    attached from the spec map, resolved per sensor with ``lookup_spec``.
    Columns are found by their canonical names. Returns the graph plus
    warnings.
    """
    specs = specs or {}
    warnings: list[str] = []
    graph = ContextGraph()

    col = {
        name: (d.column_index(name) if d.has_column(name) else None)
        for name in _STRUCTURAL_COLUMNS
    }

    def entities(name: str, concept: Concept) -> list[str]:
        idx = col[name]
        if idx is None:
            return []
        values = _distinct_non_missing(d, idx)
        nonlocal graph
        for v in values:
            graph = add_entity(graph, concept, v, {"label": v})
        return values

    entities("system", Concept.SYSTEM)
    entities("device", Concept.DEVICE)
    entities("sensingdevice", Concept.SENSING_DEVICE)
    entities("sensor", Concept.SENSOR)
    entities("location", Concept.LOCATION)

    def modal_edges(src: str, dst: str, predicate: str):
        nonlocal graph
        src_idx, dst_idx = col[src], col[dst]
        if src_idx is None or dst_idx is None:
            return
        pairings: dict[str, dict[str, int]] = {}
        for row in d.rows:
            if row[src_idx].is_missing or row[dst_idx].is_missing:
                continue
            a, b = cell_text(row[src_idx]), cell_text(row[dst_idx])
            pairings.setdefault(a, {})[b] = pairings.setdefault(a, {}).get(b, 0) + 1
        for a in sorted(pairings):
            targets = pairings[a]
            winner = modal_value(targets, key=str)
            if len(targets) > 1:
                warnings.append(
                    f"{predicate}: {a!r} co-occurs with {sorted(targets)}; "
                    f"kept modal pairing {winner!r}"
                )
            graph = add_edge(graph, predicate, a, winner)

    modal_edges("sensor", "sensingdevice", ATTACHED_TO)
    modal_edges("sensingdevice", "device", ATTACHED_TO)
    modal_edges("sensingdevice", "location", DEPLOYED_AT)
    modal_edges("sensingdevice", "device", PART_OF)
    modal_edges("device", "system", PART_OF)

    if col["sensor"] is not None:
        for sensor in _distinct_non_missing(d, col["sensor"]):
            spec = lookup_spec(specs, sensor)
            if spec is not None:
                graph = add_sensor_bounds(graph, sensor, spec)
    return graph, warnings


def pair_relationships(
    headers: Sequence[str],
    backend: Backend,
    templates: Mapping[str, PromptTemplate] | None = None,
) -> list[ColumnPairRelation]:
    """Query all unordered column pairs for relatedness, concepts, hierarchy.

    Two batches: every pair's relatedness, then one concept query per column
    of a related pair plus one hierarchy query per related pair. A backend
    failure drops only the pairs whose answers it affects; the remaining
    pairs' results are kept.
    """
    templates = templates or DEFAULT_TEMPLATES
    pairs = list(combinations(headers, 2))
    related_prompts = [
        render_prompt(templates["pair_related"], {"col_a": a, "col_b": b})
        for a, b in pairs
    ]
    answered: list[tuple[tuple[str, str], bool]] = []
    for (a, b), answer in zip(
        pairs, complete_many(backend, related_prompts, ResponseFormat.YES_NO)
    ):
        if isinstance(answer, GatewayError):
            logger.warning("pair (%s, %s) failed: %s", a, b, answer)
        else:
            answered.append(((a, b), bool(answer.parsed)))

    related = [pair for pair, is_related in answered if is_related]
    columns = list(dict.fromkeys(column for pair in related for column in pair))
    answers = complete_many(
        backend,
        [render_prompt(templates["pair_concept"], {"col": c}) for c in columns]
        + [
            render_prompt(templates["pair_hierarchy"], {"col_a": a, "col_b": b})
            for a, b in related
        ],
        ResponseFormat.SINGLE_LABEL,
    )
    concepts = dict(zip(columns, answers))
    hierarchies = dict(zip(related, answers[len(columns):]))

    relations: list[ColumnPairRelation] = []
    for (a, b), is_related in answered:
        if not is_related:
            relations.append(ColumnPairRelation(a, b, related=False))
            continue
        concept_a, concept_b, answer = concepts[a], concepts[b], hierarchies[(a, b)]
        failed = [x for x in (concept_a, concept_b, answer) if isinstance(x, GatewayError)]
        if failed:
            logger.warning("pair (%s, %s) failed: %s", a, b, failed[0])
            continue
        hierarchy = {
            "A": Hierarchy.ATTRIBUTE_OF_A,
            "B": Hierarchy.ATTRIBUTE_OF_B,
        }.get(str(answer.parsed).strip().upper(), Hierarchy.INDEPENDENT)
        relations.append(
            ColumnPairRelation(
                a, b, related=True,
                concept_a=str(concept_a.parsed), concept_b=str(concept_b.parsed),
                hierarchy=hierarchy,
            )
        )
    return relations


def build_relational_graph(relations: Sequence[ColumnPairRelation]) -> ContextGraph:
    """Column names become attribute concept nodes; hierarchies become
    part-of edges (finer concept -> coarser concept) and independent related
    pairs a generic related-to edge. Cyclic hierarchies are a model error.
    """
    graph = ContextGraph()
    for rel in relations:
        for column, concept in ((rel.column_a, rel.concept_a), (rel.column_b, rel.concept_b)):
            attrs: dict[str, str | float] = {"label": column}
            if rel.related and concept:
                attrs["concept"] = concept
            graph = add_entity(graph, Concept.ATTRIBUTE, column, attrs)
        if not rel.related:
            continue
        if rel.hierarchy is Hierarchy.ATTRIBUTE_OF_A:
            graph = add_edge(graph, PART_OF, rel.column_a, rel.column_b)
        elif rel.hierarchy is Hierarchy.ATTRIBUTE_OF_B:
            graph = add_edge(graph, PART_OF, rel.column_b, rel.column_a)
        else:
            a, b = sorted((rel.column_a, rel.column_b))
            graph = add_edge(graph, RELATED_TO, a, b)
    validate_graph(graph)
    return graph
