"""Dataset-to-context-model workflow for IoT and relational tables.

The IoT path classifies the dataset from its headers, maps columns onto the
meta-model concepts, reshapes the table (sensor splitting, canonical
renaming, synthetic column generation), looks up sensor capabilities, runs a
light statistical clean-up on a working copy, and assembles the context
graph. The relational path extracts pairwise column relationships instead
and builds a hierarchy graph of the columns.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from enum import Enum
from itertools import accumulate, chain, combinations, compress
from operator import add, and_
from typing import Mapping, Sequence

from .context_model import (
    ATTACHED_TO,
    Concept,
    ContextGraph,
    DEPLOYED_AT,
    PART_OF,
    RELATED_TO,
    Triple,
    edge,
    entity,
    sensor_bounds,
)
from .dataset import Column, Dataset, group_modes
from .ensemble import EnsembleConfig, find_consensus
from .errors import GatewayError, SchemaError
from .gateway import (
    Backend,
    PromptTemplate,
    ResponseFormat,
    complete,
    complete_many,
    render_prompt,
)
from .rules import SensorSpec, lookup_spec


class DatasetClass(Enum):
    IOT = "IoT"
    NON_IOT = "NonIoT"


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
_SYNTH_ID_STEMS = {"Device": "device", "SensingDevice": "sensing", "Sensor": "sensor"}

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

#: Asked by no stage, since no rule reads a column's concept; the benchmark's
#: cassette writer (``perfbench/workloads.py``) still imports it.
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
        HIERARCHY_TEMPLATE,
    )
}


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
        answer = complete(
            backend, render_prompt(template, bindings), ResponseFormat.YES_NO
        )
        votes.append({"yes"} if answer else set())
    consensus = find_consensus(votes, config.threshold)
    return DatasetClass.IOT if "yes" in consensus else DatasetClass.NON_IOT


def map_columns(
    headers: Sequence[str], backend: Backend
) -> tuple[dict[str, str], list[str]]:
    """One single-label query per concept role. Returns the column of each
    role that maps to one, plus warnings: hallucinated columns become
    warnings rather than errors."""
    assignments: dict[str, str] = {}
    warnings: list[str] = []
    for role in MAPPING_ROLES:
        prompt = render_prompt(
            MAP_COLUMN_TEMPLATE, {"col_names": ", ".join(headers), "concept": role}
        )
        try:
            label = complete(backend, prompt, ResponseFormat.SINGLE_LABEL)
        except GatewayError as exc:
            warnings.append(f"{role}: {exc}")
            continue
        if label.upper() == "NONE":
            continue
        matches = [h for h in headers if h == label] or [
            h for h in headers if h.lower() == label.lower()
        ]
        if not matches:
            warnings.append(
                f"{role}: model answered unknown column {label!r}"
            )
        elif matches[0] in assignments.values():
            warnings.append(
                f"{role}: column {matches[0]!r} already mapped to another concept"
            )
        else:
            assignments[role] = matches[0]
    return assignments, warnings


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
    indices = [d.column_index(column) for column, _ in value_columns]
    carried = [i for i in range(d.n_cols) if i not in indices]
    k = len(indices)
    # Output row r * k + j holds input row r's reading from the j-th value
    # column: the value columns' dictionaries are concatenated, their codes
    # shifted to match and interleaved.
    sources = [d.columns[i] for i in indices]
    starts = accumulate((len(c.payloads) for c in sources), initial=0)
    shifted = [map(start.__add__, c.codes) for start, c in zip(starts, sources)]
    readings = [payload for c in sources for payload in c.payloads]
    columns = [
        Column.merged([label for _, label in value_columns], list(range(k)) * d.n_rows),
        Column.merged(readings, chain.from_iterable(zip(*shifted))),
    ]
    for i in carried:
        codes = d.columns[i].codes
        columns.append(Column(d.columns[i].payloads, chain.from_iterable(zip(*[codes] * k))))
    headers = ["sensor", "value"] + [d.headers[i] for i in carried]
    return Dataset.from_columns(headers, columns, d.n_rows * k)


def rename_columns(d: Dataset, assignments: Mapping[str, str]) -> Dataset:
    """Rewrite the headers of assigned roles (role -> column) to the
    canonical schema; data untouched."""
    renames = {
        column: CANONICAL_NAMES[role]
        for role, column in assignments.items()
        if column.lower() != CANONICAL_NAMES[role].lower()
    }
    new_headers = [renames.get(h, h) for h in d.headers]
    collisions = {h for h in new_headers if new_headers.count(h) > 1}
    if collisions:
        raise SchemaError(f"rename collision on {sorted(collisions)}")
    return Dataset.from_columns(new_headers, d.columns, d.n_rows)


def _distinct_non_missing(column: Column) -> list[str]:
    return sorted({t for p, t in zip(column.payloads, column.texts) if p is not None})


def generate_columns(d: Dataset) -> tuple[Dataset, list[str]]:
    """Append synthetic columns for synthesizable missing concepts.

    ``d`` is the renamed table, so a concept is missing when no header folds
    onto its canonical name. The system column holds ``system_1``; device,
    sensing-device and sensor ids are derived one per distinct location
    (``device_1``, ``device_2``, ... in sorted location order, ``_0`` for a
    missing location, ``_1`` on every row when the table has no location
    column). Returns the widened dataset plus the concepts that could not be
    synthesized. Existing columns are never removed or reordered.
    """
    present = {h.lower() for h in d.headers}
    missing = [role for role in MAPPING_ROLES if CANONICAL_NAMES[role].lower() not in present]
    to_add = [role for role in missing if role in SYNTHESIZABLE]
    excluded = [role for role in missing if role not in SYNTHESIZABLE]
    if not to_add:
        return d, excluded

    if d.has_column("location"):
        location = d.columns[d.column_index("location")]
        index = {loc: k + 1 for k, loc in enumerate(_distinct_non_missing(location))}
        # The slot of each distinct location value, and each row's value.
        slots = [
            0 if p is None else index[text] for p, text in zip(location.payloads, location.texts)
        ]
        slot_codes = location.codes
    else:
        slots, slot_codes = [1], [0] * d.n_rows

    added = []
    for concept in to_add:
        if concept == "System":
            added.append(Column.merged([SYNTH_SYSTEM_ID], [0] * d.n_rows))
        else:
            stem = _SYNTH_ID_STEMS[concept]
            added.append(Column.merged([f"{stem}_{k}" for k in slots], slot_codes))
    headers = d.headers + tuple(CANONICAL_NAMES[c] for c in to_add)
    return Dataset.from_columns(headers, d.columns + tuple(added), d.n_rows), excluded


_STRUCTURAL_COLUMNS = ("system", "device", "sensingdevice", "sensor", "location")


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """First and third quartiles of sorted ``values`` (at least two).

    The same interpolation, term for term, as ``statistics.quantiles(values,
    n=4, method="inclusive")``, whose import (with ``fractions`` and
    ``decimal``) would cost more than the graph build it serves.
    """
    m = len(values) - 1
    j, dj = divmod(m, 4)
    k, dk = divmod(3 * m, 4)
    return (
        (values[j] * (4 - dj) + values[j + 1] * dj) / 4,
        (values[k] * (4 - dk) + values[k + 1] * dk) / 4,
    )


def sanitize_for_graph(d: Dataset) -> Dataset:
    """Statistically clean a working copy before graph construction.

    Structural categorical cells are repaired to the per-sensor modal value;
    rows whose reading falls outside 1.5x IQR for the sensor are dropped from
    the copy (the caller's dataset is never modified, so detection still sees
    the original errors).
    """
    sensor = d.columns[d.column_index("sensor")]
    columns = list(d.columns)
    for name in _STRUCTURAL_COLUMNS:
        if name == "sensor" or not d.has_column(name):
            continue
        idx = d.column_index(name)
        column = d.columns[idx]
        modes = group_modes(sensor, column)
        repairs = {
            i: column.payloads[modes[s]]
            for i, (s, c) in enumerate(zip(sensor.codes, column.codes))
            if s in modes and c != modes[s]
        }
        if repairs:
            columns[idx] = column.replaced(repairs)

    dropped: set[int] = set()
    if d.has_column("value"):
        value = d.columns[d.column_index("value")]
        readings = [p if type(p) is float else None for p in value.payloads]
        groups: dict[int, list[tuple[int, float]]] = defaultdict(list)
        for i, (s, v) in enumerate(zip(sensor.codes, value.codes)):
            if s != sensor.missing_code and readings[v] is not None:
                groups[s].append((i, readings[v]))
        for numbers in groups.values():
            if len(numbers) >= 4:
                values = sorted(v for _, v in numbers)
                q1, q3 = quartiles(values)
                iqr = q3 - q1
                low, high = q1 - 1.5 * iqr, q3 + 1.5 * iqr
                dropped.update(i for i, v in numbers if not low <= v <= high)

    if dropped:
        kept = [i for i in range(d.n_rows) if i not in dropped]
        columns = [Column.merged(c.payloads, map(c.codes.__getitem__, kept)) for c in columns]
    return Dataset.from_columns(d.headers, columns, d.n_rows - len(dropped))


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
    triples: set[Triple] = set()

    col = {
        name: (d.columns[d.column_index(name)] if d.has_column(name) else None)
        for name in _STRUCTURAL_COLUMNS
    }

    for role, concept in _ROLE_CONCEPTS.items():
        column = col[role.lower()]
        for v in _distinct_non_missing(column) if column is not None else ():
            triples.update(entity(concept, v))

    for src_name, dst_name, predicate in (
        ("sensor", "sensingdevice", ATTACHED_TO),
        ("sensingdevice", "device", ATTACHED_TO),
        ("sensingdevice", "location", DEPLOYED_AT),
        ("sensingdevice", "device", PART_OF),
        ("device", "system", PART_OF),
    ):
        src, dst = col[src_name], col[dst_name]
        if src is None or dst is None:
            continue
        pairs = Counter(zip(src.codes, dst.codes))
        modes = group_modes(src, dst, pairs)
        targets: dict[int, set[str]] = defaultdict(set)
        for a, b in pairs:
            if a in modes and b != dst.missing_code:
                targets[a].add(dst.texts[b])
        for a in sorted(modes, key=src.texts.__getitem__):
            source, winner = src.texts[a], dst.texts[modes[a]]
            if len(targets[a]) > 1:
                warnings.append(
                    f"{predicate}: {source!r} co-occurs with {sorted(targets[a])}; "
                    f"kept modal pairing {winner!r}"
                )
            triples.add(edge(predicate, source, winner))

    if col["sensor"] is not None:
        for sensor in _distinct_non_missing(col["sensor"]):
            spec = lookup_spec(specs, sensor)
            if spec is not None:
                triples.update(sensor_bounds(sensor, spec))
    return ContextGraph(frozenset(triples)), warnings


#: A column pair is refuted, and the model is not asked about it, when the
#: table's g3 error is above this in both directions: for X -> Y, g3 is the
#: share of the rows with both cells present that would have to go for X to
#: determine Y (Kivinen & Mannila 1995; the partition test of TANE). Where
#: it is at most this in one direction only, that direction is the pair's
#: hierarchy.
FD_ERROR = 0.05

#: Whether ``a`` is the finer column of a related pair ``(a, b)`` for each
#: hierarchy answer (``b`` is an attribute of ``a``); None where they are
#: independent concepts.
_A_IS_FINER = {"A": True, "B": False, "NONE": None}


def _pair_edge(a: str, b: str, a_is_finer: bool | None) -> Triple:
    """A part-of edge from the finer column to the coarser one, or a
    related-to edge of the sorted pair when neither is finer."""
    if a_is_finer is None:
        return edge(RELATED_TO, *sorted((a, b)))
    return edge(PART_OF, a, b) if a_is_finer else edge(PART_OF, b, a)


def _present(column: Column) -> list[bool] | None:
    """Whether each row's cell is present; None when every cell is."""
    missing = column.missing_code
    return None if missing is None else list(map(missing.__ne__, column.codes))


def _directions(keys: list[int], width: int, n_values: tuple[int, int] | None) -> tuple[bool, bool]:
    """Whether ``a -> b`` and ``b -> a`` hold within FD_ERROR on the rows
    keyed ``a_code * width + b_code``.

    ``n_values`` are the two columns' distinct counts when every row is
    kept; None counts them from the keys. Both directions hold on no rows.
    """
    n = len(keys)
    if not n:
        return True, True
    distinct = set(keys)
    sides = (width.__rfloordiv__, width.__rmod__)  # key -> a code, key -> b code
    if n_values is None:
        n_values = tuple(len(set(map(side, distinct))) for side in sides)
    counts: Counter[int] | None = None
    holds = []
    for n_det, det in zip(n_values, sides):
        # Each determinant value keeps one dependent, so every distinct pair
        # beyond one per determinant value costs at least one removed row: a
        # lower bound on the removed rows that needs no counting, and exact
        # when it is 0.
        bound = len(distinct) - n_det
        if bound == 0 or bound / n > FD_ERROR:
            holds.append(bound == 0)
            continue
        counts = counts or Counter(keys)
        modal: dict[int, int] = defaultdict(int)  # rows of each determinant value's mode
        for key, k in counts.items():
            value = det(key)
            if k > modal[value]:
                modal[value] = k
        holds.append((n - sum(modal.values())) / n <= FD_ERROR)
    return holds[0], holds[1]


def candidate_pairs(d: Dataset) -> dict[tuple[str, str], tuple[bool, bool]]:
    """The column pairs ``(a, b)`` the table does not refute, in
    ``combinations`` order, each with whether ``a -> b`` and ``b -> a`` hold.

    A direction holds when its g3 error, over the rows where both cells are
    present, is at most FD_ERROR; both hold on a pair with no such row.
    """
    width = max((len(c.payloads) for c in d.columns), default=0)
    present = [_present(column) for column in d.columns]
    # Lists, not the columns' arrays: each pair reads a column's codes
    # again, and reading an array makes a new int for each code above 256.
    codes = [column.codes.tolist() for column in d.columns]
    kept = {}
    for i, a in enumerate(d.columns[:-1]):
        # The keys of one determinant column at a time: every column's at
        # once would hold n_cols lists of n_rows ints.
        scaled = list(map(width.__mul__, codes[i]))
        for j in range(i + 1, d.n_cols):
            b = d.columns[j]
            keys = map(add, scaled, codes[j])
            p, q = present[i], present[j]
            if p is None and q is None:
                holds = _directions(list(keys), width, (len(a.payloads), len(b.payloads)))
            else:
                both = q if p is None else p if q is None else map(and_, p, q)
                holds = _directions(list(compress(keys, both)), width, None)
            if any(holds):
                kept[d.headers[i], d.headers[j]] = holds
    return kept


def pair_relationships(
    d: Dataset, backend: Backend
) -> tuple[dict[tuple[str, str], Triple | None], list[str], dict[str, int]]:
    """The edge, if any, of every unordered column pair.

    The data is profiled first: a pair the table refutes (see ``FD_ERROR``)
    is returned unrelated without a prompt. Then two batches: relatedness of
    each remaining pair, then one hierarchy query per related pair the data
    cannot order (where only one direction holds, that is the hierarchy). A
    pair is dropped, with a warning, only when its relatedness answer fails,
    or its hierarchy answer where one was asked (an answer other than A, B
    or NONE fails too); the other pairs are kept. Returns each kept pair's
    edge (see ``_pair_edge``), None for an unrelated pair, in
    ``combinations`` order of the headers; the warnings; and the counts of
    column pairs, pairs asked, related pairs and hierarchies asked.
    """
    pairs = list(combinations(d.headers, 2))
    profile = candidate_pairs(d)
    edges: dict[tuple[str, str], Triple | None] = dict.fromkeys(pairs)  # refuted ones unrelated
    warnings: list[str] = []
    related_prompts = [
        render_prompt(RELATED_TEMPLATE, {"col_a": a, "col_b": b})
        for a, b in profile
    ]
    related = []
    for (a, b), answer in zip(
        profile, complete_many(backend, related_prompts, ResponseFormat.YES_NO)
    ):
        if isinstance(answer, GatewayError):
            warnings.append(f"pair ({a}, {b}) failed: {answer}")
            del edges[a, b]
        elif answer:
            related.append((a, b))

    unordered = []
    for a, b in related:
        a_to_b, b_to_a = profile[a, b]
        if a_to_b == b_to_a:  # both hold: the model orders the pair
            unordered.append((a, b))
        else:
            edges[a, b] = _pair_edge(a, b, a_to_b)
    counts = {
        "pairs": len(pairs),
        "asked": len(profile),
        "related": len(related),
        "hierarchies_asked": len(unordered),
    }
    answers = complete_many(
        backend,
        [render_prompt(HIERARCHY_TEMPLATE, {"col_a": a, "col_b": b}) for a, b in unordered],
        ResponseFormat.SINGLE_LABEL,
    )
    for (a, b), answer in zip(unordered, answers):
        if isinstance(answer, str) and answer.upper() in _A_IS_FINER:
            edges[a, b] = _pair_edge(a, b, _A_IS_FINER[answer.upper()])
            continue
        if not isinstance(answer, GatewayError):
            answer = f"expected A, B or NONE, got {answer!r}"
        warnings.append(f"pair ({a}, {b}) failed: {answer}")
        del edges[a, b]
    return edges, warnings, counts


def build_relational_graph(edges: Mapping[tuple[str, str], Triple | None]) -> ContextGraph:
    """Each column of a pair becomes an attribute node labelled with its
    name, and the pair's edge, if any, joins them. The graph is not
    validated here: ``context_model.extract_ofds`` does that, and reports a
    cyclic hierarchy as a model error.
    """
    triples: set[Triple] = set()
    for (a, b), link in edges.items():
        triples.update(entity(Concept.ATTRIBUTE, a))
        triples.update(entity(Concept.ATTRIBUTE, b))
        if link is not None:
            triples.add(link)
    return ContextGraph(frozenset(triples))
