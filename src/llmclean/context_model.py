"""Triple-based context graph and extraction of dependency rules from it.

The graph instantiates a fixed meta-model of systems, devices, sensing
devices, sensors, locations and metadata. Edges use a small closed predicate
vocabulary; entity attributes are ``llmc:``-prefixed literal triples. The
serialized form is an N-Triples-style line format, sorted for deterministic
output.

Prefixes used throughout (documented in the README):
``rdf:`` ``ssn:`` ``iot-lite:`` ``iot-context:`` ``llmc:``
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping

from .errors import GraphParseError, ModelError
from .rules import (
    ColumnRef,
    DependencyKind,
    Literal,
    OfdRule,
    Predicate,
    SensorSpec,
)


class Concept(Enum):
    SYSTEM = "System"
    DEVICE = "Device"
    SENSING_DEVICE = "SensingDevice"
    SENSOR = "Sensor"
    ACTUATING_DEVICE = "ActuatingDevice"
    LOCATION = "Location"
    ATTRIBUTE = "Attribute"
    MEASUREMENT = "Measurement"
    METADATA = "Metadata"


CONCEPT_IRIS: dict[Concept, str] = {
    Concept.SYSTEM: "ssn:System",
    Concept.DEVICE: "ssn:Device",
    Concept.SENSING_DEVICE: "ssn:SensingDevice",
    Concept.SENSOR: "ssn:Sensor",
    Concept.ACTUATING_DEVICE: "ssn:ActuatingDevice",
    Concept.LOCATION: "iot-lite:Location",
    Concept.ATTRIBUTE: "iot-lite:Attribute",
    Concept.MEASUREMENT: "iot-context:Measurement",
    Concept.METADATA: "iot-lite:Metadata",
}
_IRI_CONCEPTS = {iri: c for c, iri in CONCEPT_IRIS.items()}

RDF_TYPE = "rdf:type"
ATTACHED_TO = "llmc:attachedTo"
DEPLOYED_AT = "llmc:deployedAt"
FORWARDS_TO = "llmc:forwardsTo"
HAS_METADATA = "llmc:hasMetadata"
META_TYPE = "llmc:metaType"
META_VALUE = "llmc:metaValue"
PART_OF = "llmc:partOf"
LABEL = "llmc:label"
MONITORED_BY = "llmc:monitoredBy"
RELATED_TO = "llmc:relatedTo"
MATCHES_WITH = "llmc:matchesWith"
MATCH_THRESHOLD = "llmc:matchThreshold"

EDGE_PREDICATES = frozenset(
    {ATTACHED_TO, DEPLOYED_AT, FORWARDS_TO, HAS_METADATA, PART_OF,
     MONITORED_BY, RELATED_TO, MATCHES_WITH}
)
_ATTR_PRED_RE = re.compile(r"llmc:[A-Za-z_][A-Za-z0-9_]*$")

PREFIXES: Mapping[str, str] = {
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "ssn": "http://www.w3.org/ns/ssn/",
    "iot-lite": "http://purl.oclc.org/NET/UNIS/fiware/iot-lite#",
    "iot-context": "urn:llmclean:iot-context#",
    "llmc": "urn:llmclean:ctx#",
    "xsd": "http://www.w3.org/2001/XMLSchema#",
}


class ObjKind(Enum):
    IRI = "iri"
    TEXT = "text"
    NUMBER = "number"


@dataclass(frozen=True, slots=True)
class Triple:
    subject: str
    predicate: str
    obj: str | float
    obj_kind: ObjKind = ObjKind.IRI

    def __post_init__(self):
        if not self.subject or not self.predicate:
            raise ValueError("triple subject/predicate must be non-empty")
        if self.predicate != RDF_TYPE and not _ATTR_PRED_RE.fullmatch(self.predicate):
            raise ValueError(f"predicate {self.predicate!r} outside the vocabulary")


@dataclass(frozen=True)
class ContextGraph:
    triples: frozenset[Triple] = frozenset()
    prefixes: Mapping[str, str] = field(default_factory=lambda: PREFIXES, compare=False)

    def with_triples(self, new: Iterable[Triple]) -> "ContextGraph":
        return ContextGraph(self.triples | frozenset(new), self.prefixes)

    @cached_property
    def _by_subject_predicate(self) -> dict[tuple[str, str], list[Triple]]:
        index: dict[tuple[str, str], list[Triple]] = defaultdict(list)
        for t in self.triples:
            index[t.subject, t.predicate].append(t)
        for found in index.values():
            found.sort(key=lambda t: str(t.obj))
        return index

    def objects(self, subject: str, predicate: str) -> list[Triple]:
        return list(self._by_subject_predicate.get((subject, predicate), ()))

    def by_predicate(self, predicate: str) -> list[Triple]:
        return sorted(
            (t for t in self.triples if t.predicate == predicate),
            key=lambda t: (t.subject, str(t.obj)),
        )


_SLUG_RE = re.compile(r"[^A-Za-z0-9_.-]+")


def slug(value: str) -> str:
    cleaned = _SLUG_RE.sub("_", value.strip())
    return cleaned or "_"


def node_id(entity_id: str) -> str:
    return f"llmc:{slug(entity_id)}"


def add_entity(
    g: ContextGraph,
    concept: Concept,
    entity_id: str,
    attrs: Mapping[str, str | float] | None = None,
) -> ContextGraph:
    """Add a typed entity plus one literal triple per attribute. Idempotent."""
    if not entity_id:
        raise ValueError("entity id must be non-empty")
    node = node_id(entity_id)
    triples = [Triple(node, RDF_TYPE, CONCEPT_IRIS[concept])]
    for name, value in (attrs or {}).items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            triples.append(Triple(node, f"llmc:{name}", float(value), ObjKind.NUMBER))
        else:
            triples.append(Triple(node, f"llmc:{name}", str(value), ObjKind.TEXT))
    return g.with_triples(triples)


def add_edge(g: ContextGraph, predicate: str, from_id: str, to_id: str) -> ContextGraph:
    if predicate not in EDGE_PREDICATES:
        raise ValueError(f"not an edge predicate: {predicate!r}")
    return g.with_triples([Triple(node_id(from_id), predicate, node_id(to_id))])


def add_sensor_bounds(g: ContextGraph, sensor_id: str, spec: SensorSpec) -> ContextGraph:
    """Attach min/max capability metadata nodes to a sensor."""
    sensor = node_id(sensor_id)
    triples: list[Triple] = []
    for suffix, meta_type, value in (
        ("min", "MinValue", spec.min_value),
        ("max", "MaxValue", spec.max_value),
    ):
        meta = f"{sensor}_{suffix}"
        triples += [
            Triple(sensor, HAS_METADATA, meta),
            Triple(meta, RDF_TYPE, CONCEPT_IRIS[Concept.METADATA]),
            Triple(meta, META_TYPE, meta_type, ObjKind.TEXT),
            Triple(meta, META_VALUE, float(value), ObjKind.NUMBER),
        ]
        if spec.unit:
            triples.append(Triple(meta, "llmc:unit", spec.unit, ObjKind.TEXT))
    return g.with_triples(triples)


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _unescape(text: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            out.append({"n": "\n"}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _render_object(t: Triple) -> str:
    if t.obj_kind is ObjKind.IRI:
        return str(t.obj)
    if t.obj_kind is ObjKind.TEXT:
        return f'"{_escape(str(t.obj))}"'
    return f'"{repr(float(t.obj))}"^^xsd:double'


def serialize(g: ContextGraph) -> str:
    """Deterministic N-Triples-style text: one sorted line per triple."""
    lines = sorted(
        f"{t.subject} {t.predicate} {_render_object(t)} ." for t in g.triples
    )
    return "\n".join(lines) + ("\n" if lines else "")


_NUM_SUFFIX = "^^xsd:double"


def _parse_object(text: str, line_no: int) -> tuple[str | float, ObjKind]:
    if text.startswith('"'):
        end = 1
        while end < len(text):
            if text[end] == "\\":
                end += 2
                continue
            if text[end] == '"':
                break
            end += 1
        else:
            raise GraphParseError("unterminated literal", line_no)
        body = _unescape(text[1:end])
        rest = text[end + 1:]
        if rest == _NUM_SUFFIX:
            try:
                return float(body), ObjKind.NUMBER
            except ValueError:
                raise GraphParseError(f"bad number literal {body!r}", line_no) from None
        if rest:
            raise GraphParseError(f"unexpected literal suffix {rest!r}", line_no)
        return body, ObjKind.TEXT
    if " " in text or not text:
        raise GraphParseError(f"malformed object {text!r}", line_no)
    return text, ObjKind.IRI


def deserialize(text: str) -> ContextGraph:
    triples: set[Triple] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if not line.endswith(" ."):
            raise GraphParseError("line must end with ' .'", line_no)
        body = line[:-2]
        parts = body.split(" ", 2)
        if len(parts) != 3:
            raise GraphParseError("expected subject predicate object", line_no)
        subject, predicate, obj_text = parts
        obj, kind = _parse_object(obj_text, line_no)
        try:
            triples.add(Triple(subject, predicate, obj, kind))
        except ValueError as exc:
            raise GraphParseError(str(exc), line_no) from None
    return ContextGraph(frozenset(triples))


def _node_types(g: ContextGraph) -> dict[str, Concept]:
    types: dict[str, Concept] = {}
    for t in g.triples:
        if t.predicate == RDF_TYPE:
            concept = _IRI_CONCEPTS.get(str(t.obj))
            if concept is None:
                raise ModelError(f"unknown concept in triple: {t}")
            types[t.subject] = concept
    return types


def node_label(g: ContextGraph, node: str) -> str:
    labels = [str(t.obj) for t in g.objects(node, LABEL) if t.obj_kind is ObjKind.TEXT]
    return min(labels) if labels else node.split(":", 1)[-1]


_EDGE_SIGNATURES: dict[str, tuple[frozenset[Concept], frozenset[Concept]]] = {
    DEPLOYED_AT: (
        frozenset({Concept.SENSING_DEVICE}),
        frozenset({Concept.LOCATION}),
    ),
    FORWARDS_TO: (frozenset({Concept.DEVICE}), frozenset({Concept.DEVICE})),
    HAS_METADATA: (frozenset({Concept.SENSOR}), frozenset({Concept.METADATA})),
}


def validate_graph(g: ContextGraph) -> None:
    """Check the meta-model invariants; raises ModelError naming the triple."""
    types = _node_types(g)
    for t in g.triples:
        if t.predicate == RDF_TYPE:
            continue
        if t.predicate in EDGE_PREDICATES:
            if t.obj_kind is not ObjKind.IRI:
                raise ModelError(f"edge object must be a node: {t}")
            for node in (t.subject, str(t.obj)):
                if node not in types:
                    raise ModelError(f"untyped entity {node!r} in triple: {t}")
            if t.predicate == ATTACHED_TO:
                src = types[t.subject]
                dst = types[str(t.obj)]
                ok = (src is Concept.SENSOR and dst is Concept.SENSING_DEVICE) or (
                    src is Concept.SENSING_DEVICE and dst is Concept.DEVICE
                )
                if not ok:
                    raise ModelError(f"attachedTo must go Sensor->SensingDevice->Device: {t}")
            elif t.predicate in _EDGE_SIGNATURES:
                src_ok, dst_ok = _EDGE_SIGNATURES[t.predicate]
                if types[t.subject] not in src_ok or types[str(t.obj)] not in dst_ok:
                    raise ModelError(f"edge endpoints have wrong concepts: {t}")
        elif t.predicate == MATCH_THRESHOLD:
            if t.obj_kind is not ObjKind.NUMBER or not 0.0 <= float(t.obj) <= 1.0:
                raise ModelError(f"match threshold must be a ratio in [0,1]: {t}")
        elif t.subject not in types:
            raise ModelError(f"attribute on untyped entity: {t}")
    _check_part_of_cycles(g)


def _check_part_of_cycles(g: ContextGraph) -> None:
    edges: dict[str, list[str]] = {}
    for t in g.by_predicate(PART_OF):
        edges.setdefault(t.subject, []).append(str(t.obj))
    visiting: set[str] = set()
    done: set[str] = set()

    def visit(node: str, path: list[str]):
        if node in done:
            return
        if node in visiting:
            cycle = path[path.index(node):] + [node]
            names = " -> ".join(node_label(g, n) for n in cycle)
            raise ModelError(f"cyclic partOf chain: {names}")
        visiting.add(node)
        for target in edges.get(node, []):
            visit(target, path + [node])
        visiting.discard(node)
        done.add(node)

    for start in sorted(edges):
        visit(start, [])


def _fd_rule(
    kind: DependencyKind, det_col: str, dep_col: str, rule_id: str,
    mapping: dict[str, str] | None = None,
) -> OfdRule:
    preds = (
        Predicate("EQ", ColumnRef("t1", det_col), ColumnRef("t2", det_col)),
        Predicate("IQ", ColumnRef("t1", dep_col), ColumnRef("t2", dep_col)),
    )
    return OfdRule(kind, ("t1", "t2"), preds, id=rule_id, mapping=mapping)


def _capability_rule(sensor_label: str, spec: SensorSpec) -> OfdRule:
    pred = Predicate("EQ", ColumnRef("t1", "sensor"), Literal(sensor_label))
    return OfdRule(
        DependencyKind.CAPABILITY, ("t1",), (pred,),
        id=f"capability:{sensor_label}", spec=spec,
    )


def _matching_rule(col_a: str, col_b: str, threshold: float) -> OfdRule:
    preds = (
        Predicate("SIM", ColumnRef("t1", col_a), ColumnRef("t2", col_a), threshold),
        Predicate("SIM", ColumnRef("t1", col_b), ColumnRef("t2", col_b), threshold),
    )
    return OfdRule(
        DependencyKind.MATCHING, ("t1", "t2"), preds, id=f"matching:{col_a}->{col_b}"
    )


def _temporal_rule(from_label: str, to_label: str) -> OfdRule:
    preds = (
        Predicate("EQ", ColumnRef("t1", "Device"), Literal(from_label)),
        Predicate("EQ", ColumnRef("t2", "Device"), Literal(to_label)),
    )
    return OfdRule(
        DependencyKind.TEMPORAL, ("t1", "t2"), preds,
        id=f"temporal:{from_label}->{to_label}",
    )


def extract_ofds(g: ContextGraph) -> list[OfdRule]:
    """Derive enforceable rules from every modeled edge class.

    Emits, in order: one device-link rule per sensor->sensing-device->device
    chain, one locality rule per deployment edge, one capability rule per
    sensor carrying min/max metadata, one denial FD per hierarchy pair
    (concept pair for typed entities, column pair for attribute nodes), one
    matching rule per annotated similarity relation, and one temporal rule
    per forwarding edge. Monitoring edges are representable but yield no
    rule, since no check is defined for them.
    """
    validate_graph(g)
    types = _node_types(g)
    rules: list[OfdRule] = []

    # Device-link chains: sensor -> sensing device -> device.
    attached = g.by_predicate(ATTACHED_TO)
    sd_to_device = {
        t.subject: str(t.obj)
        for t in attached
        if types[t.subject] is Concept.SENSING_DEVICE
    }
    chains: list[tuple[str, str]] = []
    for t in attached:
        if types[t.subject] is Concept.SENSOR:
            device = sd_to_device.get(str(t.obj))
            if device is not None:
                chains.append((t.subject, device))
    for sensor, device in sorted(set(chains)):
        sensor_label = node_label(g, sensor)
        rules.append(
            _fd_rule(
                DependencyKind.DEVICE_LINK, "Sensor", "Device",
                rule_id=f"device_link:{sensor_label}",
                mapping={sensor_label: node_label(g, device)},
            )
        )

    # Locality: sensing device -> location.
    for t in g.by_predicate(DEPLOYED_AT):
        sd_label = node_label(g, t.subject)
        rules.append(
            _fd_rule(
                DependencyKind.LOCALITY, "SensingDevice", "Location",
                rule_id=f"locality:{sd_label}",
                mapping={sd_label: node_label(g, str(t.obj))},
            )
        )

    # Capability: sensors with both min and max metadata.
    bounds: dict[str, dict[str, float]] = {}
    units: dict[str, str] = {}
    for t in g.by_predicate(HAS_METADATA):
        meta = str(t.obj)
        meta_types = [str(x.obj) for x in g.objects(meta, META_TYPE)]
        meta_values = [float(x.obj) for x in g.objects(meta, META_VALUE)]
        if not meta_types or not meta_values:
            continue
        bounds.setdefault(t.subject, {})[meta_types[0]] = meta_values[0]
        unit_attrs = g.objects(meta, "llmc:unit")
        if unit_attrs:
            units[t.subject] = str(unit_attrs[0].obj)
    for sensor in sorted(bounds):
        have = bounds[sensor]
        if "MinValue" in have and "MaxValue" in have:
            label = node_label(g, sensor)
            spec = SensorSpec(label, have["MinValue"], have["MaxValue"], units.get(sensor, ""))
            rules.append(_capability_rule(label, spec))

    # Denial FDs from hierarchy (partOf) edges.
    concept_pairs: set[tuple[str, str]] = set()
    column_pairs: set[tuple[str, str]] = set()
    for t in g.by_predicate(PART_OF):
        src_t, dst_t = types[t.subject], types[str(t.obj)]
        if src_t is Concept.ATTRIBUTE and dst_t is Concept.ATTRIBUTE:
            column_pairs.add((node_label(g, t.subject), node_label(g, str(t.obj))))
        else:
            concept_pairs.add((src_t.value, dst_t.value))
    for det, dep in sorted(concept_pairs | column_pairs):
        rules.append(
            _fd_rule(DependencyKind.DENIAL, det, dep, rule_id=f"denial:{det}->{dep}")
        )

    # Matching rules from annotated similarity relations.
    thresholds = {
        t.subject: float(t.obj) for t in g.by_predicate(MATCH_THRESHOLD)
    }
    for t in g.by_predicate(MATCHES_WITH):
        col_a = node_label(g, t.subject)
        col_b = node_label(g, str(t.obj))
        rules.append(_matching_rule(col_a, col_b, thresholds.get(t.subject, 0.75)))

    # Temporal rules from forwarding edges.
    for t in g.by_predicate(FORWARDS_TO):
        rules.append(_temporal_rule(node_label(g, t.subject), node_label(g, str(t.obj))))

    return rules
