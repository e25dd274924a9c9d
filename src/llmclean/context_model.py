"""Triple-based context graph and extraction of dependency rules from it.

The graph instantiates a fixed meta-model of systems, devices, sensing
devices, sensors, locations and metadata. Edges use a small closed predicate
vocabulary; entity attributes are ``llmc:``-prefixed literal triples. The
serialized form is an N-Triples-style line format, sorted for deterministic
output.

A graph is an immutable value built once: ``entity``, ``edge`` and
``sensor_bounds`` return triples that a builder collects into one
``ContextGraph``. ``validate_graph`` checks edges against one table of allowed
(source, target) concepts and finds ``partOf`` cycles with the iterative
topological sort of ``graphlib``, so chains of any depth are accepted.

Prefixes used throughout (documented in the README):
``rdf:`` ``ssn:`` ``iot-lite:`` ``llmc:``
"""

from __future__ import annotations

import re
from collections import defaultdict
from enum import Enum
from functools import cached_property
from graphlib import CycleError, TopologicalSorter

from .errors import GraphParseError, ModelError
from .frozen import Frozen, set_field
from .rules import (
    ColumnRef,
    DependencyKind,
    Literal,
    OfdRule,
    Predicate,
    SensorSpec,
    closing_quote,
    escape_literal,
    unescape_literal,
)


class Concept(Enum):
    SYSTEM = "System"
    DEVICE = "Device"
    SENSING_DEVICE = "SensingDevice"
    SENSOR = "Sensor"
    LOCATION = "Location"
    ATTRIBUTE = "Attribute"
    METADATA = "Metadata"


CONCEPT_IRIS: dict[Concept, str] = {
    Concept.SYSTEM: "ssn:System",
    Concept.DEVICE: "ssn:Device",
    Concept.SENSING_DEVICE: "ssn:SensingDevice",
    Concept.SENSOR: "ssn:Sensor",
    Concept.LOCATION: "iot-lite:Location",
    Concept.ATTRIBUTE: "iot-lite:Attribute",
    Concept.METADATA: "iot-lite:Metadata",
}
_IRI_CONCEPTS = {iri: c for c, iri in CONCEPT_IRIS.items()}

RDF_TYPE = "rdf:type"
ATTACHED_TO = "llmc:attachedTo"
DEPLOYED_AT = "llmc:deployedAt"
HAS_METADATA = "llmc:hasMetadata"
META_TYPE = "llmc:metaType"
META_VALUE = "llmc:metaValue"
PART_OF = "llmc:partOf"
LABEL = "llmc:label"
# No stage emits the next three, but a hand-written graph may: extract_ofds
# turns them into the temporal and matching rules that the kernels enforce.
FORWARDS_TO = "llmc:forwardsTo"
MATCHES_WITH = "llmc:matchesWith"
MATCH_THRESHOLD = "llmc:matchThreshold"
# Yields no rule: it records a related column pair that has no hierarchy.
RELATED_TO = "llmc:relatedTo"

EDGE_PREDICATES = frozenset(
    {ATTACHED_TO, DEPLOYED_AT, FORWARDS_TO, HAS_METADATA, PART_OF, RELATED_TO, MATCHES_WITH}
)
_ATTR_PRED_RE = re.compile(r"llmc:[A-Za-z_][A-Za-z0-9_]*$")


class ObjKind(Enum):
    IRI = "iri"
    TEXT = "text"
    NUMBER = "number"


class Triple(Frozen):
    __slots__ = _fields = ("subject", "predicate", "obj", "obj_kind")

    def __init__(
        self, subject: str, predicate: str, obj: str | float, obj_kind: ObjKind = ObjKind.IRI
    ):
        if not subject or not predicate:
            raise ValueError("triple subject/predicate must be non-empty")
        if predicate != RDF_TYPE and not _ATTR_PRED_RE.fullmatch(predicate):
            raise ValueError(f"predicate {predicate!r} outside the vocabulary")
        set_field(self, "subject", subject)
        set_field(self, "predicate", predicate)
        set_field(self, "obj", obj)
        set_field(self, "obj_kind", obj_kind)


class ContextGraph(Frozen):
    # No __slots__: the indexes below are cached in the instance's __dict__.
    _fields = ("triples",)

    def __init__(self, triples: frozenset[Triple] = frozenset()):
        set_field(self, "triples", triples)

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


def entity(concept: Concept, label: str) -> list[Triple]:
    """A typed entity's triples: its type and its label, the value it stands for."""
    if not label:
        raise ValueError("entity label must be non-empty")
    node = node_id(label)
    return [
        Triple(node, RDF_TYPE, CONCEPT_IRIS[concept]),
        Triple(node, LABEL, label, ObjKind.TEXT),
    ]


def edge(predicate: str, from_id: str, to_id: str) -> Triple:
    if predicate not in EDGE_PREDICATES:
        raise ValueError(f"not an edge predicate: {predicate!r}")
    return Triple(node_id(from_id), predicate, node_id(to_id))


def sensor_bounds(sensor_id: str, spec: SensorSpec) -> list[Triple]:
    """Min/max capability metadata nodes of a sensor."""
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
    return triples


def _render_object(t: Triple) -> str:
    if t.obj_kind is ObjKind.IRI:
        return str(t.obj)
    if t.obj_kind is ObjKind.TEXT:
        return f'"{escape_literal(str(t.obj))}"'
    return f'"{repr(float(t.obj))}"^^xsd:double'


def serialize(g: ContextGraph) -> str:
    """Deterministic N-Triples-style text: one sorted line per triple.

    Lines end at "\\n" only; literals use the rule files' escapes
    (``rules.escape_literal``).
    """
    lines = sorted(
        f"{t.subject} {t.predicate} {_render_object(t)} ." for t in g.triples
    )
    return "\n".join(lines) + ("\n" if lines else "")


_NUM_SUFFIX = "^^xsd:double"


def _parse_object(text: str, line_no: int) -> tuple[str | float, ObjKind]:
    if text.startswith('"'):
        plain = "\\" not in text  # no escapes: the next quote closes the literal
        end = text.find('"', 1) if plain else closing_quote(text)
        if end < 0:
            raise GraphParseError("unterminated literal", line_no)
        body = unescape_literal(text[1:end])
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
    for line_no, raw in enumerate(text.split("\n"), start=1):
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


def node_label(g: ContextGraph, node: str) -> str:
    labels = [str(t.obj) for t in g.objects(node, LABEL) if t.obj_kind is ObjKind.TEXT]
    return min(labels) if labels else node.split(":", 1)[-1]


# The (source, target) concepts each edge predicate with a signature allows.
_EDGE_ENDPOINTS: dict[str, frozenset[tuple[Concept, Concept]]] = {
    ATTACHED_TO: frozenset({
        (Concept.SENSOR, Concept.SENSING_DEVICE),
        (Concept.SENSING_DEVICE, Concept.DEVICE),
    }),
    DEPLOYED_AT: frozenset({(Concept.SENSING_DEVICE, Concept.LOCATION)}),
    FORWARDS_TO: frozenset({(Concept.DEVICE, Concept.DEVICE)}),
    HAS_METADATA: frozenset({(Concept.SENSOR, Concept.METADATA)}),
}


def validate_graph(g: ContextGraph) -> dict[str, Concept]:
    """Check the meta-model invariants; raises ModelError naming the triple.

    Returns the concept of every typed node; a node typed with two concepts
    is refused, and so is a Metadata node with more than one type or value.
    """
    types: dict[str, Concept] = {}
    for t in g.triples:
        if t.predicate == RDF_TYPE:
            concept = _IRI_CONCEPTS.get(str(t.obj))
            if concept is None:
                raise ModelError(f"unknown concept in triple: {t}")
            known = types.setdefault(t.subject, concept)
            if known is not concept:
                both = " and ".join(sorted((known.value, concept.value)))
                raise ModelError(f"entity {t.subject!r} is typed twice: {both}")
    for t in g.triples:
        if t.predicate in EDGE_PREDICATES:
            if t.obj_kind is not ObjKind.IRI:
                raise ModelError(f"edge object must be a node: {t}")
            for node in (t.subject, str(t.obj)):
                if node not in types:
                    raise ModelError(f"untyped entity {node!r} in triple: {t}")
            allowed = _EDGE_ENDPOINTS.get(t.predicate)
            if allowed is not None and (types[t.subject], types[str(t.obj)]) not in allowed:
                raise ModelError(f"edge endpoints have wrong concepts: {t}")
        elif t.predicate == MATCH_THRESHOLD:
            if t.obj_kind is not ObjKind.NUMBER or not 0.0 <= float(t.obj) <= 1.0:
                raise ModelError(f"match threshold must be a ratio in [0,1]: {t}")
        elif t.predicate != RDF_TYPE and t.subject not in types:
            raise ModelError(f"attribute on untyped entity: {t}")
    for meta in sorted(node for node, concept in types.items() if concept is Concept.METADATA):
        for predicate in (META_TYPE, META_VALUE):
            found = g.objects(meta, predicate)
            if len(found) > 1:
                values = ", ".join(str(t.obj) for t in found)
                raise ModelError(f"metadata node {meta!r} has {len(found)} {predicate} values: {values}")
    _check_part_of_cycles(g)
    return types


def _check_part_of_cycles(g: ContextGraph) -> None:
    """Raise ModelError naming a cycle of partOf edges, in partOf order."""
    sorter: TopologicalSorter[str] = TopologicalSorter()
    for t in g.by_predicate(PART_OF):
        sorter.add(str(t.obj), t.subject)  # the part precedes its whole
    try:
        sorter.prepare()
    except CycleError as exc:
        names = " -> ".join(node_label(g, n) for n in exc.args[1])
        raise ModelError(f"cyclic partOf chain: {names}") from None


def _fd_rule(kind: DependencyKind, det_col: str, dep_col: str, rule_id: str) -> OfdRule:
    preds = (
        Predicate("EQ", ColumnRef("t1", det_col), ColumnRef("t2", det_col)),
        Predicate("IQ", ColumnRef("t1", dep_col), ColumnRef("t2", dep_col)),
    )
    return OfdRule(kind, ("t1", "t2"), preds, id=rule_id)


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

    Emits, in order: one device-link FD (Sensor -> Device) if the graph holds
    a sensor->sensing-device->device chain, one locality FD (SensingDevice ->
    Location) if it holds a deployment edge, one capability rule per sensor
    carrying min/max metadata (its literal scopes it to that sensor's rows),
    one denial FD per hierarchy pair (concept pair for typed entities, column
    pair for attribute nodes), one matching rule per annotated similarity
    relation, and one temporal rule per forwarding edge. An FD covers every
    entity of its edge class, so a class yields one rule however many edges
    it has. A ``relatedTo`` edge yields no rule.
    """
    types = validate_graph(g)
    rules: list[OfdRule] = []

    # Device-link: some sensor -> sensing device -> device chain.
    attached = g.by_predicate(ATTACHED_TO)
    linked = {t.subject for t in attached if types[t.subject] is Concept.SENSING_DEVICE}
    if any(types[t.subject] is Concept.SENSOR and str(t.obj) in linked for t in attached):
        rules.append(
            _fd_rule(
                DependencyKind.DEVICE_LINK, "Sensor", "Device",
                rule_id="device_link:Sensor->Device",
            )
        )

    # Locality: some sensing device -> location edge.
    if g.by_predicate(DEPLOYED_AT):
        rules.append(
            _fd_rule(
                DependencyKind.LOCALITY, "SensingDevice", "Location",
                rule_id="locality:SensingDevice->Location",
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
