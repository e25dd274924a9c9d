from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, strategies as st

from llmclean.context_model import (
    ATTACHED_TO,
    Concept,
    ContextGraph,
    DEPLOYED_AT,
    FORWARDS_TO,
    HAS_METADATA,
    META_TYPE,
    META_VALUE,
    LABEL,
    PART_OF,
    RDF_TYPE,
    ObjKind,
    Triple,
    deserialize,
    edge,
    entity,
    extract_ofds,
    sensor_bounds,
    serialize,
    validate_graph,
)
from llmclean.detection import fd_columns, temporal_link
from llmclean.errors import GraphParseError, ModelError
from llmclean.rules import DependencyKind, SensorSpec, render_rule

from conftest import IOT_TOPOLOGY


def graph(*parts) -> ContextGraph:
    """A graph of the given triples and triple lists."""
    triples = set()
    for part in parts:
        triples.update(part if isinstance(part, list) else [part])
    return ContextGraph(frozenset(triples))


def iot_graph() -> ContextGraph:
    return graph(
        entity(Concept.SYSTEM, "home_system"),
        entity(Concept.DEVICE, "device_in_1"),
        entity(Concept.DEVICE, "device_main"),
        entity(Concept.SENSING_DEVICE, "sensing_in_1"),
        entity(Concept.SENSOR, "ds18b20_1"),
        entity(Concept.LOCATION, "Room1"),
        edge(ATTACHED_TO, "ds18b20_1", "sensing_in_1"),
        edge(ATTACHED_TO, "sensing_in_1", "device_in_1"),
        edge(DEPLOYED_AT, "sensing_in_1", "Room1"),
        edge(PART_OF, "device_in_1", "home_system"),
        edge(PART_OF, "sensing_in_1", "device_in_1"),
        edge(FORWARDS_TO, "device_in_1", "device_main"),
        sensor_bounds("ds18b20_1", SensorSpec("ds18b20_1", -55.0, 125.0, "C")),
    )


def attribute_chain(names: list[str]) -> ContextGraph:
    """Attribute nodes with a partOf edge from each name to the next."""
    return graph(
        *(entity(Concept.ATTRIBUTE, n) for n in names),
        *(edge(PART_OF, a, b) for a, b in zip(names, names[1:])),
    )


class TestGraphBuilding:
    def test_add_entity_emits_type_triple(self):
        g = graph(entity(Concept.SENSOR, "ds18b20_1"))
        assert any(
            t.predicate == "rdf:type" and t.subject == "llmc:ds18b20_1"
            for t in g.triples
        )

    def test_add_entity_idempotent(self):
        once = graph(entity(Concept.SENSOR, "ds18b20_1"))
        twice = graph(
            entity(Concept.SENSOR, "ds18b20_1"),
            entity(Concept.SENSOR, "ds18b20_1"),
        )
        assert once == twice

    def test_entity_with_attribute_has_two_triples(self):
        g = graph(entity(Concept.LOCATION, "Room1"))
        assert len(g.triples) == 2

    def test_edge_refuses_a_non_edge_predicate(self):
        with pytest.raises(ValueError):
            edge("llmc:label", "a", "b")


class TestSerialization:
    def test_empty_graph(self):
        assert serialize(ContextGraph()) == ""
        assert deserialize("") == ContextGraph()

    def test_three_triples_sorted(self):
        g = graph(entity(Concept.SENSOR, "b"), Triple("llmc:a", RDF_TYPE, "ssn:Sensor"))
        lines = serialize(g).splitlines()
        assert len(lines) == 3
        assert lines == sorted(lines)

    def test_round_trip_fixture(self):
        g = iot_graph()
        assert deserialize(serialize(g)) == g

    def test_round_trip_is_byte_stable(self):
        text = serialize(iot_graph())
        assert serialize(deserialize(text)) == text

    def test_malformed_line_reports_number(self):
        with pytest.raises(GraphParseError) as exc:
            deserialize("llmc:a rdf:type ssn:Sensor .\nbroken line\n")
        assert exc.value.line == 2

    def test_number_literals_round_trip(self):
        g = graph(
            entity(Concept.SENSOR, "s"), sensor_bounds("s", SensorSpec("s", -0.125, 1e9))
        )
        assert deserialize(serialize(g)) == g

    def test_newline_in_label_round_trips(self):
        g = graph(entity(Concept.LOCATION, "a\nb"))
        assert deserialize(serialize(g)) == g

    # Every character str.splitlines breaks at, plus the ones the format escapes.
    LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

    @given(st.lists(
        st.text(st.sampled_from(LINE_BREAKS + '\\" .ab') | st.characters(), max_size=8),
        min_size=1, max_size=4,
    ))
    def test_text_labels_round_trip(self, labels):
        g = graph(*(Triple(f"llmc:n{i}", LABEL, label, ObjKind.TEXT)
                    for i, label in enumerate(labels)))
        text = serialize(g)
        assert "\r" not in text and text.count("\n") == len(g.triples)
        assert deserialize(text) == g


class TestValidation:
    def test_fixture_valid(self):
        validate_graph(iot_graph())

    def test_untyped_entity(self):
        g = graph(entity(Concept.SENSOR, "s"), edge(ATTACHED_TO, "s", "ghost"))  # ghost is untyped
        with pytest.raises(ModelError):
            validate_graph(g)

    def test_node_typed_twice(self):
        g = graph(entity(Concept.SENSOR, "x"), entity(Concept.SENSING_DEVICE, "x"))
        with pytest.raises(ModelError, match="'llmc:x' is typed twice: SensingDevice and Sensor"):
            validate_graph(g)

    @pytest.mark.parametrize("predicate, obj, kind", [
        (META_VALUE, 100.0, ObjKind.NUMBER),
        (META_TYPE, "MinValue", ObjKind.TEXT),
    ])
    def test_metadata_node_with_two_types_or_values(self, predicate, obj, kind):
        # extract_ofds would read only the smallest of the two.
        g = graph(
            entity(Concept.SENSOR, "s1"),
            sensor_bounds("s1", SensorSpec("s1", 0.0, 10.0)),
            Triple("llmc:s1_max", predicate, obj, kind),
        )
        with pytest.raises(ModelError, match=f"metadata node 'llmc:s1_max' has 2 {predicate} values"):
            validate_graph(g)

    def test_wrong_attachment_direction(self):
        g = graph(
            entity(Concept.DEVICE, "d"),
            entity(Concept.SENSOR, "s"),
            edge(ATTACHED_TO, "d", "s"),  # device -> sensor is backwards
        )
        with pytest.raises(ModelError):
            validate_graph(g)

    def test_cycle_detection_names_nodes(self):
        g = attribute_chain(["A", "B", "A"])
        with pytest.raises(ModelError) as exc:
            validate_graph(g)
        assert "A" in str(exc.value) and "B" in str(exc.value)

    def test_three_node_cycle_named_in_part_of_order(self):
        g = attribute_chain(["A", "B", "C", "A"])
        with pytest.raises(ModelError) as exc:
            validate_graph(g)
        rotations = {"A -> B -> C -> A", "B -> C -> A -> B", "C -> A -> B -> C"}
        assert str(exc.value).removeprefix("cyclic partOf chain: ") in rotations

    def test_long_acyclic_chain_is_valid(self):
        # Deeper than the interpreter's recursion limit.
        names = [f"level_{i}" for i in range(1200)]
        rules = extract_ofds(attribute_chain(names))
        assert len(rules) == 1199
        assert all(r.kind is DependencyKind.DENIAL for r in rules)

    @pytest.mark.parametrize("predicate, allowed", [
        (ATTACHED_TO, {
            (Concept.SENSOR, Concept.SENSING_DEVICE),
            (Concept.SENSING_DEVICE, Concept.DEVICE),
        }),
        (DEPLOYED_AT, {(Concept.SENSING_DEVICE, Concept.LOCATION)}),
        (FORWARDS_TO, {(Concept.DEVICE, Concept.DEVICE)}),
        (HAS_METADATA, {(Concept.SENSOR, Concept.METADATA)}),
    ])
    def test_edge_endpoint_concepts(self, predicate, allowed):
        # Every concept pair: the allowed ones pass, every other one (such as
        # Sensor attachedTo Device or Device attachedTo Sensor) is refused.
        for src, dst in product(Concept, Concept):
            g = graph(entity(src, "src"), entity(dst, "dst"), edge(predicate, "src", "dst"))
            if (src, dst) in allowed:
                validate_graph(g)
            else:
                with pytest.raises(ModelError, match="wrong concepts"):
                    validate_graph(g)


class TestExtractOfds:
    def test_empty_graph_yields_no_rules(self):
        assert extract_ofds(ContextGraph()) == []

    def test_device_link_rule_and_mapping(self):
        g = iot_graph()
        rules = extract_ofds(g)
        device_links = [r for r in rules if r.kind is DependencyKind.DEVICE_LINK]
        assert len(device_links) == 1
        rule = device_links[0]
        assert rule.id == "device_link:Sensor->Device"
        assert fd_columns(rule) == ("Sensor", "Device")
        assert render_rule(rule) == "t1&t2&EQ(t1.Sensor,t2.Sensor)&IQ(t1.Device,t2.Device)"
        # The modelled chain ds18b20_1 -> sensing_in_1 -> device_in_1 is in the graph.
        assert edge(ATTACHED_TO, "ds18b20_1", "sensing_in_1") in g.triples
        assert edge(ATTACHED_TO, "sensing_in_1", "device_in_1") in g.triples

    def test_locality_rule(self):
        g = iot_graph()
        locality = [r for r in extract_ofds(g) if r.kind is DependencyKind.LOCALITY]
        assert [r.id for r in locality] == ["locality:SensingDevice->Location"]
        assert fd_columns(locality[0]) == ("SensingDevice", "Location")
        assert edge(DEPLOYED_AT, "sensing_in_1", "Room1") in g.triples

    def test_one_rule_per_edge_class_on_the_fixture_topology(self):
        # Four sensors, four sensing devices, three devices and three
        # locations still give one device-link FD and one locality FD.
        parts = []
        for sensor, (device, sensing, location) in IOT_TOPOLOGY.items():
            parts += [
                entity(Concept.SENSOR, sensor),
                entity(Concept.SENSING_DEVICE, sensing),
                entity(Concept.DEVICE, device),
                entity(Concept.LOCATION, location),
                edge(ATTACHED_TO, sensor, sensing),
                edge(ATTACHED_TO, sensing, device),
                edge(DEPLOYED_AT, sensing, location),
            ]
        rules = extract_ofds(graph(*parts))
        assert [(r.kind, render_rule(r)) for r in rules] == [
            (DependencyKind.DEVICE_LINK,
             "t1&t2&EQ(t1.Sensor,t2.Sensor)&IQ(t1.Device,t2.Device)"),
            (DependencyKind.LOCALITY,
             "t1&t2&EQ(t1.SensingDevice,t2.SensingDevice)&IQ(t1.Location,t2.Location)"),
        ]

    @pytest.mark.parametrize("edges", [
        [(ATTACHED_TO, "s", "sd_a")],
        [(ATTACHED_TO, "sd_b", "dev")],
        [(ATTACHED_TO, "s", "sd_a"), (ATTACHED_TO, "sd_b", "dev")],
    ], ids=["sensor-only", "device-only", "broken-chain"])
    def test_no_device_link_without_a_complete_chain(self, edges):
        g = graph(
            entity(Concept.SENSOR, "s"),
            entity(Concept.SENSING_DEVICE, "sd_a"),
            entity(Concept.SENSING_DEVICE, "sd_b"),
            entity(Concept.DEVICE, "dev"),
            *(edge(*e) for e in edges),
        )
        assert extract_ofds(g) == []

    def test_no_locality_without_a_deployment_edge(self):
        g = ContextGraph(iot_graph().triples - {edge(DEPLOYED_AT, "sensing_in_1", "Room1")})
        kinds = [r.kind for r in extract_ofds(g)]
        assert DependencyKind.DEVICE_LINK in kinds
        assert DependencyKind.LOCALITY not in kinds

    def test_capability_rule_carries_spec(self):
        rules = extract_ofds(iot_graph())
        caps = [r for r in rules if r.kind is DependencyKind.CAPABILITY]
        assert len(caps) == 1
        assert caps[0].spec == SensorSpec("ds18b20_1", -55.0, 125.0, "C")

    def test_denial_rules_from_hierarchy(self):
        rules = extract_ofds(iot_graph())
        denial_ids = sorted(r.id for r in rules if r.kind is DependencyKind.DENIAL)
        assert denial_ids == [
            "denial:Device->System",
            "denial:SensingDevice->Device",
        ]

    def test_temporal_rule_from_forwarding_edge(self):
        rules = extract_ofds(iot_graph())
        temporal = [r for r in rules if r.kind is DependencyKind.TEMPORAL]
        assert [temporal_link(r) for r in temporal] == [
            ("Device", "device_in_1", "device_main")
        ]

    def test_rule_count_arithmetic(self):
        # 1 chain + 1 locality edge + 1 capability pair + 2 hierarchy pairs
        # + 0 matching + 1 forwarding edge
        rules = extract_ofds(iot_graph())
        assert len(rules) == 1 + 1 + 1 + 2 + 0 + 1

    def test_deterministic_order(self):
        first = [r.id for r in extract_ofds(iot_graph())]
        second = [r.id for r in extract_ofds(iot_graph())]
        assert first == second

    def test_invalid_graph_raises_model_error(self):
        g = graph(entity(Concept.SENSOR, "s"), edge(ATTACHED_TO, "s", "nowhere"))
        with pytest.raises(ModelError):
            extract_ofds(g)
