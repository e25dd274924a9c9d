from __future__ import annotations

import pytest

from llmclean.context_model import (
    ATTACHED_TO,
    Concept,
    ContextGraph,
    DEPLOYED_AT,
    FORWARDS_TO,
    MONITORED_BY,
    PART_OF,
    add_edge,
    add_entity,
    add_sensor_bounds,
    deserialize,
    extract_ofds,
    serialize,
    validate_graph,
)
from llmclean.detection import temporal_link
from llmclean.errors import GraphParseError, ModelError
from llmclean.rules import DependencyKind, SensorSpec


def iot_graph() -> ContextGraph:
    g = ContextGraph()
    g = add_entity(g, Concept.SYSTEM, "home_system", {"label": "home_system"})
    g = add_entity(g, Concept.DEVICE, "device_in_1", {"label": "device_in_1"})
    g = add_entity(g, Concept.DEVICE, "device_main", {"label": "device_main"})
    g = add_entity(g, Concept.SENSING_DEVICE, "sensing_in_1", {"label": "sensing_in_1"})
    g = add_entity(g, Concept.SENSOR, "ds18b20_1", {"label": "ds18b20_1"})
    g = add_entity(g, Concept.LOCATION, "Room1", {"label": "Room1"})
    g = add_edge(g, ATTACHED_TO, "ds18b20_1", "sensing_in_1")
    g = add_edge(g, ATTACHED_TO, "sensing_in_1", "device_in_1")
    g = add_edge(g, DEPLOYED_AT, "sensing_in_1", "Room1")
    g = add_edge(g, PART_OF, "device_in_1", "home_system")
    g = add_edge(g, PART_OF, "sensing_in_1", "device_in_1")
    g = add_edge(g, FORWARDS_TO, "device_in_1", "device_main")
    g = add_sensor_bounds(g, "ds18b20_1", SensorSpec("ds18b20_1", -55.0, 125.0, "C"))
    return g


class TestGraphBuilding:
    def test_add_entity_emits_type_triple(self):
        g = add_entity(ContextGraph(), Concept.SENSOR, "ds18b20_1")
        assert any(
            t.predicate == "rdf:type" and t.subject == "llmc:ds18b20_1"
            for t in g.triples
        )

    def test_add_entity_idempotent(self):
        g1 = add_entity(ContextGraph(), Concept.SENSOR, "ds18b20_1", {"label": "ds18b20_1"})
        g2 = add_entity(g1, Concept.SENSOR, "ds18b20_1", {"label": "ds18b20_1"})
        assert g1 == g2

    def test_entity_with_attribute_has_two_triples(self):
        g = add_entity(ContextGraph(), Concept.LOCATION, "Room1", {"label": "Room1"})
        assert len(g.triples) == 2


class TestSerialization:
    def test_empty_graph(self):
        assert serialize(ContextGraph()) == ""
        assert deserialize("") == ContextGraph()

    def test_three_triples_sorted(self):
        g = add_entity(ContextGraph(), Concept.SENSOR, "b", {"label": "b"})
        g = add_entity(g, Concept.SENSOR, "a")
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
        g = add_sensor_bounds(
            add_entity(ContextGraph(), Concept.SENSOR, "s"),
            "s",
            SensorSpec("s", -0.125, 1e9),
        )
        assert deserialize(serialize(g)) == g

    def test_newline_in_label_round_trips(self):
        g = add_entity(ContextGraph(), Concept.LOCATION, "x", {"label": "a\nb"})
        assert deserialize(serialize(g)) == g


class TestValidation:
    def test_fixture_valid(self):
        validate_graph(iot_graph())

    def test_untyped_entity(self):
        g = add_entity(ContextGraph(), Concept.SENSOR, "s")
        g = add_edge(g, ATTACHED_TO, "s", "ghost")  # ghost has no rdf:type
        with pytest.raises(ModelError):
            validate_graph(g)

    def test_wrong_attachment_direction(self):
        g = add_entity(ContextGraph(), Concept.DEVICE, "d")
        g = add_entity(g, Concept.SENSOR, "s")
        g = add_edge(g, ATTACHED_TO, "d", "s")  # device -> sensor is backwards
        with pytest.raises(ModelError):
            validate_graph(g)

    def test_cycle_detection_names_nodes(self):
        g = add_entity(ContextGraph(), Concept.ATTRIBUTE, "A", {"label": "A"})
        g = add_entity(g, Concept.ATTRIBUTE, "B", {"label": "B"})
        g = add_edge(g, PART_OF, "A", "B")
        g = add_edge(g, PART_OF, "B", "A")
        with pytest.raises(ModelError) as exc:
            validate_graph(g)
        assert "A" in str(exc.value) and "B" in str(exc.value)


class TestExtractOfds:
    def test_empty_graph_yields_no_rules(self):
        assert extract_ofds(ContextGraph()) == []

    def test_device_link_rule_and_mapping(self):
        rules = extract_ofds(iot_graph())
        device_links = [r for r in rules if r.kind is DependencyKind.DEVICE_LINK]
        assert len(device_links) == 1
        rule = device_links[0]
        assert rule.id == "device_link:ds18b20_1"
        assert rule.mapping == {"ds18b20_1": "device_in_1"}
        from llmclean.rules import render_rule

        assert render_rule(rule) == "t1&t2&EQ(t1.Sensor,t2.Sensor)&IQ(t1.Device,t2.Device)"

    def test_locality_rule(self):
        rules = extract_ofds(iot_graph())
        locality = [r for r in rules if r.kind is DependencyKind.LOCALITY]
        assert [r.mapping for r in locality] == [{"sensing_in_1": "Room1"}]

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

    def test_monitoring_edges_yield_no_rule(self):
        g = add_entity(ContextGraph(), Concept.DEVICE, "d", {"label": "d"})
        g = add_entity(g, Concept.DEVICE, "watcher", {"label": "watcher"})
        g = add_edge(g, MONITORED_BY, "d", "watcher")
        assert extract_ofds(g) == []

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
        g = add_entity(ContextGraph(), Concept.SENSOR, "s")
        g = add_edge(g, ATTACHED_TO, "s", "nowhere")
        with pytest.raises(ModelError):
            extract_ofds(g)
