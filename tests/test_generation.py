from __future__ import annotations

import json

import pytest

from llmclean.context_model import (
    ATTACHED_TO,
    DEPLOYED_AT,
    MATCHES_WITH,
    MATCH_THRESHOLD,
    Concept,
    ContextGraph,
    ObjKind,
    Triple,
    add_edge,
    add_entity,
    extract_ofds,
    node_id,
    serialize,
)
from llmclean.dataset import Cell, Dataset, MISSING, cell_text, normalize_missing
from llmclean.ensemble import EnsembleConfig
from llmclean.errors import ModelError, SchemaError
from llmclean.gateway import (
    PromptTemplate,
    ReplayBackend,
    ResponseFormat,
    cassette_key,
    render_prompt,
)
from llmclean.generation import (
    CLASSIFY_TEMPLATE,
    CONCEPT_TEMPLATE,
    ConceptMapping,
    ColumnPairRelation,
    DatasetClass,
    HIERARCHY_TEMPLATE,
    Hierarchy,
    IOT_REFERENCE_HEADERS,
    LLMKnowledge,
    LocalFileKnowledge,
    MAP_COLUMN_TEMPLATE,
    RELATED_TEMPLATE,
    build_iot_graph,
    build_relational_graph,
    classify_dataset,
    extract_sensor_info,
    generate_columns,
    map_columns,
    pair_relationships,
    rename_columns,
    sanitize_for_graph,
    split_sensors,
)
from llmclean.rules import DependencyKind, SensorSpec

from conftest import make_cassette, make_iot_dataset


def classify_cassette(tmp_path, headers, votes: dict[str, str]):
    """votes: template_id -> yes/no; extra variant templates share the task."""
    entries = {}
    templates = {}
    bindings = {"col_names": ", ".join(headers), "iot_names": IOT_REFERENCE_HEADERS}
    for i, (tid, answer) in enumerate(votes.items()):
        template = PromptTemplate(
            id=tid,
            task_text=CLASSIFY_TEMPLATE.task_text + ("" if i == 0 else f"\n(variant {i})"),
            response_format=ResponseFormat.YES_NO,
        )
        templates[tid] = template
        entries[render_prompt(template, bindings)] = answer
    return make_cassette(tmp_path, entries), templates


class TestClassifyDataset:
    IOT_HEADERS = ["System", "Device", "Sensor", "Value", "Timestamp", "Location"]

    def test_majority_yes_is_iot(self, tmp_path):
        path, templates = classify_cassette(
            tmp_path, self.IOT_HEADERS, {"p1": "yes", "p2": "yes", "p3": "no"}
        )
        config = EnsembleConfig(2, ("p1", "p2", "p3"))
        result = classify_dataset(self.IOT_HEADERS, ReplayBackend(path), config, templates)
        assert result is DatasetClass.IOT

    def test_all_no_is_non_iot(self, tmp_path):
        headers = ["ProviderNumber", "HospitalName", "ZipCode"]
        path, templates = classify_cassette(
            tmp_path, headers, {"p1": "no", "p2": "no", "p3": "no"}
        )
        config = EnsembleConfig(2, ("p1", "p2", "p3"))
        assert classify_dataset(headers, ReplayBackend(path), config, templates) is DatasetClass.NON_IOT

    def test_single_prompt_threshold_one(self, tmp_path):
        path, templates = classify_cassette(tmp_path, self.IOT_HEADERS, {"p1": "yes"})
        config = EnsembleConfig(1, ("p1",))
        assert classify_dataset(self.IOT_HEADERS, ReplayBackend(path), config, templates) is DatasetClass.IOT

    def test_empty_headers_rejected(self, tmp_path):
        path, templates = classify_cassette(tmp_path, ["x"], {"p1": "yes"})
        with pytest.raises(ValueError):
            classify_dataset([], ReplayBackend(path), EnsembleConfig(1, ("p1",)), templates)


def map_cassette(tmp_path, headers, answers: dict[str, str]):
    entries = {}
    for role in ("System", "Device", "SensingDevice", "Sensor", "Location", "Value", "Timestamp"):
        prompt = render_prompt(
            MAP_COLUMN_TEMPLATE, {"col_names": ", ".join(headers), "concept": role}
        )
        entries[prompt] = answers.get(role, "NONE")
    return make_cassette(tmp_path, entries)


class TestMapColumns:
    def test_two_assignments(self, tmp_path):
        headers = ["temperature", "time"]
        path = map_cassette(tmp_path, headers, {"Value": "temperature", "Timestamp": "time"})
        mapping = map_columns(headers, ReplayBackend(path))
        assert mapping.assignments == {"Value": "temperature", "Timestamp": "time"}
        assert "System" in mapping.missing

    def test_none_answer_recorded_missing(self, tmp_path):
        headers = ["a"]
        path = map_cassette(tmp_path, headers, {})
        mapping = map_columns(headers, ReplayBackend(path))
        assert set(mapping.missing) == {
            "System", "Device", "SensingDevice", "Sensor", "Location", "Value", "Timestamp"
        }
        assert mapping.unmapped_columns == ["a"]

    def test_hallucinated_column_warns(self, tmp_path):
        headers = ["real"]
        path = map_cassette(tmp_path, headers, {"Value": "imaginary"})
        mapping = map_columns(headers, ReplayBackend(path))
        assert "Value" in mapping.missing
        assert any("imaginary" in w for w in mapping.warnings)

    def test_double_claim_warns(self, tmp_path):
        headers = ["only"]
        path = map_cassette(tmp_path, headers, {"Value": "only", "Timestamp": "only"})
        mapping = map_columns(headers, ReplayBackend(path))
        assert mapping.assignments == {"Value": "only"}
        assert "Timestamp" in mapping.missing


class TestSplitSensors:
    def test_paper_shape(self):
        d = Dataset.from_lists(
            ["temperature", "co2", "location", "time"],
            [[Cell.number(21.0), Cell.number(400.0), Cell.text("L1"), Cell.timestamp(10**12)]],
        )
        out = split_sensors(d, [("temperature", "Temp"), ("co2", "CO2")])
        assert out.headers == ("sensor", "value", "location", "time")
        assert out.n_rows == 2
        assert [cell_text(r[0]) for r in out.rows] == ["Temp", "CO2"]
        assert out.rows[0][1] == Cell.number(21.0)
        assert out.rows[1][1] == Cell.number(400.0)
        assert out.rows[0][2] == out.rows[1][2] == Cell.text("L1")

    def test_row_multiplication(self):
        d = Dataset.from_lists(
            ["a", "b", "c"],
            [[Cell.number(float(i)), Cell.number(float(i)), Cell.number(float(i))] for i in range(10)],
        )
        out = split_sensors(d, [("a", "A"), ("b", "B"), ("c", "C")])
        assert out.n_rows == 30

    def test_single_value_column(self):
        d = Dataset.from_lists(["v", "loc"], [[Cell.number(1.0), Cell.text("x")]])
        out = split_sensors(d, [("v", "S")])
        assert out.n_rows == 1
        assert out.headers == ("sensor", "value", "loc")

    def test_absent_value_column(self):
        d = Dataset.from_lists(["v"], [[Cell.number(1.0)]])
        with pytest.raises(SchemaError):
            split_sensors(d, [("missing_col", "S")])


class TestRenameColumns:
    def test_canonicalizes_paper_identifiers(self):
        d = Dataset.from_lists(
            ["Sensor_name", "temperature", "place", "time"],
            [[Cell.text("s"), Cell.number(1.0), Cell.text("p"), Cell.timestamp(10**12)]],
        )
        mapping = ConceptMapping(
            assignments={
                "Sensor": "Sensor_name",
                "Value": "temperature",
                "Location": "place",
                "Timestamp": "time",
            }
        )
        out = rename_columns(d, mapping)
        assert out.headers == ("sensor", "value", "location", "timestamp")
        assert out.rows == d.rows

    def test_identity_mapping_unchanged(self):
        d = Dataset.from_lists(["sensor"], [[Cell.text("s")]])
        mapping = ConceptMapping(assignments={"Sensor": "sensor"})
        assert rename_columns(d, mapping) == d

    def test_collision_rejected(self):
        d = Dataset.from_lists(
            ["a", "value"], [[Cell.number(1.0), Cell.number(2.0)]]
        )
        mapping = ConceptMapping(assignments={"Value": "a"})
        with pytest.raises(SchemaError):
            rename_columns(d, mapping)


class TestGenerateColumns:
    def _base(self):
        return Dataset.from_lists(
            ["value", "location", "timestamp"],
            [
                [Cell.number(20.0), Cell.text("Room1"), Cell.timestamp(10**12)],
                [Cell.number(21.0), Cell.text("Room2"), Cell.timestamp(10**12 + 1)],
                [Cell.number(22.0), Cell.text("Room1"), Cell.timestamp(10**12 + 2)],
            ],
        )

    def test_structural_columns_added(self):
        mapping = ConceptMapping(missing=["System", "Device", "SensingDevice", "Sensor"])
        out, excluded = generate_columns(self._base(), mapping)
        assert out.headers == (
            "value", "location", "timestamp", "System", "Device", "SensingDevice", "sensor"
        )
        assert excluded == []

    def test_nothing_missing_unchanged(self):
        mapping = ConceptMapping(missing=[])
        out, excluded = generate_columns(self._base(), mapping)
        assert out == self._base()
        assert excluded == []

    def test_two_locations_two_devices(self):
        mapping = ConceptMapping(missing=["Device"])
        out, _ = generate_columns(self._base(), mapping)
        devices = {cell_text(c) for c in out.column("Device")}
        assert len(devices) == 2

    def test_ids_follow_sorted_locations(self):
        mapping = ConceptMapping(missing=["System", "Sensor"])
        out, _ = generate_columns(self._base(), mapping)
        assert [cell_text(c) for c in out.column("System")] == ["system_1"] * 3
        assert [cell_text(c) for c in out.column("sensor")] == [
            "sensor_1", "sensor_2", "sensor_1"
        ]
        no_location = Dataset.from_lists(["value"], [[Cell.number(1.0)]] * 2)
        out, _ = generate_columns(no_location, ConceptMapping(missing=["Device"]))
        assert [cell_text(c) for c in out.column("Device")] == ["device_1"] * 2

    def test_non_synthesizable_concepts_excluded(self):
        d = Dataset.from_lists(["value"], [[Cell.number(1.0)]])
        mapping = ConceptMapping(missing=["Location", "Timestamp", "Device"])
        out, excluded = generate_columns(d, mapping)
        assert "Location" in excluded and "Timestamp" in excluded
        assert out.has_column("Device")

    def test_existing_columns_preserved_in_order(self):
        mapping = ConceptMapping(missing=["System"])
        out, _ = generate_columns(self._base(), mapping)
        assert out.headers[:3] == self._base().headers


class TestSensorInfo:
    def test_override_wins(self, tmp_path):
        override = {"ds18b20": SensorSpec("ds18b20", -55.0, 125.0)}
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"ds18b20": {"min": 0, "max": 1}}))
        spec = extract_sensor_info("ds18b20", [LocalFileKnowledge(str(path))], override)
        assert spec == override["ds18b20"]

    def test_unknown_model_empty_sources(self):
        assert extract_sensor_info("mystery", []) is None

    def test_first_source_precedence(self, tmp_path):
        first = tmp_path / "a.json"
        first.write_text(json.dumps({"m": {"min": 0, "max": 10}}))
        second = tmp_path / "b.json"
        second.write_text(json.dumps({"m": {"min": -99, "max": 99}}))
        spec = extract_sensor_info(
            "m", [LocalFileKnowledge(str(first)), LocalFileKnowledge(str(second))]
        )
        assert (spec.min_value, spec.max_value) == (0.0, 10.0)

    def test_broken_source_skipped(self, tmp_path):
        broken = LocalFileKnowledge(str(tmp_path / "nope.json"))
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"m": {"min": 1, "max": 2, "unit": "C"}}))
        spec = extract_sensor_info("m", [broken, LocalFileKnowledge(str(good))])
        assert spec == SensorSpec("m", 1.0, 2.0, "C")

    def test_llm_source(self, tmp_path):
        source = LLMKnowledge(ReplayBackend("unused"))
        prompt = render_prompt(source.template, {"model": "ds18b20"})
        path = make_cassette(tmp_path, {prompt: "-55, 125"})
        source = LLMKnowledge(ReplayBackend(path))
        assert source.lookup("ds18b20") == SensorSpec("ds18b20", -55.0, 125.0)

    def test_llm_source_nan_bound_is_no_answer(self, tmp_path):
        prompt = render_prompt(LLMKnowledge(ReplayBackend("unused")).template, {"model": "m"})
        source = LLMKnowledge(ReplayBackend(make_cassette(tmp_path, {prompt: "nan, 125"})))
        assert source.lookup("m") is None

    def test_local_file_nan_bound_is_no_answer(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text('{"m": {"min": NaN, "max": 125}}')
        assert LocalFileKnowledge(str(path)).lookup("m") is None

    def test_local_file_read_once(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"m": {"min": 0, "max": 1}, "bad": {"min": 1}}))
        source = LocalFileKnowledge(str(path))
        assert source.lookup("m") == SensorSpec("m", 0.0, 1.0)
        path.unlink()
        assert source.lookup("bad") is None
        assert source.lookup("m") == SensorSpec("m", 0.0, 1.0)

    def test_local_file_not_an_object_skipped(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text("[1, 2]")
        assert extract_sensor_info("m", [LocalFileKnowledge(str(path))]) is None


class TestSanitize:
    def _table(self, locations):
        rows = [
            [Cell.text("ds18b20_1"), Cell.number(20.0 + i * 0.1), Cell.text(loc)]
            for i, loc in enumerate(locations)
        ]
        return Dataset.from_lists(["sensor", "value", "location"], rows)

    def test_modal_location_repair(self):
        d = self._table(["Room1"] * 9 + ["Room7"])
        out = sanitize_for_graph(d)
        assert {cell_text(c) for c in out.column("location")} == {"Room1"}

    def test_clean_dataset_unchanged(self):
        d = self._table(["Room1"] * 6)
        assert sanitize_for_graph(d) == d

    def test_single_row_unchanged(self):
        d = self._table(["Room1"])
        assert sanitize_for_graph(d) == d

    def test_value_outliers_dropped_from_copy(self):
        rows = [[Cell.text("s"), Cell.number(v), Cell.text("L")] for v in
                [20.0, 20.1, 19.9, 20.2, 20.0, 1000.0]]
        d = Dataset.from_lists(["sensor", "value", "location"], rows)
        out = sanitize_for_graph(d)
        assert out.n_rows == 5
        assert all(float(r[1].value) < 100 for r in out.rows)

    def test_missing_structural_cell_repaired(self):
        rows = [
            [Cell.text("s"), Cell.number(1.0), Cell.text("Room1")],
            [Cell.text("s"), Cell.number(1.1), MISSING],
        ]
        d = Dataset.from_lists(["sensor", "value", "location"], rows)
        out = sanitize_for_graph(d)
        assert cell_text(out.rows[1][2]) == "Room1"


class TestBuildIotGraph:
    def test_fixture_counts(self):
        d = Dataset.from_lists(
            ["System", "Device", "SensingDevice", "sensor", "value", "location"],
            [
                [Cell.text("sys"), Cell.text("dev1"), Cell.text("sd1"),
                 Cell.text("s1"), Cell.number(1.0), Cell.text("Room1")],
                [Cell.text("sys"), Cell.text("dev1"), Cell.text("sd2"),
                 Cell.text("s2"), Cell.number(2.0), Cell.text("Room1")],
            ],
        )
        graph, warnings = build_iot_graph(d)
        assert warnings == []
        attached = [t for t in graph.triples if t.predicate == ATTACHED_TO]
        # s1->sd1, s2->sd2, sd1->dev1, sd2->dev1
        assert len(attached) == 4
        device_nodes = [
            t for t in graph.triples
            if t.predicate == "rdf:type" and str(t.obj) == "ssn:Device"
        ]
        assert len(device_nodes) == 1
        deployed = [t for t in graph.triples if t.predicate == DEPLOYED_AT]
        assert len(deployed) == 2

    def test_empty_dataset_empty_graph(self):
        d = Dataset.from_lists(["sensor", "value"], [])
        graph, _ = build_iot_graph(d)
        assert graph.triples == frozenset()

    def test_conflicting_cooccurrence_resolved_modal(self):
        d = Dataset.from_lists(
            ["Device", "SensingDevice", "sensor"],
            [
                [Cell.text("dev1"), Cell.text("sd1"), Cell.text("s1")],
                [Cell.text("dev1"), Cell.text("sd1"), Cell.text("s1")],
                [Cell.text("dev2"), Cell.text("sd1"), Cell.text("s1")],
            ],
        )
        graph, warnings = build_iot_graph(d)
        assert any("sd1" in w for w in warnings)
        edges = [
            t for t in graph.triples
            if t.predicate == ATTACHED_TO and t.subject == "llmc:sd1"
        ]
        assert [str(t.obj) for t in edges] == ["llmc:dev1"]

    def test_capability_metadata_from_specs(self):
        d = Dataset.from_lists(
            ["sensor", "value"],
            [[Cell.text("ds18b20_1"), Cell.number(20.0)]],
        )
        graph, _ = build_iot_graph(d, specs={"ds18b20": SensorSpec("ds18b20", -55, 125)})
        rules = extract_ofds(graph)
        caps = [r for r in rules if r.kind is DependencyKind.CAPABILITY]
        assert len(caps) == 1
        assert caps[0].spec.min_value == -55.0

    def test_table_shapes_from_full_fixture(self):
        d = make_iot_dataset(n_rows=100)
        mapping = ConceptMapping(
            assignments={
                "System": "System", "Device": "Device", "SensingDevice": "SensingDevice",
                "Sensor": "Sensor", "Location": "Location", "Value": "Value",
                "Timestamp": "Timestamp",
            }
        )
        renamed = rename_columns(normalize_missing(d), mapping)
        specs = {
            "ds18b20": SensorSpec("ds18b20", -55.0, 125.0, "C"),
            "wsdcgq11lm": SensorSpec("wsdcgq11lm", -20.0, 60.0, "C"),
        }
        graph, warnings = build_iot_graph(sanitize_for_graph(renamed), {
            name: specs[name.rsplit("_", 1)[0]]
            for name in ("ds18b20_1", "ds18b20_2", "wsdcgq11lm_1", "wsdcgq11lm_2")
        })
        assert warnings == []
        rules = extract_ofds(graph)
        kinds = {r.kind for r in rules}
        assert {
            DependencyKind.DEVICE_LINK,
            DependencyKind.LOCALITY,
            DependencyKind.CAPABILITY,
            DependencyKind.DENIAL,
        } <= kinds
        link = next(r for r in rules if r.id == "device_link:ds18b20_1")
        assert link.mapping == {"ds18b20_1": "device_in_1"}
        locality = next(r for r in rules if r.id == "locality:sensing_out_1")
        assert locality.mapping == {"sensing_out_1": "Outside"}
        denial_ids = {r.id for r in rules if r.kind is DependencyKind.DENIAL}
        assert denial_ids == {"denial:Device->System", "denial:SensingDevice->Device"}

    def test_pipeline_graph_deterministic(self):
        d = make_iot_dataset(n_rows=60)
        mapping = ConceptMapping(assignments={"Sensor": "Sensor", "Value": "Value"})
        renamed = rename_columns(d, mapping)
        one = serialize(build_iot_graph(sanitize_for_graph(renamed))[0])
        two = serialize(build_iot_graph(sanitize_for_graph(renamed))[0])
        assert one == two

    def test_sanitized_dirty_graph_matches_clean_graph(self):
        from llmclean.evaluation import ErrorSpec, inject_errors

        clean = make_iot_dataset(n_rows=200)
        mapping = ConceptMapping(
            assignments={
                "System": "System", "Device": "Device", "SensingDevice": "SensingDevice",
                "Sensor": "Sensor", "Location": "Location", "Value": "Value",
                "Timestamp": "Timestamp",
            }
        )
        dirty, _ = inject_errors(
            clean,
            ErrorSpec(missing_rate=0.05, seed=3, missing_columns=("System", "Device", "Location")),
        )
        clean_graph = build_iot_graph(sanitize_for_graph(rename_columns(clean, mapping)))[0]
        dirty_graph = build_iot_graph(
            sanitize_for_graph(rename_columns(normalize_missing(dirty), mapping))
        )[0]
        assert clean_graph == dirty_graph


def pair_cassette(tmp_path, headers, related: dict[tuple[str, str], tuple[str, str, str]]):
    """related: (a, b) -> (concept_a, concept_b, hierarchy answer)."""
    from itertools import combinations

    entries = {}
    for a, b in combinations(headers, 2):
        prompt = render_prompt(RELATED_TEMPLATE, {"col_a": a, "col_b": b})
        entries[prompt] = "yes" if (a, b) in related else "no"
    for (a, b), (concept_a, concept_b, answer) in related.items():
        entries[render_prompt(CONCEPT_TEMPLATE, {"col": a})] = concept_a
        entries[render_prompt(CONCEPT_TEMPLATE, {"col": b})] = concept_b
        entries[render_prompt(HIERARCHY_TEMPLATE, {"col_a": a, "col_b": b})] = answer
    return make_cassette(tmp_path, entries)


class TestPairRelationships:
    def test_zip_city_hierarchy(self, tmp_path):
        headers = ["ZipCode", "City", "Score"]
        path = pair_cassette(
            tmp_path, headers,
            {("ZipCode", "City"): ("postal area", "municipality", "A")},
        )
        relations = pair_relationships(headers, ReplayBackend(path))
        assert len(relations) == 3
        hit = next(r for r in relations if r.related)
        assert (hit.column_a, hit.column_b) == ("ZipCode", "City")
        assert hit.hierarchy is Hierarchy.ATTRIBUTE_OF_A

    def test_single_header_no_pairs(self, tmp_path):
        path = make_cassette(tmp_path, {})
        assert pair_relationships(["only"], ReplayBackend(path)) == []

    def test_pair_count_19_headers(self, tmp_path):
        headers = [f"c{i}" for i in range(19)]
        path = pair_cassette(tmp_path, headers, {})
        relations = pair_relationships(headers, ReplayBackend(path))
        assert len(relations) == 171  # C(19, 2)

    def test_failed_pair_dropped_others_kept(self, tmp_path):
        headers = ["a", "b", "c"]
        # cassette only covers (a,b) and (b,c); (a,c) misses -> strict error
        from itertools import combinations

        entries = {}
        for x, y in combinations(headers, 2):
            if (x, y) != ("a", "c"):
                prompt = render_prompt(RELATED_TEMPLATE, {"col_a": x, "col_b": y})
                entries[prompt] = "no"
        path = make_cassette(tmp_path, entries)
        relations = pair_relationships(headers, ReplayBackend(path))
        assert len(relations) == 2

    def test_concept_asked_once_per_column(self, tmp_path):
        headers = ["ZipCode", "City", "State", "Score"]
        path = pair_cassette(
            tmp_path, headers,
            {
                ("ZipCode", "City"): ("postal area", "municipality", "A"),
                ("ZipCode", "State"): ("postal area", "region", "A"),
                ("City", "State"): ("municipality", "region", "A"),
            },
        )
        backend = ReplayBackend(path)
        asked: list[str] = []
        lookup = backend.lookup

        def counting_lookup(prompt):
            asked.append(prompt)
            return lookup(prompt)

        backend.lookup = counting_lookup
        relations = pair_relationships(headers, backend)
        assert sum(r.related for r in relations) == 3
        concept_prompts = [p for p in asked if p.startswith(CONCEPT_TEMPLATE.task_text[:20])]
        assert sorted(concept_prompts) == sorted(
            render_prompt(CONCEPT_TEMPLATE, {"col": c}) for c in ("ZipCode", "City", "State")
        )
        assert len(asked) == 6 + 3 + 3  # relatedness, concepts, hierarchies

    def test_missing_concept_drops_only_its_pairs(self, tmp_path):
        headers = ["ZipCode", "City", "State", "Score"]
        path = pair_cassette(
            tmp_path, headers,
            {
                ("ZipCode", "City"): ("postal area", "municipality", "A"),
                ("City", "State"): ("municipality", "region", "A"),
            },
        )
        cassette = json.loads(open(path, encoding="utf-8").read())
        del cassette[cassette_key(render_prompt(CONCEPT_TEMPLATE, {"col": "State"}))]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cassette, fh)
        relations = pair_relationships(headers, ReplayBackend(path))
        pairs = {(r.column_a, r.column_b): r.related for r in relations}
        assert pairs == {
            ("ZipCode", "City"): True,
            ("ZipCode", "State"): False,
            ("ZipCode", "Score"): False,
            ("City", "Score"): False,
            ("State", "Score"): False,
        }


class TestBuildRelationalGraph:
    def test_zip_city_denial_rule(self):
        relations = [
            ColumnPairRelation(
                "ZipCode", "City", related=True,
                concept_a="postal area", concept_b="municipality",
                hierarchy=Hierarchy.ATTRIBUTE_OF_A,
            )
        ]
        graph = build_relational_graph(relations)
        rules = extract_ofds(graph)
        assert [r.id for r in rules] == ["denial:ZipCode->City"]

    def test_empty_relations_empty_graph(self):
        assert build_relational_graph([]).triples == frozenset()

    def test_cycle_raises_naming_columns(self):
        relations = [
            ColumnPairRelation("A", "B", True, hierarchy=Hierarchy.ATTRIBUTE_OF_A),
            ColumnPairRelation("B", "A", True, hierarchy=Hierarchy.ATTRIBUTE_OF_A),
        ]
        with pytest.raises(ModelError) as exc:
            build_relational_graph(relations)
        assert "A" in str(exc.value) and "B" in str(exc.value)

    def test_matching_annotation_yields_sim_rule(self):
        # No stage emits matchesWith; user-supplied graphs may carry it.
        graph = ContextGraph()
        for column in ("ProviderNumber", "PhoneNumber"):
            graph = add_entity(graph, Concept.ATTRIBUTE, column, {"label": column})
        graph = add_edge(graph, MATCHES_WITH, "ProviderNumber", "PhoneNumber")
        graph = graph.with_triples(
            [Triple(node_id("ProviderNumber"), MATCH_THRESHOLD, 0.75, ObjKind.NUMBER)]
        )
        rules = extract_ofds(graph)
        matching = [r for r in rules if r.kind is DependencyKind.MATCHING]
        assert len(matching) == 1
        assert matching[0].predicates[0].sim_threshold == 0.75

    def test_independent_related_pair_yields_no_rule(self):
        relations = [ColumnPairRelation("X", "Y", related=True)]
        graph = build_relational_graph(relations)
        assert extract_ofds(graph) == []

    def test_one_denial_rule_per_hierarchy_edge(self):
        relations = [
            ColumnPairRelation("A", "B", True, hierarchy=Hierarchy.ATTRIBUTE_OF_A),
            ColumnPairRelation("C", "B", True, hierarchy=Hierarchy.ATTRIBUTE_OF_B),
            ColumnPairRelation("D", "E", True),
        ]
        graph = build_relational_graph(relations)
        denial = [r for r in extract_ofds(graph) if r.kind is DependencyKind.DENIAL]
        assert sorted(r.id for r in denial) == ["denial:A->B", "denial:B->C"]
