from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from llmclean.context_model import (
    ATTACHED_TO,
    DEPLOYED_AT,
    MATCHES_WITH,
    MATCH_THRESHOLD,
    Concept,
    ContextGraph,
    ObjKind,
    Triple,
    edge,
    entity,
    extract_ofds,
    node_id,
    serialize,
)
from llmclean.dataset import Cell, Dataset, MISSING, cell_text, normalize_missing
from llmclean.detection import fd_columns
from llmclean.ensemble import EnsembleConfig
from llmclean.errors import ModelError, SchemaError
from llmclean.evaluation import ErrorSpec, inject_errors
from llmclean.gateway import (
    PromptTemplate,
    ReplayBackend,
    ResponseFormat,
    render_prompt,
)
from llmclean.generation import (
    CLASSIFY_TEMPLATE,
    ConceptMapping,
    ColumnPairRelation,
    DatasetClass,
    FD_ERROR,
    HIERARCHY_TEMPLATE,
    Hierarchy,
    IOT_REFERENCE_HEADERS,
    MAP_COLUMN_TEMPLATE,
    RELATED_TEMPLATE,
    build_iot_graph,
    build_relational_graph,
    candidate_pairs,
    classify_dataset,
    generate_columns,
    map_columns,
    pair_relationships,
    rename_columns,
    sanitize_for_graph,
    split_sensors,
)
from llmclean.rules import DependencyKind, SensorSpec

from conftest import make_cassette, make_iot_dataset
from oracles import oracle_fd_candidates, oracle_fd_directions


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
        links = [r for r in rules if r.kind is DependencyKind.DEVICE_LINK]
        assert [(r.id, fd_columns(r)) for r in links] == [
            ("device_link:Sensor->Device", ("Sensor", "Device"))
        ]
        assert edge(ATTACHED_TO, "ds18b20_1", "sensing_in_1") in graph.triples
        assert edge(ATTACHED_TO, "sensing_in_1", "device_in_1") in graph.triples
        localities = [r for r in rules if r.kind is DependencyKind.LOCALITY]
        assert [(r.id, fd_columns(r)) for r in localities] == [
            ("locality:SensingDevice->Location", ("SensingDevice", "Location"))
        ]
        assert edge(DEPLOYED_AT, "sensing_out_1", "Outside") in graph.triples
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


def key_table(headers, n_rows: int = 3) -> Dataset:
    """Every column holds a distinct value per row, so no pair is refuted."""
    return Dataset(headers, [tuple(Cell.text(f"{h}{i}") for h in headers) for i in range(n_rows)])


def pair_cassette(tmp_path, headers, related: dict[tuple[str, str], str]):
    """related: (a, b) -> hierarchy answer; every other pair is unrelated."""
    entries = {}
    for a, b in combinations(headers, 2):
        prompt = render_prompt(RELATED_TEMPLATE, {"col_a": a, "col_b": b})
        entries[prompt] = "yes" if (a, b) in related else "no"
    for (a, b), answer in related.items():
        entries[render_prompt(HIERARCHY_TEMPLATE, {"col_a": a, "col_b": b})] = answer
    return make_cassette(tmp_path, entries)


class TestPairRelationships:
    def test_zip_city_hierarchy(self, tmp_path):
        headers = ["ZipCode", "City", "Score"]
        path = pair_cassette(
            tmp_path, headers,
            {("ZipCode", "City"): "A"},
        )
        relations = pair_relationships(key_table(headers), ReplayBackend(path))
        assert len(relations) == 3
        hit = next(r for r in relations if r.related)
        assert (hit.column_a, hit.column_b) == ("ZipCode", "City")
        assert hit.hierarchy is Hierarchy.ATTRIBUTE_OF_A

    def test_single_header_no_pairs(self, tmp_path):
        path = make_cassette(tmp_path, {})
        assert pair_relationships(key_table(["only"]), ReplayBackend(path)) == []

    def test_pair_count_19_headers(self, tmp_path):
        headers = [f"c{i}" for i in range(19)]
        path = pair_cassette(tmp_path, headers, {})
        relations = pair_relationships(key_table(headers), ReplayBackend(path))
        assert len(relations) == 171  # C(19, 2)

    def test_failed_pair_dropped_others_kept(self, tmp_path):
        headers = ["a", "b", "c"]
        # cassette only covers (a,b) and (b,c); (a,c) misses -> strict error
        entries = {}
        for x, y in combinations(headers, 2):
            if (x, y) != ("a", "c"):
                prompt = render_prompt(RELATED_TEMPLATE, {"col_a": x, "col_b": y})
                entries[prompt] = "no"
        path = make_cassette(tmp_path, entries)
        relations = pair_relationships(key_table(headers), ReplayBackend(path))
        assert len(relations) == 2

    def test_only_relatedness_and_hierarchy_are_asked(self, tmp_path):
        headers = ["ZipCode", "City", "State", "Score"]
        path = pair_cassette(
            tmp_path, headers,
            {("ZipCode", "City"): "A", ("ZipCode", "State"): "A", ("City", "State"): "A"},
        )
        backend, asked = counting_backend(path)
        relations = pair_relationships(key_table(headers), backend)
        assert sum(r.related for r in relations) == 3
        assert len(asked) == 6 + 3  # relatedness of every pair, hierarchy of the related

    def test_pair_dropped_only_when_an_asked_answer_fails(self, tmp_path):
        # Zip and Score are keys; Zip -> City -> State hold one way only.
        headers = ["Zip", "City", "State", "Score"]
        rows = [
            (f"z{i}", f"c{i // 2}", f"s{i // 4}", f"n{i}") for i in range(6)
        ]
        d = Dataset(headers, [tuple(map(Cell.text, row)) for row in rows])
        entries = {}
        for a, b in combinations(headers, 2):
            if (a, b) != ("City", "State"):  # its relatedness answer fails
                prompt = render_prompt(RELATED_TEMPLATE, {"col_a": a, "col_b": b})
                entries[prompt] = "yes" if (a, b) in {("Zip", "City"), ("Zip", "Score")} else "no"
        # No hierarchy answers: (Zip, City) is ordered by the data and is not
        # asked; (Zip, Score) is asked, and its answer fails.
        backend = ReplayBackend(make_cassette(tmp_path, entries))
        relations = {(r.column_a, r.column_b): r for r in pair_relationships(d, backend)}
        assert {pair: r.related for pair, r in relations.items()} == {
            ("Zip", "City"): True,
            ("Zip", "State"): False,
            ("City", "Score"): False,
            ("State", "Score"): False,
        }
        assert relations["Zip", "City"].hierarchy is Hierarchy.ATTRIBUTE_OF_A


FD_LEVELS = ("site", "area", "district", "region")  # finest to coarsest


def hierarchy_table(seed: int, groups: int = 5, n_rows: int = 2000) -> Dataset:
    """Interleaved groups of 4 columns; each level determines the coarser ones."""
    rng = random.Random(seed)
    columns = [(g, level) for g in range(groups) for level in range(len(FD_LEVELS))]
    rng.shuffle(columns)
    rows = []
    for _ in range(n_rows):
        sites = [rng.randrange(500) for _ in range(groups)]
        rows.append(tuple(
            Cell.text(f"{FD_LEVELS[level][0]}{g}-{sites[g] // (1, 5, 50, 250)[level]}")
            for g, level in columns
        ))
    return Dataset([f"{FD_LEVELS[level]}_{g}" for g, level in columns], rows)


@st.composite
def profiled_tables(draw) -> Dataset:
    """A small table whose columns follow a base column with some noise, with
    missing cells: near-FDs on both sides of FD_ERROR."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n_rows = draw(st.integers(0, 30))
    base = [rng.randrange(6) for _ in range(n_rows)]
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        width = draw(st.integers(1, 6))
        follow = [rng.randrange(width) for _ in range(6)]
        noise = draw(st.sampled_from([0.0, 0.03, 0.1, 0.3, 1.0]))
        missing = draw(st.sampled_from([0.0, 0.1, 0.4]))
        columns.append([
            MISSING if rng.random() < missing
            else Cell.text(f"v{rng.randrange(width) if rng.random() < noise else follow[b]}")
            for b in base
        ])
    return Dataset([f"c{k}" for k in range(len(columns))], list(zip(*columns)))


def limit_table(flipped) -> Dataset:
    """x -> y holds on 20 rows but for one row per flipped x value (g3 1/20
    or 2/20); y -> x is far off."""
    return Dataset(["x", "y"], [
        (Cell.text(f"x{i // 2}"), Cell.text(f"y{i // 4 + 100 * (i in flipped)}"))
        for i in range(20)
    ])


@st.composite
def directed_tables(draw) -> Dataset:
    """Columns drawn from a base column, with missing cells: a relabelled
    copy (a bijection with the base), a coarsening (one direction), a noisy
    follower, or a copy present only on even or only on odd rows (an even
    and an odd column share no row)."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n_rows = draw(st.integers(0, 40))
    base = [rng.randrange(8) for _ in range(n_rows)]
    columns = []
    for _ in range(draw(st.integers(2, 5))):
        kind = draw(st.sampled_from(["copy", "coarse", "noisy", "even", "odd"]))
        missing = draw(st.sampled_from([0.0, 0.05, 0.3]))
        labels = rng.sample(range(100), 8)
        values = {
            "copy": [labels[b] for b in base],
            "coarse": [labels[b] % 3 for b in base],
            "noisy": [rng.randrange(8) if rng.random() < 0.1 else b for b in base],
            "even": [b if i % 2 == 0 else None for i, b in enumerate(base)],
            "odd": [b if i % 2 == 1 else None for i, b in enumerate(base)],
        }[kind]
        columns.append([
            MISSING if v is None or rng.random() < missing else Cell.text(f"v{v}")
            for v in values
        ])
    return Dataset([f"c{k}" for k in range(len(columns))], list(zip(*columns)))


def counting_backend(path):
    """A replay backend over ``path`` and the list of prompts it looks up."""
    backend = ReplayBackend(path)
    asked: list[str] = []
    lookup = backend.lookup

    def counting_lookup(prompt):
        asked.append(prompt)
        return lookup(prompt)

    backend.lookup = counting_lookup
    return backend, asked


class TestCandidatePairs:
    @settings(max_examples=300, deadline=None)
    @given(d=profiled_tables())
    def test_matches_the_g3_oracle(self, d):
        assert list(candidate_pairs(d)) == oracle_fd_candidates(d, FD_ERROR)

    @settings(max_examples=300, deadline=None)
    @given(d=directed_tables())
    @example(d=limit_table((0,)))
    @example(d=limit_table((0, 2)))
    @example(d=Dataset(["x", "y"], [(Cell.text(f"x{i}"), Cell.text(f"y{i}")) for i in range(5)]))
    @example(d=Dataset(["x", "y"], [(Cell.text("x"), MISSING), (MISSING, Cell.text("y"))]))
    def test_directions_match_the_g3_oracle(self, d):
        assert candidate_pairs(d) == {
            pair: holds for pair, holds in oracle_fd_directions(d, FD_ERROR).items() if any(holds)
        }

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32), n_rows=st.integers(1, 60), flip=st.booleans())
    def test_an_exact_fd_is_never_refuted(self, seed, n_rows, flip):
        rng = random.Random(seed)
        f = [f"y{rng.randrange(3)}" for _ in range(8)]
        rows = []
        for _ in range(n_rows):
            x = rng.randrange(8)
            cells = (
                MISSING if rng.random() < 0.2 else Cell.text(f"x{x}"),
                MISSING if rng.random() < 0.2 else Cell.text(f[x]),
                Cell.text(f"z{rng.randrange(5)}"),
            )
            rows.append(cells[1::-1] + cells[2:] if flip else cells)
        headers = ["y", "x", "z"] if flip else ["x", "y", "z"]
        assert tuple(headers[:2]) in candidate_pairs(Dataset(headers, rows))

    @pytest.mark.parametrize("flipped, kept", [((0,), True), ((0, 2), False)])
    def test_g3_at_the_limit_is_kept(self, flipped, kept):
        d = limit_table(flipped)
        assert (list(candidate_pairs(d)) == [("x", "y")]) is kept
        # Kept, x -> y sits exactly at FD_ERROR and holds; y -> x does not.
        assert candidate_pairs(d) == ({("x", "y"): (True, False)} if kept else {})
        assert oracle_fd_directions(d, FD_ERROR * 0.99) == {("x", "y"): (False, False)}

    def test_refuted_pair_sends_no_prompt(self, tmp_path, caplog):
        # b follows a; c is independent of both.
        d = Dataset(["a", "b", "c"], [
            (Cell.text(f"a{i % 10}"), Cell.text(f"b{i % 10 // 2}"), Cell.text(f"c{i // 10}"))
            for i in range(40)
        ])
        assert list(candidate_pairs(d)) == [("a", "b")]
        # The cassette holds no prompt for the refuted pairs.
        path = pair_cassette(tmp_path, ["a", "b"], {("a", "b"): "A"})
        backend, asked = counting_backend(path)
        with caplog.at_level("INFO", logger="llmclean.generation"):
            relations = pair_relationships(d, backend)
        assert [(r.column_a, r.column_b, r.related) for r in relations] == [
            ("a", "b", True), ("a", "c", False), ("b", "c", False),
        ]
        assert relations[0].hierarchy is Hierarchy.ATTRIBUTE_OF_A
        assert len(asked) == 1  # a -> b alone holds, so the data orders the pair
        assert render_prompt(RELATED_TEMPLATE, {"col_a": "a", "col_b": "c"}) not in asked
        assert [r.getMessage() for r in caplog.records] == [
            "asked 1 of 3 column pairs; 1 of 1 hierarchies from the data"
        ]

    @pytest.mark.parametrize("headers, hierarchy", [
        (["zone", "region"], Hierarchy.ATTRIBUTE_OF_A),
        (["region", "zone"], Hierarchy.ATTRIBUTE_OF_B),
    ])
    def test_one_direction_sends_no_hierarchy_prompt(self, tmp_path, headers, hierarchy):
        # zone -> region holds, region -> zone does not; the cassette's
        # hierarchy answer points the other way and must not be read.
        cells = {"zone": [f"z{i % 10}" for i in range(40)],
                 "region": [f"r{i % 10 // 5}" for i in range(40)]}
        d = Dataset(headers, list(zip(*(map(Cell.text, cells[h]) for h in headers))))
        wrong = "B" if hierarchy is Hierarchy.ATTRIBUTE_OF_A else "A"
        path = pair_cassette(tmp_path, headers, {tuple(headers): wrong})
        backend, asked = counting_backend(path)
        [relation] = pair_relationships(d, backend)
        assert relation.related and relation.hierarchy is hierarchy
        assert not [p for p in asked if "is an attribute of" in p]
        assert len(asked) == 1

    @pytest.mark.parametrize("answer, hierarchy", [
        ("A", Hierarchy.ATTRIBUTE_OF_A),
        ("B", Hierarchy.ATTRIBUTE_OF_B),
        ("NONE", Hierarchy.INDEPENDENT),
    ])
    def test_both_directions_still_ask(self, tmp_path, answer, hierarchy):
        # A bijection: each column determines the other, so the model decides.
        d = key_table(["code", "name"], n_rows=6)
        path = pair_cassette(tmp_path, ["code", "name"], {("code", "name"): answer})
        backend, asked = counting_backend(path)
        [relation] = pair_relationships(d, backend)
        assert relation.hierarchy is hierarchy
        assert render_prompt(HIERARCHY_TEMPLATE, {"col_a": "code", "col_b": "name"}) in asked
        assert len(asked) == 1 + 1

    def test_pair_with_no_shared_row_still_asks(self, tmp_path):
        d = Dataset(["a", "b"], [(Cell.text("a1"), MISSING), (MISSING, Cell.text("b1"))])
        assert candidate_pairs(d) == {("a", "b"): (True, True)}
        path = pair_cassette(tmp_path, ["a", "b"], {("a", "b"): "B"})
        backend, asked = counting_backend(path)
        [relation] = pair_relationships(d, backend)
        assert relation.hierarchy is Hierarchy.ATTRIBUTE_OF_B
        assert len(asked) == 1 + 1

    @pytest.mark.parametrize("seed", [1, 9001])
    def test_hierarchy_groups_survive_injected_errors(self, seed):
        clean = hierarchy_table(seed)
        same_group = [
            (a, b) for a, b in combinations(clean.headers, 2)
            if a.split("_")[1] == b.split("_")[1]
        ]
        assert len(same_group) == 30
        spec = ErrorSpec(
            fd_swap_rate=0.01, missing_rate=0.03,
            fd_determinant="district_0", fd_dependent="region_0", seed=seed,
        )
        dirty = normalize_missing(inject_errors(clean, spec)[0])
        assert list(candidate_pairs(clean)) == same_group
        assert list(candidate_pairs(dirty)) == same_group


class TestBuildRelationalGraph:
    def test_zip_city_denial_rule(self):
        relations = [
            ColumnPairRelation(
                "ZipCode", "City", related=True, hierarchy=Hierarchy.ATTRIBUTE_OF_A,
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
        graph = ContextGraph(frozenset([
            *entity(Concept.ATTRIBUTE, "ProviderNumber"),
            *entity(Concept.ATTRIBUTE, "PhoneNumber"),
            edge(MATCHES_WITH, "ProviderNumber", "PhoneNumber"),
            Triple(node_id("ProviderNumber"), MATCH_THRESHOLD, 0.75, ObjKind.NUMBER),
        ]))
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
