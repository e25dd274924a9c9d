"""Contract of the immutable value types built on ``llmclean.frozen.Frozen``.

Each type keeps the behaviour it had as a generated record class: equality
only within its own class, a hash that agrees with equality, the same repr
text, refused assignment and its ``ValueError`` checks.
"""

from __future__ import annotations

import copy
import math
import pickle
import statistics

import pytest
from hypothesis import given, strategies as st

from llmclean.context_model import ObjKind, Triple
from llmclean.dataset import Cell, CellKind, CellRef
from llmclean.detection import Finding
from llmclean.gateway import PromptTemplate, ResponseFormat
from llmclean.generation import quartiles
from llmclean.rules import ColumnRef, DependencyKind, Literal, OfdRule, Predicate, SensorSpec

_EQ = Predicate("EQ", ColumnRef("t1", "a"), Literal(""))

# (type, constructor arguments, the repr the generated class gave them)
SAMPLES = [
    (Cell, (CellKind.TEXT, "a"), "Cell(kind=<CellKind.TEXT: 'text'>, value='a')"),
    (CellRef, (3, "x"), "CellRef(row=3, column='x')"),
    (Finding, (CellRef(3, "x"), "r1", "why"),
     "Finding(cell=CellRef(row=3, column='x'), rule_id='r1', reason='why')"),
    (SensorSpec, ("m", 0.0, 1.0, "C"),
     "SensorSpec(sensor_model='m', min_value=0.0, max_value=1.0, unit='C')"),
    (Predicate, ("SIM", ColumnRef("t1", "a"), Literal("x"), 0.75),
     "Predicate(op='SIM', left=ColumnRef(alias='t1', column='a'), right=Literal(value='x'), "
     "sim_threshold=0.75)"),
    (OfdRule, (DependencyKind.DENIAL, ("t1",), (_EQ,), "r1", SensorSpec("m", 0.0, 1.0)),
     "OfdRule(kind=<DependencyKind.DENIAL: 'denial'>, aliases=('t1',), predicates=("
     "Predicate(op='EQ', left=ColumnRef(alias='t1', column='a'), right=Literal(value=''), "
     "sim_threshold=None),), id='r1', spec=SensorSpec(sensor_model='m', min_value=0.0, "
     "max_value=1.0, unit=''))"),
    (Triple, ("llmc:a", "llmc:min", 1.0, ObjKind.NUMBER),
     "Triple(subject='llmc:a', predicate='llmc:min', obj=1.0, obj_kind=<ObjKind.NUMBER: 'number'>)"),
    (PromptTemplate, ("p1", "Is {x}?", ResponseFormat.YES_NO, (("a", "b"),)),
     "PromptTemplate(id='p1', task_text='Is {x}?', response_format=<ResponseFormat.YES_NO: "
     "'yes_no'>, few_shot=(('a', 'b'),))"),
]
IDS = [cls.__name__ for cls, _, _ in SAMPLES]


@pytest.mark.parametrize("cls, args, text", SAMPLES, ids=IDS)
def test_equality_hash_and_repr(cls, args, text):
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert repr(a) == text
    lookalike = type(cls.__name__, (cls,), {})(*args)
    assert repr(lookalike) == text
    for other in (args, tuple(getattr(a, f) for f in cls._fields), lookalike):
        assert a != other and other != a


@pytest.mark.parametrize("cls, args, text", SAMPLES, ids=IDS)
def test_assignment_and_deletion_refused(cls, args, text):
    a = cls(*args)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert repr(a) == text


@pytest.mark.parametrize("cls, args, text", SAMPLES, ids=IDS)
def test_copy_and_pickle_rebuild_an_equal_value(cls, args, text):
    a = cls(*args)
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is cls and twin == a and repr(twin) == text


def test_rules_differing_only_in_id_and_spec_are_equal():
    base = OfdRule(DependencyKind.CAPABILITY, ("t1",), (_EQ,))
    tagged = OfdRule(DependencyKind.CAPABILITY, ("t1",), (_EQ,), id="r9",
                     spec=SensorSpec("m", -1.0, 1.0))
    assert base == tagged and hash(base) == hash(tagged)
    assert base != OfdRule(DependencyKind.DENIAL, ("t1",), (_EQ,))


@pytest.mark.parametrize("make", [
    lambda: Cell.timestamp(-1),
    lambda: SensorSpec("m", math.nan, 1.0),
    lambda: SensorSpec("m", 0.0, math.nan),
    lambda: SensorSpec("m", 2.0, 1.0),
    lambda: Predicate("SIM", ColumnRef("t1", "a"), Literal("x")),
    lambda: Predicate("SIM", ColumnRef("t1", "a"), Literal("x"), 1.5),
    lambda: Predicate("EQ", ColumnRef("t1", "a"), Literal("x"), 0.5),
    lambda: OfdRule(DependencyKind.DENIAL, (), (_EQ,)),
    lambda: OfdRule(DependencyKind.DENIAL, ("t1", "t2", "t3"), (_EQ,)),
    lambda: OfdRule(DependencyKind.DENIAL, ("t1", "t1"), (_EQ,)),
    lambda: OfdRule(DependencyKind.DENIAL, ("t1",), ()),
    lambda: OfdRule(DependencyKind.DENIAL, ("t2",), (_EQ,)),
    lambda: OfdRule(DependencyKind.DENIAL, ("t1", "t2"), (_EQ,)),
    lambda: Triple("", "rdf:type", "ssn:Sensor"),
    lambda: Triple("llmc:a", "", "ssn:Sensor"),
    lambda: Triple("llmc:a", "ex:other", "x"),
])
def test_validation_still_raises_value_error(make):
    with pytest.raises(ValueError):
        make()


@given(st.lists(st.floats(-1e300, 1e300), min_size=4).map(sorted))
def test_quartiles_equal_the_inclusive_statistics_quantiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    assert quartiles(values) == (q1, q3)
