from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from llmclean.detection import temporal_link
from llmclean.errors import RuleParseError
from llmclean.rules import (
    ColumnRef,
    DependencyKind,
    Literal,
    OfdRule,
    Predicate,
    SensorSpec,
    parse_rule,
    parse_rule_file,
    render_rule,
    render_rule_file,
)

MISSING_RULE_TEXT = 't1&EQ(t1.System,"")'
FD_RULE_TEXT = "t1&t2&EQ(t1.SensingDevice,t2.SensingDevice)&IQ(t1.Device,t2.Device)"


class TestParse:
    def test_unary_missing_rule(self):
        rule = parse_rule(MISSING_RULE_TEXT, DependencyKind.DENIAL)
        assert rule.aliases == ("t1",)
        assert rule.predicates == (
            Predicate("EQ", ColumnRef("t1", "System"), Literal("")),
        )

    def test_binary_fd_rule(self):
        rule = parse_rule(FD_RULE_TEXT, DependencyKind.DENIAL)
        assert rule.aliases == ("t1", "t2")
        assert rule.predicates[0] == Predicate(
            "EQ", ColumnRef("t1", "SensingDevice"), ColumnRef("t2", "SensingDevice")
        )
        assert rule.predicates[1] == Predicate(
            "IQ", ColumnRef("t1", "Device"), ColumnRef("t2", "Device")
        )

    def test_undeclared_alias(self):
        with pytest.raises(RuleParseError) as exc:
            parse_rule('t1&EQ(t3.X,"")', DependencyKind.DENIAL)
        assert "t3" in str(exc.value)
        assert exc.value.offset == 6

    def test_matching_rule_with_threshold(self):
        text = (
            "t1&t2&SIM75(t1.ProviderNumber,t2.ProviderNumber)"
            "&SIM75(t1.PhoneNumber,t2.PhoneNumber)"
        )
        rule = parse_rule(text, DependencyKind.MATCHING)
        assert all(p.op == "SIM" and p.sim_threshold == 0.75 for p in rule.predicates)

    def test_bare_sim_defaults(self):
        rule = parse_rule("t1&t2&SIM(t1.A,t2.A)", DependencyKind.MATCHING)
        assert rule.predicates[0].sim_threshold == 0.75

    def test_whitespace_tolerated(self):
        rule = parse_rule('t1 & t2 & EQ(t1.A, t2.A) & IQ(t1.B, t2.B)', DependencyKind.DENIAL)
        assert rule == parse_rule("t1&t2&EQ(t1.A,t2.A)&IQ(t1.B,t2.B)", DependencyKind.DENIAL)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "t1",
            "t1&",
            "t1&EQ(t1.A",          # unbalanced parens
            "t1&XX(t1.A,t1.B)",    # unknown operator
            "t1&t2&t3&EQ(t1.A,t2.A)",  # too many aliases
            't1&EQ(t1.A,"x") trailing',
            "t1&t2&EQ(t1.A,t1.A)",  # t2 never referenced
            "t1&SIM200(t1.A,t1.A)",
        ],
    )
    def test_rejected_texts(self, bad):
        with pytest.raises(RuleParseError):
            parse_rule(bad, DependencyKind.DENIAL)

    def test_literal_escapes(self):
        rule = parse_rule('t1&EQ(t1.A,"say \\"hi\\"")', DependencyKind.DENIAL)
        assert rule.predicates[0].right == Literal('say "hi"')


class TestRender:
    def test_unary_rule_exact_text(self):
        rule = parse_rule(MISSING_RULE_TEXT, DependencyKind.DENIAL)
        assert render_rule(rule) == MISSING_RULE_TEXT

    def test_quote_escaped(self):
        rule = OfdRule(
            DependencyKind.DENIAL,
            ("t1",),
            (Predicate("EQ", ColumnRef("t1", "A"), Literal('a"b')),),
        )
        assert render_rule(rule) == 't1&EQ(t1.A,"a\\"b")'

    @pytest.mark.parametrize("text", [MISSING_RULE_TEXT, FD_RULE_TEXT])
    def test_round_trip_verbatim_examples(self, text):
        rule = parse_rule(text, DependencyKind.DENIAL)
        assert parse_rule(render_rule(rule), DependencyKind.DENIAL) == rule


_ident = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True)
_literal = st.text(max_size=10)


@st.composite
def rules(draw) -> OfdRule:
    n_aliases = draw(st.integers(1, 2))
    aliases = tuple(f"t{i + 1}" for i in range(n_aliases))
    kind = draw(st.sampled_from(list(DependencyKind)))

    def operand(alias_pool):
        if draw(st.booleans()):
            return ColumnRef(draw(st.sampled_from(alias_pool)), draw(_ident))
        return Literal(draw(_literal))

    preds = []
    # With two aliases every alias must be referenced; force coverage.
    for required_alias in aliases:
        column = draw(_ident)
        other = operand(aliases)
        op = draw(st.sampled_from(["EQ", "IQ", "SIM"]))
        threshold = draw(st.integers(0, 100)) / 100 if op == "SIM" else None
        preds.append(Predicate(op, ColumnRef(required_alias, column), other, threshold))
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from(["EQ", "IQ", "SIM"]))
        threshold = draw(st.integers(0, 100)) / 100 if op == "SIM" else None
        left = ColumnRef(draw(st.sampled_from(aliases)), draw(_ident))
        preds.append(Predicate(op, left, operand(aliases), threshold))
    return OfdRule(kind, aliases, tuple(preds))


class TestRoundTripProperty:
    @given(rules())
    @settings(max_examples=300)
    def test_parse_render_identity(self, rule):
        assert parse_rule(render_rule(rule), rule.kind) == rule

    def test_fuzz_never_crashes(self):
        rng = random.Random(1234)
        for _ in range(2000):
            n = rng.randint(0, 40)
            text = "".join(chr(rng.randint(32, 126)) for _ in range(n))
            try:
                parse_rule(text, DependencyKind.DENIAL)
            except RuleParseError:
                pass


class TestRuleFile:
    def test_round_trip(self):
        text = (
            "# sample rules\n"
            "\n"
            f"denial: {MISSING_RULE_TEXT}\n"
            f"device_link: {FD_RULE_TEXT}\n"
            "matching: t1&t2&SIM75(t1.A,t2.A)&SIM75(t1.B,t2.B)\n"
        )
        parsed = parse_rule_file(text)
        assert [r.kind for r in parsed] == [
            DependencyKind.DENIAL,
            DependencyKind.DEVICE_LINK,
            DependencyKind.MATCHING,
        ]
        assert [r.id for r in parsed] == ["r1", "r2", "r3"]
        assert parse_rule_file(render_rule_file(parsed)) == parsed

    def test_unknown_kind(self):
        with pytest.raises(RuleParseError):
            parse_rule_file("bogus: t1&EQ(t1.A,\"\")\n")

    def test_bad_line_reports_number(self):
        with pytest.raises(RuleParseError) as exc:
            parse_rule_file("denial: t1&EQ(t1.A,\"\")\ndenial: t1&&\n")
        assert "line 2" in str(exc.value)


class TestPayloads:
    def test_payloads_do_not_affect_equality(self):
        plain = parse_rule(MISSING_RULE_TEXT, DependencyKind.DENIAL)
        loaded = OfdRule(
            plain.kind,
            plain.aliases,
            plain.predicates,
            id="capability:x",
            spec=SensorSpec("x", 0.0, 1.0),
        )
        assert loaded == plain

    def test_temporal_pair_comes_from_literals(self):
        rule = parse_rule(
            't1&t2&EQ(t1.Device,"device_in_1")&EQ(t2.Device,"device_main")',
            DependencyKind.TEMPORAL,
        )
        assert temporal_link(rule) == ("Device", "device_in_1", "device_main")

    def test_sensor_spec_ordering(self):
        with pytest.raises(ValueError):
            SensorSpec("bad", 10.0, 1.0)

    def test_sensor_spec_rejects_nan_bound(self):
        with pytest.raises(ValueError):
            SensorSpec("bad", float("nan"), 125.0)
        with pytest.raises(ValueError):
            SensorSpec("bad", 0.0, float("nan"))

    def test_invalid_rule_structures(self):
        with pytest.raises(ValueError):
            OfdRule(DependencyKind.DENIAL, ("t1",), ())
        with pytest.raises(ValueError):
            OfdRule(
                DependencyKind.DENIAL,
                ("t1", "t2"),
                (Predicate("EQ", ColumnRef("t1", "A"), ColumnRef("t1", "A")),),
            )
