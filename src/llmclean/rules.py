"""Dependency-rule model and its textual syntax.

Rule text has the shape ``alias(&alias)?&pred(&pred)*`` where a predicate is
``OP(operand,operand)``, an operand is either ``alias.Column`` or a
double-quoted literal, and OP is one of ``EQ``, ``IQ`` or ``SIM`` with an
optional percent threshold baked into the token (``SIM75`` means 0.75).
Examples::

    t1&EQ(t1.System,"")
    t1&t2&EQ(t1.SensingDevice,t2.SensingDevice)&IQ(t1.Device,t2.Device)
    t1&t2&SIM75(t1.ProviderNumber,t2.ProviderNumber)&SIM75(t1.PhoneNumber,t2.PhoneNumber)

Rule files hold one rule per line as ``kind: ruletext`` with ``#`` comments.
"""

from __future__ import annotations

import json
import math
import re
from enum import Enum
from typing import Mapping

from .errors import LLMCleanError, RuleParseError
from .frozen import Frozen, set_field

DEFAULT_SIM_THRESHOLD = 0.75

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class DependencyKind(Enum):
    DENIAL = "denial"
    MATCHING = "matching"
    DEVICE_LINK = "device_link"
    TEMPORAL = "temporal"
    LOCALITY = "locality"
    CAPABILITY = "capability"

    @classmethod
    def from_name(cls, name: str) -> "DependencyKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise RuleParseError(f"unknown dependency kind {name!r}") from None


class SensorSpec(Frozen):
    """Operating range of one sensor model: min/max measurable value."""

    __slots__ = _fields = ("sensor_model", "min_value", "max_value", "unit")

    def __init__(self, sensor_model: str, min_value: float, max_value: float, unit: str = ""):
        # A NaN bound would fail every range check and flag every reading.
        if math.isnan(min_value) or math.isnan(max_value):
            raise ValueError(f"NaN bound for {sensor_model!r}")
        if min_value > max_value:
            raise ValueError(
                f"min {min_value} exceeds max {max_value} for {sensor_model!r}"
            )
        set_field(self, "sensor_model", sensor_model)
        set_field(self, "min_value", min_value)
        set_field(self, "max_value", max_value)
        set_field(self, "unit", unit)


def parse_sensor_spec(model: str, entry: object) -> SensorSpec:
    """Build the spec of one sensor-spec JSON entry: ``{"min":..,"max":..,"unit":..}``.

    Raises LLMCleanError naming the model unless the entry is an object with
    finite JSON numbers ``min <= max`` (a boolean, a numeric string or the
    ``Infinity``/``NaN`` that Python's ``json`` reads is not one) and, if it
    has one, a string ``unit``.
    """
    if not isinstance(entry, dict):
        raise LLMCleanError(f"sensor spec {model!r} must be an object with min and max")
    low, high, unit = entry.get("min"), entry.get("max"), entry.get("unit", "")
    if type(low) in (int, float) and type(high) in (int, float) and isinstance(unit, str):
        try:
            spec = SensorSpec(model, float(low), float(high), unit)
        except (ValueError, OverflowError):
            pass
        else:
            if math.isfinite(spec.min_value) and math.isfinite(spec.max_value):
                return spec
    raise LLMCleanError(
        f"sensor spec {model!r} needs finite numeric min <= max and a string unit "
        f"(got min={low!r}, max={high!r}, unit={unit!r})"
    )


def parse_sensor_specs(text: str, source: str) -> dict[str, SensorSpec]:
    """The spec map of a sensor-spec JSON file, keyed by sensor model.

    ``source`` names the file in errors; every entry goes through
    :func:`parse_sensor_spec`.
    """
    table = json.loads(text)
    if not isinstance(table, dict):
        raise LLMCleanError(f"{source}: sensor specs must be a JSON object keyed by model")
    return {model: parse_sensor_spec(model, entry) for model, entry in table.items()}


def strip_instance_suffix(sensor_id: str) -> str:
    """Drop a trailing ``_<n>`` instance counter from a sensor id."""
    head, sep, tail = sensor_id.rpartition("_")
    if sep and tail.isdigit():
        return head
    return sensor_id


def lookup_spec(specs: Mapping[str, SensorSpec], sensor_id: str) -> SensorSpec | None:
    """The spec of a sensor id, falling back to its model without the ``_<n>`` suffix."""
    if sensor_id in specs:
        return specs[sensor_id]
    return specs.get(strip_instance_suffix(sensor_id))


class ColumnRef(Frozen):
    __slots__ = _fields = ("alias", "column")

    def __init__(self, alias: str, column: str):
        set_field(self, "alias", alias)
        set_field(self, "column", column)


class Literal(Frozen):
    __slots__ = _fields = ("value",)

    def __init__(self, value: str):
        set_field(self, "value", value)


Operand = ColumnRef | Literal


class Predicate(Frozen):
    __slots__ = _fields = ("op", "left", "right", "sim_threshold")

    def __init__(
        self, op: str, left: Operand, right: Operand, sim_threshold: float | None = None
    ):
        if op == "SIM":  # op is EQ, IQ or SIM
            if sim_threshold is None or not 0.0 <= sim_threshold <= 1.0:
                raise ValueError("SIM predicate needs a threshold in [0, 1]")
        elif sim_threshold is not None:
            raise ValueError(f"{op} predicate must not carry a threshold")
        set_field(self, "op", op)
        set_field(self, "left", left)
        set_field(self, "right", right)
        set_field(self, "sim_threshold", sim_threshold)


class OfdRule(Frozen):
    """One parsed dependency rule.

    Equality covers the grammar-visible structure (kind, aliases,
    predicates); ``id`` and the carried sensor spec are bookkeeping
    extracted from a context graph and are excluded from comparison so that
    parse/render round-trips are exact. A rule names columns, not entities:
    one FD rule covers every entity of its edge class.
    """

    __slots__ = _fields = ("kind", "aliases", "predicates", "id", "spec")
    _compared = ("kind", "aliases", "predicates")

    def __init__(
        self,
        kind: DependencyKind,
        aliases: tuple[str, ...],
        predicates: tuple[Predicate, ...],
        id: str = "",
        spec: SensorSpec | None = None,
    ):
        if not 1 <= len(aliases) <= 2:
            raise ValueError(f"rule needs 1 or 2 aliases, got {len(aliases)}")
        if len(set(aliases)) != len(aliases):
            raise ValueError("duplicate alias")
        if not predicates:
            raise ValueError("rule needs at least one predicate")
        referenced: set[str] = set()
        for pred in predicates:
            for operand in (pred.left, pred.right):
                if isinstance(operand, ColumnRef):
                    if operand.alias not in aliases:
                        raise ValueError(f"undeclared alias {operand.alias!r}")
                    referenced.add(operand.alias)
        if len(aliases) == 2 and referenced != set(aliases):
            missing = set(aliases) - referenced
            raise ValueError(f"alias {missing.pop()!r} never referenced")
        set_field(self, "kind", kind)
        set_field(self, "aliases", aliases)
        set_field(self, "predicates", predicates)
        set_field(self, "id", id)
        set_field(self, "spec", spec)


# A literal escapes "\\" and '"', and the line breaks "\n" and "\r": rule
# files and context graphs end their lines at "\n" only, and a reader that
# opens one in text mode turns a raw "\r" into a line end. Other line
# separators (U+2028 ...) stay raw inside a literal.
def escape_literal(text: str) -> str:
    return (
        text.replace("\\", "\\\\").replace('"', '\\"')
        .replace("\n", "\\n").replace("\r", "\\r")
    )


_UNESCAPED = {"n": "\n", "r": "\r"}


def unescape_literal(text: str) -> str:
    """Inverse of escape_literal for the body of a literal, quotes excluded."""
    if "\\" not in text:
        return text
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            out.append(_UNESCAPED.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def closing_quote(text: str, start: int = 0) -> int:
    """Index of the quote that closes the literal opening at ``text[start]``, or -1."""
    end = start + 1
    while end < len(text):
        if text[end] == "\\":
            end += 2
        elif text[end] == '"':
            return end
        else:
            end += 1
    return -1


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, offset: int | None = None) -> RuleParseError:
        return RuleParseError(message, self.pos if offset is None else offset)

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch: str):
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def ident(self) -> str:
        m = _IDENT_RE.match(self.text, self.pos)
        if not m:
            raise self.error("expected identifier")
        self.pos = m.end()
        return m.group()

    def quoted(self) -> str:
        start = self.pos
        self.expect('"')
        end = closing_quote(self.text, start)
        if end < 0:
            raise self.error("unterminated string literal", start)
        self.pos = end + 1
        return unescape_literal(self.text[start + 1:end])


def _parse_operand(sc: _Scanner, aliases: tuple[str, ...]) -> Operand:
    sc.skip_ws()
    if sc.peek() == '"':
        return Literal(sc.quoted())
    at = sc.pos
    alias = sc.ident()
    if alias not in aliases:
        raise sc.error(f"undeclared alias {alias!r}", at)
    sc.expect(".")
    column = sc.ident()
    return ColumnRef(alias, column)


def _parse_predicate(sc: _Scanner, aliases: tuple[str, ...]) -> Predicate:
    at = sc.pos
    token = sc.ident()
    threshold: float | None = None
    if token in ("EQ", "IQ"):
        op = token
    elif token == "SIM":
        op, threshold = "SIM", DEFAULT_SIM_THRESHOLD
    elif token.startswith("SIM") and token[3:].isdigit():
        pct = int(token[3:])
        if pct > 100:
            raise sc.error(f"SIM threshold {pct} exceeds 100", at)
        op, threshold = "SIM", pct / 100.0
    else:
        raise sc.error(f"unknown operator {token!r}", at)
    sc.skip_ws()
    sc.expect("(")
    left = _parse_operand(sc, aliases)
    sc.skip_ws()
    sc.expect(",")
    right = _parse_operand(sc, aliases)
    sc.skip_ws()
    sc.expect(")")
    return Predicate(op, left, right, threshold)


def parse_rule(text: str, kind: DependencyKind, rule_id: str = "") -> OfdRule:
    """Parse one rule string. Raises RuleParseError with the failing offset."""
    sc = _Scanner(text)
    aliases: list[str] = []
    while True:
        sc.skip_ws()
        mark = sc.pos
        try:
            name = sc.ident()
        except RuleParseError:
            raise sc.error("expected alias or predicate")
        sc.skip_ws()
        if sc.peek() == "(":
            sc.pos = mark  # it was an operator, not an alias
            break
        if len(aliases) >= 2:
            raise sc.error("at most two tuple aliases allowed", mark)
        if name in aliases:
            raise sc.error(f"duplicate alias {name!r}", mark)
        aliases.append(name)
        sc.skip_ws()
        if sc.peek() != "&":
            raise sc.error("expected '&' followed by a predicate")
        sc.pos += 1

    if not aliases:
        raise sc.error("rule must declare at least one alias", 0)

    alias_tuple = tuple(aliases)
    predicates: list[Predicate] = []
    while True:
        sc.skip_ws()
        predicates.append(_parse_predicate(sc, alias_tuple))
        sc.skip_ws()
        if sc.peek() == "&":
            sc.pos += 1
            continue
        break
    if not sc.eof():
        raise sc.error("trailing input after rule")

    try:
        return OfdRule(kind, alias_tuple, tuple(predicates), id=rule_id)
    except ValueError as exc:
        raise RuleParseError(str(exc), len(text)) from None


def _render_operand(operand: Operand) -> str:
    if isinstance(operand, ColumnRef):
        return f"{operand.alias}.{operand.column}"
    return f'"{escape_literal(operand.value)}"'


def _render_predicate(pred: Predicate) -> str:
    if pred.op == "SIM":
        token = f"SIM{round(pred.sim_threshold * 100)}"
    else:
        token = pred.op
    return f"{token}({_render_operand(pred.left)},{_render_operand(pred.right)})"


def render_rule(rule: OfdRule) -> str:
    """Inverse of parse_rule: parse_rule(render_rule(r), r.kind) == r."""
    parts = list(rule.aliases) + [_render_predicate(p) for p in rule.predicates]
    return "&".join(parts)


def parse_rule_file(text: str) -> list[OfdRule]:
    """Parse a rule file: one ``kind: ruletext`` per line, # comments allowed.

    Lines end at "\\n" only (see escape_literal), so a literal may hold any
    other line separator raw.
    """
    rules: list[OfdRule] = []
    for line_no, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        kind_part, sep, rule_part = line.partition(":")
        if not sep:
            raise RuleParseError(f"line {line_no}: expected 'kind: ruletext'")
        try:
            kind = DependencyKind.from_name(kind_part)
            rule = parse_rule(rule_part.strip(), kind, rule_id=f"r{len(rules) + 1}")
        except RuleParseError as exc:
            raise RuleParseError(f"line {line_no}: {exc}", exc.offset) from None
        rules.append(rule)
    return rules


def render_rule_file(rules: list[OfdRule]) -> str:
    lines = [f"{rule.kind.value}: {render_rule(rule)}" for rule in rules]
    return "\n".join(lines) + ("\n" if lines else "")
