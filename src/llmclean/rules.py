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

import math
import re
from dataclasses import dataclass, field
from enum import Enum

from .errors import LLMCleanError, RuleParseError

DEFAULT_SIM_THRESHOLD = 0.75

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class DependencyKind(Enum):
    DENIAL = "denial"
    MATCHING = "matching"
    DEVICE_LINK = "device_link"
    TEMPORAL = "temporal"
    LOCALITY = "locality"
    MONITORING = "monitoring"
    CAPABILITY = "capability"

    @classmethod
    def from_name(cls, name: str) -> "DependencyKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise RuleParseError(f"unknown dependency kind {name!r}") from None


@dataclass(frozen=True)
class SensorSpec:
    """Operating range of one sensor model: min/max measurable value."""

    sensor_model: str
    min_value: float
    max_value: float
    unit: str = ""

    def __post_init__(self):
        # A NaN bound would fail every range check and flag every reading.
        if math.isnan(self.min_value) or math.isnan(self.max_value):
            raise ValueError(f"NaN bound for {self.sensor_model!r}")
        if self.min_value > self.max_value:
            raise ValueError(
                f"min {self.min_value} exceeds max {self.max_value} "
                f"for {self.sensor_model!r}"
            )


def parse_sensor_spec(model: str, entry: object) -> SensorSpec:
    """Build the spec of one sensor-spec JSON entry: ``{"min":..,"max":..,"unit":..}``.

    Raises LLMCleanError naming the model unless the entry is an object with
    numeric ``min <= max``.
    """
    if not isinstance(entry, dict):
        raise LLMCleanError(f"sensor spec {model!r} must be an object with min and max")
    try:
        return SensorSpec(
            model, float(entry["min"]), float(entry["max"]), str(entry.get("unit", ""))
        )
    except (KeyError, TypeError, ValueError, OverflowError):
        raise LLMCleanError(
            f"sensor spec {model!r} needs numeric min <= max "
            f"(got min={entry.get('min')!r}, max={entry.get('max')!r})"
        ) from None


@dataclass(frozen=True)
class ColumnRef:
    alias: str
    column: str


@dataclass(frozen=True)
class Literal:
    value: str


Operand = ColumnRef | Literal


@dataclass(frozen=True)
class Predicate:
    op: str  # EQ | IQ | SIM
    left: Operand
    right: Operand
    sim_threshold: float | None = None

    def __post_init__(self):
        if self.op == "SIM":
            if self.sim_threshold is None or not 0.0 <= self.sim_threshold <= 1.0:
                raise ValueError("SIM predicate needs a threshold in [0, 1]")
        elif self.sim_threshold is not None:
            raise ValueError(f"{self.op} predicate must not carry a threshold")


@dataclass(frozen=True)
class OfdRule:
    """One parsed dependency rule.

    Equality covers the grammar-visible structure (kind, aliases,
    predicates); ``id`` and the carried payloads (sensor spec, concrete
    entity mapping) are bookkeeping extracted from a context graph and are
    excluded from comparison so that parse/render round-trips are exact.
    """

    kind: DependencyKind
    aliases: tuple[str, ...]
    predicates: tuple[Predicate, ...]
    id: str = field(default="", compare=False)
    spec: SensorSpec | None = field(default=None, compare=False)
    mapping: dict[str, str] | None = field(default=None, compare=False)

    def __post_init__(self):
        if not 1 <= len(self.aliases) <= 2:
            raise ValueError(f"rule needs 1 or 2 aliases, got {len(self.aliases)}")
        if len(set(self.aliases)) != len(self.aliases):
            raise ValueError("duplicate alias")
        if not self.predicates:
            raise ValueError("rule needs at least one predicate")
        referenced: set[str] = set()
        for pred in self.predicates:
            for operand in (pred.left, pred.right):
                if isinstance(operand, ColumnRef):
                    if operand.alias not in self.aliases:
                        raise ValueError(f"undeclared alias {operand.alias!r}")
                    referenced.add(operand.alias)
        if len(self.aliases) == 2 and referenced != set(self.aliases):
            missing = set(self.aliases) - referenced
            raise ValueError(f"alias {missing.pop()!r} never referenced")


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
        out: list[str] = []
        while True:
            if self.eof():
                raise self.error("unterminated string literal", start)
            ch = self.text[self.pos]
            self.pos += 1
            if ch == "\\":
                if self.eof():
                    raise self.error("dangling escape", self.pos - 1)
                out.append(self.text[self.pos])
                self.pos += 1
            elif ch == '"':
                return "".join(out)
            else:
                out.append(ch)


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
    escaped = operand.value.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


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
    """Parse a rule file: one ``kind: ruletext`` per line, # comments allowed."""
    rules: list[OfdRule] = []
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
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
