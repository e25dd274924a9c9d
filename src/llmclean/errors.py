"""Exception types shared across the package."""

from __future__ import annotations


class LLMCleanError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(LLMCleanError):
    """Header/column problems: duplicates, collisions, unknown columns."""


class StructuralError(LLMCleanError):
    """Malformed table structure, e.g. a ragged CSV row."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class RuleParseError(LLMCleanError):
    """Rule text outside the grammar; carries the offset of the problem."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class RuleError(LLMCleanError):
    """A structurally valid rule that cannot be applied to the dataset."""


class ModelError(LLMCleanError):
    """Context-graph invariant violation; names the offending triple/nodes."""


class GraphParseError(LLMCleanError):
    """Malformed serialized graph; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


class TemplateError(LLMCleanError):
    """Prompt template rendering failed (unbound placeholder)."""


class GatewayError(LLMCleanError):
    """Base class for language-model backend failures."""


class TransportError(GatewayError):
    """Network / HTTP / auth failure talking to a remote backend."""


class ReplayMissError(GatewayError):
    """The replay cassette has no recorded response for a prompt."""


class FormatError(GatewayError):
    """Model response could not be parsed; carries the raw text."""

    def __init__(self, message: str, raw_text: str = ""):
        super().__init__(message)
        self.raw_text = raw_text
