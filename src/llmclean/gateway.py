"""Pluggable chat-completion interface with remote and replay backends.

The remote backend speaks the common chat-completions JSON shape over HTTPS;
the replay backend answers from a recorded cassette keyed by the SHA-256 of
the exact rendered prompt, which keeps every LLM-dependent pipeline stage
deterministic and offline-testable. Silent template drift shows up as a
cassette miss instead of a quietly different answer.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import FormatError, GatewayError, ReplayMissError, TemplateError, TransportError

logger = logging.getLogger(__name__)

API_KEY_ENV = "LLMCLEAN_API_KEY"
ENDPOINT_ENV = "LLMCLEAN_ENDPOINT"
DEFAULT_PARALLELISM = 4


class ResponseFormat(Enum):
    YES_NO = "yes_no"
    SINGLE_LABEL = "single_label"
    LABEL_LIST = "label_list"


FORMAT_INSTRUCTIONS = {
    ResponseFormat.YES_NO: "Answer with only yes or no.",
    ResponseFormat.SINGLE_LABEL: "Answer with a single label only.",
    ResponseFormat.LABEL_LIST: (
        "Answer with a comma-separated list of labels. Answer NONE if there are none."
    ),
}

_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")
_WORD_RE = re.compile(r"[A-Za-z]+")


@dataclass(frozen=True)
class PromptTemplate:
    id: str
    task_text: str
    response_format: ResponseFormat
    few_shot: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class Completion:
    raw_text: str
    parsed: bool | str | tuple[str, ...]


def render_prompt(template: PromptTemplate, bindings: Mapping[str, str]) -> str:
    """Render few-shot block, task text with substitutions, format line.

    Byte-deterministic; an unbound ``{placeholder}`` raises TemplateError.
    """
    def substitute(match: re.Match) -> str:
        name = match.group(1)
        if name not in bindings:
            raise TemplateError(f"unbound placeholder {{{name}}}")
        return str(bindings[name])

    lines: list[str] = []
    for example_in, example_out in template.few_shot:
        lines.append(f"Example input: {example_in}")
        lines.append(f"Example output: {example_out}")
        lines.append("")
    lines.append(_PLACEHOLDER_RE.sub(substitute, template.task_text))
    lines.append(FORMAT_INSTRUCTIONS[template.response_format])
    return "\n".join(lines)


def parse_completion(raw_text: str, fmt: ResponseFormat) -> Completion:
    if fmt is ResponseFormat.YES_NO:
        # First word only; models tend to elaborate despite the instruction.
        m = _WORD_RE.search(raw_text)
        token = m.group().lower() if m else ""
        if token == "yes":
            return Completion(raw_text, True)
        if token == "no":
            return Completion(raw_text, False)
        raise FormatError(f"expected yes/no, got {raw_text!r}", raw_text)
    if fmt is ResponseFormat.SINGLE_LABEL:
        for line in raw_text.splitlines():
            label = line.strip()
            if label:
                return Completion(raw_text, label)
        raise FormatError("empty single-label response", raw_text)
    labels: list[str] = []
    for part in re.split(r"[,\n]", raw_text):
        label = part.strip()
        if label and label not in labels:
            labels.append(label)
    if len(labels) == 1 and labels[0].upper() == "NONE":
        labels = []
    return Completion(raw_text, tuple(labels))


def cassette_key(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def load_cassette(path: str | Path) -> dict[str, dict[str, str]]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def save_cassette(path: str | Path, entries: Mapping[str, str]) -> None:
    """Write a prompt->response map as a cassette (prompt kept for audit)."""
    body = {
        cassette_key(prompt): {"prompt": prompt, "response": response}
        for prompt, response in entries.items()
    }
    Path(path).write_text(json.dumps(body, indent=2, sort_keys=True), encoding="utf-8")


@dataclass
class ReplayBackend:
    """Deterministic backend answering from a recorded cassette file."""

    cassette_path: str
    max_parallel: int = DEFAULT_PARALLELISM
    _cache: dict[str, dict[str, str]] | None = field(default=None, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def _entries(self) -> dict[str, dict[str, str]]:
        with self._lock:
            if self._cache is None:
                self._cache = load_cassette(self.cassette_path)
            return self._cache

    def lookup(self, prompt: str) -> str | None:
        entry = self._entries().get(cassette_key(prompt))
        return None if entry is None else entry["response"]


@dataclass
class RemoteBackend:
    """Chat-completions endpoint over HTTPS; token read from the environment."""

    endpoint: str
    model: str
    token_env: str = API_KEY_ENV
    timeout: float = 30.0
    max_parallel: int = DEFAULT_PARALLELISM
    max_attempts: int = 3
    backoff_base: float = 0.5

    def __post_init__(self):
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")


Backend = RemoteBackend | ReplayBackend


def _remote_call(backend: RemoteBackend, prompt: str) -> str:
    import requests  # here, not at the top: only this backend needs its slow import

    token = os.environ.get(backend.token_env)
    if not token:
        raise TransportError(f"auth token not set ({backend.token_env})")
    body = {
        "model": backend.model,
        "messages": [{"role": "user", "content": prompt}],
    }
    headers = {"Authorization": f"Bearer {token}"}
    last_error: Exception | None = None
    for attempt in range(backend.max_attempts):
        if attempt:
            time.sleep(backend.backoff_base * (2 ** (attempt - 1)))
        try:
            # Never log headers: the auth token must not reach any sink.
            logger.debug("POST %s model=%s attempt=%d", backend.endpoint, backend.model, attempt + 1)
            resp = requests.post(
                backend.endpoint, json=body, headers=headers, timeout=backend.timeout
            )
        except requests.RequestException as exc:
            last_error = exc
            continue
        if resp.status_code >= 500:
            last_error = TransportError(f"server error {resp.status_code}")
            continue
        if resp.status_code >= 400:
            raise TransportError(f"request rejected with status {resp.status_code}")
        try:
            return resp.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise FormatError(f"malformed completion payload: {exc}", resp.text)
    raise TransportError(f"request failed after {backend.max_attempts} attempts: {last_error}")


def complete(backend: Backend, prompt: str, fmt: ResponseFormat) -> Completion:
    """Run one completion and parse it according to the response format."""
    if isinstance(backend, ReplayBackend):
        response = backend.lookup(prompt)
        if response is None:
            raise ReplayMissError(
                f"no recorded response for prompt hash {cassette_key(prompt)[:12]}..."
            )
        return parse_completion(response, fmt)
    return parse_completion(_remote_call(backend, prompt), fmt)


def complete_many(
    backend: Backend, prompts: Sequence[str], fmt: ResponseFormat
) -> list[Completion | GatewayError]:
    """Batch completions, bounded by the backend's parallelism.

    This is the package's only fan-out of backend calls. A prompt that fails
    leaves its GatewayError in its slot; the other prompts still run.
    """
    def attempt(prompt: str) -> Completion | GatewayError:
        try:
            return complete(backend, prompt, fmt)
        except GatewayError as exc:
            return exc

    if len(prompts) <= 1 or backend.max_parallel <= 1:
        return [attempt(p) for p in prompts]
    with ThreadPoolExecutor(max_workers=backend.max_parallel) as pool:
        return list(pool.map(attempt, prompts))


def select_few_shot(
    train: Sequence[tuple[str, frozenset[str] | set[str]]], k: int, seed: int = 0
) -> list[tuple[str, frozenset[str]]]:
    """Pick k few-shot examples spanning the answer-set size range.

    Always includes the example with the largest answer set, then the
    smallest (empty sets included where present); remaining slots are filled
    by a seeded random draw.
    """
    if k > len(train):
        raise ValueError(f"k={k} exceeds {len(train)} training examples")
    items = [(text, frozenset(answers)) for text, answers in train]
    picked: list[tuple[str, frozenset[str]]] = []
    remaining = list(items)
    for key in (
        lambda item: (-len(item[1]), item[0]),  # largest answer set first
        lambda item: (len(item[1]), item[0]),   # then smallest
    ):
        if len(picked) >= k or not remaining:
            break
        choice = sorted(remaining, key=key)[0]
        picked.append(choice)
        remaining.remove(choice)
    rng = random.Random(seed)
    while len(picked) < k:
        choice = rng.choice(sorted(remaining, key=lambda item: item[0]))
        picked.append(choice)
        remaining.remove(choice)
    return picked


def format_answer_set(answers: Iterable[str]) -> str:
    labels = sorted(answers)
    return ", ".join(labels) if labels else "NONE"


_VARIANT_PREFIX_RE = re.compile(r"^\s*(?:\d+[.)]\s*|[-*]\s*)")


def generate_prompt_variants(
    backend: Backend, base: PromptTemplate, n: int
) -> list[PromptTemplate]:
    """Ask the backend for task-text paraphrases; duplicates are dropped.

    Each variant inherits the base template's few-shot examples and response
    format.
    """
    if n < 1:
        raise ValueError("need at least one variant")
    meta_prompt = (
        f"Rewrite the following task description in {n} different ways, "
        "one per line. Keep every {placeholder} token exactly as written.\n\n"
        + base.task_text
    )
    completion = complete(backend, meta_prompt, ResponseFormat.SINGLE_LABEL)
    variants: list[str] = []
    for line in completion.raw_text.splitlines():
        text = _VARIANT_PREFIX_RE.sub("", line).strip()
        if text and text not in variants:
            variants.append(text)
    templates = [
        PromptTemplate(
            id=f"{base.id}_v{i + 1}",
            task_text=text,
            response_format=base.response_format,
            few_shot=base.few_shot,
        )
        for i, text in enumerate(variants[:n])
    ]
    return templates
