"""Pluggable chat-completion interface with remote and replay backends.

The remote backend speaks the common chat-completions JSON shape over HTTPS;
the replay backend answers from a recorded cassette, matched on the exact
rendered prompt, which keeps every LLM-dependent pipeline stage
deterministic and offline-testable. Silent template drift shows up as a
cassette miss instead of a quietly different answer.
"""

from __future__ import annotations

import functools
import json
import os
import re
import time
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

from .errors import (
    FormatError,
    GatewayError,
    LLMCleanError,
    ReplayMissError,
    TemplateError,
    TransportError,
)
from .frozen import Frozen, set_field

API_KEY_ENV = "LLMCLEAN_API_KEY"
ENDPOINT_ENV = "LLMCLEAN_ENDPOINT"
DEFAULT_PARALLELISM = 4
#: Tries per remote call: the first plus two retries of a transport failure.
MAX_ATTEMPTS = 3


class ResponseFormat(Enum):
    YES_NO = "yes_no"
    SINGLE_LABEL = "single_label"


FORMAT_INSTRUCTIONS = {
    ResponseFormat.YES_NO: "Answer with only yes or no.",
    ResponseFormat.SINGLE_LABEL: "Answer with a single label only.",
}

_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")
_WORD_RE = re.compile(r"[A-Za-z]+")


class PromptTemplate(Frozen):
    __slots__ = _fields = ("id", "task_text", "response_format", "few_shot")

    def __init__(
        self,
        id: str,
        task_text: str,
        response_format: ResponseFormat,
        few_shot: tuple[tuple[str, str], ...] = (),
    ):
        set_field(self, "id", id)
        set_field(self, "task_text", task_text)
        set_field(self, "response_format", response_format)
        set_field(self, "few_shot", few_shot)


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


def parse_completion(raw_text: str, fmt: ResponseFormat) -> bool | str:
    """The answer in ``raw_text``: a bool for yes/no, the label for a single label."""
    if fmt is ResponseFormat.YES_NO:
        # First word only; models tend to elaborate despite the instruction.
        m = _WORD_RE.search(raw_text)
        token = m.group().lower() if m else ""
        if token == "yes":
            return True
        if token == "no":
            return False
        raise FormatError(f"expected yes/no, got {raw_text!r}", raw_text)
    for line in raw_text.splitlines():  # SINGLE_LABEL: the first non-blank line
        label = line.strip()
        if label:
            return label
    raise FormatError("empty single-label response", raw_text)


def cassette_key(prompt: str) -> str:
    """The SHA-256 hex digest of a prompt: the key of its cassette entry."""
    # Imported here: hashlib loads OpenSSL (~3.5 MB), and a replay whose
    # entries record their prompts never hashes one.
    import hashlib

    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def load_cassette(path: str | Path) -> dict[str, dict[str, str]]:
    """Read a cassette: a JSON object of entries, each with a string "response".

    An entry may also record the string "prompt" it answers; no two entries
    may record the same one.
    """
    with open(path, encoding="utf-8") as fh:
        entries = json.load(fh)
    if not isinstance(entries, dict):
        raise LLMCleanError(f"{path}: cassette must be a JSON object keyed by prompt hash")
    recorded: set[str] = set()
    for key, entry in entries.items():
        if not (isinstance(entry, dict) and isinstance(entry.get("response"), str)):
            raise LLMCleanError(f'{path}: cassette entry {key!r} has no string "response"')
        if "prompt" in entry:
            prompt = entry["prompt"]
            if not isinstance(prompt, str):
                raise LLMCleanError(f'{path}: cassette entry {key!r} has a non-string "prompt"')
            if prompt in recorded:
                raise LLMCleanError(
                    f"{path}: cassette entry {key!r} records the same prompt as an earlier entry"
                )
            recorded.add(prompt)
    return entries


def save_cassette(path: str | Path, entries: Mapping[str, str]) -> None:
    """Write a prompt->response map as a cassette (prompt kept for audit)."""
    body = {
        cassette_key(prompt): {"prompt": prompt, "response": response}
        for prompt, response in entries.items()
    }
    Path(path).write_text(json.dumps(body, indent=2, sort_keys=True), encoding="utf-8")


class ReplayBackend:
    """Deterministic backend answering from a recorded cassette file.

    The cassette is read when the backend is built, so an unreadable one is
    an input error even if no prompt is asked. An entry that records its
    prompt answers that prompt; one that does not answers the prompt whose
    hash is its key, so a prompt is hashed only when such entries exist.
    """

    def __init__(self, path: str):
        self._by_prompt: dict[str, str] = {}
        self._by_key: dict[str, str] = {}
        for key, entry in load_cassette(path).items():
            if "prompt" in entry:
                self._by_prompt[entry["prompt"]] = entry["response"]
            else:
                self._by_key[key] = entry["response"]

    def lookup(self, prompt: str) -> str | None:
        response = self._by_prompt.get(prompt)
        if response is None and self._by_key:
            response = self._by_key.get(cassette_key(prompt))
        return response


class RemoteBackend:
    """Chat-completions endpoint over HTTPS; token read from the environment."""

    def __init__(
        self,
        endpoint: str,
        model: str,
        timeout: float = 30.0,
        max_parallel: int = DEFAULT_PARALLELISM,
        backoff_base: float = 0.5,
    ):
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        # urllib would also open file:, ftp: and data: URLs.
        if not endpoint.lower().startswith(("http://", "https://")):
            raise ValueError("endpoint must be an http:// or https:// URL")
        self.endpoint = endpoint
        self.model = model
        self.timeout = timeout
        self.max_parallel = max_parallel
        self.backoff_base = backoff_base


Backend = RemoteBackend | ReplayBackend


@functools.cache
def _opener():
    """The process's one HTTP opener, built on first use: building one per call
    costs about 0.4 ms, a large share of a call to a nearby endpoint.

    It refuses redirects: urllib would copy the Authorization header to the
    redirect target even on another host, so a 3xx must fail instead.
    """
    import urllib.request  # here, not at the top: only the remote backend needs it

    class RefuseRedirects(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, req, fp, code, msg, headers, newurl):
            return None

    return urllib.request.build_opener(RefuseRedirects)


def _remote_call(backend: RemoteBackend, prompt: str) -> str:
    import http.client
    import urllib.error
    import urllib.request

    token = os.environ.get(API_KEY_ENV)
    if not token:
        raise TransportError(f"auth token not set ({API_KEY_ENV})")
    body = json.dumps({
        "model": backend.model,
        "messages": [{"role": "user", "content": prompt}],
    }).encode()
    headers = {"Authorization": f"Bearer {token}", "Content-Type": "application/json"}
    last_error: Exception | None = None
    for attempt in range(MAX_ATTEMPTS):
        if attempt:
            time.sleep(backend.backoff_base * (2 ** (attempt - 1)))
        # A fresh request per attempt: opening one through a proxy rewrites its host.
        request = urllib.request.Request(backend.endpoint, body, headers, method="POST")
        try:
            with _opener().open(request, timeout=backend.timeout) as resp:
                raw = resp.read()
        except urllib.error.HTTPError as exc:
            exc.close()
            if exc.code >= 500:
                last_error = TransportError(f"server error {exc.code}")
                continue
            if exc.code < 400:
                raise TransportError(f"redirect refused (status {exc.code})") from None
            raise TransportError(f"request rejected with status {exc.code}") from None
        except (OSError, http.client.HTTPException) as exc:
            last_error = exc
            continue
        try:
            content = json.loads(raw)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise FormatError(
                f"malformed completion payload: {exc}", raw.decode("utf-8", "replace")
            )
        if not isinstance(content, str):
            raise FormatError(
                f"completion content is not a string: {content!r}",
                raw.decode("utf-8", "replace"),
            )
        return content
    raise TransportError(f"request failed after {MAX_ATTEMPTS} attempts: {last_error}")


def complete(backend: Backend, prompt: str, fmt: ResponseFormat) -> bool | str:
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
) -> list[bool | str | GatewayError]:
    """Batch completions, in the order of ``prompts``.

    This is the package's only fan-out of backend calls: remote calls run
    on up to the backend's ``max_parallel`` threads, while replay lookups,
    which wait on nothing, run in the calling thread. A prompt that fails
    leaves its GatewayError in its slot; the other prompts still run.
    """
    def attempt(prompt: str) -> bool | str | GatewayError:
        try:
            return complete(backend, prompt, fmt)
        except GatewayError as exc:
            return exc

    if not isinstance(backend, RemoteBackend) or len(prompts) <= 1 or backend.max_parallel <= 1:
        return [attempt(p) for p in prompts]
    from concurrent.futures import ThreadPoolExecutor  # here: only a fan-out needs it

    with ThreadPoolExecutor(max_workers=backend.max_parallel) as pool:
        return list(pool.map(attempt, prompts))
