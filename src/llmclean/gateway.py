"""Pluggable chat-completion interface with remote and replay backends.

The remote backend speaks the common chat-completions JSON shape over HTTP(S);
the replay backend answers from a recorded cassette, matched on the exact
rendered prompt, which keeps every LLM-dependent pipeline stage
deterministic and offline-testable. Silent template drift shows up as a
cassette miss instead of a quietly different answer.
"""

from __future__ import annotations

import json
import os
import re
import time
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence
from urllib.parse import SplitResult, unquote, urlsplit

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
_MAX_LINE = 65536  # longest status or header line read from a reply


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
    """Chat-completions endpoint over HTTP(S); token read from the environment."""

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
        parts = urlsplit(endpoint)
        if parts.scheme.lower() not in ("http", "https") or not parts.hostname:
            raise ValueError("endpoint must be an http:// or https:// URL with a host")
        self.endpoint = endpoint
        self.model = model
        self.timeout = timeout
        self.max_parallel = max_parallel
        self.backoff_base = backoff_base


Backend = RemoteBackend | ReplayBackend


def _post(url: str, headers: Mapping[str, str], body: bytes, timeout: float) -> tuple[int, bytes]:
    """POST ``body`` to ``url`` as one HTTP/1.1 write; the reply's status and body.

    Each call opens its own connection, through the environment's proxy for
    ``url`` if it names one, and closes it. The timeout bounds the connect and
    each read. An OSError (refused, TLS, timeout) or a ValueError (a reply
    that is not HTTP, or one cut short) means the request failed.
    """
    import socket  # here: a replay run opens no connection

    parts = urlsplit(url)
    scheme = parts.scheme.lower()
    https = scheme == "https"
    host = parts.hostname
    port_default = 443 if https else 80
    port = parts.port or port_default
    bracketed = f"[{host}]" if ":" in host else host
    origin = f"{bracketed}:{port}"
    authority = bracketed if parts.port is None else origin
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    head = {"Host": authority, **headers}
    proxy = _proxy_for(scheme, authority)
    if proxy is None:
        sock = socket.create_connection((host, port), timeout)
    elif not proxy.hostname:
        raise ValueError("proxy URL has no host")
    else:  # spoken to in plain HTTP, on urllib's default port for the endpoint's scheme
        sock = socket.create_connection((proxy.hostname, proxy.port or port_default), timeout)
    try:
        if proxy is not None:
            auth = {}
            if proxy.username and proxy.password:
                import base64

                pair = f"{unquote(proxy.username)}:{unquote(proxy.password)}".encode()
                auth["Proxy-Authorization"] = f"Basic {base64.b64encode(pair).decode()}"
            if https:  # a tunnel: the proxy sees only where it leads
                with sock.makefile("rb") as reply:
                    sock.sendall(_request_head("CONNECT", origin, {"Host": origin, **auth}))
                    status, _ = _read_head(reply)
                if status != 200:
                    raise OSError(f"proxy refused the tunnel (status {status})")
            else:  # the proxy forwards the request, so it gets the whole URL
                target = f"http://{authority}{target}"
                head.update(auth)
        if https:
            import ssl  # here: only an https:// endpoint needs it

            sock = ssl.create_default_context().wrap_socket(sock, server_hostname=host)
        head.update({"Content-Length": str(len(body)), "Connection": "close"})
        with sock.makefile("rb") as reply:
            sock.sendall(_request_head("POST", target, head) + body)
            status, fields = _read_head(reply)
            while status < 200:  # interim replies (100 Continue, 103 Early Hints)
                status, fields = _read_head(reply)
            if "chunked" in fields.get("transfer-encoding", "").lower():
                chunks = []
                while size := int(_line(reply).split(b";")[0], 16):
                    chunks.append(_exactly(reply, size))
                    _line(reply)
                return status, b"".join(chunks)
            if "content-length" in fields:
                return status, _exactly(reply, int(fields["content-length"]))
            return status, reply.read()
    finally:
        sock.close()


def _proxy_for(scheme: str, authority: str) -> SplitResult | None:
    """The split URL of the proxy urllib would use for ``scheme://authority``, or None."""
    # urllib.request loads http.client, ssl and email; most runs set no proxy.
    if not any(key.lower().endswith("_proxy") for key in os.environ):
        return None
    from urllib.request import getproxies_environment, proxy_bypass_environment

    proxy = getproxies_environment().get(scheme)
    if proxy is None or proxy_bypass_environment(authority):
        return None
    return urlsplit(proxy if "://" in proxy else f"{scheme}://{proxy}")


def _request_head(method: str, target: str, headers: Mapping[str, str]) -> bytes:
    lines = [f"{method} {target} HTTP/1.1", *(f"{k}: {v}" for k, v in headers.items()), "", ""]
    return "\r\n".join(lines).encode("latin-1")


def _line(reply) -> bytes:
    line = reply.readline(_MAX_LINE)
    if not line.endswith(b"\n"):
        raise ValueError("reply cut short" if len(line) < _MAX_LINE else "reply line too long")
    return line


def _exactly(reply, size: int) -> bytes:
    data = reply.read(size)
    if len(data) != size:
        raise ValueError(f"reply body cut short ({len(data)} of {size} bytes)")
    return data


def _read_head(reply) -> tuple[int, dict[str, str]]:
    """The status and header fields (names lower-cased) of the next reply."""
    version, _, rest = _line(reply).partition(b" ")
    if not version.startswith(b"HTTP/"):
        raise ValueError("reply is not HTTP")
    status = int(rest[:3])
    fields = {}
    while (line := _line(reply)) not in (b"\r\n", b"\n"):
        name, _, value = line.decode("latin-1").partition(":")
        fields[name.strip().lower()] = value.strip()
    return status, fields


def _remote_call(backend: RemoteBackend, prompt: str) -> str:
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
        try:
            status, raw = _post(backend.endpoint, headers, body, backend.timeout)
        except (OSError, ValueError) as exc:
            last_error = exc
            continue
        if status >= 500:
            last_error = TransportError(f"server error {status}")
            continue
        if status >= 400:
            raise TransportError(f"request rejected with status {status}")
        if status >= 300:  # following it would send the token to another URL
            raise TransportError(f"redirect refused (status {status})")
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
    import threading  # here: only a fan-out needs it

    todo = iter(enumerate(prompts))
    results: list = [None] * len(prompts)

    def work() -> None:
        # Each next() on the shared iterator is one C call under the GIL, so
        # no two threads take the same prompt.
        for i, prompt in todo:
            try:
                results[i] = attempt(prompt)
            except BaseException as exc:  # re-raised below, in the calling thread
                results[i] = exc
                for _ in todo:  # and no thread starts another prompt
                    pass

    workers = min(backend.max_parallel, len(prompts))
    threads = [threading.Thread(target=work) for _ in range(workers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for result in results:
        if isinstance(result, BaseException) and not isinstance(result, GatewayError):
            raise result
    return results
