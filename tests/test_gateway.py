from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from llmclean import gateway
from llmclean.cli import EXIT_EXTERNAL, main
from llmclean.errors import (
    FormatError,
    ReplayMissError,
    TemplateError,
    TransportError,
)
from llmclean.gateway import (
    MAX_ATTEMPTS,
    PromptTemplate,
    RemoteBackend,
    ReplayBackend,
    ResponseFormat,
    cassette_key,
    complete,
    complete_many,
    parse_completion,
    render_prompt,
    save_cassette,
)

from conftest import make_cassette


class TestRenderPrompt:
    def test_listing_style_question_is_verbatim(self):
        template = PromptTemplate(
            id="classify",
            task_text=(
                "Here are column names from an IoT dataset: {iot_names}.\n"
                "Do these names {col_names} suggest an IoT dataset?"
            ),
            response_format=ResponseFormat.YES_NO,
        )
        rendered = render_prompt(
            template,
            {"iot_names": "System, Device", "col_names": "System, Device, Value"},
        )
        assert "Do these names System, Device, Value suggest an IoT dataset?" in rendered
        assert rendered.endswith("Answer with only yes or no.")

    def test_no_few_shot_is_task_only(self):
        template = PromptTemplate("t", "Say {x}.", ResponseFormat.SINGLE_LABEL)
        rendered = render_prompt(template, {"x": "hi"})
        assert rendered == "Say hi.\nAnswer with a single label only."

    def test_unbound_placeholder(self):
        template = PromptTemplate("t", "Use {iot_names}.", ResponseFormat.YES_NO)
        with pytest.raises(TemplateError) as exc:
            render_prompt(template, {})
        assert "iot_names" in str(exc.value)

    def test_few_shot_block_precedes_task(self):
        template = PromptTemplate(
            "t", "Question?", ResponseFormat.SINGLE_LABEL,
            few_shot=(("in1", "out1"), ("in2", "NONE")),
        )
        rendered = render_prompt(template, {})
        assert rendered.index("in1") < rendered.index("in2") < rendered.index("Question?")

    def test_byte_deterministic(self):
        template = PromptTemplate("t", "{a} and {b}", ResponseFormat.YES_NO)
        bindings = {"a": "1", "b": "2"}
        assert render_prompt(template, bindings) == render_prompt(template, bindings)


class TestParsing:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("yes", True),
            ("Yes, definitely.", True),
            ("NO", False),
            ("  no way", False),
        ],
    )
    def test_yes_no(self, raw, expected):
        assert parse_completion(raw, ResponseFormat.YES_NO) is expected

    def test_yes_no_garbage_raises_format_error(self):
        with pytest.raises(FormatError) as exc:
            parse_completion("maybe?", ResponseFormat.YES_NO)
        assert exc.value.raw_text == "maybe?"

    def test_single_label_takes_first_line(self):
        assert parse_completion("\n Device \nmore", ResponseFormat.SINGLE_LABEL) == "Device"


class TestReplayBackend:
    def test_lookup_hit(self, tmp_path):
        path = make_cassette(tmp_path, {"p": "yes"})
        backend = ReplayBackend(path)
        assert complete(backend, "p", ResponseFormat.YES_NO) is True

    def test_strict_miss(self, tmp_path):
        backend = ReplayBackend(make_cassette(tmp_path, {"p": "yes"}))
        with pytest.raises(ReplayMissError):
            complete(backend, "unknown", ResponseFormat.YES_NO)

    def test_bit_deterministic_across_instances(self, tmp_path):
        path = make_cassette(tmp_path, {"p": "a, b"})
        first = complete(ReplayBackend(path), "p", ResponseFormat.SINGLE_LABEL)
        second = complete(ReplayBackend(path), "p", ResponseFormat.SINGLE_LABEL)
        assert first == second

    def test_cassette_keyed_by_sha256(self, tmp_path):
        path = tmp_path / "c.json"
        save_cassette(path, {"prompt text": "resp"})
        data = json.loads(path.read_text())
        assert cassette_key("prompt text") in data
        assert data[cassette_key("prompt text")]["prompt"] == "prompt text"

    def test_saved_cassette_answers_every_prompt(self, tmp_path):
        answers = {f"prompt {i}\nsecond line": f"answer {i}" for i in range(5)}
        backend = ReplayBackend(make_cassette(tmp_path, answers))
        assert {prompt: backend.lookup(prompt) for prompt in answers} == answers

    def test_recorded_prompt_is_answered_without_hashing(self, tmp_path, monkeypatch):
        backend = ReplayBackend(make_cassette(tmp_path, {"p": "yes"}))

        def refuse(prompt):
            raise AssertionError("a recorded prompt was hashed")

        monkeypatch.setattr(gateway, "cassette_key", refuse)
        assert complete(backend, "p", ResponseFormat.YES_NO) is True
        assert backend.lookup("unknown") is None

    def test_key_only_entry_answers_through_its_hash(self, tmp_path):
        # The shape a hand-built cassette may take: no "prompt" beside the key.
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            cassette_key("keyed"): {"response": "yes"},
            cassette_key("recorded"): {"prompt": "recorded", "response": "no"},
        }))
        backend = ReplayBackend(str(path))
        assert complete(backend, "keyed", ResponseFormat.YES_NO) is True
        assert complete(backend, "recorded", ResponseFormat.YES_NO) is False
        assert backend.lookup("unknown") is None

    def test_miss_names_the_hash_prefix(self, tmp_path):
        backend = ReplayBackend(make_cassette(tmp_path, {"p": "yes"}))
        with pytest.raises(ReplayMissError, match=f"prompt hash {cassette_key('unknown')[:12]}"):
            complete(backend, "unknown", ResponseFormat.YES_NO)

    def test_entry_answers_its_recorded_prompt_whatever_its_key(self, tmp_path):
        # A recorded prompt is matched as text; the key is not checked against it.
        path = tmp_path / "c.json"
        path.write_text(json.dumps({cassette_key("other"): {"prompt": "p", "response": "yes"}}))
        backend = ReplayBackend(str(path))
        assert backend.lookup("p") == "yes"
        assert backend.lookup("other") is None

    def test_concurrent_lookups(self, tmp_path):
        prompts = [f"p{i}" for i in range(16)]
        path = make_cassette(tmp_path, {p: "yes" for p in prompts})
        backend = ReplayBackend(path)
        results = complete_many(backend, prompts[:8] + ["unknown"] + prompts[8:],
                                ResponseFormat.YES_NO)
        assert isinstance(results[8], ReplayMissError)
        assert all(answer is True for answer in results[:8] + results[9:])


_NON_STRING_CONTENT = {"null-content": None, "number-content": 5}


class _Handler(BaseHTTPRequestHandler):
    behavior = "ok"
    seen_bodies: list[dict] = []
    failures_left = 0
    redirect_code = 302
    redirect_to = ""

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        _Handler.seen_bodies.append(json.loads(self.rfile.read(length)))
        if _Handler.behavior == "flaky" and _Handler.failures_left > 0:
            _Handler.failures_left -= 1
            self.send_response(502)
            self.end_headers()
            return
        if _Handler.behavior == "reject":
            self.send_response(401)
            self.end_headers()
            return
        if _Handler.behavior == "redirect":
            self.send_response(_Handler.redirect_code)
            self.send_header("Location", _Handler.redirect_to)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        content = _NON_STRING_CONTENT.get(_Handler.behavior, "yes")
        payload = b"<html>busy</html>" if _Handler.behavior == "garbage" else json.dumps(
            {"choices": [{"message": {"role": "assistant", "content": content}}]}
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):  # keep pytest output clean
        pass


class _RedirectTarget(BaseHTTPRequestHandler):
    """Second server: records every request that reaches it."""

    seen_headers: list[dict[str, str]] = []

    def do_GET(self):
        _RedirectTarget.seen_headers.append(dict(self.headers))
        self.send_response(204)
        self.end_headers()

    do_POST = do_GET

    def log_message(self, *args):
        pass


def _serve(handler):
    server = HTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


@pytest.fixture
def http_server():
    server = _serve(_Handler)
    _Handler.behavior = "ok"
    _Handler.seen_bodies = []
    _Handler.failures_left = 0
    _Handler.redirect_code = 302
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()
    server.server_close()


@pytest.fixture
def redirect_target():
    server = _serve(_RedirectTarget)
    _RedirectTarget.seen_headers = []
    yield f"http://127.0.0.1:{server.server_port}/elsewhere"
    server.shutdown()
    server.server_close()


class TestRemoteBackend:
    def test_success(self, http_server, monkeypatch):
        monkeypatch.setenv("LLMCLEAN_API_KEY", "sk-secret")
        backend = RemoteBackend(http_server, "test-model", timeout=5.0)
        assert complete(backend, "ping", ResponseFormat.YES_NO) is True
        assert _Handler.seen_bodies[0]["model"] == "test-model"
        assert _Handler.seen_bodies[0]["messages"][0]["content"] == "ping"

    def test_missing_token(self, http_server, monkeypatch):
        monkeypatch.delenv("LLMCLEAN_API_KEY", raising=False)
        backend = RemoteBackend(http_server, "m")
        with pytest.raises(TransportError):
            complete(backend, "p", ResponseFormat.YES_NO)

    def test_retries_then_succeeds(self, http_server, monkeypatch):
        monkeypatch.setenv("LLMCLEAN_API_KEY", "sk-secret")
        _Handler.behavior = "flaky"
        _Handler.failures_left = 2
        backend = RemoteBackend(http_server, "m", timeout=5.0, backoff_base=0.01)
        assert complete(backend, "p", ResponseFormat.YES_NO) is True
        assert len(_Handler.seen_bodies) == 3

    def test_gives_up_after_attempts(self, http_server, monkeypatch):
        monkeypatch.setenv("LLMCLEAN_API_KEY", "sk-secret")
        _Handler.behavior = "flaky"
        _Handler.failures_left = 99
        backend = RemoteBackend(http_server, "m", timeout=5.0, backoff_base=0.01)
        with pytest.raises(TransportError):
            complete(backend, "p", ResponseFormat.YES_NO)
        assert len(_Handler.seen_bodies) == 3

    def test_client_error_not_retried(self, http_server, monkeypatch):
        monkeypatch.setenv("LLMCLEAN_API_KEY", "sk-secret")
        _Handler.behavior = "reject"
        backend = RemoteBackend(http_server, "m", timeout=5.0)
        with pytest.raises(TransportError):
            complete(backend, "p", ResponseFormat.YES_NO)
        assert len(_Handler.seen_bodies) == 1

    def test_token_never_logged(self, http_server, monkeypatch, tmp_path, capsys):
        # A relational build-context whose one pair fails records the failure
        # in its manifest; the token reaches neither that nor the console.
        monkeypatch.setenv("LLMCLEAN_API_KEY", "sk-very-secret-token")
        monkeypatch.setenv("LLMCLEAN_ENDPOINT", http_server)
        monkeypatch.setattr(gateway.time, "sleep", lambda seconds: None)
        _Handler.behavior = "flaky"
        _Handler.failures_left = 99
        csv_path = tmp_path / "t.csv"
        csv_path.write_text("a,b\n1,2\n")
        out_dir = tmp_path / "out"
        code = main(["build-context", str(csv_path), "--backend", "remote",
                     "--assume-class", "NonIoT", "--out-dir", str(out_dir)])
        assert code == 0
        console = capsys.readouterr()
        manifest = (out_dir / "manifest.json").read_text(encoding="utf-8")
        assert json.loads(manifest)["warnings"] == [
            "pair (a, b) failed: request failed after 3 attempts: server error 502"
        ]
        assert len(_Handler.seen_bodies) == 3
        for text in (console.out, console.err, manifest):
            assert "sk-very-secret-token" not in text

    def test_bounded_latency(self, monkeypatch):
        # A server that never answers; each attempt must respect the timeout.
        monkeypatch.setenv("LLMCLEAN_API_KEY", "sk")
        with socket.socket() as sock:  # listening, never accepting
            sock.bind(("127.0.0.1", 0))
            sock.listen(8)
            backend = RemoteBackend(
                f"http://127.0.0.1:{sock.getsockname()[1]}/v1", "m", timeout=0.2, backoff_base=0.05
            )
            start = time.perf_counter()
            with pytest.raises(TransportError):
                complete(backend, "p", ResponseFormat.YES_NO)
            elapsed = time.perf_counter() - start
        assert elapsed < MAX_ATTEMPTS * backend.timeout + 0.5


TOKEN = "sk-very-secret-token"


class TestRemoteTransport:
    @pytest.mark.parametrize("code", [302, 307])
    def test_redirect_refused(self, http_server, redirect_target, monkeypatch, code):
        monkeypatch.setenv("LLMCLEAN_API_KEY", TOKEN)
        _Handler.behavior = "redirect"
        _Handler.redirect_code = code
        _Handler.redirect_to = redirect_target
        backend = RemoteBackend(http_server, "m", timeout=5.0, backoff_base=0.01)
        with pytest.raises(TransportError, match="redirect"):
            complete(backend, "p", ResponseFormat.YES_NO)
        assert len(_Handler.seen_bodies) == 1
        assert _RedirectTarget.seen_headers == []

    def test_non_json_body_is_format_error(self, http_server, monkeypatch):
        monkeypatch.setenv("LLMCLEAN_API_KEY", TOKEN)
        _Handler.behavior = "garbage"
        backend = RemoteBackend(http_server, "m", timeout=5.0)
        with pytest.raises(FormatError) as info:
            complete(backend, "p", ResponseFormat.YES_NO)
        assert info.value.raw_text == "<html>busy</html>"

    @pytest.mark.parametrize("behavior", ["null-content", "number-content"])
    def test_non_string_content_is_format_error(self, http_server, monkeypatch, behavior):
        monkeypatch.setenv("LLMCLEAN_API_KEY", TOKEN)
        _Handler.behavior = behavior
        backend = RemoteBackend(http_server, "m", timeout=5.0)
        with pytest.raises(FormatError, match="not a string"):
            complete(backend, "p", ResponseFormat.YES_NO)
        assert len(_Handler.seen_bodies) == 1

    def test_null_content_cli_exit_two(self, http_server, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("LLMCLEAN_API_KEY", TOKEN)
        monkeypatch.setenv("LLMCLEAN_ENDPOINT", http_server)
        _Handler.behavior = "null-content"
        csv_path = tmp_path / "t.csv"
        csv_path.write_text("a,b\n1,2\n")
        assert main(["classify", str(csv_path), "--backend", "remote"]) == EXIT_EXTERNAL
        err = capsys.readouterr().err
        assert "not a string" in err and "internal error" not in err

    @pytest.mark.parametrize("behavior", ["flaky", "reject", "redirect"])
    def test_token_not_in_error(self, http_server, redirect_target, monkeypatch, behavior):
        monkeypatch.setenv("LLMCLEAN_API_KEY", TOKEN)
        _Handler.behavior = behavior
        _Handler.failures_left = 99
        _Handler.redirect_to = redirect_target
        backend = RemoteBackend(http_server, "m", timeout=5.0, backoff_base=0.01)
        with pytest.raises(TransportError) as info:
            complete(backend, "p", ResponseFormat.YES_NO)
        exc: BaseException | None = info.value
        while exc is not None:
            assert TOKEN not in str(exc) and TOKEN not in repr(exc)
            exc = exc.__cause__ or exc.__context__

    def test_closed_port_retried_then_raises(self, monkeypatch):
        monkeypatch.setenv("LLMCLEAN_API_KEY", TOKEN)
        opener = gateway._opener()
        attempts = []

        class CountingOpener:
            def open(self, request, timeout):
                attempts.append(request.full_url)
                return opener.open(request, timeout=timeout)

        monkeypatch.setattr(gateway, "_opener", CountingOpener)
        with socket.socket() as sock:  # bound, never listening: connections are refused
            sock.bind(("127.0.0.1", 0))
            backend = RemoteBackend(
                f"http://127.0.0.1:{sock.getsockname()[1]}/v1", "m", timeout=5.0, backoff_base=0.01
            )
            with pytest.raises(TransportError, match="after 3 attempts"):
                complete(backend, "p", ResponseFormat.YES_NO)
        assert attempts == [backend.endpoint] * 3

    def test_timeout_bounds_each_attempt(self, monkeypatch):
        # Every attempt waits out its timeout, and the whole call stays bounded.
        monkeypatch.setenv("LLMCLEAN_API_KEY", TOKEN)
        with socket.socket() as sock:  # listening, never accepting: the reply never comes
            sock.bind(("127.0.0.1", 0))
            sock.listen(8)
            backend = RemoteBackend(
                f"http://127.0.0.1:{sock.getsockname()[1]}/v1", "m", timeout=0.2, backoff_base=0.01
            )
            start = time.perf_counter()
            with pytest.raises(TransportError, match="timed out"):
                complete(backend, "p", ResponseFormat.YES_NO)
            elapsed = time.perf_counter() - start
        budget = MAX_ATTEMPTS * backend.timeout
        assert budget <= elapsed < budget + 0.5

    @pytest.mark.parametrize("endpoint", ["file:///etc/hosts", "ftp://127.0.0.1/x", "127.0.0.1:80"])
    def test_non_http_endpoint_rejected(self, endpoint):
        with pytest.raises(ValueError):
            RemoteBackend(endpoint, "m")
