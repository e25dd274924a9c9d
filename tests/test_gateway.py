from __future__ import annotations

import base64
import contextlib
import json
import re
import select
import shutil
import socket
import socketserver
import ssl
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import urlsplit

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
        connect = socket.create_connection
        attempts = []

        def counting_connect(address, *args, **kwargs):
            attempts.append(address)
            return connect(address, *args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", counting_connect)
        with socket.socket() as sock:  # bound, never listening: connections are refused
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
            backend = RemoteBackend(
                f"http://127.0.0.1:{port}/v1", "m", timeout=5.0, backoff_base=0.01
            )
            with pytest.raises(TransportError, match="after 3 attempts"):
                complete(backend, "p", ResponseFormat.YES_NO)
        assert attempts == [("127.0.0.1", port)] * 3

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


class _Answer(BaseHTTPRequestHandler):
    """Answers "yes" to every prompt and records the request lines and headers it got."""

    seen: list[tuple[str, dict[str, str]]] = []

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        _Answer.seen.append((self.requestline, dict(self.headers)))
        payload = json.dumps({"choices": [{"message": {"content": "yes"}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


class _Proxy(socketserver.StreamRequestHandler):
    """A forward proxy: relays a CONNECT tunnel, forwards an absolute-form
    request to its origin, and records each request line and its headers."""

    seen: list[tuple[str, dict[str, str]]] = []

    def handle(self):
        request_line = self.rfile.readline().decode("latin-1").rstrip("\r\n")
        head = b""
        headers = {}
        while (line := self.rfile.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
            if name.strip().lower() not in ("host", "proxy-authorization", "connection"):
                head += line
        _Proxy.seen.append((request_line, headers))
        method, target, _ = request_line.split(" ")
        if method == "CONNECT":
            host, port = target.rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=5) as upstream:
                self.wfile.write(b"HTTP/1.1 200 Connection established\r\n\r\n")
                self.wfile.flush()
                ends = [self.connection, upstream]
                while True:
                    readable, _, _ = select.select(ends, [], [], 5)
                    data = readable[0].recv(65536) if readable else b""
                    if not data:
                        return
                    ends[readable[0] is self.connection].sendall(data)
        url = urlsplit(target)
        body = self.rfile.read(int(headers["content-length"]))
        with socket.create_connection((url.hostname, url.port), timeout=5) as upstream:
            upstream.sendall(f"{method} {url.path} HTTP/1.0\r\nHost: {url.netloc}\r\n".encode()
                             + head + b"\r\n" + body)
            while data := upstream.recv(65536):
                self.wfile.write(data)


@pytest.fixture
def answer_server():
    server = _serve(_Answer)
    _Answer.seen = []
    yield f"http://127.0.0.1:{server.server_port}/v1"
    server.shutdown()
    server.server_close()


@pytest.fixture(scope="module")
def tls_cert(tmp_path_factory):
    """A self-signed certificate for localhost and 127.0.0.1, and its key."""
    if shutil.which("openssl") is None:
        pytest.skip("the openssl command is needed to make a test certificate")
    folder = tmp_path_factory.mktemp("tls")
    cert, key = folder / "cert.pem", folder / "key.pem"
    subprocess.run(
        ["openssl", "req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1",
         "-nodes", "-keyout", str(key), "-out", str(cert), "-days", "1", "-subj", "/CN=localhost",
         "-addext", "subjectAltName=DNS:localhost,IP:127.0.0.1"],
        check=True, capture_output=True,
    )
    return cert, key


@pytest.fixture
def tls_server(tls_cert):
    """An https:// endpoint served with the self-signed certificate."""
    server = HTTPServer(("127.0.0.1", 0), _Answer)
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(*tls_cert)
    server.socket = context.wrap_socket(server.socket, server_side=True)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    _Answer.seen = []
    yield f"https://127.0.0.1:{server.server_port}/v1"
    server.shutdown()
    server.server_close()


@pytest.fixture
def proxy():
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _Proxy)
    server.daemon_threads = True
    threading.Thread(target=server.serve_forever, daemon=True).start()
    _Proxy.seen = []
    yield f"127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


def _ask(endpoint: str, timeout: float = 5.0) -> bool | str:
    return complete(RemoteBackend(endpoint, "m", timeout=timeout, backoff_base=0.01), "p",
                    ResponseFormat.YES_NO)


class TestProxies:
    def test_http_proxy_gets_the_absolute_url(self, answer_server, proxy, monkeypatch):
        monkeypatch.setenv("LLMCLEAN_API_KEY", TOKEN)
        monkeypatch.setenv("HTTP_PROXY", f"http://{proxy}")
        assert _ask(answer_server) is True
        assert [line for line, _ in _Proxy.seen] == [f"POST {answer_server} HTTP/1.1"]
        assert [line for line, _ in _Answer.seen] == ["POST /v1 HTTP/1.0"]

    def test_https_proxy_tunnels_with_connect(self, tls_server, tls_cert, proxy, monkeypatch):
        monkeypatch.setenv("LLMCLEAN_API_KEY", TOKEN)
        monkeypatch.setenv("SSL_CERT_FILE", str(tls_cert[0]))
        monkeypatch.setenv("HTTPS_PROXY", f"http://user:p%40ss@{proxy}")
        assert _ask(tls_server) is True
        origin = urlsplit(tls_server).netloc
        (line, headers), = _Proxy.seen
        assert line.startswith(f"CONNECT {origin} HTTP/1.")
        expected = base64.b64encode(b"user:p@ss").decode()
        assert headers["proxy-authorization"] == f"Basic {expected}"
        (line, headers), = _Answer.seen  # the request itself went through the tunnel
        assert line == "POST /v1 HTTP/1.1" and "Proxy-Authorization" not in headers
        assert headers["Authorization"] == f"Bearer {TOKEN}"

    def test_http_proxy_credentials(self, answer_server, proxy, monkeypatch):
        monkeypatch.setenv("LLMCLEAN_API_KEY", TOKEN)
        monkeypatch.setenv("http_proxy", f"http://user:secret@{proxy}")
        assert _ask(answer_server) is True
        (_, headers), = _Proxy.seen
        expected = base64.b64encode(b"user:secret").decode()
        assert headers["proxy-authorization"] == f"Basic {expected}"

    def test_no_proxy_bypasses_both(self, answer_server, tls_server, tls_cert, proxy,
                                    monkeypatch):
        monkeypatch.setenv("LLMCLEAN_API_KEY", TOKEN)
        monkeypatch.setenv("SSL_CERT_FILE", str(tls_cert[0]))
        monkeypatch.setenv("HTTP_PROXY", f"http://{proxy}")
        monkeypatch.setenv("HTTPS_PROXY", f"http://{proxy}")
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        assert _ask(answer_server) is True
        assert _ask(tls_server) is True
        assert _Proxy.seen == [] and len(_Answer.seen) == 2


class TestTls:
    def test_untrusted_certificate_fails_after_every_attempt(self, tls_server, monkeypatch):
        monkeypatch.setenv("LLMCLEAN_API_KEY", TOKEN)
        monkeypatch.delenv("SSL_CERT_FILE", raising=False)
        connect = socket.create_connection
        attempts = []

        def counting_connect(address, *args, **kwargs):
            attempts.append(address)
            return connect(address, *args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", counting_connect)
        with pytest.raises(TransportError, match="CERTIFICATE_VERIFY_FAILED"):
            _ask(tls_server)
        assert len(attempts) == MAX_ATTEMPTS and _Answer.seen == []

    def test_trusted_through_ssl_cert_file(self, tls_server, tls_cert, monkeypatch):
        monkeypatch.setenv("LLMCLEAN_API_KEY", TOKEN)
        monkeypatch.setenv("SSL_CERT_FILE", str(tls_cert[0]))
        assert _ask(tls_server) is True
        assert _Answer.seen[0][1]["Host"] == urlsplit(tls_server).netloc


_PAYLOAD = json.dumps({"choices": [{"message": {"content": "yes"}}]}).encode()


@contextlib.contextmanager
def _raw_server(reply: bytes, hold_open: bool = False):
    """A loopback endpoint that reads one request and writes ``reply`` verbatim,
    then closes the connection or, with ``hold_open``, leaves it open until
    the test ends. Yields the endpoint and the list the request bytes go to."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5)
    requests: list[bytes] = []
    held: list[socket.socket] = []

    def serve():
        conn, _ = listener.accept()
        data = b""
        while b"\r\n\r\n" not in data:
            data += conn.recv(65536)
        length = int(re.search(rb"Content-Length: (\d+)", data).group(1))
        while len(data.partition(b"\r\n\r\n")[2]) < length:
            data += conn.recv(65536)
        requests.append(data)
        conn.sendall(reply)
        if hold_open:
            held.append(conn)
        else:
            conn.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}/v1", requests
    finally:
        thread.join(5)
        for conn in held:
            conn.close()
        listener.close()


def _chunked(payload: bytes) -> bytes:
    pieces = [payload[:7], payload[7:30], payload[30:]]
    return b"".join(b"%x;ext=1\r\n%s\r\n" % (len(p), p) for p in pieces) + b"0\r\n\r\n"


class TestReplyFraming:
    @pytest.mark.parametrize("reply,hold_open", [
        (b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(_PAYLOAD), _PAYLOAD), True),
        (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + _chunked(_PAYLOAD), True),
        (b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n" + _PAYLOAD, False),
        (b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\ncontent-length: %d\r\n\r\n%s"
         % (len(_PAYLOAD), _PAYLOAD), False),
    ], ids=["content-length-held-open", "chunked-held-open", "close-delimited", "interim-100"])
    def test_reply_parses(self, monkeypatch, reply, hold_open):
        monkeypatch.setenv("LLMCLEAN_API_KEY", TOKEN)
        with _raw_server(reply, hold_open) as (endpoint, _):
            start = time.perf_counter()
            assert _ask(endpoint, timeout=5.0) is True
            assert time.perf_counter() - start < 2.0  # the held-open socket is not waited on

    @pytest.mark.parametrize("reply", [
        b"",
        b"SSH-2.0-OpenSSH\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(_PAYLOAD) + 5, _PAYLOAD),
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n10\r\nshort",
    ], ids=["empty", "not-http", "body-cut-short", "chunk-cut-short"])
    def test_unparseable_reply_is_retried(self, monkeypatch, reply):
        monkeypatch.setenv("LLMCLEAN_API_KEY", TOKEN)
        calls = []
        real_post = gateway._post

        def one_bad_reply(*args):
            calls.append(args)
            if len(calls) > 1:
                return 200, _PAYLOAD
            return real_post(*args)

        monkeypatch.setattr(gateway, "_post", one_bad_reply)
        with _raw_server(reply) as (endpoint, _):
            assert _ask(endpoint) is True
        assert len(calls) == 2

    def test_request_is_one_write_with_its_headers(self, monkeypatch):
        monkeypatch.setenv("LLMCLEAN_API_KEY", TOKEN)
        writes = []
        real_sendall = socket.socket.sendall

        def recording_sendall(sock, data, *args):
            writes.append(bytes(data))
            return real_sendall(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", recording_sendall)
        reply = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(_PAYLOAD), _PAYLOAD)
        with _raw_server(reply) as (endpoint, requests):
            port = urlsplit(endpoint).port
            assert _ask(f"http://user:pw@127.0.0.1:{port}/v1?a=1") is True
        sent = [w for w in writes if w.startswith(b"POST ")]
        assert sent == requests  # the whole request, head and body, in one write
        head, _, body = requests[0].partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0] == "POST /v1?a=1 HTTP/1.1"
        fields = dict(line.split(": ", 1) for line in lines[1:])
        assert fields["Host"] == f"127.0.0.1:{port}"
        assert fields["Authorization"] == f"Bearer {TOKEN}"
        assert fields["Content-Type"] == "application/json"
        assert fields["Content-Length"] == str(len(body))
        assert fields["Connection"] == "close"
        assert b"user" not in head and json.loads(body)["messages"][0]["content"] == "p"

    def test_ipv6_host_in_brackets(self, monkeypatch):
        try:
            listener = socket.create_server(("::1", 0), family=socket.AF_INET6)
        except OSError:
            pytest.skip("no IPv6 loopback")
        monkeypatch.setenv("LLMCLEAN_API_KEY", TOKEN)
        reply = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(_PAYLOAD), _PAYLOAD)
        received = []

        def serve():
            conn, _ = listener.accept()
            with conn:
                received.append(conn.recv(65536))
                conn.sendall(reply)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        with listener:
            port = listener.getsockname()[1]
            assert _ask(f"http://[::1]:{port}/v1") is True
            thread.join(5)
        assert f"\r\nHost: [::1]:{port}\r\n".encode() in received[0]


class TestFanOut:
    def test_unexpected_worker_error_is_raised(self, monkeypatch):
        def answer(backend, prompt):
            if prompt == "p3":
                raise RuntimeError("bug in p3")
            return "yes"

        monkeypatch.setattr(gateway, "_remote_call", answer)
        backend = RemoteBackend("http://127.0.0.1:1/v1", "m", max_parallel=4)
        with pytest.raises(RuntimeError, match="bug in p3"):
            complete_many(backend, [f"p{i}" for i in range(8)], ResponseFormat.YES_NO)

    def test_every_prompt_answered_once_in_order(self, monkeypatch):
        # More threads than cores and a short switch interval: a prompt taken
        # twice or a lost result would show in the counts or the order.
        asked: list[str] = []

        def answer(backend, prompt):
            asked.append(prompt)
            time.sleep(0)
            return "NONE" if int(prompt[1:]) % 3 else prompt

        monkeypatch.setattr(gateway, "_remote_call", answer)
        backend = RemoteBackend("http://127.0.0.1:1/v1", "m", max_parallel=16)
        prompts = [f"p{i}" for i in range(2000)]
        threads_before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = complete_many(backend, prompts, ResponseFormat.SINGLE_LABEL)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(asked) == sorted(prompts)
        assert results == [p if i % 3 == 0 else "NONE" for i, p in enumerate(prompts)]
        assert threading.active_count() == threads_before  # every worker joined
