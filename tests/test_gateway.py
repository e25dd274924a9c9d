from __future__ import annotations

import json
import logging
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from llmclean.errors import (
    FormatError,
    ReplayMissError,
    TemplateError,
    TransportError,
)
from llmclean.gateway import (
    Completion,
    PromptTemplate,
    RemoteBackend,
    ReplayBackend,
    ResponseFormat,
    cassette_key,
    complete,
    complete_many,
    format_answer_set,
    generate_prompt_variants,
    parse_completion,
    render_prompt,
    save_cassette,
    select_few_shot,
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
            "t", "Question?", ResponseFormat.LABEL_LIST,
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
        assert parse_completion(raw, ResponseFormat.YES_NO).parsed is expected

    def test_yes_no_garbage_raises_format_error(self):
        with pytest.raises(FormatError) as exc:
            parse_completion("maybe?", ResponseFormat.YES_NO)
        assert exc.value.raw_text == "maybe?"

    def test_label_list_split(self):
        completion = parse_completion("Berlin, Hamburg,\nMunich", ResponseFormat.LABEL_LIST)
        assert set(completion.parsed) == {"Berlin", "Hamburg", "Munich"}

    def test_label_list_drops_empties_and_dupes(self):
        completion = parse_completion("a,,a,\n, b", ResponseFormat.LABEL_LIST)
        assert completion.parsed == ("a", "b")

    def test_label_list_none_token(self):
        assert parse_completion("NONE", ResponseFormat.LABEL_LIST).parsed == ()

    def test_single_label_takes_first_line(self):
        assert parse_completion("\n Device \nmore", ResponseFormat.SINGLE_LABEL).parsed == "Device"


class TestReplayBackend:
    def test_lookup_hit(self, tmp_path):
        path = make_cassette(tmp_path, {"p": "yes"})
        backend = ReplayBackend(path)
        assert complete(backend, "p", ResponseFormat.YES_NO) == Completion("yes", True)

    def test_strict_miss(self, tmp_path):
        backend = ReplayBackend(make_cassette(tmp_path, {"p": "yes"}))
        with pytest.raises(ReplayMissError):
            complete(backend, "unknown", ResponseFormat.YES_NO)

    def test_bit_deterministic_across_instances(self, tmp_path):
        path = make_cassette(tmp_path, {"p": "a, b"})
        first = complete(ReplayBackend(path), "p", ResponseFormat.LABEL_LIST)
        second = complete(ReplayBackend(path), "p", ResponseFormat.LABEL_LIST)
        assert first == second

    def test_cassette_keyed_by_sha256(self, tmp_path):
        path = tmp_path / "c.json"
        save_cassette(path, {"prompt text": "resp"})
        data = json.loads(path.read_text())
        assert cassette_key("prompt text") in data
        assert data[cassette_key("prompt text")]["prompt"] == "prompt text"

    def test_concurrent_lookups(self, tmp_path):
        prompts = [f"p{i}" for i in range(16)]
        path = make_cassette(tmp_path, {p: "yes" for p in prompts})
        backend = ReplayBackend(path)
        results = complete_many(backend, prompts[:8] + ["unknown"] + prompts[8:],
                                ResponseFormat.YES_NO)
        assert isinstance(results[8], ReplayMissError)
        assert all(c.parsed is True for c in results[:8] + results[9:])


class _Handler(BaseHTTPRequestHandler):
    behavior = "ok"
    seen_bodies: list[dict] = []
    failures_left = 0

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
        payload = json.dumps(
            {"choices": [{"message": {"role": "assistant", "content": "yes"}}]}
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):  # keep pytest output clean
        pass


@pytest.fixture
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Handler.behavior = "ok"
    _Handler.seen_bodies = []
    _Handler.failures_left = 0
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()


class TestRemoteBackend:
    def test_success(self, http_server, monkeypatch):
        monkeypatch.setenv("LLMCLEAN_API_KEY", "sk-secret")
        backend = RemoteBackend(http_server, "test-model", timeout=5.0)
        completion = complete(backend, "ping", ResponseFormat.YES_NO)
        assert completion.parsed is True
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
        assert complete(backend, "p", ResponseFormat.YES_NO).parsed is True
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

    def test_token_never_logged(self, http_server, monkeypatch, caplog):
        monkeypatch.setenv("LLMCLEAN_API_KEY", "sk-very-secret-token")
        _Handler.behavior = "flaky"
        _Handler.failures_left = 99
        backend = RemoteBackend(http_server, "m", timeout=5.0, backoff_base=0.01)
        with caplog.at_level(logging.DEBUG):
            with pytest.raises(TransportError):
                complete(backend, "p", ResponseFormat.YES_NO)
        assert "sk-very-secret-token" not in caplog.text

    def test_bounded_latency(self, monkeypatch):
        # Unroutable per RFC 5737; each attempt must respect the timeout.
        monkeypatch.setenv("LLMCLEAN_API_KEY", "sk")
        backend = RemoteBackend(
            "http://192.0.2.1:9/v1", "m", timeout=0.2, backoff_base=0.05
        )
        start = time.perf_counter()
        with pytest.raises(TransportError):
            complete(backend, "p", ResponseFormat.YES_NO)
        elapsed = time.perf_counter() - start
        assert elapsed < backend.max_attempts * backend.timeout + 0.5


class TestFewShotSelection:
    def test_extremes_included(self):
        train = [
            ("small", frozenset()),
            ("mid", frozenset({"a"})),
            ("big", frozenset({"a", "b", "c", "d", "e"})),
        ]
        picked = select_few_shot(train, 2)
        assert [p[0] for p in picked] == ["big", "small"]

    def test_k_equals_all(self):
        train = [("a", frozenset({"x"})), ("b", frozenset())]
        assert len(select_few_shot(train, 2)) == 2

    def test_deterministic_for_seed(self):
        train = [(f"e{i}", frozenset({str(j) for j in range(i)})) for i in range(6)]
        assert select_few_shot(train, 4, seed=3) == select_few_shot(train, 4, seed=3)

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            select_few_shot([("a", frozenset())], 2)

    def test_format_answer_set(self):
        assert format_answer_set({"b", "a"}) == "a, b"
        assert format_answer_set(set()) == "NONE"


class TestPromptVariants:
    def _base(self):
        return PromptTemplate("base", "Classify {col_names} please.", ResponseFormat.YES_NO)

    def _cassette_for(self, tmp_path, base, n, response):
        meta_prompt = (
            f"Rewrite the following task description in {n} different ways, "
            "one per line. Keep every {placeholder} token exactly as written.\n\n"
            + base.task_text
        )
        return make_cassette(tmp_path, {meta_prompt: response})

    def test_three_paraphrases(self, tmp_path):
        base = self._base()
        path = self._cassette_for(
            tmp_path, base, 3,
            "1. Check {col_names} now.\n2. Look at {col_names}.\n3. Assess {col_names}.",
        )
        variants = generate_prompt_variants(ReplayBackend(path), base, 3)
        assert len(variants) == 3
        assert all(v.response_format is ResponseFormat.YES_NO for v in variants)
        assert variants[0].task_text == "Check {col_names} now."

    def test_duplicates_deduplicated(self, tmp_path):
        base = self._base()
        path = self._cassette_for(tmp_path, base, 3, "Same.\nSame.\nSame.")
        variants = generate_prompt_variants(ReplayBackend(path), base, 3)
        assert len(variants) == 1

    def test_single_echo(self, tmp_path):
        base = self._base()
        path = self._cassette_for(tmp_path, base, 1, base.task_text)
        variants = generate_prompt_variants(ReplayBackend(path), base, 1)
        assert [v.task_text for v in variants] == [base.task_text]
