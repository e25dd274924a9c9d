"""Loopback stand-in for a chat-completions endpoint.

Answers each prompt from a fixed answer table after a constant delay, and
counts what it receives. It listens on 127.0.0.1 only, so a remote-backend
run never leaves the machine.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class StubServer:
    """Serve ``answers`` (prompt -> reply text) at http://127.0.0.1:<port>/."""

    def __init__(self, answers: dict[str, str], token: str, delay_s: float):
        self.answers = answers
        self.token = token
        self.delay_s = delay_s
        self._lock = threading.Lock()
        self.requests = 0
        self.wait_s = 0.0  # total time requests spent in the constant delay
        self.unknown = 0  # prompts outside the answer table
        self.unauthorized = 0
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802 - http.server naming
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                status, reply = stub._answer(self.headers.get("Authorization", ""), body)
                payload = json.dumps(reply).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, format, *args):  # keep stderr quiet
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def endpoint(self) -> str:
        return f"http://127.0.0.1:{self._server.server_address[1]}/v1/chat/completions"

    def totals(self) -> tuple[int, float]:
        """Requests received and delay served so far."""
        with self._lock:
            return self.requests, self.wait_s

    def _answer(self, auth: str, body: bytes) -> tuple[int, dict]:
        start = time.perf_counter()
        time.sleep(self.delay_s)
        waited = time.perf_counter() - start
        try:
            prompt = json.loads(body)["messages"][-1]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            prompt = None
        answer = self.answers.get(prompt) if isinstance(prompt, str) else None
        with self._lock:
            self.requests += 1
            self.wait_s += waited
            if auth != f"Bearer {self.token}":
                self.unauthorized += 1
                return 401, {"error": "bad token"}
            if answer is None:
                self.unknown += 1
                return 404, {"error": "prompt not in the answer table"}
        return 200, {"choices": [{"message": {"role": "assistant", "content": answer}}]}

    def __enter__(self) -> "StubServer":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)
