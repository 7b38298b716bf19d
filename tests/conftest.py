"""Shared fixtures: repo paths, run-config builders, and a scriptable
OpenAI-compatible stub server for exercising the remote backends."""

from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from hashnet import AgentSpec, RunConfig, TopologySpec

REPO = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "fixtures"
# Marks a test that needs Python's limit on the digits of an integer read from
# text, which versions before 3.10.7 do not have.
DIGIT_LIMIT = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit")
# JSON text that ``json`` refuses although it is well formed: arrays nested past
# the recursion limit, and an integer past the digit limit.
NESTED_ARRAYS = "[" * 200_000 + "]" * 200_000
LONG_INTEGER = "9" * 5001
UNDECODABLE_VALUES = [
    pytest.param(NESTED_ARRAYS, id="nested-arrays"),
    pytest.param(LONG_INTEGER, id="long-integer", marks=DIGIT_LIMIT),
]


@pytest.fixture
def fixtures() -> Path:
    return FIXTURES


@pytest.fixture
def demo_config_path() -> Path:
    return REPO / "demos" / "config_mock.json"


def make_mock_config(
    n: int = 8,
    rounds: int = 5,
    *,
    strategy: str = "imitate",
    lexicon: tuple[str, ...] = ("#a", "#b", "#c"),
    seed: int = 0,
    k: int = 4,
    p: float = 0.1,
    parallelism: int = 1,
) -> RunConfig:
    params: dict = {"strategy": strategy}
    if strategy == "imitate":
        params["lexicon"] = list(lexicon)
    return RunConfig(
        topology=TopologySpec(n=n, k=k, p=p),
        rounds=rounds,
        agents=tuple(AgentSpec(i, "mock", dict(params)) for i in range(n)),
        narrative_path=str(FIXTURES / "synthetic_narrative.json"),
        seed=seed,
        parallelism=parallelism,
    )


class StubServer:
    """Scriptable chat-completions / embeddings endpoint.

    ``script`` is a list of planned replies consumed in request order:
    an int is an HTTP error status, a ``(status, headers)`` pair is one
    sent with those headers, a string becomes the chat message content,
    and a dict is returned verbatim. When the script runs dry,
    requests get a default '#stub' completion. Every request body is
    recorded for assertions.
    """

    def __init__(self):
        self.script: list = []
        self.requests: list[tuple[str, dict, dict]] = []
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", "0"))
                payload = json.loads(self.rfile.read(length) or b"{}")
                headers = {k: v for k, v in self.headers.items()}
                with outer._lock:
                    outer.requests.append((self.path, payload, headers))
                    planned = outer.script.pop(0) if outer.script else None
                if isinstance(planned, int):
                    planned = (planned, {})
                if isinstance(planned, tuple):
                    status, extra = planned
                    self.send_response(status)
                    for name, value in extra.items():
                        self.send_header(name, value)
                    self.end_headers()
                    return
                if isinstance(planned, dict):
                    body = planned
                elif self.path.endswith("/embeddings"):
                    body = {
                        "data": [
                            {"index": i, "embedding": [float(len(text)), 1.0]}
                            for i, text in enumerate(payload.get("input", []))
                        ]
                    }
                else:
                    content = planned if isinstance(planned, str) else "#stub"
                    body = {"choices": [{"message": {"role": "assistant", "content": content}}]}
                data = json.dumps(body).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # stop() waits for serve_forever's next poll: 0.05 s, not the default 0.5 s.
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/v1"

    def start(self):
        self._thread.start()

    def stop(self):
        self._server.shutdown()
        self._server.server_close()


@pytest.fixture
def stub_server():
    server = StubServer()
    server.start()
    yield server
    server.stop()
