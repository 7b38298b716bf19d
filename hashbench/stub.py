"""Seeded-latency OpenAI-compatible chat-completions stub for the
sim_remote workload.

    python3 hashbench/stub.py --seed 7

prints the port it listens on (127.0.0.1) as its first line of output and
serves until terminated. It speaks HTTP/1.1 with keep-alive, so a client
session reuses one connection.

Everything it does is a function of the seed and the request body:
- latency: lognormal, median 10 ms, shape 0.6;
- reply: the imitate rule applied to the interaction table in the
  prompt; in round 1 (no table) a lexicon entry picked by model name, one
  model name per agent; a seeded share of replies wrap the hashtag in a
  reasoning block;
- failures: a 503 for a seeded 2% of bodies the first time each is seen,
  so every run takes the client's retry path.

``GET /_stats`` returns the connection, request and injected-failure
counters; ``POST /_reset`` zeroes them and forgets which bodies were seen.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from statistics import NormalDist

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import LEXICON, imitate, parse_table  # noqa: E402

MEDIAN_LATENCY_S = 0.010
LATENCY_SIGMA = 0.6
FAIL_SHARE = 0.02


def round1_pick(seed: int, model: str) -> str:
    """The opening guess of the agent that uses ``model``."""
    digest = hashlib.sha256(f"{seed}:{model}".encode()).digest()
    return LEXICON[int.from_bytes(digest[:8], "big") % len(LEXICON)]


class StubState:
    def __init__(self, seed: int):
        self.seed = seed
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            self.seen: set[bytes] = set()
            self.counters = {"connections": 0, "requests": 0, "injected_failures": 0}

    def draws(self, body: bytes) -> tuple[float, float, float]:
        """Three uniforms in (0, 1) keyed on the seed and the body."""
        digest = hashlib.sha256(self.seed.to_bytes(8, "big") + body).digest()
        return tuple((int.from_bytes(digest[i:i + 8], "big") + 0.5) / 2**64 for i in (0, 8, 16))

    def answer(self, body: bytes) -> tuple[int, dict | None, float]:
        """(status, reply document, latency in seconds) for one request."""
        latency_u, fail_u, style_u = self.draws(body)
        with self.lock:
            self.counters["requests"] += 1
            first = body not in self.seen
            self.seen.add(body)
            if first and fail_u < FAIL_SHARE:
                self.counters["injected_failures"] += 1
                return 503, None, 0.0
        payload = json.loads(body)
        prompt = payload["messages"][0]["content"]
        history = [(r, neighbor) for r, _own, neighbor in parse_table(prompt)]
        tag = imitate(history, round1_pick(self.seed, payload["model"]))
        text = f"<think>Most partners so far said {tag}.</think>\n{tag}" if style_u < 0.25 else tag
        latency = MEDIAN_LATENCY_S * math.exp(LATENCY_SIGMA * NormalDist().inv_cdf(latency_u))
        return 200, {"choices": [{"index": 0, "message": {"role": "assistant", "content": text}}]}, latency


def make_handler(state: StubState):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        counted = False

        def _send(self, status: int, doc: dict | None) -> None:
            data = json.dumps(doc).encode() if doc is not None else b""
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            if self.path != "/_stats":
                self._send(404, None)
                return
            with state.lock:
                counters = dict(state.counters)
            self._send(200, counters)

        def do_POST(self):
            body = self.rfile.read(int(self.headers.get("Content-Length", "0")))
            if self.path == "/_reset":
                state.reset()
                self._send(200, {})
                return
            if not self.path.endswith("/chat/completions"):
                self._send(404, None)
                return
            if not self.counted:
                # Counted on its first chat request, so control calls do not count.
                self.counted = True
                with state.lock:
                    state.counters["connections"] += 1
            status, doc, latency = state.answer(body)
            if latency:
                time.sleep(latency)
            self._send(status, doc)

        def log_message(self, *args):
            pass

    return Handler


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    state = StubState(args.seed)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(state))
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
