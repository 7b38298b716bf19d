"""Response-producing backends behind one uniform interface.

Three implementations: a remote OpenAI-compatible chat endpoint, a
deterministic rule-based mock, and a transcript replayer. Mocks and
replays are pure functions of (request, rng state); the remote backend
never mutates the prompt and stores the returned text byte-exact.

The social context an agent sees lives inside its prompt as a small CSV
block (the interaction table). The render/parse helpers here define that
wire format; mock agents read their history back out of the prompt just
like a language model would.
"""

from __future__ import annotations

import csv
import io
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Protocol, Sequence

import numpy as np
import requests

from .errors import BackendUnavailableError, Checked, ConfigError, ReplayGapError, is_integer, is_number

BACKEND_KINDS = ("remote", "mock", "replay")
API_KEY_ENV = "HASHNET_API_KEY"

INTERACTION_TABLE_HEADER = "round,your_guess,neighbor_guess"


@dataclass(frozen=True)
class DecodeParams(Checked):
    """Sampling parameters forwarded to generative backends."""

    temperature: float = 0.7
    max_tokens: int = 64

    def violations(self) -> list[ConfigError]:
        found = []
        if not is_number(self.temperature) or self.temperature < 0:
            found.append(ConfigError("decode.temperature", f"must be >= 0, got {self.temperature!r}"))
        if not is_integer(self.max_tokens) or self.max_tokens < 1:
            found.append(ConfigError("decode.max_tokens", f"must be a positive integer, got {self.max_tokens!r}"))
        return found


@dataclass(frozen=True)
class AgentSpec(Checked):
    """Identity plus the strategy that produces this agent's responses."""

    agent_id: int
    backend: str
    backend_params: Mapping = field(default_factory=dict)

    def violations(self) -> list[ConfigError]:
        """Checks the backend parameters by constructing the backend; a
        replay agent's transcript is only checked for being a path."""
        where = f"agents[{self.agent_id}]"
        if not is_integer(self.agent_id) or self.agent_id < 0:
            return [ConfigError(f"{where}.agent_id", f"must be a non-negative integer, got {self.agent_id!r}")]
        if self.backend not in BACKEND_KINDS:
            return [ConfigError(f"{where}.backend", f"must be one of {BACKEND_KINDS}, got {self.backend!r}")]
        try:
            if self.backend == "replay":
                _replay_source(self)
            else:
                build_backend(self)
        except ConfigError as err:
            return [err]
        return []


@dataclass(frozen=True)
class BackendRequest:
    prompt: str
    round: int
    agent_id: int
    decode: DecodeParams = DecodeParams()


@dataclass(frozen=True)
class BackendResponse:
    raw_text: str
    latency_ms: float = 0.0
    attempt: int = 1


class Backend(Protocol):
    def respond(self, req: BackendRequest, rng: np.random.Generator) -> BackendResponse: ...


def render_interaction_table(rows: Sequence[tuple[int, str, str]]) -> str:
    """CSV block shown to an agent: one row per prior round it was paired,
    raw hashtags as the partner saw them."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["round", "your_guess", "neighbor_guess"])
    for round_index, own, neighbor in rows:
        writer.writerow([round_index, own, neighbor])
    return buf.getvalue().rstrip("\n")


def parse_interaction_table(prompt: str) -> list[tuple[int, str, str]]:
    """Recover (round, your_guess, neighbor_guess) rows from a prompt.

    Returns an empty list when the prompt carries no table (round 1).
    """
    lines = prompt.splitlines()
    try:
        start = lines.index(INTERACTION_TABLE_HEADER)
    except ValueError:
        return []
    body: list[str] = []
    for line in lines[start + 1:]:
        if not line.strip():
            break
        body.append(line)
    rows: list[tuple[int, str, str]] = []
    for record in csv.reader(body):
        if len(record) != 3:
            continue
        rows.append((int(record[0]), record[1], record[2]))
    return rows


def mock_imitate(
    history: Sequence[tuple[int, str, str]],
    lexicon: Sequence[str],
    rng: np.random.Generator,
) -> str:
    """Imitation strategy: with no history, draw uniformly from the lexicon;
    otherwise produce the neighbor guess seen most often across all prior
    rounds, breaking count ties by most recent occurrence, then
    lexicographically."""
    if not lexicon:
        raise ConfigError("backend_params.lexicon", "imitate strategy requires a nonempty lexicon")
    if not history:
        return str(lexicon[int(rng.integers(len(lexicon)))])
    counts: dict[str, int] = {}
    last_seen: dict[str, int] = {}
    for round_index, _own, neighbor in history:
        counts[neighbor] = counts.get(neighbor, 0) + 1
        if round_index > last_seen.get(neighbor, 0):
            last_seen[neighbor] = round_index
    top = max(counts.values())
    tied = [guess for guess, count in counts.items() if count == top]
    tied.sort(key=lambda guess: (-last_seen[guess], guess))
    return tied[0]


class MockBackend:
    """Deterministic rule-based agent.

    Strategies:
      ``constant:<text>``  always answer ``<text>``
      ``imitate``          copy the most frequent neighbor guess so far
                           (requires ``lexicon`` for the opening round)
    """

    def __init__(self, strategy: str, lexicon: Sequence[str] | None = None):
        if lexicon is not None and not (
            isinstance(lexicon, (list, tuple)) and all(isinstance(word, str) for word in lexicon)
        ):
            raise ConfigError("backend_params.lexicon", "must be a list of strings")
        self._constant: str | None = None
        self._lexicon: tuple[str, ...] = tuple(lexicon or ())
        if not isinstance(strategy, str):
            raise ConfigError("backend_params.strategy", "mock backend requires a strategy string")
        if strategy.startswith("constant:"):
            self._constant = strategy[len("constant:"):]
            if not self._constant:
                raise ConfigError("backend_params.strategy", "constant strategy needs text after the colon")
        elif strategy == "imitate":
            if not self._lexicon:
                raise ConfigError("backend_params.lexicon", "imitate strategy requires a nonempty lexicon")
        else:
            raise ConfigError("backend_params.strategy", f"unknown mock strategy {strategy!r}")

    def respond(self, req: BackendRequest, rng: np.random.Generator) -> BackendResponse:
        if self._constant is not None:
            return BackendResponse(raw_text=self._constant)
        history = parse_interaction_table(req.prompt)
        return BackendResponse(raw_text=mock_imitate(history, self._lexicon, rng))


class ReplayBackend:
    """Replays recorded raw responses keyed by (agent_id, round)."""

    def __init__(self, responses: Mapping[tuple[int, int], str]):
        self._responses = dict(responses)

    @classmethod
    def from_transcript(cls, path: str | Path) -> "ReplayBackend":
        """Index a transcript file: raw_a/raw_b of every record, by agent and round."""
        responses: dict[tuple[int, int], str] = {}
        with open(path, encoding="utf-8") as handle:
            for i, line in enumerate(handle):
                if i == 0 or not line.strip():
                    continue
                record = json.loads(line)
                if "abort" in record:
                    continue
                responses[(record["agent_a"], record["round"])] = record["raw_a"]
                responses[(record["agent_b"], record["round"])] = record["raw_b"]
        return cls(responses)

    def respond(self, req: BackendRequest, rng: np.random.Generator) -> BackendResponse:
        key = (req.agent_id, req.round)
        if key not in self._responses:
            raise ReplayGapError(req.agent_id, req.round)
        return BackendResponse(raw_text=self._responses[key])


class RemoteBackend:
    """OpenAI-compatible chat-completions client with bounded retries.

    Sends the prompt as a single user message; the first choice's text is
    returned untouched. Transport failures are retried with exponential
    backoff; exhaustion raises BackendUnavailableError so the engine can
    apply its fallback rule. A shared semaphore caps in-flight requests.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        *,
        api_key_env: str = API_KEY_ENV,
        timeout: float = 60.0,
        max_retries: int = 3,
        backoff: float = 1.0,
        max_in_flight: int = 8,
        session: requests.Session | None = None,
    ):
        if not isinstance(base_url, str) or not base_url:
            raise ConfigError("backend_params.base_url", "remote backend requires a base_url")
        if not isinstance(model, str) or not model:
            raise ConfigError("backend_params.model", "remote backend requires a model name")
        if not isinstance(api_key_env, str) or not api_key_env:
            raise ConfigError("backend_params.api_key_env", "must be a nonempty environment variable name")
        if not is_number(timeout) or timeout <= 0:
            raise ConfigError("backend_params.timeout", f"must be a number > 0, got {timeout!r}")
        if not is_integer(max_retries) or max_retries < 1:
            raise ConfigError("backend_params.max_retries", f"must be a positive integer, got {max_retries!r}")
        if not is_number(backoff) or backoff < 0:
            raise ConfigError("backend_params.backoff", f"must be a number >= 0, got {backoff!r}")
        if not is_integer(max_in_flight) or max_in_flight < 1:
            raise ConfigError("backend_params.max_in_flight", f"must be a positive integer, got {max_in_flight!r}")
        self._url = base_url.rstrip("/") + "/chat/completions"
        self._model = model
        self._api_key_env = api_key_env
        self._timeout = timeout
        self._max_retries = max_retries
        self._backoff = backoff
        self._gate = threading.BoundedSemaphore(max_in_flight)
        self._session = session or requests.Session()

    def respond(self, req: BackendRequest, rng: np.random.Generator) -> BackendResponse:
        payload = {
            "model": self._model,
            "messages": [{"role": "user", "content": req.prompt}],
            "temperature": req.decode.temperature,
            "max_tokens": req.decode.max_tokens,
        }
        headers = {}
        api_key = os.environ.get(self._api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"

        start = time.monotonic()
        failure = ""
        for attempt in range(1, self._max_retries + 1):
            try:
                with self._gate:
                    response = self._session.post(
                        self._url, json=payload, headers=headers, timeout=self._timeout
                    )
                response.raise_for_status()
                text = _first_choice_text(response.json())
                latency_ms = (time.monotonic() - start) * 1000.0
                return BackendResponse(raw_text=text, latency_ms=latency_ms, attempt=attempt)
            except (requests.RequestException, ValueError, KeyError, IndexError, TypeError) as err:
                failure = f"{type(err).__name__}: {err}"
                if attempt < self._max_retries:
                    time.sleep(self._backoff * 2 ** (attempt - 1))
        raise BackendUnavailableError(req.agent_id, req.round, failure)


def _first_choice_text(data: dict) -> str:
    choice = data["choices"][0]
    message = choice.get("message")
    if isinstance(message, dict) and isinstance(message.get("content"), str):
        return message["content"]
    if isinstance(choice.get("text"), str):
        return choice["text"]
    raise ValueError("response carries no choice text")


def _replay_source(spec: AgentSpec) -> str:
    source = spec.backend_params.get("transcript")
    if not isinstance(source, str) or not source:
        raise ConfigError(
            f"agents[{spec.agent_id}].backend_params.transcript", "replay backend requires a transcript path"
        )
    return source


def build_backend(spec: AgentSpec) -> Backend:
    """Construct the backend an AgentSpec describes. Each constructor checks
    its own parameters; their field paths gain this agent's prefix."""
    params = spec.backend_params
    if spec.backend == "replay":
        return ReplayBackend.from_transcript(_replay_source(spec))
    try:
        if spec.backend == "mock":
            return MockBackend(params.get("strategy"), lexicon=params.get("lexicon"))
        if spec.backend == "remote":
            return RemoteBackend(
                params.get("base_url"),
                params.get("model"),
                api_key_env=params.get("api_key_env", API_KEY_ENV),
                timeout=params.get("timeout", 60.0),
                max_retries=params.get("max_retries", 3),
                backoff=params.get("backoff", 1.0),
                max_in_flight=params.get("max_in_flight", 8),
            )
    except ConfigError as err:
        raise ConfigError(f"agents[{spec.agent_id}].{err.field}", err.message) from None
    raise ConfigError(f"agents[{spec.agent_id}].backend", f"unknown backend {spec.backend!r}")


def build_backends(specs: Sequence[AgentSpec]) -> dict[int, Backend]:
    """Backends for a whole run, sharing one replay index per transcript file."""
    replay_sources: dict[str, ReplayBackend] = {}
    backends: dict[int, Backend] = {}
    for spec in specs:
        if spec.backend == "replay":
            path = _replay_source(spec)
            if path not in replay_sources:
                replay_sources[path] = ReplayBackend.from_transcript(path)
            backends[spec.agent_id] = replay_sources[path]
        else:
            backends[spec.agent_id] = build_backend(spec)
    return backends
