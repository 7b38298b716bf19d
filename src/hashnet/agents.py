"""Response-producing backends behind one uniform interface.

Three implementations: a remote OpenAI-compatible chat endpoint, a
deterministic rule-based mock, and a transcript replayer. Mocks and
replays are pure functions of (request, rng state); the remote backend
never mutates the prompt and stores the returned text byte-exact.

The social context an agent sees lives inside its prompt as a small CSV
block (the interaction table). The render/parse helpers here define that
wire format, and ``render_prompt`` the whole prompt around it. A request
carries the table's rows as values and renders its prompt from them only
when a backend reads it: the remote backend does, once per call; an
imitate mock reads the rows, and the other backends read neither.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Protocol, Sequence, TypeVar

import numpy as np

from .errors import BackendUnavailableError, Checked, ConfigError, ReplayGapError, is_integer, is_number, reject_unknown

BACKEND_KINDS = ("remote", "mock", "replay")
API_KEY_ENV = "HASHNET_API_KEY"

INTERACTION_TABLE_HEADER = "round,your_guess,neighbor_guess"
SCORING_PARAGRAPH = (
    "In this experiment, you are awarded 1 point if you guess the same hashtag "
    "as your randomly assigned neighbor, and 0 points if you do not. Your goal "
    "is to earn as many points as possible."
)
CLOSING_PARAGRAPH = (
    "Please guess a short (max 5 words) hashtag for this event. Try to match "
    "your neighbor while staying relevant to the event. You may reuse your "
    "previous hashtag, but don't always do so—especially if you believe your "
    "next neighbor might choose something different."
)

T = TypeVar("T")


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
    """One agent's turn in one round.

    ``history`` holds the agent's (round, own guess, neighbor guess) rows
    from earlier rounds, and ``event_text`` the narrative's full text.
    ``prompt`` renders the prompt from them on each access, so a backend
    that never reads it costs nothing: an imitate mock reads ``history``,
    the remote backend reads ``prompt`` once per call, and a replay reads
    neither.
    """

    round: int
    agent_id: int
    event_text: str
    decode: DecodeParams = DecodeParams()
    history: tuple[tuple[int, str, str], ...] = ()

    @property
    def prompt(self) -> str:
        return render_prompt(self.round, self.history, self.event_text)


@dataclass(frozen=True)
class BackendResponse:
    raw_text: str
    latency_ms: float = 0.0
    attempt: int = 1


class Backend(Protocol):
    def respond(self, req: BackendRequest, rng: np.random.Generator) -> BackendResponse:
        """Answer one request. ``rng`` is this agent's generator for the
        round; the engine passes a generator-like handle that builds it on
        the first draw, and ``req.prompt`` is rendered on access, so a call
        that neither draws nor reads the prompt pays for neither."""
        ...


def render_interaction_row(round_index: int, own: str, neighbor: str) -> str:
    """One CSV row of the interaction table, without its line terminator.

    csv.writer writes a nonempty field with no comma, quote or line break
    as is, so such fields are joined directly; any other row goes through
    csv.writer."""
    both = own + neighbor
    if own and neighbor and "," not in both and '"' not in both and "\r" not in both and "\n" not in both:
        return f"{round_index},{own},{neighbor}"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([round_index, own, neighbor])
    return buf.getvalue()[:-1]


def render_interaction_table(rows: Sequence[tuple[int, str, str]]) -> str:
    """CSV block shown to an agent: one row per prior round it was paired,
    raw hashtags as the partner saw them."""
    return "\n".join([INTERACTION_TABLE_HEADER, *(render_interaction_row(*row) for row in rows)])


def render_prompt(round_index: int, rows: Sequence[tuple[int, str, str]], event_text: str) -> str:
    """The prompt an agent sees at the start of ``round_index``: scoring
    rules, then from round 2 on the interaction table of ``rows`` (unused in
    round 1), the event text and the closing instruction."""
    if round_index == 1:
        context = ["You are in round 1 of the experiment.\n\nBased on the event provided in round 1:"]
    else:
        context = [
            f"You are in round {round_index} of the experiment. Your guesses and "
            "your neighbor's guesses have been as follows, represented in the CSV below:\n\n",
            render_interaction_table(rows),
            "\n\nBased on this information and the event provided in round 1:",
        ]
    return "".join([SCORING_PARAGRAPH, "\n\n", *context, "\n\n", event_text, "\n\n", CLOSING_PARAGRAPH])


def parse_interaction_table(prompt: str) -> list[tuple[int, str, str]]:
    """Recover (round, your_guess, neighbor_guess) rows from a prompt.

    The table starts after the first line equal to the header and ends at
    the first blank line. Returns an empty list when the prompt carries no
    table (round 1).
    """
    lines = prompt.splitlines()
    if INTERACTION_TABLE_HEADER not in lines:
        return []
    body = itertools.takewhile(str.strip, lines[lines.index(INTERACTION_TABLE_HEADER) + 1:])
    return [(int(record[0]), record[1], record[2]) for record in csv.reader(body) if len(record) == 3]


def _tally(rows: Sequence[tuple[int, str, str]], counts: dict[str, int], last_seen: dict[str, int]) -> None:
    """Add rows to the running neighbor-guess counts and last-seen rounds."""
    for round_index, _own, neighbor in rows:
        counts[neighbor] = counts.get(neighbor, 0) + 1
        if neighbor not in last_seen or round_index > last_seen[neighbor]:
            last_seen[neighbor] = round_index


def _imitate(
    counts: Mapping[str, int],
    last_seen: Mapping[str, int],
    lexicon: Sequence[str],
    rng: np.random.Generator,
) -> str:
    """The imitation rule over tallied history (see ``mock_imitate``)."""
    if not lexicon:
        raise ConfigError("backend_params.lexicon", "imitate strategy requires a nonempty lexicon")
    if not counts:
        return str(lexicon[int(rng.integers(len(lexicon)))])
    top = max(counts.values())
    tied = [guess for guess, count in counts.items() if count == top]
    tied.sort(key=lambda guess: (-last_seen[guess], guess))
    return tied[0]


def mock_imitate(
    history: Sequence[tuple[int, str, str]],
    lexicon: Sequence[str],
    rng: np.random.Generator,
) -> str:
    """Imitation strategy: with no history, draw uniformly from the lexicon;
    otherwise produce the neighbor guess seen most often across all prior
    rounds, breaking count ties by most recent occurrence, then
    lexicographically."""
    counts: dict[str, int] = {}
    last_seen: dict[str, int] = {}
    _tally(history, counts, last_seen)
    return _imitate(counts, last_seen, lexicon, rng)


class MockBackend:
    """Deterministic rule-based agent.

    Strategies:
      ``constant:<text>``  always answer ``<text>``
      ``imitate``          copy the most frequent neighbor guess so far
                           (requires ``lexicon`` for the opening round)

    An imitate mock reads its history from the request's rows. It keeps,
    per agent, the rows it has read and their tallies; when the next
    history extends those rows, only the new rows are tallied. The answer
    is always ``mock_imitate`` over the whole history.
    """

    def __init__(self, strategy: str, lexicon: Sequence[str] | None = None):
        if lexicon is not None and not (
            isinstance(lexicon, (list, tuple)) and all(isinstance(word, str) for word in lexicon)
        ):
            raise ConfigError("backend_params.lexicon", "must be a list of strings")
        self._constant: str | None = None
        self._lexicon: tuple[str, ...] = tuple(lexicon or ())
        self._memo: dict[int, tuple[tuple, dict[str, int], dict[str, int]]] = {}
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
        counts, last_seen = self._tallies(req.agent_id, req.history)
        return BackendResponse(raw_text=_imitate(counts, last_seen, self._lexicon, rng))

    def _tallies(
        self, agent_id: int, history: tuple[tuple[int, str, str], ...]
    ) -> tuple[dict[str, int], dict[str, int]]:
        """Tallies of ``history``, tallying only the rows past what this
        agent's memo covers, and the memo brought up to date."""
        seen, counts, last_seen = self._memo.get(agent_id, ((), {}, {}))
        if history[:len(seen)] != seen:
            seen, counts, last_seen = (), {}, {}
        rows = history[len(seen):]
        if rows:
            counts, last_seen = dict(counts), dict(last_seen)
            _tally(rows, counts, last_seen)
            # Entries are never changed once stored, so a concurrent call for
            # the same agent sees either the old entry or the new one.
            self._memo[agent_id] = (history, counts, last_seen)
        return counts, last_seen


class ReplayBackend:
    """Replays recorded raw responses keyed by (agent_id, round)."""

    def __init__(self, responses: Mapping[tuple[int, int], str]):
        self._responses = dict(responses)

    @classmethod
    def from_transcript(cls, path: str | Path) -> "ReplayBackend":
        """Index a transcript file: raw_a/raw_b of every record, by agent and
        round. The file is read, and checked, by ``read_transcript``."""
        from .engine import read_transcript  # engine imports this module

        return cls({
            (agent, record.round): raw
            for record in read_transcript(path).records
            for agent, raw, _, _ in record.sides()
        })

    def respond(self, req: BackendRequest, rng: np.random.Generator) -> BackendResponse:
        key = (req.agent_id, req.round)
        if key not in self._responses:
            raise ReplayGapError(req.agent_id, req.round)
        return BackendResponse(raw_text=self._responses[key])


class HttpClient:
    """JSON POSTs to one path of an OpenAI-compatible endpoint, shared by
    the remote chat backend and the remote embedder.

    The constructor checks the connection settings. Each request carries a
    bearer token read from ``api_key_env`` when that variable is set.
    Failures that ``is_retryable`` accepts are retried with exponential
    backoff. ``max_in_flight`` caps the requests in flight through this
    one client, not across clients.
    """

    def __init__(
        self,
        base_url: str,
        path: str,
        model: str,
        *,
        api_key_env: str = API_KEY_ENV,
        timeout: float = 60.0,
        max_retries: int = 3,
        backoff: float = 1.0,
        max_in_flight: int = 8,
    ):
        for name, value in (("base_url", base_url), ("model", model), ("api_key_env", api_key_env)):
            if not isinstance(value, str) or not value:
                raise ConfigError(name, f"must be a nonempty string, got {value!r}")
        if not is_number(timeout) or timeout <= 0:
            raise ConfigError("timeout", f"must be a number > 0, got {timeout!r}")
        if not is_integer(max_retries) or max_retries < 1:
            raise ConfigError("max_retries", f"must be a positive integer, got {max_retries!r}")
        if not is_number(backoff) or backoff < 0:
            raise ConfigError("backoff", f"must be a number >= 0, got {backoff!r}")
        if not is_integer(max_in_flight) or max_in_flight < 1:
            raise ConfigError("max_in_flight", f"must be a positive integer, got {max_in_flight!r}")
        self._url = base_url.rstrip("/") + path
        self.model = model
        self._api_key_env = api_key_env
        self._timeout = timeout
        self._max_retries = max_retries
        self._backoff = backoff
        self._gate = threading.BoundedSemaphore(max_in_flight)
        # Imported here so that runs without a remote backend never load it.
        import requests

        self._session = requests.Session()

    def post(
        self, payload: dict, read: Callable[[dict], T], unavailable: Callable[[str], Exception]
    ) -> tuple[T, int]:
        """``read`` of the reply JSON of the first attempt that succeeds,
        and that attempt's number. Raises ``unavailable(failure)`` once the
        attempts run out or a failure is not worth repeating."""
        import requests

        headers = {}
        api_key = os.environ.get(self._api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        failure = ""
        for attempt in range(1, self._max_retries + 1):
            try:
                with self._gate:
                    response = self._session.post(self._url, json=payload, headers=headers, timeout=self._timeout)
                response.raise_for_status()
                return read(response.json()), attempt
            except (requests.RequestException, ValueError, KeyError, IndexError, TypeError) as err:
                failure = f"{type(err).__name__}: {err}"
                if not is_retryable(err):
                    break
                if attempt < self._max_retries:
                    time.sleep(self._backoff * 2 ** (attempt - 1))
        raise unavailable(failure)


class RemoteBackend:
    """OpenAI-compatible chat-completions client with bounded retries.

    Sends the prompt as a single user message; the first choice's text is
    returned untouched. Failures that ``is_retryable`` accepts are retried
    with exponential backoff; exhaustion, or any other failure, raises
    BackendUnavailableError so the engine can apply its fallback rule.

    ``max_in_flight`` caps this backend's own requests. Each agent gets its
    own backend and makes one call per round, and rounds are barriers, so
    in a simulation the cap never binds.
    """

    def __init__(self, base_url: str, model: str, **settings):
        """``settings`` are ``HttpClient``'s keyword arguments."""
        try:
            self._client = HttpClient(base_url, "/chat/completions", model, **settings)
        except ConfigError as err:
            raise ConfigError(f"backend_params.{err.field}", err.message) from None

    def respond(self, req: BackendRequest, rng: np.random.Generator) -> BackendResponse:
        payload = {
            "model": self._client.model,
            "messages": [{"role": "user", "content": req.prompt}],
            "temperature": req.decode.temperature,
            "max_tokens": req.decode.max_tokens,
        }
        start = time.monotonic()
        text, attempt = self._client.post(
            payload,
            _first_choice_text,
            lambda failure: BackendUnavailableError(req.agent_id, req.round, failure),
        )
        latency_ms = (time.monotonic() - start) * 1000.0
        return BackendResponse(raw_text=text, latency_ms=latency_ms, attempt=attempt)


def is_retryable(err: Exception) -> bool:
    """Whether an HTTP attempt that failed with ``err`` is worth repeating:
    transport errors, malformed replies, 408, 429 and 5xx are; any other
    4xx status would fail the same way again."""
    import requests

    if not isinstance(err, requests.HTTPError) or err.response is None:
        return True
    status = err.response.status_code
    return status in (408, 429) or not 400 <= status < 500


def _first_choice_text(data: dict) -> str:
    choice = data["choices"][0]
    message = choice.get("message")
    if isinstance(message, dict) and isinstance(message.get("content"), str):
        return message["content"]
    if isinstance(choice.get("text"), str):
        return choice["text"]
    raise ValueError("response carries no choice text")


def _replay_source(spec: AgentSpec) -> str:
    reject_unknown(spec.backend_params, ("transcript",), f"agents[{spec.agent_id}].backend_params.")
    source = spec.backend_params.get("transcript")
    if not isinstance(source, str) or not source:
        raise ConfigError(
            f"agents[{spec.agent_id}].backend_params.transcript", "replay backend requires a transcript path"
        )
    return source


def from_params(cls: Callable[..., T], positional: tuple, keyword: tuple, params: Mapping, prefix: str) -> T:
    """``cls`` called with the ``positional`` params in order (None when
    absent) and the ``keyword`` params that are present, so its own defaults
    fill the rest; any other key raises ``ConfigError`` under ``prefix``."""
    reject_unknown(params, positional + keyword, prefix)
    settings = dict(params)
    args = [settings.pop(key, None) for key in positional]
    return cls(*args, **settings)


def build_backend(spec: AgentSpec) -> Backend:
    """Construct the backend an AgentSpec describes. Each constructor checks
    its own parameters; their field paths gain this agent's prefix."""
    if spec.backend == "replay":
        return ReplayBackend.from_transcript(_replay_source(spec))
    try:
        if spec.backend == "mock":
            return from_params(MockBackend, ("strategy",), ("lexicon",), spec.backend_params, "backend_params.")
        if spec.backend == "remote":
            keyword = ("api_key_env", "timeout", "max_retries", "backoff", "max_in_flight")
            return from_params(RemoteBackend, ("base_url", "model"), keyword, spec.backend_params, "backend_params.")
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
