"""Response-producing backends behind one uniform interface.

Three implementations: a remote OpenAI-compatible chat endpoint, a
deterministic rule-based mock, and a transcript replayer. Mocks and
replays are pure functions of (request, rng state); the remote backend
never mutates the prompt and stores the returned text byte-exact, and
treats a text that is not Unicode text (one holding a lone surrogate) as
a malformed reply.

The social context an agent sees lives inside its prompt as a small CSV
block (the interaction table), written by one csv.writer. The helpers here
define that wire format, and ``render_prompt`` the whole prompt around it.
A request carries the table's rows as a ``History`` snapshot and renders
its prompt from them only when a backend reads it: the remote backend
does, once per call; an imitate mock reads the rows, and the other
backends read neither. Snapshots of one agent share one append-only row
list, so an imitate mock proves in constant time that a history extends
the rows it has already tallied, tallies only the rows past them, and
returns one reply object for as long as its answer holds.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import threading
import time
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Protocol, TypeVar

from .errors import (
    NOT_UNICODE, BackendUnavailableError, ConfigError, ReplayGapError, TranscriptError, is_integer, is_number,
    raise_first_violation, reject_unknown, require_text, surrogate_at,
)
from .rng import Stream

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


class DecodeParams(NamedTuple):
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

    validate = raise_first_violation


class AgentSpec(NamedTuple):
    """Identity plus the strategy that produces this agent's responses.
    Absent ``backend_params`` are an empty read-only mapping, which every
    spec without them shares."""

    agent_id: int
    backend: str
    backend_params: Mapping = MappingProxyType({})

    def violations(self) -> list[ConfigError]:
        """The error ``build_backend`` raises for this spec, if any."""
        try:
            build_backend(self)
        except ConfigError as err:
            return [err]
        return []

    validate = raise_first_violation


@Sequence.register
class History:
    """An agent's (round, own raw hashtag, neighbor raw hashtag) rows from
    earlier rounds: an immutable snapshot of the first ``length`` rows of
    an append-only list, which the agent's later snapshots share.

    ``extended`` appends one row in O(1) when this is the newest snapshot
    of its list; extending an older snapshot, or an empty one, first copies
    the prefix into a new list, so no snapshot ever changes. Extending is
    not safe from two threads at once; reading is. A snapshot reads as a
    read-only sequence: ``len``, iteration, indexing, slices (as tuples)
    and ``==`` against any sequence of the same rows other than a string.
    It is unhashable, like a list: hashing it raises ``TypeError``.
    """

    __slots__ = ("rows", "length")
    __hash__ = None

    def __init__(self, rows: Iterable[tuple[int, str, str]] = ()):
        self.rows = list(rows)
        self.length = len(self.rows)

    def extended(self, row: tuple[int, str, str]) -> "History":
        """This history with ``row`` appended."""
        rows, length = self.rows, self.length
        if not length or len(rows) != length:
            rows = rows[:length]
        rows.append(row)
        snapshot = object.__new__(History)
        snapshot.rows, snapshot.length = rows, length + 1
        return snapshot

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[tuple[int, str, str]]:
        return itertools.islice(self.rows, self.length)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return tuple(self.rows[:self.length][key])
        return self.rows[range(self.length)[key]]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(other) == self.length and self.rows[:self.length] == list(other)

    def __repr__(self) -> str:
        return f"History({self.rows[:self.length]!r})"


NO_HISTORY = History()


class BackendRequest(NamedTuple):
    """One agent's turn in one round.

    ``history`` holds the agent's rows from earlier rounds: the engine
    passes a ``History`` snapshot, and any sequence of rows reads the same.
    ``event_text`` is the narrative's full text. ``prompt`` renders the
    prompt from them on each access, so a backend that never reads it costs
    nothing: an imitate mock reads ``history``, the remote backend reads
    ``prompt`` once per call, and a replay reads neither.
    """

    round: int
    agent_id: int
    event_text: str
    decode: DecodeParams = DecodeParams()
    history: Sequence[tuple[int, str, str]] = NO_HISTORY

    @property
    def prompt(self) -> str:
        return render_prompt(self.round, self.history, self.event_text)


class BackendResponse(NamedTuple):
    raw_text: str
    latency_ms: float = 0.0
    attempt: int = 1


class Backend(Protocol):
    def respond(self, req: BackendRequest, rng: Stream) -> BackendResponse:
        """Answer one request. ``rng`` is this agent's stream for the
        round, which builds its state on the first draw, and ``req.prompt``
        is rendered on access, so a call that neither draws nor reads the
        prompt pays for neither. Calls within a round may run on pool
        threads at once: they read ``req.history``, whose row list the
        engine extends only between rounds, and must not change it."""
        ...


class _Lines(list):
    """A csv.writer target that keeps each written row as its own string."""

    write = list.append


def render_interaction_table(rows: Sequence[tuple[int, str, str]]) -> str:
    """CSV block shown to an agent: the header, then one row per prior round
    it was paired, raw hashtags as the partner saw them, all by one csv.writer.

    A cell holding a carriage return or a line feed is quoted: a CRLF row
    terminator makes csv quote both on every Python version (3.13 does so
    for any terminator), and the rows are then joined with LF."""
    lines = _Lines()
    csv.writer(lines, lineterminator="\r\n").writerows([INTERACTION_TABLE_HEADER.split(","), *rows])
    return "\n".join([line[:-2] for line in lines])


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


def _tally(
    rows: Sequence[tuple[int, str, str]], counts: dict[str, int], last_seen: dict[str, int], best: str | None
) -> str | None:
    """Add rows to the running neighbor-guess counts and last-seen rounds, and
    return the imitation answer after them, given ``best``, the answer before
    them (None for no rows).

    A row raises only its own guess's (count, last seen) key, so the answer
    after it is that guess or the answer before it, in any row order."""
    for round_index, _own, neighbor in rows:
        count = counts[neighbor] = counts.get(neighbor, 0) + 1
        seen = last_seen.get(neighbor)
        if seen is None or round_index > seen:
            last_seen[neighbor] = seen = round_index
        # Higher count, then later round, then the lexicographically smaller guess wins.
        if best is None or (count, seen, best) > (counts[best], last_seen[best], neighbor):
            best = neighbor
    return best


def mock_imitate(
    history: Sequence[tuple[int, str, str]],
    lexicon: Sequence[str],
    rng: Stream,
) -> str:
    """Imitation strategy: with no history, draw uniformly from the lexicon;
    otherwise produce the neighbor guess seen most often across all prior
    rounds, breaking count ties by most recent occurrence, then
    lexicographically."""
    if not lexicon:
        raise ConfigError("lexicon", "imitate strategy requires a nonempty lexicon")
    counts: dict[str, int] = {}
    last_seen: dict[str, int] = {}
    _tally(history, counts, last_seen, None)
    if not counts:
        return str(lexicon[int(rng.integers(len(lexicon)))])
    top = max(counts.values())
    tied = [guess for guess, count in counts.items() if count == top]
    tied.sort(key=lambda guess: (-last_seen[guess], guess))
    return tied[0]


# A memo entry with no rows. Its dicts are never changed: new rows are tallied into copies.
_UNSEEN = ((), {}, {}, None, None)


class MockBackend:
    """Deterministic rule-based agent.

    Strategies:
      ``constant:<text>``  always answer ``<text>``
      ``imitate``          copy the most frequent neighbor guess so far
                           (requires ``lexicon`` for the opening round)

    A constant mock gives every call one reply. An imitate mock keeps, per
    agent, the history rows it has read, their tallies, their answer and its
    reply; a history that extends those rows has only its new rows tallied,
    each in constant time, and an answer that holds keeps its reply. A
    ``History`` sharing the kept snapshot's row list extends it exactly when
    it is no shorter, a constant-time check; any other history is compared
    row by row. A history that adds no row keeps the entry. The answer is
    always ``mock_imitate`` over the whole history.
    """

    def __init__(self, strategy: str, lexicon: Sequence[str] | None = None):
        if lexicon is not None and not (
            isinstance(lexicon, (list, tuple)) and all(isinstance(word, str) for word in lexicon)
        ):
            raise ConfigError("lexicon", "must be a list of strings")
        self._constant: BackendResponse | None = None
        self._lexicon: tuple[str, ...] = tuple(lexicon or ())
        self._memo: dict[int, tuple] = {}  # agent id -> (rows tallied, counts, last seen, answer, reply)
        if not isinstance(strategy, str):
            raise ConfigError("strategy", "mock backend requires a strategy string")
        if strategy.startswith("constant:"):
            if strategy == "constant:":
                raise ConfigError("strategy", "constant strategy needs text after the colon")
            self._constant = BackendResponse(strategy[len("constant:"):])
        elif strategy == "imitate":
            if not self._lexicon:
                raise ConfigError("lexicon", "imitate strategy requires a nonempty lexicon")
        else:
            raise ConfigError("strategy", f"unknown mock strategy {strategy!r}")

    def respond(self, req: BackendRequest, rng: Stream) -> BackendResponse:
        if self._constant is not None:
            return self._constant
        reply = self._entry(req.agent_id, req.history)[4]
        return BackendResponse(mock_imitate((), self._lexicon, rng)) if reply is None else reply

    def _entry(self, agent_id: int, history: Sequence[tuple[int, str, str]]) -> tuple:
        """This agent's memo entry brought up to ``history``, tallying only
        the rows past what the kept entry covers."""
        entry = self._memo.get(agent_id, _UNSEEN)
        seen = entry[0]
        if isinstance(history, History) and isinstance(seen, History) and history.rows is seen.rows:
            # The list only grows, so its first seen.length rows are still seen's.
            start = seen.length
            if start > history.length:
                entry, start = _UNSEEN, 0
        else:
            start = len(seen)
            if start and history[:start] != seen:
                entry, start = _UNSEEN, 0
        rows = history.rows[start:history.length] if isinstance(history, History) else history[start:]
        if not rows:
            return entry
        counts, last_seen = dict(entry[1]), dict(entry[2])
        answer = _tally(rows, counts, last_seen, entry[3])
        reply = entry[4] if answer == entry[3] else BackendResponse(answer)
        # Entries are never changed once stored, so a concurrent call for
        # the same agent sees either the old entry or the new one.
        entry = self._memo[agent_id] = (history, counts, last_seen, answer, reply)
        return entry


class ReplayBackend:
    """Replays recorded raw responses keyed by (agent_id, round); a None
    response replays an unavailable backend."""

    def __init__(self, responses: Mapping[tuple[int, int], str | None]):
        self._responses = dict(responses)

    @classmethod
    def from_transcript(cls, path: str | Path) -> "ReplayBackend":
        """Index a transcript file: raw_a/raw_b of every record, by agent and
        round, or None for a side flagged ``unavailable_*``. The file is read,
        and checked, by ``read_transcript``; a missing file, or one the reader
        refuses, raises ``ConfigError("transcript")``."""
        from .engine import read_transcript  # engine imports this module

        if not Path(path).is_file():
            raise ConfigError("transcript", f"replay transcript not found: {path}")
        try:
            records = read_transcript(path).records
        except TranscriptError as err:
            raise ConfigError("transcript", str(err)) from err
        return cls({
            (agent, record.round): None if unavailable else raw
            for record in records
            for agent, raw, unavailable in ((record.agent_a, record.raw_a, record.unavailable_a),
                                            (record.agent_b, record.raw_b, record.unavailable_b))
        })

    def respond(self, req: BackendRequest, rng: Stream) -> BackendResponse:
        key = (req.agent_id, req.round)
        if key not in self._responses:
            raise ReplayGapError(req.agent_id, req.round)
        text = self._responses[key]
        if text is None:
            raise BackendUnavailableError(req.agent_id, req.round, "unavailable in the replayed transcript")
        return BackendResponse(raw_text=text)


class HttpStatusError(Exception):
    """A reply whose status is not 2xx. ``retry_after`` is its
    ``Retry-After`` in seconds, read only on a 429 or 503 and only in the
    delta-seconds form; None otherwise."""

    def __init__(self, status: int, retry_after: int | None = None):
        super().__init__(f"HTTP status {status}")
        self.status = status
        self.retry_after = retry_after


class HttpClient:
    """JSON POSTs to an OpenAI-compatible endpoint, shared by the remote
    chat backends and the remote embedder.

    The constructor checks the connection settings. Each request carries a
    bearer token read from ``api_key_env`` when that variable is set.
    Failures that ``is_retryable`` accepts are retried with exponential
    backoff, stretched to a 429 or 503 reply's ``Retry-After`` up to
    ``timeout``. Redirects are not followed, and no proxy is used.

    Connections are kept alive in a pool of idle ones that every thread
    draws from, so a client holds no more connections than it has had
    calls in flight at once; a simulation makes at most ``parallelism``.
    """

    def __init__(
        self,
        base_url: str,
        *,
        api_key_env: str = API_KEY_ENV,
        timeout: float = 60.0,
        max_retries: int = 3,
        backoff: float = 1.0,
    ):
        for name, value in (("base_url", base_url), ("api_key_env", api_key_env)):
            require_text(name, value)
        if not is_number(timeout) or timeout <= 0:
            raise ConfigError("timeout", f"must be a number > 0, got {timeout!r}")
        if not is_integer(max_retries) or max_retries < 1:
            raise ConfigError("max_retries", f"must be a positive integer, got {max_retries!r}")
        if not is_number(backoff) or backoff < 0:
            raise ConfigError("backoff", f"must be a number >= 0, got {backoff!r}")
        # Imported here so that runs without a remote backend never load them.
        import http.client
        import socket
        from urllib.parse import urlsplit

        url = urlsplit(base_url)
        try:
            self._address = (url.hostname, url.port)
        except ValueError:  # a port that is not a number in range
            self._address = (None, None)
        if url.scheme not in ("http", "https") or not self._address[0]:
            raise ConfigError("base_url", f"must be an http:// or https:// URL, got {base_url!r}")
        self.settings = (base_url, api_key_env, timeout, max_retries, backoff)
        self._https = url.scheme == "https"
        self._connection_class = http.client.HTTPSConnection if self._https else http.client.HTTPConnection
        self._transport_errors = (OSError, http.client.HTTPException)
        # A server that sends a reply's headers and body in two writes, with
        # Nagle's algorithm on (as http.server does), holds the body until the
        # headers are acknowledged. On a busy keep-alive connection Linux
        # delays that acknowledgement by up to 40 ms, unless told not to.
        quickack = getattr(socket, "TCP_QUICKACK", None)
        self._quickack = None if quickack is None else (socket.IPPROTO_TCP, quickack, 1)
        self._prefix = url.path.rstrip("/")
        self._api_key_env = api_key_env
        self._timeout = timeout
        self._max_retries = max_retries
        self._backoff = backoff
        self._ssl_context = None  # made for the first HTTPS connection
        self._idle: list = []
        self._lock = threading.Lock()

    def post(
        self, path: str, payload: dict, read: Callable[[dict], T], unavailable: Callable[[str], Exception]
    ) -> tuple[T, int]:
        """``read`` of the reply JSON to ``payload`` POSTed to ``path``
        under the base URL, for the first attempt that succeeds, and that
        attempt's number. Raises ``unavailable(failure)`` once the attempts
        run out or a failure is not worth repeating."""
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self._api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        failure = ""
        for attempt in range(1, self._max_retries + 1):
            try:
                return read(json.loads(self._exchange(self._prefix + path, body, headers))), attempt
            except (*self._transport_errors, HttpStatusError, ValueError, KeyError, IndexError, TypeError) as err:
                failure = f"{type(err).__name__}: {err}"
                if not is_retryable(err):
                    break
                if attempt < self._max_retries:
                    delay = self._backoff * 2 ** (attempt - 1)
                    if isinstance(err, HttpStatusError) and err.retry_after is not None:
                        delay = max(delay, min(err.retry_after, self._timeout))
                    time.sleep(delay)
        raise unavailable(failure)

    def close(self) -> None:
        """Close the idle connections; a later call opens a new one."""
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def _exchange(self, path: str, body: bytes, headers: dict) -> bytes:
        """The body of a 2xx reply to one POST. The connection goes back to
        the pool only once its reply has been read in full and the server
        keeps it open; a transport error closes it."""
        connection = self._checkout()
        try:
            connection.request("POST", path, body, headers)
            if self._quickack:
                connection.sock.setsockopt(*self._quickack)
            response = connection.getresponse()
            data = response.read()
        except BaseException:
            connection.close()
            raise
        if response.will_close:
            connection.close()
        else:
            with self._lock:
                self._idle.append(connection)
        if not 200 <= response.status < 300:
            retry_after = response.getheader("Retry-After", "").strip() if response.status in (429, 503) else ""
            delta_seconds = retry_after.isascii() and retry_after.isdigit()  # not the HTTP-date form
            raise HttpStatusError(response.status, int(retry_after) if delta_seconds else None)
        return data

    def _checkout(self):
        """The most recently used idle connection that the server has not
        closed, or a new one. A dropped connection costs no attempt."""
        while True:
            with self._lock:
                if not self._idle:
                    break
                connection = self._idle.pop()
            if not _readable(connection.sock):
                return connection
            connection.close()
        if not self._https:
            return self._connection_class(*self._address, timeout=self._timeout)
        if self._ssl_context is None:
            import ssl  # loaded with http.client

            # The system trust store, with hostname checks.
            self._ssl_context = ssl.create_default_context()
        return self._connection_class(*self._address, timeout=self._timeout, context=self._ssl_context)


def _readable(sock) -> bool:
    """Whether an idle socket has something to read. Nothing is owed on an
    idle keep-alive connection, so that means the server closed it (EOF) or
    broke the protocol; either way it must not carry another request."""
    import select  # loaded with http.client

    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


class RemoteBackend:
    """OpenAI-compatible chat-completions client with bounded retries.

    Sends the prompt as a single user message; the first choice's text is
    returned untouched. Failures that ``is_retryable`` accepts are retried
    with exponential backoff; exhaustion, or any other failure, raises
    BackendUnavailableError so the engine can apply its fallback rule.
    ``build_backends`` gives agents that name the same connection settings
    one ``client``.
    """

    def __init__(self, base_url: str, model: str, **settings):
        """``settings`` are ``HttpClient``'s keyword arguments."""
        self.client = HttpClient(base_url, **settings)
        require_text("model", model)
        self._model = model

    def respond(self, req: BackendRequest, rng: Stream) -> BackendResponse:
        payload = {
            "model": self._model,
            "messages": [{"role": "user", "content": req.prompt}],
            "temperature": req.decode.temperature,
            "max_tokens": req.decode.max_tokens,
        }
        start = time.monotonic()
        text, attempt = self.client.post(
            "/chat/completions",
            payload,
            _first_choice_text,
            lambda failure: BackendUnavailableError(req.agent_id, req.round, failure),
        )
        latency_ms = (time.monotonic() - start) * 1000.0
        return BackendResponse(raw_text=text, latency_ms=latency_ms, attempt=attempt)


def is_retryable(err: Exception) -> bool:
    """Whether an HTTP attempt that failed with ``err`` is worth repeating:
    transport errors, malformed replies, 408, 429 and 5xx are; any other
    status, redirects included, would fail the same way again."""
    if not isinstance(err, HttpStatusError):
        return True
    return err.status in (408, 429) or err.status >= 500


def _first_choice_text(data: dict) -> str:
    """The first choice's text; ``ValueError`` for a reply without one, or
    whose text is not Unicode text, which no transcript could hold."""
    choice = data["choices"][0]
    if not isinstance(choice, dict):
        raise ValueError(f"choice is not an object: {choice!r}")
    message = choice.get("message")
    if isinstance(message, dict) and isinstance(message.get("content"), str):
        text = message["content"]
    elif isinstance(choice.get("text"), str):
        text = choice["text"]
    else:
        raise ValueError("response carries no choice text")
    if surrogate_at(text) is not None:
        raise ValueError(f"choice text {NOT_UNICODE}: {text!r}")
    return text


def from_params(cls: Callable[..., T], positional: tuple, keyword: tuple, params: Mapping) -> T:
    """``cls`` called with the ``positional`` params in order (None when
    absent) and the ``keyword`` params that are present, so its own defaults
    fill the rest; any other key raises ``ConfigError`` naming that key."""
    reject_unknown(params, positional + keyword)
    settings = dict(params)
    args = [settings.pop(key, None) for key in positional]
    return cls(*args, **settings)


def build_backend(spec: AgentSpec, shared: dict | None = None) -> Backend:
    """Construct the backend an AgentSpec describes. Each constructor checks
    its own parameters and names a bad one by its setting name alone; this
    places it under the agent's path, as ``agents[i].backend_params.<name>``.
    Backends built with one ``shared`` dict share what they can: agents
    replaying one transcript file share one index of it, read once, and
    agents with the same connection settings share one HTTP client."""
    where = f"agents[{spec.agent_id}]"
    if not is_integer(spec.agent_id) or spec.agent_id < 0:
        raise ConfigError(f"{where}.agent_id", f"must be a non-negative integer, got {spec.agent_id!r}")
    if spec.backend not in BACKEND_KINDS:
        raise ConfigError(f"{where}.backend", f"must be one of {BACKEND_KINDS}, got {spec.backend!r}")
    shared = {} if shared is None else shared
    try:
        if spec.backend == "replay":
            reject_unknown(spec.backend_params, ("transcript",))
            source = spec.backend_params.get("transcript")
            if not isinstance(source, str) or not source:
                raise ConfigError("transcript", "replay backend requires a transcript path")
            if source not in shared:
                shared[source] = ReplayBackend.from_transcript(source)
            return shared[source]
        if spec.backend == "mock":
            return from_params(MockBackend, ("strategy",), ("lexicon",), spec.backend_params)
        keyword = ("api_key_env", "timeout", "max_retries", "backoff")
        backend = from_params(RemoteBackend, ("base_url", "model"), keyword, spec.backend_params)
    except ConfigError as err:
        raise ConfigError(f"{where}.backend_params.{err.field}", err.message) from err
    backend.client = shared.setdefault(backend.client.settings, backend.client)
    return backend


def build_backends(specs: Sequence[AgentSpec], problems: list[ConfigError] | None = None) -> dict[int, Backend]:
    """The backends of a whole run, by agent id, built by ``build_backend``
    with one ``shared`` dict. The first spec it refuses raises; given a
    ``problems`` list, every refusal is appended there instead, and that
    agent is left out."""
    shared: dict = {}
    backends: dict[int, Backend] = {}
    for spec in specs:
        try:
            backends[spec.agent_id] = build_backend(spec, shared)
        except ConfigError as err:
            if problems is None:
                raise
            problems.append(err)
    return backends
