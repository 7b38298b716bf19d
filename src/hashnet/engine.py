"""Round orchestration: build each agent's request from its history,
dispatch to backends, parse and normalize responses, score pairs, and
write the transcript.

Rounds are hard barriers. Within a round every backend call may run
concurrently (up to the configured cap); parsing, scoring, and transcript
writing happen afterwards on the coordinating thread, in canonical order,
so a run with deterministic backends is byte-identical at any parallelism.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Sequence

from . import rng as rng_streams
from .agents import (
    AgentSpec,
    BackendRequest,
    DecodeParams,
    build_backends,
    render_interaction_table,  # not called here; kept as a binding the benchmark's tracer wraps
    render_prompt,
)
from .errors import (
    BackendUnavailableError, Checked, ConfigError, ParseError, ReplayGapError, TranscriptError, is_integer,
)
from .narrative import FocalNarrative, load_narrative
from .topology import Network, TopologySpec, generate_network, pair_round

WORD_CAP = 5
# Distinct response texts whose parses are kept; a run repeats a few texts.
PARSE_CACHE_SIZE = 4096
FALLBACK_SENTINEL = "#noresponse"
EPOCH_TIMESTAMP = "1970-01-01T00:00:00Z"


def normalize_hashtag(text: str) -> str:
    """Canonical comparison form: lowercase with '#' and every other
    non-alphanumeric character removed. Idempotent."""
    return "".join(filter(str.isalnum, text.lower()))


@dataclass(frozen=True)
class Hashtag:
    """A guess as extracted from a response, plus its comparison form."""

    raw: str
    normalized: str

    @classmethod
    def from_raw(cls, raw: str) -> "Hashtag":
        return cls(raw=raw, normalized=normalize_hashtag(raw))


_THINK_TAGS = ("think", "thinking", "reasoning", "thought")
_THINK_BLOCK_RE = re.compile(
    r"<\s*(" + "|".join(_THINK_TAGS) + r")\s*>.*?<\s*/\s*\1\s*>",
    re.IGNORECASE | re.DOTALL,
)
_STRAY_CLOSE_RE = re.compile(r"<\s*/\s*(?:" + "|".join(_THINK_TAGS) + r")\s*>", re.IGNORECASE)
_STRAY_OPEN_RE = re.compile(r"<\s*(?:" + "|".join(_THINK_TAGS) + r")\s*>", re.IGNORECASE)

# Quote and markdown wrapper characters stripped around extracted tokens.
_WRAP_CHARS = "\"'`*_“”‘’«»()[]{}"


def _strip_reasoning(text: str) -> str:
    """Drop delimited deliberation blocks such as <think>...</think>,
    including the truncated forms where only one side of the pair made it
    into the output."""
    text = _THINK_BLOCK_RE.sub("", text)
    closes = list(_STRAY_CLOSE_RE.finditer(text))
    if closes:
        text = text[closes[-1].end():]
    stray_open = _STRAY_OPEN_RE.search(text)
    if stray_open:
        text = text[: stray_open.start()]
    return text


def _is_hashtag_token(token: str) -> bool:
    bare = token.lstrip(_WRAP_CHARS)
    return bare.startswith("#") and any(c.isalnum() for c in bare)


def _guess(tokens: Sequence[str]) -> Hashtag:
    """The first five tokens left after cleaning off quotes and markdown. A
    guess with no letter or digit cannot be compared, so it fails to parse."""
    cleaned = [t.strip(_WRAP_CHARS) for t in tokens]
    tag = Hashtag.from_raw(" ".join([t for t in cleaned if t][:WORD_CAP]))
    if not tag.normalized:
        raise ParseError(f"guess {tag.raw!r} has no letter or digit")
    return tag


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_response(raw_text: str) -> Hashtag:
    """Extract the hashtag guess from a backend's raw output.

    Reasoning blocks are stripped first. The guess is the first
    '#'-prefixed token sequence (from that token to the end of its line);
    if no line contains one, the first nonempty line is used instead.
    Either way the result is truncated to five whitespace-delimited words
    and cleaned of surrounding quotes and markdown. A result whose
    normalized form is empty raises ParseError.

    Results are memoized per text; a ParseError is not, so a failing text
    raises on every call.
    """
    text = _strip_reasoning(raw_text)
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line and not line.startswith("```")]
    if not lines:
        raise ParseError("response is empty after stripping")

    for line in lines:
        tokens = line.split()
        for i, token in enumerate(tokens):
            if _is_hashtag_token(token):
                return _guess(tokens[i:])
    return _guess(lines[0].lstrip("#").split())


# --- prompt construction ---------------------------------------------------


def build_prompt(
    agent_id: int,
    round_index: int,
    transcript: "Transcript",
    narrative: FocalNarrative,
) -> str:
    """Prompt for one agent at the start of ``round_index``, given the
    transcript so far. Round 1 carries no interaction table; later rounds
    embed the agent's full prior history, one CSV row per round in which it
    was paired."""
    if round_index < 1:
        raise ValueError(f"round index must be >= 1, got {round_index}")
    rows = transcript.agent_history(agent_id, before_round=round_index)
    return render_prompt(round_index, rows, narrative.full_text)


# --- records and transcripts ------------------------------------------------


@dataclass(frozen=True)
class InteractionRecord:
    """Outcome of one pair in one round."""

    round: int
    agent_a: int
    agent_b: int
    raw_a: str
    raw_b: str
    hashtag_a: Hashtag
    hashtag_b: Hashtag
    match: bool
    points_a: int
    points_b: int
    fallback_a: bool
    fallback_b: bool

    def sides(self) -> tuple[tuple[int, str, str, str], tuple[int, str, str, str]]:
        """(agent, raw text, own raw hashtag, neighbor raw hashtag) of side a, then of side b."""
        return (
            (self.agent_a, self.raw_a, self.hashtag_a.raw, self.hashtag_b.raw),
            (self.agent_b, self.raw_b, self.hashtag_b.raw, self.hashtag_a.raw),
        )

    def to_dict(self) -> dict:
        """The record's JSON object, keys in field order."""
        return {**vars(self), "hashtag_a": dict(vars(self.hashtag_a)), "hashtag_b": dict(vars(self.hashtag_b))}

    @classmethod
    def from_dict(cls, doc: dict) -> "InteractionRecord":
        """The record a JSON value describes; TranscriptError when it, or one
        of its hashtags, is not an object or lacks a field."""
        if not isinstance(doc, dict):
            raise TranscriptError(f"record must be a JSON object, got {doc!r}")
        for key in ("hashtag_a", "hashtag_b"):
            tag = doc.get(key, {})
            if not isinstance(tag, dict):
                raise TranscriptError(f"{key} must be a JSON object, got {tag!r}")
            for name in ("raw", "normalized"):
                if key in doc and name not in tag:
                    raise TranscriptError(f"{key} missing field {name!r}")
        try:
            return cls(
                round=doc["round"],
                agent_a=doc["agent_a"],
                agent_b=doc["agent_b"],
                raw_a=doc["raw_a"],
                raw_b=doc["raw_b"],
                hashtag_a=Hashtag(doc["hashtag_a"]["raw"], doc["hashtag_a"]["normalized"]),
                hashtag_b=Hashtag(doc["hashtag_b"]["raw"], doc["hashtag_b"]["normalized"]),
                match=doc["match"],
                points_a=doc["points_a"],
                points_b=doc["points_b"],
                fallback_a=doc["fallback_a"],
                fallback_b=doc["fallback_b"],
            )
        except KeyError as err:
            raise TranscriptError(f"record missing field {err}") from err


@dataclass
class Transcript:
    """Header plus interaction records ordered by (round, agent_a); the
    durable artifact of a run. ``abort`` carries the marker object when a
    run stopped early."""

    header: dict
    records: list[InteractionRecord]
    abort: dict | None = None

    def rounds_completed(self) -> int:
        return max((r.round for r in self.records), default=0)

    def records_for_round(self, round_index: int) -> list[InteractionRecord]:
        return [r for r in self.records if r.round == round_index]

    def agent_history(self, agent_id: int, before_round: int | None = None) -> list[tuple[int, str, str]]:
        """(round, own_guess, neighbor_guess) rows for one agent, raw
        hashtags, in round order; rounds the agent sat out contribute no row."""
        return [
            (record.round, own, other)
            for record in self.records if before_round is None or record.round < before_round
            for agent, _, own, other in record.sides() if agent == agent_id
        ]

    def match_rate(self) -> float:
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.match) / len(self.records)

    def fallback_count(self) -> int:
        return sum(int(r.fallback_a) + int(r.fallback_b) for r in self.records)


def write_transcript(transcript: Transcript, path: str | Path) -> None:
    """Write a complete transcript as JSON Lines (header first, UTF-8)."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        _write_line(handle, transcript.header)
        for record in transcript.records:
            _write_line(handle, record.to_dict())
        if transcript.abort is not None:
            _write_line(handle, transcript.abort)


def read_transcript(path: str | Path) -> Transcript:
    """Parse a transcript file, checking that the header and every record
    are JSON objects with the record fields, that ``round``, ``agent_a`` and
    ``agent_b`` are integers, that each pair is an edge of the header's
    ``network_edges``, that each side's points are 1 on a match and 0
    otherwise, that rounds run contiguously from 1 and that (round, agent_a)
    strictly increases from record to record."""
    header: dict | None = None
    edges: set[tuple[int, int]] = set()
    records: list[InteractionRecord] = []
    abort: dict | None = None
    # A record either opens the next round or follows the last agent_a.
    last_round, last_agent = 0, float("inf")
    with open(path, encoding="utf-8") as handle:
        for i, line in enumerate(handle):
            if not line.strip():
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as err:
                raise TranscriptError(f"{path}: line {i + 1}: invalid JSON ({err})") from err
            if i == 0:
                if not isinstance(doc, dict):
                    raise TranscriptError(f"{path}: line 1: header must be a JSON object, got {doc!r}")
                header = doc
                try:
                    edges = {pair for a, b in header.get("network_edges", []) for pair in ((a, b), (b, a))}
                except (TypeError, ValueError) as err:
                    raise TranscriptError(f"{path}: line 1: network_edges must be a list of [a, b] pairs") from err
            elif isinstance(doc, dict) and doc.get("abort"):
                abort = doc
            else:
                try:
                    record = InteractionRecord.from_dict(doc)
                except TranscriptError as err:
                    raise TranscriptError(f"{path}: line {i + 1}: {err}") from err
                for key in ("round", "agent_a", "agent_b"):
                    if not is_integer(getattr(record, key)):
                        raise TranscriptError(f"{path}: line {i + 1}: {key} must be an integer, got {doc[key]!r}")
                if (record.agent_a, record.agent_b) not in edges:
                    raise TranscriptError(
                        f"{path}: line {i + 1}: pair ({record.agent_a}, {record.agent_b}) is not an edge of the "
                        "header's network_edges"
                    )
                for key in ("points_a", "points_b"):
                    if getattr(record, key) != (1 if record.match else 0):
                        raise TranscriptError(
                            f"{path}: line {i + 1}: {key} {doc[key]!r} contradicts match {doc['match']!r}"
                        )
                if not (record.round == last_round + 1 or (record.round == last_round and record.agent_a > last_agent)):
                    raise TranscriptError(
                        f"{path}: line {i + 1}: round {record.round!r}, agent_a {record.agent_a!r} is out of "
                        "order; rounds run contiguously from 1 and (round, agent_a) strictly increases"
                    )
                last_round, last_agent = record.round, record.agent_a
                records.append(record)
    if header is None:
        raise TranscriptError(f"{path}: missing header line")
    return Transcript(header=header, records=records, abort=abort)


# One encoder for every line: the same bytes as json.dumps(obj, ensure_ascii=False).
_encode = json.JSONEncoder(ensure_ascii=False).encode


def _write_line(handle: IO[str], obj: dict) -> None:
    handle.write(_encode(obj))
    handle.write("\n")


# --- run configuration and orchestration -------------------------------------


@dataclass(frozen=True)
class RunConfig(Checked):
    """Everything a run depends on. With mock or replay backends the
    resulting transcript is a pure function of this object."""

    topology: TopologySpec
    rounds: int
    agents: tuple[AgentSpec, ...]
    narrative_path: str
    decode: DecodeParams = DecodeParams()
    parallelism: int = 1
    seed: int = 0
    run_id: str | None = None
    match_on: str = "normalized"

    def violations(self, *, graph_n: int | None = None) -> list[ConfigError]:
        """``graph_n`` overrides the agent-count source when a pre-built
        network is injected; the Watts-Strogatz constraints then do not
        apply (the spec fields are recorded but unused)."""
        found = []
        if graph_n is None:
            found += self.topology.violations()
            graph_n = self.topology.n
        if not is_integer(self.rounds) or self.rounds < 1:
            found.append(ConfigError("rounds", f"must be a positive integer, got {self.rounds!r}"))
        ids = [spec.agent_id for spec in self.agents]
        if is_integer(graph_n) and len(self.agents) != graph_n:
            found.append(ConfigError(
                "agents", f"agent count {len(self.agents)} must equal the network size {graph_n}"
            ))
        elif all(is_integer(i) for i in ids) and sorted(ids) != list(range(len(ids))):
            found.append(ConfigError("agents", "agent_id values must be exactly 0..n-1"))
        for spec in self.agents:
            found += spec.violations()
        found += self.decode.violations()
        if not is_integer(self.parallelism) or self.parallelism < 1:
            found.append(ConfigError("parallelism", f"must be a positive integer, got {self.parallelism!r}"))
        if not is_integer(self.seed) or self.seed < 0 or self.seed >= 2**64:
            found.append(ConfigError("seed", f"must be an unsigned 64-bit integer, got {self.seed!r}"))
        if self.match_on not in ("normalized", "raw"):
            found.append(ConfigError("match_on", f"must be 'normalized' or 'raw', got {self.match_on!r}"))
        if not isinstance(self.narrative_path, str) or not self.narrative_path:
            found.append(ConfigError("narrative", f"must be a nonempty path string, got {self.narrative_path!r}"))
        return found

    def resolved_topology(self) -> TopologySpec:
        """Topology with its seed pinned (derived from the root seed when unset)."""
        if self.topology.seed is not None:
            return self.topology
        return replace(self.topology, seed=rng_streams.topology_seed(self.seed))

    def is_deterministic(self) -> bool:
        return all(spec.backend in ("mock", "replay") for spec in self.agents)


def config_snapshot(config: RunConfig) -> dict:
    """Serializable snapshot stored in the transcript header; enough to
    recompute the run with deterministic backends. The parallelism cap is
    deliberately absent: it is an execution knob that never changes results,
    so runs at different caps stay byte-identical."""
    topology = config.resolved_topology()
    return {
        "topology": {"n": topology.n, "k": topology.k, "p": topology.p, "seed": topology.seed},
        "rounds": config.rounds,
        "agents": [
            {
                "agent_id": spec.agent_id,
                "backend": spec.backend,
                "backend_params": dict(spec.backend_params),
            }
            for spec in config.agents
        ],
        "narrative": config.narrative_path,
        "decode": {"temperature": config.decode.temperature, "max_tokens": config.decode.max_tokens},
        "seed": config.seed,
        "match_on": config.match_on,
    }


def config_digest(snapshot: dict) -> str:
    canonical = json.dumps(snapshot, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def run_simulation(
    config: RunConfig,
    *,
    out_path: str | Path | None = None,
    network: Network | None = None,
) -> Transcript:
    """Play the matching game for ``config.rounds`` rounds.

    When ``out_path`` is given the transcript is written incrementally, one
    completed round at a time, so a crash preserves finished rounds. A
    pre-built ``network`` overrides the generated topology (the spec form
    cannot express every graph, e.g. complete graphs).

    If more than half of a round's pairs hit an unavailable backend even
    after fallbacks, the run aborts: completed records are kept and an
    explicit abort marker ends the transcript. A replay backend with no
    recorded response also ends the transcript with an abort marker, then
    its ``ReplayGapError`` propagates.
    """
    config.validate(graph_n=network.n if network is not None else None)
    narrative = load_narrative(config.narrative_path)
    if network is None:
        network = generate_network(config.resolved_topology())
    backends = build_backends(config.agents)

    snapshot = config_snapshot(config)
    run_id = config.run_id or config_digest(snapshot)[:12]
    timestamp = EPOCH_TIMESTAMP if config.is_deterministic() else (
        datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    )
    header = {
        "run_id": run_id,
        "config": snapshot,
        "seed": config.seed,
        "narrative_id": narrative.id,
        "network_edges": [list(edge) for edge in network.edge_list()],
        "timestamp": timestamp,
    }

    transcript = Transcript(header=header, records=[])
    # Each agent's (round, own raw hashtag, neighbor raw hashtag) rows so
    # far, one appended when its round commits; the last row holds the
    # agent's last guess. Requests carry these tuples and render prompts
    # from them, so pool threads read an immutable snapshot.
    histories: dict[int, tuple[tuple[int, str, str], ...]] = {i: () for i in range(network.n)}

    with ExitStack() as stack:
        handle = None if out_path is None else stack.enter_context(open(out_path, "w", encoding="utf-8", newline="\n"))
        pool = stack.enter_context(ThreadPoolExecutor(config.parallelism)) if config.parallelism > 1 else None

        def emit(*docs: dict) -> None:
            if handle is not None:
                for doc in docs:
                    _write_line(handle, doc)
                handle.flush()

        def stop(round_index: int, reason: str) -> None:
            transcript.abort = {"abort": True, "round": round_index, "reason": reason}
            emit(transcript.abort)

        emit(header)
        for round_index in range(1, config.rounds + 1):
            pairing = pair_round(network, round_index, rng_streams.pairing_rng(config.seed, round_index))
            participants = [agent for pair in pairing.pairs for agent in pair]

            def invoke(agent: int) -> str | None:
                request = BackendRequest(
                    round=round_index,
                    agent_id=agent,
                    event_text=narrative.full_text,
                    decode=config.decode,
                    history=histories[agent],
                )
                agent_rng = rng_streams.LazyAgentRng(config.seed, round_index, agent)
                try:
                    return backends[agent].respond(request, agent_rng).raw_text
                except BackendUnavailableError:
                    return None

            try:
                texts = dict(zip(participants, (pool.map if pool is not None else map)(invoke, participants)))
            except ReplayGapError as err:
                stop(round_index, str(err))
                raise

            round_records: list[InteractionRecord] = []
            for a, b in pairing.pairs:
                raw_a, tag_a, fb_a = _finalize(texts[a], histories[a])
                raw_b, tag_b, fb_b = _finalize(texts[b], histories[b])
                match = getattr(tag_a, config.match_on) == getattr(tag_b, config.match_on)
                points = 1 if match else 0
                record = InteractionRecord(
                    round=round_index,
                    agent_a=a,
                    agent_b=b,
                    raw_a=raw_a,
                    raw_b=raw_b,
                    hashtag_a=tag_a,
                    hashtag_b=tag_b,
                    match=match,
                    points_a=points,
                    points_b=points,
                    fallback_a=fb_a,
                    fallback_b=fb_b,
                )
                round_records.append(record)
                for agent, _, own, other in record.sides():
                    histories[agent] += ((round_index, own, other),)
            transcript.records += round_records
            emit(*(record.to_dict() for record in round_records))

            unavailable_pairs = sum(any(texts[agent] is None for agent in pair) for pair in pairing.pairs)
            if pairing.pairs and unavailable_pairs > 0.5 * len(pairing.pairs):
                stop(round_index, f"backend unavailable for {unavailable_pairs} of {len(pairing.pairs)} pairs")
                break

    return transcript


def _finalize(text: str | None, history: Sequence[tuple[int, str, str]]) -> tuple[str, Hashtag, bool]:
    """Resolve one agent's response text (None when its backend was
    unavailable) into (raw_record, hashtag, fallback). Fallback substitutes
    the agent's previous guess, the own guess of its last ``history`` row,
    or the sentinel when it has no history; the raw record keeps the text
    when there is one."""
    if text is not None:
        try:
            return (text, parse_response(text), False)
        except ParseError:
            pass
    substitute = history[-1][1] if history else FALLBACK_SENTINEL
    return (substitute if text is None else text, Hashtag.from_raw(substitute), True)
