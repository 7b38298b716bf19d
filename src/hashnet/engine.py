"""Round orchestration: build each agent's request from its history (one
fold over the committed records, shared with ``build_prompt``), dispatch to
backends, parse and normalize responses, score pairs, and write the
transcript through the one line writer ``write_transcript`` also uses.
``_play`` is the one round loop: ``run_simulation`` enters it after
checking a config and building its narrative and backends, and
``hashnet simulate`` with those its config parser built to check it.
The fold keeps each agent's history as a ``History`` snapshot of one
append-only row list, so a round's fold appends one row per paired agent
in constant time, and a request carries its snapshot without a copy. A
round builds its requests and records positionally and writes its lines
in one write. ``read_transcript`` reads a transcript back and checks it in
one pass; it checks each distinct raw hashtag text against
``normalize_hashtag`` once, and every record holding that text shares one
``Hashtag``. A record line laid out as ``InteractionRecord.to_json`` writes
it is read by matching that layout; any other line goes through ``json``.
A string decoded from an escape is checked for a lone surrogate. Records
and hashtags are immutable named tuples.

Rounds are hard barriers. Within a round every backend call may run
concurrently (up to the configured cap); parsing, scoring, and transcript
writing happen afterwards on the coordinating thread, in canonical order,
so a run with deterministic backends is byte-identical at any parallelism.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import json
import operator
import re
import time
from contextlib import ExitStack
from pathlib import Path
from typing import IO, Iterable, NamedTuple, Sequence

from . import rng as rng_streams
from .agents import (
    NO_HISTORY,
    AgentSpec,
    Backend,
    BackendRequest,
    DecodeParams,
    History,
    RemoteBackend,
    build_backends,
    render_interaction_table,  # not called here; kept as a binding the benchmark's tracer wraps
    render_prompt,
)
from .errors import (
    NOT_UNICODE, BackendUnavailableError, ConfigError, ParseError, ReplayGapError, TranscriptError, is_integer,
    raise_first_violation, surrogate_at,
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


class Hashtag(NamedTuple):
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
    histories = extend_histories({}, (record for record in transcript.records if record.round < round_index))
    return render_prompt(round_index, histories.get(agent_id, NO_HISTORY), narrative.full_text)


# --- records and transcripts ------------------------------------------------


class InteractionRecord(NamedTuple):
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
    # A fallback side whose backend was unavailable, rather than unparseable.
    unavailable_a: bool = False
    unavailable_b: bool = False

    def to_dict(self) -> dict:
        """The record's JSON object, keys in field order; an ``unavailable_*``
        key is written only when it is true."""
        doc = dict(zip(_ALWAYS_WRITTEN, self))
        doc["hashtag_a"], doc["hashtag_b"] = self.hashtag_a._asdict(), self.hashtag_b._asdict()
        if self.unavailable_a:
            doc["unavailable_a"] = True
        if self.unavailable_b:
            doc["unavailable_b"] = True
        return doc

    def to_json(self) -> str:
        """The record's JSON line, without its line feed: the same text as
        ``json.dumps(self.to_dict(), ensure_ascii=False)``, built as ``_RECORD_JSON`` lays it out, by an f-string."""
        (round_index, agent_a, agent_b, raw_a, raw_b, tag_a, tag_b,
         match, points_a, points_b, fallback_a, fallback_b, unavailable_a, unavailable_b) = self
        return (f'{{"round": {round_index}, "agent_a": {agent_a}, "agent_b": {agent_b}, '
                f'"raw_a": {_quote(raw_a)}, "raw_b": {_quote(raw_b)}, '
                f'"hashtag_a": {{"raw": {_quote(tag_a.raw)}, "normalized": {_quote(tag_a.normalized)}}}, '
                f'"hashtag_b": {{"raw": {_quote(tag_b.raw)}, "normalized": {_quote(tag_b.normalized)}}}, '
                f'"match": {_JSON_BOOL[match]}, "points_a": {points_a}, "points_b": {points_b}, '
                f'"fallback_a": {_JSON_BOOL[fallback_a]}, "fallback_b": {_JSON_BOOL[fallback_b]}'
                f'{_UNAVAILABLE_KEYS[unavailable_a][unavailable_b]}}}')

    @classmethod
    def from_dict(cls, doc: dict) -> "InteractionRecord":
        """The record a JSON value describes; TranscriptError when it fails a
        check ``read_transcript`` makes of each record line on its own: shape
        and fields, JSON types, ``unavailable_*`` flags only on fallback sides,
        points against ``match``, and each hashtag's normalized form."""
        return _record(doc, {})


_ALWAYS_WRITTEN = InteractionRecord._fields[:-2]  # all but the unavailable flags
# InteractionRecord.to_json's pieces: json.dumps's separators, strings quoted as
# ensure_ascii=False quotes them, and the unavailable keys by (unavailable_a, unavailable_b).
_RECORD_JSON = (
    '{"round": %d, "agent_a": %d, "agent_b": %d, "raw_a": %s, "raw_b": %s, '
    '"hashtag_a": {"raw": %s, "normalized": %s}, "hashtag_b": {"raw": %s, "normalized": %s}, '
    '"match": %s, "points_a": %d, "points_b": %d, "fallback_a": %s, "fallback_b": %s%s}'
)
_quote = json.encoder.encode_basestring
_JSON_BOOL = ("false", "true")
_UNAVAILABLE_KEYS = (
    ("", ', "unavailable_b": true'),
    (', "unavailable_a": true', ', "unavailable_a": true, "unavailable_b": true'),
)


def _record(doc: dict, tags: dict[str, Hashtag]) -> InteractionRecord:
    """``InteractionRecord.from_dict`` that takes each hashtag from ``tags``,
    the one ``Hashtag`` per raw text checked so far. Checks run in a fixed
    order, and the first that fails is the one named."""
    if not isinstance(doc, dict):
        raise TranscriptError(f"record must be a JSON object, got {doc!r}")
    try:
        tag_a, tag_b = _hashtag(doc, "hashtag_a", tags), _hashtag(doc, "hashtag_b", tags)
        record = InteractionRecord(
            doc["round"], doc["agent_a"], doc["agent_b"], doc["raw_a"], doc["raw_b"], tag_a, tag_b,
            doc["match"], doc["points_a"], doc["points_b"], doc["fallback_a"], doc["fallback_b"],
            doc.get("unavailable_a", False), doc.get("unavailable_b", False),
        )
    except KeyError as err:
        raise TranscriptError(f"record missing field {err}") from err
    # JSON numbers decode to int or float and true/false to bool, never to subclasses.
    for key in ("round", "agent_a", "agent_b", "points_a", "points_b"):
        if type(doc[key]) is not int:
            raise TranscriptError(f"{key} must be an integer, got {doc[key]!r}")
    for key in ("match", "fallback_a", "fallback_b"):
        if type(doc[key]) is not bool:
            raise TranscriptError(f"{key} must be true or false, got {doc[key]!r}")
    if "unavailable_a" in doc or "unavailable_b" in doc:
        for key, fallback in (("unavailable_a", "fallback_a"), ("unavailable_b", "fallback_b")):
            if key in doc and doc[key] is not True:
                raise TranscriptError(f"{key} must be true if present, got {doc[key]!r}")
            if key in doc and not doc[fallback]:
                raise TranscriptError(f"{key} on a side whose {fallback} is false")
    for key in ("points_a", "points_b"):
        if doc[key] != (1 if record.match else 0):
            raise TranscriptError(f"{key} {doc[key]!r} contradicts match {doc['match']!r}")
    return record


def _written_record(written: re.Match | None, tags: dict[str, Hashtag]) -> InteractionRecord | None:
    """The record of a line that ``_WRITTEN_LINE`` matched, a line as
    ``InteractionRecord.to_json`` writes it without an ``unavailable_*`` key
    or an escape in a hashtag's strings, when its points agree with
    ``match`` and both hashtags pass ``_hashtag``'s check; otherwise None.
    Such a line passes every check of ``_record``, and each value is its
    JSON value: a string as it stands, or through ``json``'s own string
    decoder when it holds an escape, an integer through ``int``, and
    ``true`` or ``false``."""
    if written is None:
        return None
    (round_index, agent_a, agent_b, raw_a, raw_b, tag_raw_a, normalized_a, tag_raw_b, normalized_b,
     match, points_a, points_b, fallback_a, fallback_b) = written.groups()
    tag_a = tags.get(tag_raw_a) or _new_hashtag(tag_raw_a, normalized_a, tags)
    tag_b = tags.get(tag_raw_b) or _new_hashtag(tag_raw_b, normalized_b, tags)
    matched = match == "true"
    if (tag_a is None or tag_b is None or tag_a.normalized != normalized_a or tag_b.normalized != normalized_b
            or not points_a == points_b == ("1" if matched else "0")):
        return None
    points = 1 if matched else 0
    # A response that is its own hashtag, as a mock's is, keeps no second copy of
    # the text; ``tuple.__new__`` skips the named tuple's argument handling.
    return tuple.__new__(InteractionRecord, (
        int(round_index), int(agent_a), int(agent_b),
        tag_a.raw if raw_a == tag_raw_a else _unescaped(raw_a, "raw_a") if "\\" in raw_a else raw_a,
        tag_b.raw if raw_b == tag_raw_b else _unescaped(raw_b, "raw_b") if "\\" in raw_b else raw_b,
        tag_a, tag_b, matched, points, points, fallback_a == "true", fallback_b == "true", False, False))


# A record line as ``_RECORD_JSON`` lays it out without unavailable keys, each
# value a group: an integer, a string, or true or false. A response's string
# may hold JSON's escapes, a hashtag's none. Then only the whitespace JSON
# allows after a value.
_INT, _BOOL = r"(-?(?:0|[1-9][0-9]*))", "(true|false)"
_STRING = r'"([^"\\\x00-\x1f]*)"'
_ESCAPED_STRING = r'"([^"\\\x00-\x1f]*(?:\\(?:["\\/bfnrt]|u[0-9a-fA-F]{4})[^"\\\x00-\x1f]*)*)"'
_WRITTEN_LINE = re.escape(_RECORD_JSON).replace("%d", "%s") % (
    _INT, _INT, _INT, _ESCAPED_STRING, _ESCAPED_STRING, _STRING, _STRING, _STRING, _STRING,
    _BOOL, _INT, _INT, _BOOL, _BOOL, ""
) + "[ \t\n\r]*"
_scanstring = json.decoder.scanstring  # the decoder json.loads uses for a string's text


def _unescaped(body: str, key: str) -> str:
    """The text of the JSON string ``key`` whose body ``body`` holds an
    escape, decoded as ``json`` decodes it; TranscriptError when it decodes
    to a lone surrogate."""
    text = _scanstring(body + '"', 0)[0]
    _refuse_surrogates(text, key)
    return text


def _hashtag(doc: dict, key: str, tags: dict[str, Hashtag]) -> Hashtag:
    """The shared ``Hashtag`` of ``doc[key]``. A raw text not yet in ``tags``
    is checked against ``normalize_hashtag``, then added; a known one needs
    only the same normalized form."""
    tag = doc[key]
    if not isinstance(tag, dict):
        raise TranscriptError(f"{key} must be a JSON object, got {tag!r}")
    for name in ("raw", "normalized"):
        if name not in tag:
            raise TranscriptError(f"{key} missing field {name!r}")
    raw, normalized = tag["raw"], tag["normalized"]
    shared = (tags.get(raw) or _new_hashtag(raw, normalized, tags)) if isinstance(raw, str) else None
    if shared is None or shared.normalized != normalized:
        raise TranscriptError(f"{key} normalized {normalized!r} is not the normalized form of raw {raw!r}")
    return shared


def _new_hashtag(raw: str, normalized, tags: dict[str, Hashtag]) -> Hashtag | None:
    """The ``Hashtag`` of a raw text not yet in ``tags``, added to them, when
    ``normalized`` is its normalized form; otherwise None."""
    if normalized != normalize_hashtag(raw):
        return None
    tags[raw] = shared = Hashtag(raw, normalized)
    return shared


_round_of = operator.attrgetter("round")


class Transcript:
    """Header plus interaction records ordered by (round, agent_a); the
    durable artifact of a run. ``abort`` carries the marker object when a
    run stopped early. ``partial`` is set when records of the last round are
    missing, as in a file cut mid-round; ``records`` keeps them and ``rounds()`` drops them.
    Two transcripts are equal when these four attributes are."""

    def __init__(
        self, header: dict, records: list[InteractionRecord], abort: dict | None = None, partial: bool = False
    ):
        self.header = header
        self.records = records
        self.abort = abort
        self.partial = partial

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.header, self.records, self.abort, self.partial) == (
            other.header, other.records, other.abort, other.partial)

    def __repr__(self) -> str:
        return (f"Transcript(header={self.header!r}, records={self.records!r}, "
                f"abort={self.abort!r}, partial={self.partial!r})")

    def rounds_completed(self) -> int:
        """The last round with records, or the one before it when that round is partial."""
        return (self.records[-1].round if self.records else 0) - self.partial

    def rounds(self) -> list[list[InteractionRecord]]:
        """Records of rounds 1..rounds_completed(), one list per round; a
        round without records is an empty list."""
        return [self._round(round_index) for round_index in range(1, self.rounds_completed() + 1)]

    def records_for_round(self, round_index: int) -> list[InteractionRecord]:
        """``rounds()[round_index - 1]``; a round outside
        1..rounds_completed() has none."""
        if not 1 <= round_index <= self.rounds_completed():
            return []
        return self._round(round_index)

    def _round(self, round_index: int) -> list[InteractionRecord]:
        # The one round lookup. ``rounds()`` calls it, not ``records_for_round``,
        # whose every call hashbench's tracer counts as a per-round rescan.
        start = bisect.bisect_left(self.records, round_index, key=_round_of)
        return self.records[start:bisect.bisect_right(self.records, round_index, lo=start, key=_round_of)]

    def match_rate(self) -> float:
        if not self.records:
            return 0.0
        return sum(1 for r in self.records if r.match) / len(self.records)

    def fallback_count(self) -> int:
        return sum(int(r.fallback_a) + int(r.fallback_b) for r in self.records)


def extend_histories(histories: dict[int, History], records: Iterable[InteractionRecord]) -> dict[int, History]:
    """Extend the history of both agents of each record by one row and return
    ``histories``; the fold of the records before round r is every history at
    the start of r. Each extension appends to the agent's row list in O(1),
    and the snapshots it replaces stay as they were."""
    for round_index, a, b, _, _, tag_a, tag_b, _, _, _, _, _, _, _ in records:
        histories[a] = histories.get(a, NO_HISTORY).extended((round_index, tag_a.raw, tag_b.raw))
        histories[b] = histories.get(b, NO_HISTORY).extended((round_index, tag_b.raw, tag_a.raw))
    return histories


def write_transcript(transcript: Transcript, path: str | Path) -> None:
    """Write a complete transcript as JSON Lines (header first, UTF-8), a
    thousand lines to a write, so no more than that is held as text."""
    docs = [transcript.header, *transcript.records, *([] if transcript.abort is None else [transcript.abort])]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for start in range(0, len(docs), 1000):
            _write_line(handle, docs[start:start + 1000])


def read_transcript(path: str | Path) -> Transcript:
    """Parse a transcript file and check it in one pass.

    The first line that is not blank is the header, which must be a JSON
    object. Each record line passes ``InteractionRecord.from_dict``'s
    checks. The reader adds the checks that need the header or earlier
    records: each pair is an edge of the header's ``network_edges``,
    ``match`` agrees with the header config's ``match_on`` (normalized by
    default), rounds run contiguously from 1 and (round, agent_a) strictly
    increases from record to record. Each distinct raw hashtag text is
    checked against ``normalize_hashtag`` once; every record holding it
    then shares one ``Hashtag``, and a later record must give it the same
    normalized form.

    A round's pairs are a maximal matching of the network: no agent is
    paired twice, and no two neighbors are both left unpaired. Two such
    neighbors in an earlier round are an error naming them; in the last
    round they mean records of that round are missing, as in a file cut
    mid-round, and the transcript is returned with ``partial`` set. An abort
    marker must be the last line. Lines end in LF or CRLF, and the first bad
    line in file order is the one named, be it invalid JSON or not UTF-8."""
    header: dict | None = None
    tags: dict[str, Hashtag] = {}
    records: list[InteractionRecord] = []
    abort: dict | None = None
    # A record either opens the next round or follows the last agent_a;
    # ``paired`` holds the agents of the current round's records so far.
    last_round, last_agent, paired = 0, float("inf"), set()
    number = 0
    # Compiled on the first read rather than at import; ``re`` keeps it for later reads.
    written_line = re.compile(_WRITTEN_LINE).fullmatch
    with open(path, "rb") as handle:
        lines = enumerate(handle, start=1)
        try:
            for number, data in lines:
                line = data.decode("utf-8")
                if not line.isspace():
                    header = json.loads(line)
                    if "\\u" in line:
                        _refuse_surrogates(header)
                    adjacency, form = _network(header)
                    break
            for number, data in lines:
                line = data.decode("utf-8")
                record = _written_record(written_line(line), tags)
                if record is None:
                    if line.isspace():
                        continue
                    doc = json.loads(line)
                    if "\\u" in line:
                        _refuse_surrogates(doc)
                    if isinstance(doc, dict) and doc.get("abort"):
                        abort = doc
                        break
                    record = _record(doc, tags)
                round_index, a, b, _, _, tag_a, tag_b, match, _, _, _, _, _, _ = record
                if b not in adjacency.get(a, ()):
                    raise TranscriptError(f"pair ({a}, {b}) is not an edge of the header's network_edges")
                if (tag_a[form] == tag_b[form]) != match:
                    doc = json.loads(line)  # the message quotes the line's own values
                    raise TranscriptError(f"match {doc['match']!r} contradicts the {Hashtag._fields[form]} forms of "
                                          f"{doc['hashtag_a']!r} and {doc['hashtag_b']!r}")
                if round_index != last_round or a <= last_agent:
                    if round_index != last_round + 1:
                        raise TranscriptError(f"round {round_index!r}, agent_a {a!r} is out of order; rounds run "
                                              "contiguously from 1 and (round, agent_a) strictly increases")
                    if last_round and (stranded := _stranded(adjacency, paired)):
                        raise TranscriptError(f"round {last_round} is missing records: neighbors "
                                              f"{stranded[0]} and {stranded[1]} are both unpaired")
                    last_round, paired = round_index, set()
                if a in paired or b in paired:
                    raise TranscriptError(f"agent {a if a in paired else b} is paired twice in round {round_index}")
                paired.add(a)
                paired.add(b)
                last_agent = a
                records.append(record)
            for number, data in lines:  # what follows an abort marker
                if not data.decode("utf-8").isspace():
                    raise TranscriptError("nothing may follow the abort marker")
        except UnicodeDecodeError as err:
            bad = err.object[err.start:err.end]
            raise TranscriptError(f"{path}: line {number}: not UTF-8 text ({err.reason} {bad!r})") from err
        except TranscriptError as err:
            raise TranscriptError(f"{path}: line {number}: {err}") from err
        except (ValueError, RecursionError) as err:  # a JSONDecodeError, an integer past int's digit limit, or nesting
            raise TranscriptError(f"{path}: line {number}: invalid JSON ({err})") from err
    if header is None:
        raise TranscriptError(f"{path}: missing header line")
    return Transcript(header, records, abort, partial=bool(records) and _stranded(adjacency, paired) is not None)


def _refuse_surrogates(doc, path: str = "") -> None:
    """TranscriptError when a line's JSON value, or its value at ``path``,
    holds a lone surrogate. UTF-8 text cannot, so only a value decoded from a
    ``\\u`` escape is checked."""
    where = surrogate_at(doc, path)
    if where is not None:
        raise TranscriptError(f"{where or 'the line'} {NOT_UNICODE}")


def _network(header) -> tuple[dict[int, set[int]], int]:
    """The header's network as neighbor sets, and the index in ``Hashtag``
    of the form that its config's ``match_on`` compares."""
    if not isinstance(header, dict):
        raise TranscriptError(f"header must be a JSON object, got {header!r}")
    adjacency: dict[int, set[int]] = {}
    try:
        for a, b in header.get("network_edges", []):
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
    except (TypeError, ValueError) as err:
        raise TranscriptError("network_edges must be a list of [a, b] pairs") from err
    config = header.get("config")
    match_on = config.get("match_on", "normalized") if isinstance(config, dict) else "normalized"
    if match_on not in Hashtag._fields:
        raise TranscriptError(f"match_on must be 'normalized' or 'raw', got {match_on!r}")
    return adjacency, Hashtag._fields.index(match_on)


def _stranded(adjacency: dict[int, set[int]], paired: set[int]) -> tuple[int, int] | None:
    """Two neighbors that the agents in ``paired`` leave both unpaired, or
    None; only the unpaired agents' neighbor sets are visited."""
    return next(((agent, other) for agent in adjacency.keys() - paired for other in adjacency[agent] - paired), None)


# One encoder for every line: the same bytes as json.dumps(obj, ensure_ascii=False).
_encode = json.JSONEncoder(ensure_ascii=False).encode


def _write_line(handle: IO[str] | None, docs: Iterable[dict | InteractionRecord]) -> None:
    """Write each document as a line, a record as ``InteractionRecord.to_json`` and any other document
    through ``_encode``, in one write, then flush so a crash keeps whole batches; no-op without a handle."""
    if handle is not None:
        handle.write("".join([f"{doc.to_json() if isinstance(doc, InteractionRecord) else _encode(doc)}\n"
                              for doc in docs]))
        handle.flush()


# --- run configuration and orchestration -------------------------------------


class RunConfig(NamedTuple):
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
        apply (the spec fields are recorded but unused). A string holding a
        lone surrogate is the first violation, named by its path in this
        object (``agents[0].backend_params.lexicon[0]``), as the config
        parser names it in the document."""
        where = surrogate_at(self)
        found = [] if where is None else [ConfigError(where, NOT_UNICODE)]
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
        found += self.decode.violations()
        if not is_integer(self.parallelism) or self.parallelism < 1:
            found.append(ConfigError("parallelism", f"must be a positive integer, got {self.parallelism!r}"))
        if not is_integer(self.seed) or self.seed < 0 or self.seed >= 2**64:
            found.append(ConfigError("seed", f"must be an unsigned 64-bit integer, got {self.seed!r}"))
        if self.run_id is not None and not isinstance(self.run_id, str):
            found.append(ConfigError("run_id", f"must be a string, got {self.run_id!r}"))
        if self.match_on not in ("normalized", "raw"):
            found.append(ConfigError("match_on", f"must be 'normalized' or 'raw', got {self.match_on!r}"))
        if not isinstance(self.narrative_path, str) or not self.narrative_path:
            found.append(ConfigError("narrative", f"must be a nonempty path string, got {self.narrative_path!r}"))
        return found

    validate = raise_first_violation

    def resolved_topology(self) -> TopologySpec:
        """Topology with its seed pinned (derived from the root seed when unset)."""
        if self.topology.seed is not None:
            return self.topology
        return self.topology._replace(seed=rng_streams.topology_seed(self.seed))

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

    Before anything is written, the config is checked, its narrative loaded
    and its backends built, each replay transcript read once; a config that
    ``hashnet validate`` refuses raises with the field and message it gives.

    When ``out_path`` is given the transcript is written incrementally, one
    completed round at a time, so a crash preserves finished rounds. A
    pre-built ``network`` overrides the generated topology (the spec form
    cannot express every graph, e.g. complete graphs).

    If more than half of a round's pairs hit an unavailable backend even
    after fallbacks, the run aborts: completed records are kept and an
    explicit abort marker ends the transcript. A replay backend with no
    recorded response also ends the transcript with an abort marker, then
    its ``ReplayGapError`` propagates, and so does any other exception that
    escapes a round, after a marker whose reason is ``"<Type>: <message>"``.
    """
    config.validate(graph_n=network.n if network is not None else None)
    narrative = load_narrative(config.narrative_path)
    return _play(config, narrative, build_backends(config.agents), out_path=out_path, network=network)


def _play(config: RunConfig, narrative: FocalNarrative, backends: dict[int, Backend], *,
          out_path: str | Path | None = None, network: Network | None = None) -> Transcript:
    """The round loop of ``run_simulation``, on a checked config and the narrative and backends built from it."""
    if network is None:
        network = generate_network(config.resolved_topology())

    snapshot = config_snapshot(config)
    run_id = config.run_id or config_digest(snapshot)[:12]
    timestamp = EPOCH_TIMESTAMP if config.is_deterministic() else time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    header = {
        "run_id": run_id,
        "config": snapshot,
        "seed": config.seed,
        "narrative_id": narrative.id,
        "network_edges": [list(edge) for edge in network.edge_list()],
        "timestamp": timestamp,
    }

    transcript = Transcript(header=header, records=[])
    # The fold of the committed records. Requests carry these snapshots, and
    # the fold extends them only after the round's calls have all returned,
    # so pool threads read row lists that do not change under them.
    histories: dict[int, History] = {i: NO_HISTORY for i in range(network.n)}
    event_text, decode, seed = narrative.full_text, config.decode, config.seed
    form = Hashtag._fields.index(config.match_on)
    new = tuple.__new__  # builds requests and records without the named tuples' argument handling

    with ExitStack() as stack:
        handle = None if out_path is None else stack.enter_context(open(out_path, "w", encoding="utf-8", newline="\n"))
        # Registered before the pool, so they run after its calls have returned.
        for client in {backend.client for backend in backends.values() if isinstance(backend, RemoteBackend)}:
            stack.callback(client.close)
        pool = None
        if config.parallelism > 1:
            from concurrent.futures import ThreadPoolExecutor  # a serial run never loads the pool

            pool = stack.enter_context(ThreadPoolExecutor(config.parallelism))

        def stop(round_index: int, reason: str) -> None:
            transcript.abort = {"abort": True, "round": round_index, "reason": reason}
            _write_line(handle, [transcript.abort])

        _write_line(handle, [header])
        for round_index in range(1, config.rounds + 1):
            try:
                pairing = pair_round(network, round_index, rng_streams.pairing_rng(config.seed, round_index))
                participants = [agent for pair in pairing.pairs for agent in pair]

                def invoke(agent: int) -> str | None:
                    request = new(BackendRequest, (round_index, agent, event_text, decode, histories[agent]))
                    stream = rng_streams.agent_stream(seed, round_index, agent)
                    try:
                        return backends[agent].respond(request, stream).raw_text
                    except BackendUnavailableError:
                        return None

                # The texts of each pair's two agents, in turn.
                texts = iter([invoke(agent) for agent in participants] if pool is None
                             else list(pool.map(invoke, participants)))

                round_records: list[InteractionRecord] = []
                for (a, b), text_a, text_b in zip(pairing.pairs, texts, texts):
                    raw_a, tag_a, fb_a = _finalize(text_a, histories[a])
                    raw_b, tag_b, fb_b = _finalize(text_b, histories[b])
                    match = tag_a[form] == tag_b[form]
                    points = 1 if match else 0
                    round_records.append(new(InteractionRecord, (
                        round_index, a, b, raw_a, raw_b, tag_a, tag_b, match, points, points, fb_a, fb_b,
                        text_a is None, text_b is None,  # unavailable_a, unavailable_b
                    )))
                extend_histories(histories, round_records)
                transcript.records += round_records
                _write_line(handle, round_records)

                unavailable_pairs = sum(record.unavailable_a or record.unavailable_b for record in round_records)
                if pairing.pairs and unavailable_pairs > 0.5 * len(pairing.pairs):
                    stop(round_index, f"backend unavailable for {unavailable_pairs} of {len(pairing.pairs)} pairs")
                    break
            except Exception as err:
                # A replay gap gives its own reason; any other crash names its type, so the file never reads as
                # a clean run that ended early. Escaped, the reason can always be written.
                reason = str(err) if isinstance(err, ReplayGapError) else f"{type(err).__name__}: {err}"
                stop(round_index, reason.encode("utf-8", "backslashreplace").decode("utf-8"))
                raise

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
