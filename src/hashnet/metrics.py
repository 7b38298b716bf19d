"""Transcript metrics: per-round group entropy, dominant-hashtag share,
unigram perplexity against a reference corpus, rank-abundance tables, and
embedding-based narrative alignment.

Everything here is a pure read-only function of a transcript; computing
from a file read back off disk gives exactly the in-memory results.
``run_metrics`` takes every whole-run metric from one walk over the
rounds, and the one-metric functions take the same per-round step.
Entropy, dominant share and ``hashtag``-tokenized perplexity read each
hashtag's normalized form, which the reader checks against its raw text;
``words`` perplexity tokenizes the raw text.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import zlib
from collections import Counter
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Protocol, Sequence, Union

from .agents import HttpClient
from .engine import InteractionRecord, Transcript, normalize_hashtag
from .errors import ConfigError, EmbedderUnavailableError, HashnetError, MetricError, is_integer, require_text
from .narrative import FocalNarrative

DEDUP_POLICIES = ("per_response", "unique")
TOKENIZATION_MODES = ("hashtag", "words")

# Series values are written with this format so that independently computed
# goldens agree with library output byte-for-byte.
VALUE_FORMAT = ".12g"


class HashtagDistribution(NamedTuple):
    """Occurrence counts of normalized hashtags; ``total`` is their sum."""

    counts: Mapping[str, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())


class MetricSeries(NamedTuple):
    """One number per round, rounds strictly increasing."""

    name: str
    values: tuple[tuple[int, float], ...]


class RankAbundance(NamedTuple):
    """Top hashtags by count over a whole run, plus the entropy of the
    full (untruncated) distribution."""

    table: tuple[tuple[str, int], ...]
    entropy: float


class AlignmentResult(NamedTuple):
    """Per-hashtag best-matching narrative event and per-event totals."""

    assignments: Mapping[str, tuple[str, float]]
    counts: Mapping[str, int]


def _kept(
    records: Sequence[InteractionRecord], round_index: int, include_fallbacks: bool
) -> tuple[list[str], list[str]]:
    """The raw and the normalized hashtags of one round's records, two per
    record in record order, a fallback side only with ``include_fallbacks``:
    the one per-round step every metric takes."""
    if not records:
        raise MetricError(f"transcript has no records for round {round_index}")
    raw: list[str] = []
    normalized: list[str] = []
    for record in records:
        if include_fallbacks or not record.fallback_a:
            tag = record.hashtag_a
            raw.append(tag[0])
            normalized.append(tag[1])
        if include_fallbacks or not record.fallback_b:
            tag = record.hashtag_b
            raw.append(tag[0])
            normalized.append(tag[1])
    return raw, normalized


def _walk(transcript: Transcript, include_fallbacks: bool) -> Iterator[tuple[int, tuple[list[str], list[str]]]]:
    """``(round, (raw, normalized))`` of every completed round, in order, from
    one ``rounds()``."""
    for round_index, records in enumerate(transcript.rounds(), start=1):
        yield round_index, _kept(records, round_index, include_fallbacks)


def _form_index(form: str) -> int:
    return 0 if form == "raw" else 1  # the form's field of Hashtag


def _distribution(counts: Mapping[str, int], round_index: int, dedup: str) -> HashtagDistribution:
    """The distribution of one round's first-occurrence ``Counter``."""
    if dedup not in DEDUP_POLICIES:
        raise ConfigError("dedup", f"must be one of {DEDUP_POLICIES}, got {dedup!r}")
    if not counts:
        raise MetricError(f"round {round_index} has no responses after exclusions")
    if dedup == "unique":
        return HashtagDistribution(counts=dict.fromkeys(sorted(counts), 1))
    return HashtagDistribution(counts=dict(counts))


def round_responses(
    transcript: Transcript,
    round_index: int,
    *,
    include_fallbacks: bool = True,
    form: str = "normalized",
) -> list[str]:
    """Hashtags of every paired agent in one round, two per record, in
    canonical record order. ``form`` selects raw or normalized text."""
    return _kept(transcript.records_for_round(round_index), round_index, include_fallbacks)[_form_index(form)]


def run_responses(
    transcript: Transcript, *, include_fallbacks: bool = True, form: str = "normalized"
) -> list[str]:
    """``round_responses`` of every completed round, concatenated in round
    order."""
    index = _form_index(form)
    return [tag for _, forms in _walk(transcript, include_fallbacks) for tag in forms[index]]


def round_distribution(
    transcript: Transcript,
    round_index: int,
    dedup: str = "per_response",
    *,
    include_fallbacks: bool = True,
) -> HashtagDistribution:
    """Distribution of normalized hashtags produced in one round.

    ``per_response`` counts every response once; ``unique`` keeps each
    distinct hashtag once.
    """
    responses = round_responses(transcript, round_index, include_fallbacks=include_fallbacks)
    return _distribution(Counter(responses), round_index, dedup)


def shannon_entropy(dist: HashtagDistribution, base: float = 2.0) -> float:
    """H = -sum p_i log(p_i), in bits by default. Zero for a
    single-hashtag distribution."""
    if not dist.counts:
        raise MetricError("entropy of an empty distribution is undefined")
    if base <= 1.0:
        raise ConfigError("entropy_base", f"must be > 1, got {base!r}")
    total = dist.total
    log_base = math.log(base)
    shares = (count / total for count in dist.counts.values())
    # + 0.0 folds the -0.0 of single-hashtag distributions into plain 0.0
    return -sum(p * (math.log(p) / log_base) for p in shares) + 0.0


def dominant_share(dist: HashtagDistribution) -> float:
    """Share of responses carrying the most frequent hashtag, in (0, 1]."""
    if not dist.counts:
        raise MetricError("dominant share of an empty distribution is undefined")
    total = dist.total
    return max(dist.counts.values()) / total


# --- unigram reference model --------------------------------------------------


class UnigramModel(NamedTuple):
    """Add-one-smoothed unigram distribution with a single
    out-of-vocabulary type; probabilities sum to one."""

    probabilities: Mapping[str, float]
    oov_probability: float
    tokenization: str = "hashtag"

    def probability(self, token: str) -> float:
        return self.probabilities.get(token, self.oov_probability)


def tokenize(strings: Iterable[str], mode: str) -> list[str]:
    """``hashtag``: each string is one token, normalized whole.
    ``words``: whitespace-split words, normalized individually.
    Tokens that normalize to nothing are dropped."""
    if mode not in TOKENIZATION_MODES:
        raise ConfigError("tokenization", f"must be one of {TOKENIZATION_MODES}, got {mode!r}")
    tokens: list[str] = []
    for s in strings:
        if mode == "hashtag":
            token = normalize_hashtag(s)
            if token:
                tokens.append(token)
        else:
            for word in s.split():
                token = normalize_hashtag(word)
                if token:
                    tokens.append(token)
    return tokens


def build_unigram_model(reference_corpus: Sequence[str], tokenization: str = "hashtag") -> UnigramModel:
    """Estimate p(w) = (count(w) + 1) / (N + V + 1), with the remaining
    1 / (N + V + 1) of mass reserved for a single OOV type."""
    if not reference_corpus:
        raise ConfigError("reference_corpus", "reference corpus is empty")
    tokens = tokenize(reference_corpus, tokenization)
    if not tokens:
        raise ConfigError("reference_corpus", "reference corpus has no usable tokens")
    counts = Counter(tokens)
    n_tokens = len(tokens)
    vocab_size = len(counts)
    denominator = n_tokens + vocab_size + 1
    probabilities = {token: (count + 1) / denominator for token, count in counts.items()}
    return UnigramModel(
        probabilities=probabilities,
        oov_probability=1.0 / denominator,
        tokenization=tokenization,
    )


def perplexity(model: UnigramModel, responses: Sequence[str]) -> float:
    """exp of the average negative log-probability of the responses'
    tokens under ``model``; unseen tokens take the OOV probability."""
    if not responses:
        raise MetricError("perplexity of an empty response list is undefined")
    return _perplexity(model, tokenize(responses, model.tokenization))


def _perplexity(model: UnigramModel, tokens: Sequence[str]) -> float:
    if not tokens:
        raise MetricError("responses contain no usable tokens")
    # ``model.probability`` of each token, without a method call per token.
    log_total = sum(map(math.log, map(model.probabilities.get, tokens, repeat(model.oov_probability))))
    return math.exp(-log_total / len(tokens))


# --- embedding providers and narrative alignment ------------------------------


# An embedding: a dense row of floats, or a sparse {axis: value} dict.
Vector = Union[Sequence[float], Mapping[int, float]]


class Embedder(Protocol):
    def embed(self, texts: Sequence[str]) -> Sequence[Vector]: ...


def _check_dim(dim) -> int:
    if not is_integer(dim) or dim < 1:
        raise ConfigError("dim", f"must be a positive integer, got {dim!r}")
    return dim


class OneHotEmbedder:
    """Deterministic test embedder: every distinct string gets its own
    one-hot axis, so cosine is 1 for equal strings and 0 otherwise."""

    def __init__(self, dim: int = 4096):
        self._dim = _check_dim(dim)
        self._index: dict[str, int] = {}

    def embed(self, texts: Sequence[str]) -> list[dict[int, float]]:
        vectors = []
        for text in texts:
            if text not in self._index:
                if len(self._index) >= self._dim:
                    raise EmbedderUnavailableError(
                        f"one-hot embedder saturated at {self._dim} distinct strings"
                    )
                self._index[text] = len(self._index)
            vectors.append({self._index[text]: 1.0})
        return vectors


class HashingEmbedder:
    """Deterministic offline embedder: L2-normalized bag of hashed
    character trigrams. Crude, but shared substrings yield nonzero cosine,
    which is enough for demos and tests without a model server."""

    def __init__(self, dim: int = 256):
        self._dim = _check_dim(dim)

    def embed(self, texts: Sequence[str]) -> list[dict[int, float]]:
        vectors = []
        for text in texts:
            padded = f"##{text.lower()}##"
            counts: dict[int, float] = {}
            for i in range(len(padded) - 2):
                axis = zlib.crc32(padded[i : i + 3].encode("utf-8")) % self._dim
                counts[axis] = counts.get(axis, 0.0) + 1.0
            # The padding gives every text two trigrams, so the norm is positive.
            norm = math.sqrt(sum(count * count for count in counts.values()))
            vectors.append({axis: count / norm for axis, count in counts.items()})
        return vectors


class RemoteEmbedder:
    """OpenAI-compatible embeddings client. Its settings are checked, and
    its calls retried, by the ``HttpClient`` the remote chat backend
    uses."""

    def __init__(self, base_url: str, model: str, **settings):
        """``settings`` are ``HttpClient``'s keyword arguments."""
        self._client = HttpClient(base_url, **settings)
        require_text("model", model)
        self._model = model

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        payload = {"model": self._model, "input": list(texts)}
        return self._client.post("/embeddings", payload, _embedding_rows, EmbedderUnavailableError)[0]


def _embedding_rows(reply: dict) -> list[list[float]]:
    """The reply's vectors in input order. A row that is not an object,
    indices other than the integers 0..len-1 each once, or rows of unequal
    length are a malformed reply (``ValueError``)."""
    rows = reply["data"]
    if not all(isinstance(entry, dict) for entry in rows):
        raise ValueError("embedding rows must be objects")
    indices = [entry.get("index") for entry in rows]
    if not all(map(is_integer, indices)) or sorted(indices) != list(range(len(rows))):
        raise ValueError(f"embedding row indices must be 0..{len(rows) - 1}, each once, got {indices!r}")
    rows = sorted(rows, key=lambda entry: entry["index"])
    vectors = [[float(value) for value in row["embedding"]] for row in rows]
    if len({len(vector) for vector in vectors}) > 1:
        raise ValueError("embedding rows differ in length")
    return vectors


def _sparse(vector: Vector) -> Mapping[int, float]:
    """``vector`` as ``{axis: value}``; a dense row keeps its nonzero entries."""
    if isinstance(vector, Mapping):
        return vector
    return {axis: float(value) for axis, value in enumerate(vector) if value}


def _best_matches(tags: Sequence[Vector], events: Sequence[Vector]) -> list[tuple[int, float]]:
    """Per tag vector, the index of the most cosine-similar event vector
    and that similarity, ties going to the earlier event. A zero vector has
    similarity 0 with everything."""
    event_rows = [_sparse(vector) for vector in events]
    event_norms = [math.sqrt(sum(value * value for value in row.values())) for row in event_rows]
    best = []
    for vector in tags:
        row = _sparse(vector)
        norm = math.sqrt(sum(value * value for value in row.values()))
        sims = [
            sum(value * event[axis] for axis, value in row.items() if axis in event) / (norm * event_norm)
            if norm and event_norm else 0.0
            for event, event_norm in zip(event_rows, event_norms)
        ]
        index = max(range(len(sims)), key=sims.__getitem__)  # the first of equal maxima
        best.append((index, sims[index]))
    return best


def align_hashtags(
    hashtags: Sequence[str],
    narrative: FocalNarrative,
    embedder: Embedder,
) -> AlignmentResult:
    """Assign each hashtag to the narrative event whose embedded
    description is most cosine-similar, ties going to the earlier event.
    ``counts`` aggregates by event, weighted by hashtag frequency; every
    event appears, zeros included."""
    if not narrative.events:
        raise MetricError(f"narrative {narrative.id!r} has no events; alignment unavailable")
    if not hashtags:
        raise MetricError("no hashtags to align")
    frequency = Counter(hashtags)
    distinct = list(frequency)
    try:
        event_vectors = embedder.embed([event.description for event in narrative.events])
        tag_vectors = embedder.embed(distinct)
    except EmbedderUnavailableError:
        raise
    except Exception as err:
        raise EmbedderUnavailableError(f"{type(err).__name__}: {err}") from err
    if len(event_vectors) != len(narrative.events) or len(tag_vectors) != len(distinct):
        raise EmbedderUnavailableError("the embedder returned a vector count other than the text count")

    assignments: dict[str, tuple[str, float]] = {}
    counts: dict[str, int] = {event.label: 0 for event in narrative.events}
    for tag, (best, sim) in zip(distinct, _best_matches(tag_vectors, event_vectors)):
        label = narrative.events[best].label
        assignments[tag] = (label, sim)
        counts[label] += frequency[tag]
    return AlignmentResult(assignments=assignments, counts=counts)


# --- whole-run and per-round metrics ------------------------------------------


def _rank_abundance(counts: Counter, k: int) -> RankAbundance:
    """The rank table and full-distribution entropy of a run's counts, whose
    insertion order is first occurrence over the run."""
    if not counts:
        raise MetricError("transcript has no responses after exclusions")
    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    full_entropy = shannon_entropy(HashtagDistribution(counts=dict(counts)))
    return RankAbundance(table=tuple(ordered[:k]), entropy=full_entropy)


def rank_abundance(
    transcript: Transcript, k: int = 10, *, include_fallbacks: bool = True
) -> RankAbundance:
    """Top-``k`` normalized hashtags over all rounds (count ties broken
    lexicographically) plus the entropy of the full distribution."""
    if not transcript.records:
        raise MetricError("transcript has no records")
    counts: Counter = Counter()
    for _, (_, normalized) in _walk(transcript, include_fallbacks):
        counts.update(normalized)
    return _rank_abundance(counts, k)


def metric_series(
    transcript: Transcript,
    metric: str,
    *,
    model: UnigramModel | None = None,
    base: float = 2.0,
    dedup: str = "per_response",
    include_fallbacks: bool = True,
) -> MetricSeries:
    """Apply one per-round metric to every completed round, in order.
    ``metric`` is ``entropy``, ``dominant_share``, or ``perplexity`` (the
    latter requires a unigram model)."""
    if not transcript.records:
        raise MetricError("transcript has no records")
    if metric not in ("entropy", "dominant_share", "perplexity"):
        raise ConfigError("metric", f"unknown metric {metric!r}")
    if metric == "perplexity" and model is None:
        raise MetricError("perplexity requires a unigram reference model")

    values: list[tuple[int, float]] = []
    for round_index, forms in _walk(transcript, include_fallbacks):
        if metric == "perplexity":
            assert model is not None
            value = _round_perplexity(model, forms, round_index)
        else:
            dist = _distribution(Counter(forms[1]), round_index, dedup)
            value = shannon_entropy(dist, base) if metric == "entropy" else dominant_share(dist)
        values.append((round_index, value))
    return MetricSeries(name=metric, values=tuple(values))


def _round_perplexity(model: UnigramModel, forms: tuple[list[str], list[str]], round_index: int) -> float:
    """``perplexity`` of one round's raw hashtags; its errors name the round.
    In ``hashtag`` tokenization its tokens are the nonempty normalized forms,
    which the reader and the engine keep equal to ``normalize_hashtag(raw)``,
    so no hashtag is normalized again."""
    hashtag = model.tokenization == "hashtag"
    responses = forms[1] if hashtag else forms[0]
    try:
        if hashtag and responses:
            return _perplexity(model, list(filter(None, responses)))
        return perplexity(model, responses)
    except MetricError as err:
        raise MetricError(f"round {round_index}: {err}") from err


class RunMetrics(NamedTuple):
    """Every whole-run metric of one transcript: the series by name
    (perplexity only with a model), the rank table, and the raw hashtags in
    run order, for ``align_hashtags``."""

    series: Mapping[str, MetricSeries]
    rank_abundance: RankAbundance
    hashtags: list[str]


def run_metrics(
    transcript: Transcript,
    *,
    model: UnigramModel | None = None,
    base: float = 2.0,
    dedup: str = "per_response",
    include_fallbacks: bool = True,
    k: int = 10,
) -> RunMetrics:
    """``metric_series`` of each series, ``rank_abundance`` and the raw
    ``run_responses``, with the same values and errors, from one walk over
    the rounds.

    Each round's hashtags are kept once, and one first-occurrence
    ``Counter`` feeds entropy, dominant share and the run's counts, which
    it extends in round order, so the rank table and its entropy are the
    same floats. The first error is the one the separate calls, in that
    order, raise first: an entropy error in any round comes before a
    perplexity error in an earlier one."""
    if not transcript.records:
        raise MetricError("transcript has no records")
    entropy: list[tuple[int, float]] = []
    dominant: list[tuple[int, float]] = []
    perplexities: list[tuple[int, float]] = []
    perplexity_error: HashnetError | None = None
    counts: Counter = Counter()
    hashtags: list[str] = []
    for round_index, forms in _walk(transcript, include_fallbacks):
        round_counts = Counter(forms[1])
        dist = _distribution(round_counts, round_index, dedup)
        entropy.append((round_index, shannon_entropy(dist, base)))
        dominant.append((round_index, dominant_share(dist)))
        if model is not None and perplexity_error is None:
            try:
                perplexities.append((round_index, _round_perplexity(model, forms, round_index)))
            except HashnetError as err:
                perplexity_error = err
        counts.update(round_counts)
        hashtags += forms[0]
    if perplexity_error is not None:
        raise perplexity_error
    series = {"entropy": entropy, "dominant_share": dominant}
    if model is not None:
        series["perplexity"] = perplexities
    return RunMetrics(
        series={name: MetricSeries(name=name, values=tuple(values)) for name, values in series.items()},
        rank_abundance=_rank_abundance(counts, k),
        hashtags=hashtags,
    )


# --- CSV output ----------------------------------------------------------------


def write_csv(header: Sequence[str], rows: Iterable[Sequence], path: str | Path) -> None:
    """One CSV file: UTF-8, LF line ends, the header row first."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_series_csv(series: MetricSeries, path: str | Path) -> None:
    write_csv(("round", "value"), ((r, format(v, VALUE_FORMAT)) for r, v in series.values), path)


def write_rank_abundance_csv(result: RankAbundance, path: str | Path) -> None:
    rows = ((rank, tag, count) for rank, (tag, count) in enumerate(result.table, start=1))
    write_csv(("rank", "hashtag", "count"), rows, path)


def write_alignment_csv(result: AlignmentResult, path: str | Path) -> None:
    write_csv(("event", "count"), result.counts.items(), path)


def write_metadata(metadata: dict, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(metadata, ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
    )


def corpus_digest(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_reference_corpus(path: str | Path) -> list[str]:
    """Plain-text reference corpus: one hashtag per line, blank lines ignored."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    corpus = [line.strip() for line in lines if line.strip()]
    if not corpus:
        raise ConfigError("reference_corpus", f"no hashtags in {path}")
    return corpus
