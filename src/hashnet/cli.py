"""Command-line entry point: validate configs, run simulations, and
compute metric reports.

Subcommands: ``validate``, ``simulate``, ``metrics``, ``report``.
Exit codes: 0 success, 1 validation failure / abort / strict skip,
2 I/O failure. Secrets travel only through environment variables
(``HASHNET_API_KEY``), never config files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .agents import AgentSpec, Backend, DecodeParams, build_backends, from_params
from .engine import (
    RunConfig,
    Transcript,
    _play,
    config_digest,
    config_snapshot,
    read_transcript,
)
from .errors import (
    NOT_UNICODE,
    ConfigError,
    EmbedderUnavailableError,
    HashnetError,
    NarrativeLoadError,
    is_integer,
    is_number,
    raise_first_violation,
    surrogate_at,
)
from .metrics import (
    DEDUP_POLICIES,
    TOKENIZATION_MODES,
    VALUE_FORMAT,
    Embedder,
    HashingEmbedder,
    OneHotEmbedder,
    RemoteEmbedder,
    UnigramModel,
    align_hashtags,
    build_unigram_model,
    corpus_digest,
    load_reference_corpus,
    # Unused here: the commands take every metric from ``run_metrics``. hashbench/tracing.py times the series
    # and the rank table by wrapping these two names on this module, and a name it cannot find makes every
    # traced run report "not traced". ROADMAP item 1b's in-package spans replace the wrapping.
    metric_series,  # noqa: F401
    rank_abundance,  # noqa: F401
    run_metrics,
    write_alignment_csv,
    write_csv,
    write_metadata,
    write_rank_abundance_csv,
    write_series_csv,
)
from .narrative import FocalNarrative, load_narrative
from .topology import TopologySpec

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2

DEFAULT_TOPOLOGY = {"n": 20, "k": 4, "p": 0.1}
DEFAULT_ROUNDS = 40
DEFAULT_NARRATIVE = "bundled:fukushima"
DEFAULT_EMBEDDING = MappingProxyType({"provider": "hashing", "dim": 256})

_TOP_LEVEL_KEYS = {
    "seed", "rounds", "topology", "agents", "narrative", "decode",
    "parallelism", "match_on", "metrics", "output", "run_id",
}
# Each embedding provider: its class, then its positional and keyword settings for ``from_params``.
_EMBEDDING_PROVIDERS = {
    "onehot": (OneHotEmbedder, (), ("dim",)),
    "hashing": (HashingEmbedder, (), ("dim",)),
    "remote": (RemoteEmbedder, ("base_url", "model"), ("api_key_env", "timeout", "max_retries")),
}


class MetricsSettings(NamedTuple):
    """Resolved metrics section of a config document, whose keys are the
    ``_fields``; absent ``embedding`` settings are the read-only default."""

    reference_corpus: Path | None = None
    tokenization: str = "hashtag"
    entropy_base: float = 2.0
    dedup: str = "per_response"
    embedding: Mapping = DEFAULT_EMBEDDING

    def violations(self) -> list[ConfigError]:
        found = []
        if self.tokenization not in TOKENIZATION_MODES:
            found.append(ConfigError("metrics.tokenization", f"must be one of {TOKENIZATION_MODES}"))
        if self.dedup not in DEDUP_POLICIES:
            found.append(ConfigError("metrics.dedup", f"must be one of {DEDUP_POLICIES}"))
        if not is_number(self.entropy_base) or self.entropy_base <= 1:
            found.append(ConfigError("metrics.entropy_base", f"must be a number > 1, got {self.entropy_base!r}"))
        return found

    validate = raise_first_violation

    def embedder(self):
        """The configured embedder; its constructor checks the settings."""
        settings = dict(self.embedding)
        provider = settings.pop("provider", DEFAULT_EMBEDDING["provider"])
        names = tuple(_EMBEDDING_PROVIDERS)
        if provider not in names:
            raise ConfigError("provider", f"must be one of {names}")
        return from_params(*_EMBEDDING_PROVIDERS[provider], settings)


class LoadedConfig(NamedTuple):
    """A checked config document: the run, its metrics settings, where outputs
    go, and what the parser built to check it, for the commands to use: the
    focal narrative, each agent's backend and the embedder (None, or for a
    backend absent, when it failed its check, which is a violation)."""

    run: RunConfig
    metrics: MetricsSettings
    transcript_out: Path | None
    metrics_dir: Path | None
    narrative: FocalNarrative | None
    backends: dict[int, Backend]
    embedder: Embedder | None


def _resolve(base_dir: Path, value: str) -> Path:
    path = Path(value)
    return path if path.is_absolute() else base_dir / path


def load_config(path: Path) -> tuple[dict, Path]:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise _IOFailure(f"cannot read config {path}: {err}") from err
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise HashnetError(
            f"config parse error in {path}: line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    except (ValueError, RecursionError) as err:  # an integer past int's digit limit, or nesting too deep
        raise HashnetError(f"config parse error in {path}: {err}") from err
    return doc, path.resolve().parent


def _parse(
    doc: dict, base_dir: Path, args: argparse.Namespace | None
) -> tuple[LoadedConfig | None, list[tuple[str, str]]]:
    """The one config parser behind every subcommand.

    Builds each config object once and returns it with every violation
    found, as (field path, message) pairs. The objects check their own
    values; this function checks only the document's shape: unknown keys
    (backend ``params`` and ``metrics.embedding`` keys are checked where
    they are read), sections that are not objects, the ``agents``
    expansion, and paths that must exist. What a run or a metric uses is
    checked by building it, and the config keeps what was built: the
    narrative, the backends (``build_backends``, which reads each replay
    transcript once) and the embedder.
    CLI overrides in ``args`` are applied before the checks.
    """
    if not isinstance(doc, dict):
        return None, [("$", "config document must be a JSON object")]
    # Such a string could reach a path, a header or a prompt, and none of them can hold it.
    where = surrogate_at(doc)
    if where is not None:
        return None, [(where, NOT_UNICODE)]
    violations: list[tuple[str, str]] = []

    def unknown(value: dict, prefix: str, known) -> None:
        violations.extend((prefix + key, "unknown field") for key in value if key not in known)

    unknown(doc, "", _TOP_LEVEL_KEYS)

    def section(parent: dict, name: str, path: str) -> dict:
        value = parent.get(name, {})
        if isinstance(value, dict):
            return value
        violations.append((path, "must be an object"))
        return {}

    def fields_of(name: str, cls) -> dict:
        """Section ``name``'s keys that are in ``cls._fields``; others are unknown."""
        value = section(doc, name, name)
        names = set(cls._fields)
        unknown(value, f"{name}.", names)
        return {key: item for key, item in value.items() if key in names}

    topology = TopologySpec(**{**DEFAULT_TOPOLOGY, **fields_of("topology", TopologySpec)})

    agents_doc = doc.get("agents")
    if isinstance(agents_doc, dict):
        unknown(agents_doc, "agents.", ("backend", "count", "params"))
        count = agents_doc.get("count", topology.n)
        if not is_integer(count) or count < 1:
            if "count" in agents_doc:
                violations.append(("agents.count", f"must be a positive integer, got {count!r}"))
            count = 0
        entries = [dict(agents_doc, agent_id=i) for i in range(count)]
    elif isinstance(agents_doc, list):
        for i, entry in enumerate(agents_doc):
            if isinstance(entry, dict):
                unknown(entry, f"agents[{i}].", ("agent_id", "backend", "params"))
        entries = [
            dict({"agent_id": i}, **entry) if isinstance(entry, dict) else {"agent_id": i, "backend": entry}
            for i, entry in enumerate(agents_doc)
        ]
    else:
        violations.append(
            ("agents", "missing required section" if agents_doc is None else "must be a spec object or a list")
        )
        entries = []
    agents = []
    for entry in entries:
        params = section(entry, "params", f"agents[{entry['agent_id']}].params")
        source = params.get("transcript") if entry.get("backend") == "replay" else None
        if isinstance(source, str) and source:
            params = dict(params, transcript=str(_resolve(base_dir, source)))
        agents.append(AgentSpec(entry["agent_id"], entry.get("backend"), params))
    problems: list[ConfigError] = []
    backends = build_backends(agents, problems)

    narrative_ref, narrative = doc.get("narrative", DEFAULT_NARRATIVE), None
    if isinstance(narrative_ref, str) and narrative_ref:
        if not narrative_ref.startswith("bundled:"):
            narrative_ref = str(_resolve(base_dir, narrative_ref))
        try:
            narrative = load_narrative(narrative_ref)
        except NarrativeLoadError as err:
            violations.append((f"narrative.{err.field}" if err.field != "$" else "narrative", err.message))

    run_fields = {key: doc[key] for key in ("parallelism", "seed", "run_id", "match_on") if key in doc}
    overrides = {key: getattr(args, key) for key in ("seed", "parallelism") if getattr(args, key, None) is not None}
    run = RunConfig(
        topology=topology,
        rounds=doc.get("rounds", DEFAULT_ROUNDS),
        agents=tuple(agents),
        narrative_path=narrative_ref,
        decode=DecodeParams(**fields_of("decode", DecodeParams)),
        **{**run_fields, **overrides},
    )

    metrics_fields = fields_of("metrics", MetricsSettings)
    corpus = metrics_fields.pop("reference_corpus", None)
    if isinstance(corpus, str):
        metrics_fields["reference_corpus"] = _resolve(base_dir, corpus)
        if not metrics_fields["reference_corpus"].is_file():
            violations.append(("metrics.reference_corpus", f"file not found: {corpus}"))
    elif corpus is not None:
        violations.append(("metrics.reference_corpus", "must be a path string"))
    if is_number(metrics_fields.get("entropy_base")):
        metrics_fields["entropy_base"] = float(metrics_fields["entropy_base"])
    if "embedding" in metrics_fields:
        metrics_fields["embedding"] = dict(section(metrics_fields, "embedding", "metrics.embedding"))
    settings = MetricsSettings(**metrics_fields)
    embedder = None
    try:
        embedder = settings.embedder()
    except ConfigError as err:
        violations.append((f"metrics.embedding.{err.field}", err.message))

    output_doc = section(doc, "output", "output")
    outputs = {}
    for key in ("transcript", "metrics_dir"):
        value = output_doc.get(key)
        if value is not None and not isinstance(value, str):
            violations.append((f"output.{key}", "must be a path string"))
        outputs[key] = _resolve(base_dir, value) if isinstance(value, str) else None
    unknown(output_doc, "output.", outputs)

    violations += [(err.field, err.message) for err in problems + run.violations() + settings.violations()]
    loaded = LoadedConfig(run, settings, outputs["transcript"], outputs["metrics_dir"], narrative, backends, embedder)
    return loaded, violations


def validate_config(doc: dict, base_dir: Path) -> list[tuple[str, str]]:
    """Every violation in a config document, as (field path, message),
    rather than stopping at the first."""
    return _parse(doc, base_dir, None)[1]


def build_config(doc: dict, base_dir: Path, args: argparse.Namespace) -> LoadedConfig:
    """Turn a document into a RunConfig plus metrics settings, applying CLI
    overrides; raises ``InvalidConfig`` listing every violation."""
    loaded, violations = _parse(doc, base_dir, args)
    if violations:
        raise InvalidConfig(violations)
    return loaded


class InvalidConfig(HashnetError):
    """A config document failed validation; ``violations`` lists every
    (field path, message) pair."""

    def __init__(self, violations: list[tuple[str, str]]):
        super().__init__("; ".join(f"{field_path}: {message}" for field_path, message in violations))
        self.violations = violations


class _IOFailure(HashnetError):
    pass


# --- subcommands -------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    build_config(*load_config(Path(args.config)), args)
    print(f"ok: {args.config}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    loaded = build_config(*load_config(Path(args.config)), args)

    if args.out:
        out_path = Path(args.out) / "transcript.jsonl"
    elif loaded.transcript_out is not None:
        out_path = loaded.transcript_out
    else:
        out_path = Path("transcript.jsonl")
    out_path.parent.mkdir(parents=True, exist_ok=True)

    transcript = _play(loaded.run, loaded.narrative, loaded.backends, out_path=out_path)
    completed = transcript.rounds_completed()
    print(
        f"run {transcript.header['run_id']}: {completed}/{loaded.run.rounds} rounds, "
        f"match rate {transcript.match_rate():.3f}, fallbacks {transcript.fallback_count()}"
    )
    print(f"transcript written to {out_path}")
    if transcript.abort is not None:
        print(f"aborted in round {transcript.abort['round']}: {transcript.abort['reason']}")
        return EXIT_INVALID
    return EXIT_OK


def _reference_model(settings: MetricsSettings) -> UnigramModel | None:
    """Unigram model of the configured reference corpus; None when no corpus
    is configured (the parser has checked that a configured one exists)."""
    if settings.reference_corpus is None:
        return None
    return build_unigram_model(load_reference_corpus(settings.reference_corpus), settings.tokenization)


def _metric_outputs(
    transcript: Transcript,
    loaded: LoadedConfig,
    out_dir: Path,
    *,
    include_fallbacks: bool,
    digest: str,
) -> dict:
    """Write every computable metric CSV, and ``metadata.json`` recording the
    config ``digest``; returns per-metric statuses."""
    settings = loaded.metrics
    statuses: dict[str, str] = {}
    out_dir.mkdir(parents=True, exist_ok=True)

    model = _reference_model(settings)
    run = run_metrics(transcript, model=model, base=settings.entropy_base, dedup=settings.dedup,
                      include_fallbacks=include_fallbacks)
    for name, series in run.series.items():
        write_series_csv(series, out_dir / f"{name}.csv")
        statuses[name] = "computed"
    if model is None:
        statuses["perplexity"] = "skipped: no reference corpus configured"

    rac = run.rank_abundance
    write_rank_abundance_csv(rac, out_dir / "rank_abundance.csv")
    statuses["rank_abundance"] = "computed"

    narrative = loaded.narrative
    if not narrative.events:
        statuses["alignment"] = f"skipped: narrative {narrative.id!r} has no events"
    else:
        try:
            alignment = align_hashtags(run.hashtags, narrative, loaded.embedder)
            write_alignment_csv(alignment, out_dir / "alignment.csv")
            statuses["alignment"] = "computed"
        except EmbedderUnavailableError as err:
            statuses["alignment"] = f"skipped: embedder unavailable: {err}"

    metadata = {
        "transcript_run_id": transcript.header.get("run_id"),
        "config_digest": digest,
        "seed": loaded.run.seed,
        "entropy_base": settings.entropy_base,
        "tokenization": settings.tokenization,
        "smoothing": "add_one",
        "dedup": settings.dedup,
        "exclusion_policy": "exclude_fallbacks" if not include_fallbacks else "include_fallbacks",
        "reference_corpus": str(settings.reference_corpus) if settings.reference_corpus else None,
        "reference_corpus_sha256": corpus_digest(settings.reference_corpus) if settings.reference_corpus else None,
        "narrative_id": narrative.id,
        "embedding": dict(settings.embedding),
        "rank_abundance_entropy": rac.entropy,
        "statuses": statuses,
    }
    write_metadata(metadata, out_dir / "metadata.json")
    return statuses


def _read_whole_rounds(path: Path) -> Transcript:
    """The transcript at ``path``, refused when its last round is partial:
    metrics of a round with missing records would be silently wrong."""
    if not path.is_file():
        raise _IOFailure(f"transcript not found: {path}")
    transcript = read_transcript(path)
    if transcript.partial:
        raise HashnetError(f"{path}: round {transcript.rounds_completed() + 1} is partial: records are missing, "
                           "so two neighbors are both unpaired")
    return transcript


def cmd_metrics(args: argparse.Namespace) -> int:
    loaded = build_config(*load_config(Path(args.config)), args)
    transcript_path = Path(args.transcript)
    transcript = _read_whole_rounds(transcript_path)
    recorded, digest = transcript.header.get("config"), config_digest(config_snapshot(loaded.run))
    recorded_digest = config_digest(recorded) if isinstance(recorded, dict) else digest
    if recorded_digest != digest:
        print(f"warning: {transcript_path} was run with config digest {recorded_digest}, but {args.config} "
              f"has digest {digest}; metadata.json records the latter", file=sys.stderr)

    if args.out:
        out_dir = Path(args.out)
    elif loaded.metrics_dir is not None:
        out_dir = loaded.metrics_dir
    else:
        out_dir = transcript_path.parent / "metrics"

    statuses = _metric_outputs(
        transcript, loaded, out_dir, include_fallbacks=not args.exclude_fallbacks, digest=digest
    )
    skipped = {name: status for name, status in statuses.items() if status != "computed"}
    for name, status in statuses.items():
        print(f"{name}: {status}")
    print(f"metric outputs written to {out_dir}")
    if skipped and args.strict:
        return EXIT_INVALID
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    loaded = build_config(*load_config(Path(args.config)), args)
    settings = loaded.metrics
    include_fallbacks = not args.exclude_fallbacks
    model = _reference_model(settings)

    series_rows: dict[str, list[tuple[str, int, str]]] = {}
    rac_rows: list[tuple[str, int, str, int]] = []
    paths: dict[str, Path] = {}  # run label -> its transcript
    for path_text in args.transcripts:
        path = Path(path_text)
        transcript = _read_whole_rounds(path)
        label = transcript.header.get("run_id") or path.stem
        if label in paths:
            raise HashnetError(
                f"{paths[label]} and {path} are both labelled {label!r}; give each run its own run_id"
            )
        paths[label] = path
        run = run_metrics(transcript, model=model, base=settings.entropy_base, dedup=settings.dedup,
                          include_fallbacks=include_fallbacks)
        for metric, series in run.series.items():
            series_rows.setdefault(metric, []).extend(
                (label, round_index, format(value, VALUE_FORMAT)) for round_index, value in series.values
            )
        rac_rows.extend(
            (label, rank, tag, count) for rank, (tag, count) in enumerate(run.rank_abundance.table, start=1)
        )

    out_dir = Path(args.out) if args.out else (loaded.metrics_dir or Path("report"))
    out_dir.mkdir(parents=True, exist_ok=True)
    for metric, rows in series_rows.items():
        write_csv(("run", "round", "value"), rows, out_dir / f"{metric}.csv")
    write_csv(("run", "rank", "hashtag", "count"), rac_rows, out_dir / "rank_abundance.csv")
    write_metadata(
        {
            "runs": list(paths),
            "entropy_base": settings.entropy_base,
            "tokenization": settings.tokenization,
            "dedup": settings.dedup,
            "exclusion_policy": "exclude_fallbacks" if not include_fallbacks else "include_fallbacks",
            "perplexity": "computed" if model is not None else "skipped: no reference corpus",
        },
        out_dir / "metadata.json",
    )
    print(f"report for {len(paths)} run(s) written to {out_dir}")
    return EXIT_OK


# --- argument parsing ----------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hashnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a config document")
    p_validate.add_argument("--config", required=True)
    p_validate.set_defaults(func=cmd_validate)

    p_simulate = sub.add_parser("simulate", help="run the matching game")
    p_simulate.add_argument("--config", required=True)
    p_simulate.add_argument("--out", help="directory for transcript.jsonl")
    p_simulate.add_argument("--seed", type=int, help="override the config seed")
    p_simulate.add_argument("--parallelism", type=int, help="override the backend fan-out cap")
    p_simulate.set_defaults(func=cmd_simulate)

    p_metrics = sub.add_parser("metrics", help="compute metric CSVs for a transcript")
    p_metrics.add_argument("transcript")
    p_metrics.add_argument("--config", required=True)
    p_metrics.add_argument("--out", help="directory for metric CSVs")
    p_metrics.add_argument("--exclude-fallbacks", action="store_true")
    p_metrics.add_argument("--strict", action="store_true", help="fail when any metric is skipped")
    p_metrics.set_defaults(func=cmd_metrics)

    p_report = sub.add_parser("report", help="concatenate metrics across transcripts")
    p_report.add_argument("transcripts", nargs="+")
    p_report.add_argument("--config", required=True)
    p_report.add_argument("--out", help="directory for combined CSVs")
    p_report.add_argument("--exclude-fallbacks", action="store_true")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidConfig as err:
        print(f"invalid: {len(err.violations)} violation(s) in {args.config}")
        for field_path, message in err.violations:
            print(f"  {field_path}: {message}")
        return EXIT_INVALID
    except (_IOFailure, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except HashnetError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
