"""Spans around hashnet's layer boundaries, recorded from outside the
package, and the per-layer metrics derived from them.

``install`` replaces the module attributes that ``engine``, ``agents``
and ``cli`` call with timing wrappers; nothing under ``src/`` changes.
Spans carry a name, start, end, parent and a few attributes; they stay in
memory until the sample ends and are then written out in one piece.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
import time

# Fixed ladder for tail percentiles: the highest entry with at least ten
# samples beyond it is reported, together with the entry chosen.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)


class Tracer:
    """In-memory span recorder. A span opened on a thread with no open span
    of its own (a backend call on a pool thread) is parented to the root."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple] = []
        self.root: int | None = None
        self.missing: list[str] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, attrs=None, error_attrs=None):
        """Run ``fn`` as a span. ``attrs(args, result)`` and, on an
        exception, ``error_attrs(args)`` give the span's attributes."""
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as err:
            end = time.perf_counter()
            stack.pop()
            extra = error_attrs(args) if error_attrs else {}
            self.spans.append((span_id, name, start, end, parent, {"error": type(err).__name__, **extra}))
            raise
        end = time.perf_counter()
        stack.pop()
        self.spans.append((span_id, name, start, end, parent, attrs(args, result) if attrs else None))
        return result

    def root_call(self, name, fn, *args, **kwargs):
        """Run the timed operation as the root span."""
        self.root = next(self._ids)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((self.root, name, start, time.perf_counter(), None, None))
            self.root = None

    def wrap(self, owner, attr: str, name, attrs=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper. ``name`` is a span
        name or a function of the call's arguments giving one."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            return tracer.call(span_name, original, args, kwargs, attrs)

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from hashnet import agents, cli, engine, metrics, rng

    for fn in ("load_config", "validate_config", "build_config"):
        tracer.wrap(cli, fn, "cli.config")
    for module in (engine, cli):
        tracer.wrap(module, "load_narrative", "narrative.load")
    tracer.wrap(engine, "generate_network", "topology.generate_network")
    tracer.wrap(engine, "pair_round", "topology.pair_round", lambda a, r: {"round": a[1]})
    tracer.wrap(rng, "agent_rng", "rng.agent_rng")
    tracer.wrap(engine, "render_interaction_table", "agents.render_table", lambda a, r: {"rows": len(a[0])})
    tracer.wrap(agents, "parse_interaction_table", "agents.parse_table", lambda a, r: {"rows": len(r)})
    tracer.wrap(agents, "mock_imitate", "agents.strategy")
    tracer.wrap(engine, "parse_response", "engine.parse_response")
    tracer.wrap(engine, "_write_line", "engine.write_transcript")
    tracer.wrap(cli, "read_transcript", "engine.read_transcript", lambda a, r: {"records": len(r.records)})
    tracer.wrap(cli, "metric_series", lambda a, kw: f"metrics.series.{kw.get('metric', a[1] if len(a) > 1 else '')}")
    tracer.wrap(cli, "rank_abundance", "metrics.rank_abundance")
    tracer.wrap(cli, "align_hashtags", "metrics.alignment")
    tracer.wrap(cli, "build_unigram_model", "metrics.unigram_build")
    for fn in ("write_series_csv", "write_rank_abundance_csv", "write_alignment_csv", "write_metadata"):
        tracer.wrap(cli, fn, "metrics.csv_write")
    tracer.wrap(metrics.HashingEmbedder, "embed", "metrics.embed")
    tracer.wrap(engine.Transcript, "records_for_round", "metrics.records_for_round",
                lambda a, r: {"visited": len(a[0].records)})

    remote_kind = agents.RemoteBackend

    def respond_attrs(args, response):
        request = args[0]
        return {"round": request.round, "bytes": len(request.prompt.encode("utf-8")),
                "attempt": response.attempt}

    def build_backends(*args, **kwargs):
        backends = original_build(*args, **kwargs)
        wrapped: set[int] = set()
        for backend in backends.values():
            if id(backend) in wrapped:
                continue
            wrapped.add(id(backend))
            kind = "agents.respond_remote" if isinstance(backend, remote_kind) else "agents.respond"
            respond = backend.respond

            def traced(request, rng, _respond=respond, _kind=kind):
                return tracer.call(_kind, _respond, (request, rng), {}, respond_attrs,
                                   lambda a: {"round": a[0].round})

            backend.respond = traced
        return backends

    original_build = engine.build_backends
    engine.build_backends = build_backends
    tracer._restore.append((engine, "build_backends", original_build))


# --- per-layer metrics ---------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, float]:
    """(median, tail value, tail percentile) by nearest rank."""
    if not values:
        return 0.0, 0.0, 0.0
    ordered = sorted(values)
    count = len(ordered)

    def rank(pct: float) -> float:
        return ordered[max(0, math.ceil(pct / 100.0 * count) - 1)]

    pct = next((p for p in TAIL_LADDER if count * (1.0 - p / 100.0) >= 10), 50.0)
    return rank(50.0), rank(pct), pct


def self_time(span: tuple, children: list[tuple]) -> float:
    """Span duration minus the part of it its children cover."""
    start, end = span[2], span[3]
    covered, cursor = 0.0, start
    for child in sorted(children, key=lambda s: s[2]):
        lo, hi = max(child[2], cursor), min(child[3], end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (end - start) - covered


def summarise(spans: list, *, parallelism: int, max_retries: int, connections: int,
              transcript_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced sample."""
    by_name: dict[str, list] = {}
    children: dict[int, list] = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)
        if span[4] is not None:
            children.setdefault(span[4], []).append(span)

    def total_ms(name: str) -> float:
        return sum(s[3] - s[2] for s in by_name.get(name, ())) * 1000.0

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    def attr_sum(name: str, key: str) -> int:
        return sum((s[5] or {}).get(key, 0) for s in by_name.get(name, ()))

    calls = by_name.get("agents.respond", []) + by_name.get("agents.respond_remote", [])
    remote = by_name.get("agents.respond_remote", [])
    respond_p50, respond_tail, respond_pct = tail([(s[3] - s[2]) * 1000.0 for s in calls])
    unavailable = sum(1 for s in remote if (s[5] or {}).get("error"))
    attempts = sum((s[5] or {}).get("attempt", 0) for s in remote if not (s[5] or {}).get("error"))
    attempts += unavailable * max_retries

    root = next((s for s in spans if s[4] is None and s[1] == "engine.run_simulation"), None)
    rounds = sorted(by_name.get("topology.pair_round", []), key=lambda s: s[2])
    round_ms: list[float] = []
    windows = 0.0
    if root is not None and rounds:
        starts = [s[2] for s in rounds] + [root[3]]
        round_ms = [(b - a) * 1000.0 for a, b in zip(starts, starts[1:])]
        per_round: dict[int, list] = {}
        for s in calls:
            per_round.setdefault((s[5] or {}).get("round"), []).append(s)
        windows = sum(max(s[3] for s in group) - min(s[2] for s in group) for group in per_round.values())
    round_p50, round_tail, round_pct = tail(round_ms)
    busy = sum(s[3] - s[2] for s in calls)

    return {
        "cli.config_ms": total_ms("cli.config"),
        "topology.generate_network_ms": total_ms("topology.generate_network"),
        "topology.pair_round_ms": total_ms("topology.pair_round"),
        "topology.pair_round_calls": count("topology.pair_round"),
        "rng.agent_rng_ms": total_ms("rng.agent_rng"),
        "rng.agent_rng_calls": count("rng.agent_rng"),
        "narrative.load_ms": total_ms("narrative.load"),
        "agents.render_table_ms": total_ms("agents.render_table"),
        "agents.render_table_rows": attr_sum("agents.render_table", "rows"),
        "agents.parse_table_ms": total_ms("agents.parse_table"),
        "agents.parse_table_rows": attr_sum("agents.parse_table", "rows"),
        "agents.strategy_ms": total_ms("agents.strategy"),
        "agents.prompt_bytes": sum((s[5] or {}).get("bytes", 0) for s in calls),
        "agents.respond_ms_p50": respond_p50,
        "agents.respond_ms_tail": respond_tail,
        "agents.respond_tail_pct": respond_pct,
        "agents.respond_calls": len(calls),
        "agents.remote_attempts": attempts,
        "agents.remote_retries": attempts - len(remote),
        "agents.remote_unavailable": unavailable,
        "agents.connections_opened": connections,
        "engine.round_ms_p50": round_p50,
        "engine.round_ms_tail": round_tail,
        "engine.round_tail_pct": round_pct,
        "engine.barrier_idle_share": 1.0 - busy / (parallelism * windows) if windows else 0.0,
        "engine.self_ms": self_time(root, children.get(root[0], [])) * 1000.0 if root else 0.0,
        "engine.parse_response_ms": total_ms("engine.parse_response"),
        "engine.parse_failures": sum(1 for s in by_name.get("engine.parse_response", ()) if (s[5] or {}).get("error")),
        "engine.write_transcript_ms": total_ms("engine.write_transcript"),
        "engine.transcript_bytes": transcript_bytes,
        "engine.read_transcript_ms": total_ms("engine.read_transcript"),
        "engine.read_records": attr_sum("engine.read_transcript", "records"),
        "metrics.series_ms.entropy": total_ms("metrics.series.entropy"),
        "metrics.series_ms.dominant_share": total_ms("metrics.series.dominant_share"),
        "metrics.series_ms.perplexity": total_ms("metrics.series.perplexity"),
        "metrics.rank_abundance_ms": total_ms("metrics.rank_abundance"),
        "metrics.alignment_ms": total_ms("metrics.alignment"),
        "metrics.embed_ms": total_ms("metrics.embed"),
        "metrics.unigram_build_ms": total_ms("metrics.unigram_build"),
        "metrics.csv_write_ms": total_ms("metrics.csv_write"),
        "metrics.records_visited": attr_sum("metrics.records_for_round", "visited"),
        "trace.spans": len(spans),
    }
