"""Independent oracle implementations used to cross-check the library.

Nothing here imports hashnet: entropy and perplexity are recomputed with
arbitrary-precision arithmetic, clustering by literal triangle counting,
matchings by exhaustive verification, alignment by brute-force cosine
loops, transcript tallies straight off the JSONL with stdlib json, prompts
from the paper's template with stdlib csv, and a whole mock run by a naive
loop, which takes the few package functions it borrows as an argument.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from collections import Counter
from fractions import Fraction

from mpmath import mp, mpf

mp.dps = 50


def entropy_mp(counts: dict[str, int], base: float = 2.0) -> mpf:
    """Shannon entropy of a count map at 50 decimal digits."""
    total = sum(counts.values())
    acc = mpf(0)
    for count in counts.values():
        p = mpf(count) / total
        acc -= p * mp.log(p, base)
    return acc


def unigram_probabilities(tokens: list[str]) -> tuple[dict[str, Fraction], Fraction]:
    """Exact add-one probabilities plus the OOV mass, as rationals."""
    counts = Counter(tokens)
    denominator = len(tokens) + len(counts) + 1
    probabilities = {tok: Fraction(c + 1, denominator) for tok, c in counts.items()}
    return probabilities, Fraction(1, denominator)


def perplexity_mp(corpus_tokens: list[str], response_tokens: list[str]) -> mpf:
    """Perplexity of responses under the add-one unigram model, at
    50 decimal digits."""
    probabilities, oov = unigram_probabilities(corpus_tokens)
    log_total = mpf(0)
    for token in response_tokens:
        p = probabilities.get(token, oov)
        log_total += mp.log(mpf(p.numerator) / p.denominator)
    return mp.e ** (-log_total / len(response_tokens))


def normalize_reference(text: str) -> str:
    """Reference normalization, written independently: keep Unicode
    alphanumerics of the lowercased text."""
    out = []
    for c in text.lower():
        if c.isalnum():
            out.append(c)
    return "".join(out)


def average_clustering(n: int, edges: set[tuple[int, int]]) -> float:
    """Average local clustering coefficient by brute-force triangle
    counting over all neighbor pairs."""
    neighbors: dict[int, set[int]] = {i: set() for i in range(n)}
    for a, b in edges:
        neighbors[a].add(b)
        neighbors[b].add(a)
    total = 0.0
    for node in range(n):
        ns = sorted(neighbors[node])
        k = len(ns)
        if k < 2:
            continue
        links = 0
        for i in range(k):
            for j in range(i + 1, k):
                lo, hi = min(ns[i], ns[j]), max(ns[i], ns[j])
                if (lo, hi) in edges:
                    links += 1
        total += 2.0 * links / (k * (k - 1))
    return total / n


def check_pairing(n: int, edges: set[tuple[int, int]], pairs, unmatched) -> None:
    """Exhaustively verify a pairing: edge membership, disjointness,
    coverage, and maximality. Raises AssertionError on any violation."""
    seen: set[int] = set()
    for a, b in pairs:
        lo, hi = min(a, b), max(a, b)
        assert (lo, hi) in edges, f"pair ({a}, {b}) is not an edge"
        assert a not in seen and b not in seen, f"agent appears twice in {pairs}"
        seen.add(a)
        seen.add(b)
    assert seen.isdisjoint(unmatched), "agent both matched and unmatched"
    assert seen | set(unmatched) == set(range(n)), "pairing does not cover all agents"
    unmatched_set = set(unmatched)
    for a, b in edges:
        assert not (a in unmatched_set and b in unmatched_set), (
            f"not maximal: unmatched agents {a} and {b} share an edge"
        )


def align_bruteforce(tag_vectors, event_vectors) -> list[int]:
    """Assign each tag vector to the argmax-cosine event vector with
    plain loops; ties resolve to the earliest event."""

    def cosine(u, v) -> float:
        dot = sum(x * y for x, y in zip(u, v))
        nu = math.sqrt(sum(x * x for x in u))
        nv = math.sqrt(sum(y * y for y in v))
        if nu == 0.0 or nv == 0.0:
            return 0.0
        return dot / (nu * nv)

    assignments = []
    for tag in tag_vectors:
        best_index, best_score = 0, -2.0
        for j, event in enumerate(event_vectors):
            score = cosine(tag, event)
            if score > best_score:
                best_index, best_score = j, score
        assignments.append(best_index)
    return assignments


def read_jsonl(path) -> tuple[dict, list[dict]]:
    """Header and record objects of a transcript file, via stdlib json."""
    header: dict = {}
    records: list[dict] = []
    with open(path, encoding="utf-8") as handle:
        for i, line in enumerate(handle):
            if not line.strip():
                continue
            doc = json.loads(line)
            if i == 0:
                header = doc
            elif not doc.get("abort"):
                records.append(doc)
    return header, records


def tally_round(records: list[dict], round_index: int, *, include_fallbacks: bool = True) -> Counter:
    """Independent per-round tally of normalized hashtags (two per record)."""
    counts: Counter = Counter()
    for record in records:
        if record["round"] != round_index:
            continue
        if include_fallbacks or not record["fallback_a"]:
            counts[record["hashtag_a"]["normalized"]] += 1
        if include_fallbacks or not record["fallback_b"]:
            counts[record["hashtag_b"]["normalized"]] += 1
    return counts


def tally_all(records: list[dict], *, include_fallbacks: bool = True) -> Counter:
    counts: Counter = Counter()
    rounds = {record["round"] for record in records}
    for round_index in sorted(rounds):
        counts.update(tally_round(records, round_index, include_fallbacks=include_fallbacks))
    return counts


def responses(records: list[dict], round_index: int | None = None, *, include_fallbacks: bool = True,
              form: str = "normalized") -> list[str]:
    """Independent list of the hashtags of one round's record objects, or of
    every record when ``round_index`` is None: side a before side b, in
    record order, each in ``form`` ("raw" or "normalized")."""
    out: list[str] = []
    for record in records:
        if round_index is not None and record["round"] != round_index:
            continue
        for side in ("a", "b"):
            if include_fallbacks or not record[f"fallback_{side}"]:
                out.append(record[f"hashtag_{side}"][form])
    return out


def csv_line(row) -> str:
    """One row as csv.writer writes it, without its line end. A CRLF line end
    makes csv quote a cell holding a carriage return or a line feed on every
    Python version, as 3.13 does for any line end."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(row)
    return buf.getvalue().removesuffix("\r\n")


def prompt_reference(round_index: int, rows, event_text: str) -> str:
    """The prompt an agent sees at the start of ``round_index``, written out
    from the paper's template: the scoring rules, then from round 2 on its
    (round, own guess, neighbor guess) rows as a csv.writer table, then the
    event and the closing instruction, paragraphs separated by blank lines."""
    scoring = (
        "In this experiment, you are awarded 1 point if you guess the same hashtag as your randomly assigned "
        "neighbor, and 0 points if you do not. Your goal is to earn as many points as possible."
    )
    closing = (
        "Please guess a short (max 5 words) hashtag for this event. Try to match your neighbor while staying "
        "relevant to the event. You may reuse your previous hashtag, but don't always do so—especially if you "
        "believe your next neighbor might choose something different."
    )
    if round_index == 1:
        situation = ["You are in round 1 of the experiment.", "Based on the event provided in round 1:"]
    else:
        situation = [
            f"You are in round {round_index} of the experiment. Your guesses and your neighbor's guesses have "
            "been as follows, represented in the CSV below:",
            "\n".join(csv_line(row) for row in [("round", "your_guess", "neighbor_guess"), *rows]),
            "Based on this information and the event provided in round 1:",
        ]
    return "\n\n".join([scoring, *situation, event_text, closing])


def mock_run_bytes(hashnet, config, narrative_id: str) -> bytes:
    """The transcript file ``run_simulation`` writes for a ``config`` whose
    agents are all mocks, played out by a naive loop from the README's rules.

    It borrows from ``hashnet`` only ``generate_network``, ``parse_response``
    (with ``ParseError``) and ``rng.agent_rng`` for the opening draws. Each
    round pairs agents by a plain greedy matching driven by a numpy
    ``Generator`` on the round's spawn key (1, round); every paired agent
    answers from the history of the rounds before, a plain list of (round,
    own hashtag, neighbor hashtag), and a text that fails to parse falls back
    to the agent's last own hashtag, or ``#noresponse``. Each line is
    ``json.dumps(doc, ensure_ascii=False)``."""
    import numpy as np

    topology = config.topology
    topology_seed = topology.seed
    if topology_seed is None:
        topology_seed = int(np.random.SeedSequence(config.seed, spawn_key=(0,)).generate_state(1, np.uint64)[0])
    network = hashnet.generate_network(topology._replace(seed=topology_seed))
    neighbors: dict[int, list[int]] = {agent: [] for agent in range(topology.n)}
    for a, b in sorted(network.edges):
        neighbors[a].append(b)
        neighbors[b].append(a)
    snapshot = {
        "topology": {"n": topology.n, "k": topology.k, "p": topology.p, "seed": topology_seed},
        "rounds": config.rounds,
        "agents": [{"agent_id": spec.agent_id, "backend": spec.backend, "backend_params": dict(spec.backend_params)}
                   for spec in config.agents],
        "narrative": config.narrative_path,
        "decode": {"temperature": config.decode.temperature, "max_tokens": config.decode.max_tokens},
        "seed": config.seed,
        "match_on": config.match_on,
    }
    canonical = json.dumps(snapshot, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    docs: list[dict] = [{
        "run_id": config.run_id or hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12],
        "config": snapshot,
        "seed": config.seed,
        "narrative_id": narrative_id,
        "network_edges": [[a, b] for a, b in sorted(network.edges)],
        "timestamp": "1970-01-01T00:00:00Z",
    }]
    params = {spec.agent_id: spec.backend_params for spec in config.agents}
    histories: dict[int, list[tuple[int, str, str]]] = {agent: [] for agent in range(topology.n)}

    def answer(agent: int, round_index: int) -> str:
        strategy, rows = params[agent]["strategy"], histories[agent]
        if strategy.startswith("constant:"):
            return strategy[len("constant:"):]
        lexicon = params[agent]["lexicon"]
        if not rows:
            return lexicon[int(hashnet.rng.agent_rng(config.seed, round_index, agent).integers(len(lexicon)))]
        # the neighbor guess seen most often; ties go to the one seen in the latest round, then the smallest
        counts = Counter(neighbor for _, _, neighbor in rows)
        latest = {neighbor: round_seen for round_seen, _, neighbor in sorted(rows)}
        return min(counts, key=lambda guess: (-counts[guess], -latest[guess], guess))

    def side(agent: int, text: str) -> tuple[dict, bool]:
        try:
            tag = hashnet.parse_response(text)
            return {"raw": tag.raw, "normalized": tag.normalized}, False
        except hashnet.ParseError:
            substitute = histories[agent][-1][1] if histories[agent] else "#noresponse"
            return {"raw": substitute, "normalized": normalize_reference(substitute)}, True

    for round_index in range(1, config.rounds + 1):
        draws = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(1, round_index)))
        matched: set[int] = set()
        pairs = []
        for a in draws.permutation(topology.n).tolist():
            candidates = [] if a in matched else [b for b in neighbors[a] if b not in matched]
            if candidates:
                b = candidates[int(draws.integers(len(candidates)))]
                matched.update((a, b))
                pairs.append((min(a, b), max(a, b)))
        records = []
        for a, b in sorted(pairs):
            text_a, text_b = answer(a, round_index), answer(b, round_index)
            (tag_a, fallback_a), (tag_b, fallback_b) = side(a, text_a), side(b, text_b)
            match = tag_a[config.match_on] == tag_b[config.match_on]
            records.append({
                "round": round_index, "agent_a": a, "agent_b": b, "raw_a": text_a, "raw_b": text_b,
                "hashtag_a": tag_a, "hashtag_b": tag_b, "match": match, "points_a": int(match), "points_b": int(match),
                "fallback_a": fallback_a, "fallback_b": fallback_b,
            })
        for record in records:
            own_a, own_b = record["hashtag_a"]["raw"], record["hashtag_b"]["raw"]
            histories[record["agent_a"]].append((round_index, own_a, own_b))
            histories[record["agent_b"]].append((round_index, own_b, own_a))
        docs += records
    return "".join(json.dumps(doc, ensure_ascii=False) + "\n" for doc in docs).encode("utf-8")
