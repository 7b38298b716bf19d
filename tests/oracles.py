"""Independent oracle implementations used to cross-check the library.

Nothing here imports hashnet: entropy and perplexity are recomputed with
arbitrary-precision arithmetic, clustering by literal triangle counting,
matchings by exhaustive verification, alignment by brute-force cosine
loops, transcript tallies straight off the JSONL with stdlib json, and
prompts from the paper's template with stdlib csv.
"""

from __future__ import annotations

import csv
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
        table = io.StringIO()
        writer = csv.writer(table, lineterminator="\n")
        writer.writerow(["round", "your_guess", "neighbor_guess"])
        writer.writerows(rows)
        situation = [
            f"You are in round {round_index} of the experiment. Your guesses and your neighbor's guesses have "
            "been as follows, represented in the CSV below:",
            table.getvalue().removesuffix("\n"),
            "Based on this information and the event provided in round 1:",
        ]
    return "\n\n".join([scoring, *situation, event_text, closing])
