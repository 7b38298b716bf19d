"""Workload definitions, input generation and output checks for the
hashnet benchmark.

Nothing here imports hashnet at module level: the worker times that
import as part of set-up, and the latency stub imports this module only
for the shared lexicon. Functions that need the package take it as an
argument.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from collections import Counter
from pathlib import Path

WORKLOADS = ("sim_mock", "sim_remote", "metrics_large")

# One size per workload at full scale, and a tiny one for the quick test.
# metrics_large holds about 18k records. Its per-round rescans are
# memory-bound: on a shared host (AMD EPYC, 1 MiB L2 per core, 32 MiB
# shared L3) bursts of cache contention from other tenants slowed a 37k
# transcript (n=400) by up to 2.2x, and the medians of 35 s runs spread
# 28-34% of the median across runs; a 74k one (n=800) was worse. The 18k
# transcript, timed next to it, slowed by at most 1.23x.
SIZES = {
    "full": {
        "sim_mock": {"n": 100, "k": 6, "p": 0.1, "rounds": 300, "parallelism": 1},
        "sim_remote": {"n": 20, "k": 4, "p": 0.1, "rounds": 40, "parallelism": 2},
        "metrics_large": {"n": 200, "k": 6, "p": 0.1, "rounds": 200},
    },
    "tiny": {
        "sim_mock": {"n": 12, "k": 4, "p": 0.1, "rounds": 8, "parallelism": 1},
        "sim_remote": {"n": 8, "k": 4, "p": 0.1, "rounds": 5, "parallelism": 2},
        "metrics_large": {"n": 40, "k": 4, "p": 0.1, "rounds": 8},
    },
}

LEXICON = (
    "#FukushimaDisaster",
    "#Setsuden",
    "#TsunamiWarning",
    "#NuclearSafety",
    "#JapanEarthquake",
)
NARRATIVE = "bundled:fukushima"
CORPUS = Path("demos") / "corpus_demo.txt"

# Remote agents: a short backoff so the retry path after an injected 503
# costs milliseconds, and a retry budget that always outlasts one failure.
REMOTE_MAX_RETRIES = 3
REMOTE_BACKOFF_S = 0.005
REMOTE_TIMEOUT_S = 10.0

# metrics_large guess dynamics: each paired agent keeps its current
# preference, adopts its partner's last guess, or draws a fresh tag.
ADOPT_SHARE = 0.25
FRESH_SHARE = 0.04
FALLBACK_SHARE = 0.03
METRICS_VOCABULARY = (
    "FukushimaDisaster", "Setsuden", "TsunamiWarning", "NuclearSafety",
    "JapanEarthquake", "PrayForJapan", "RadiationLeak", "SaveEnergy",
    "ExclusionZone", "Daiichi", "HopeForTohoku", "StaySafeJapan",
)
FALLBACK_SENTINEL = "#noresponse"
TABLE_HEADER = "round,your_guess,neighbor_guess"


def normalize(text: str) -> str:
    """The README's comparison form, restated here so checks do not trust
    the code under test: lowercase, every non-alphanumeric removed."""
    return "".join(c for c in text.lower() if c.isalnum())


def imitate(history: list[tuple[int, str]], lexicon_pick: str) -> str:
    """The README's imitate rule over (round, neighbor_guess) rows: the most
    frequent neighbor guess, ties to the most recent, then lexicographic."""
    if not history:
        return lexicon_pick
    counts: Counter[str] = Counter(guess for _, guess in history)
    last_seen = {guess: round_index for round_index, guess in history}
    top = max(counts.values())
    return min((g for g, c in counts.items() if c == top), key=lambda g: (-last_seen[g], g))


def parse_table(prompt: str) -> list[tuple[int, str, str]]:
    """(round, own, neighbor) rows of the CSV block embedded in a prompt."""
    lines = prompt.splitlines()
    if TABLE_HEADER not in lines:
        return []
    body = []
    for line in lines[lines.index(TABLE_HEADER) + 1:]:
        if not line.strip():
            break
        body.append(line)
    return [(int(r[0]), r[1], r[2]) for r in csv.reader(body) if len(r) == 3]


# --- configs -------------------------------------------------------------------


def config_doc(workload: str, size: str, seed: int, root: Path, stub_url: str | None = None) -> dict:
    """The config document the worker loads through hashnet.cli."""
    spec = SIZES[size][workload]
    doc = {
        "seed": seed,
        "rounds": spec["rounds"],
        "topology": {"n": spec["n"], "k": spec["k"], "p": spec["p"]},
        "narrative": NARRATIVE,
        "parallelism": spec.get("parallelism", 1),
        "metrics": {
            "reference_corpus": str(root / CORPUS),
            "tokenization": "hashtag",
            "entropy_base": 2,
            "dedup": "per_response",
            "embedding": {"provider": "hashing", "dim": 256},
        },
    }
    if workload == "sim_remote":
        if stub_url is None:
            raise ValueError("sim_remote needs the stub's base URL")
        doc["agents"] = [
            {
                "agent_id": i,
                "backend": "remote",
                "params": {
                    "base_url": stub_url,
                    "model": f"agent-{i}",
                    "max_retries": REMOTE_MAX_RETRIES,
                    "backoff": REMOTE_BACKOFF_S,
                    "timeout": REMOTE_TIMEOUT_S,
                },
            }
            for i in range(spec["n"])
        ]
    else:
        doc["agents"] = {
            "backend": "mock",
            "count": spec["n"],
            "params": {"strategy": "imitate", "lexicon": list(LEXICON)},
        }
    return doc


# --- metrics_large input ---------------------------------------------------------


def _variants(word: str) -> tuple[str, ...]:
    """Spellings that all normalize to the same form, so normalization does
    real work: CamelCase, lowercase, snake_case, upper case, plain words."""
    parts = re.findall(r"[A-Z][a-z]*|[a-z]+|[0-9]+", word)
    return (
        f"#{word}",
        f"#{word.lower()}",
        "#" + "_".join(parts),
        f"#{word.upper()}",
        " ".join(parts),
    )


def generate_metrics_transcript(hashnet, size: str, seed: int, path: Path) -> dict:
    """Write the metrics_large transcript and return what its checks need.

    Pairings come from hashnet's own generate_network / pair_round /
    pairing_rng, so every record is a disjoint edge of the header network.
    Guesses come from rng.agent_rng(seed, 0, 0), a substream no simulated
    round uses. Records hold raw spelling variants and a seeded share of
    fallback sides, whose raw text is the substitute the engine would store.
    """
    import numpy as np

    spec = SIZES[size]["metrics_large"]
    n, rounds = spec["n"], spec["rounds"]
    topology = hashnet.TopologySpec(
        n=n, k=spec["k"], p=spec["p"], seed=hashnet.rng.topology_seed(seed)
    )
    network = hashnet.generate_network(topology)
    draws = hashnet.rng.agent_rng(seed, 0, 0)

    variants = [_variants(word) for word in METRICS_VOCABULARY]
    normalized = {v: hashnet.normalize_hashtag(v) for vs in variants for v in vs}
    normalized[FALLBACK_SENTINEL] = hashnet.normalize_hashtag(FALLBACK_SENTINEL)
    weights = 1.0 / np.arange(1, len(variants) + 1)
    preference = draws.choice(len(variants), size=n, p=weights / weights.sum())
    last_raw: list[str | None] = [None] * n

    header = {
        "run_id": f"bench{seed}",
        "config": {
            "topology": {"n": n, "k": topology.k, "p": topology.p, "seed": topology.seed},
            "rounds": rounds,
            "agents": [
                {"agent_id": i, "backend": "mock",
                 "backend_params": {"strategy": "imitate", "lexicon": list(LEXICON)}}
                for i in range(n)
            ],
            "narrative": NARRATIVE,
            "decode": {"temperature": 0.7, "max_tokens": 64},
            "seed": seed,
            "match_on": "normalized",
        },
        "seed": seed,
        "narrative_id": "fukushima",
        "network_edges": [list(edge) for edge in network.edge_list()],
        "timestamp": "1970-01-01T00:00:00Z",
    }
    # Responses that --exclude-fallbacks keeps, per round, for the oracle.
    kept: list[list[str]] = []
    records = 0
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(json.dumps(header, ensure_ascii=False) + "\n")
        for round_index in range(1, rounds + 1):
            pairing = hashnet.pair_round(network, round_index, hashnet.rng.pairing_rng(seed, round_index))
            pairs = np.array(pairing.pairs, dtype=np.int64).reshape(-1, 2)
            sides = pairs.reshape(-1)
            partners = pairs[:, ::-1].reshape(-1)
            u = draws.random(len(sides))
            fresh = draws.integers(len(variants), size=len(sides))
            spelling = draws.integers(5, size=len(sides))
            fallback = draws.random(len(sides)) < FALLBACK_SHARE
            previous = preference.copy()
            choice = np.where(u < ADOPT_SHARE, previous[partners], previous[sides])
            choice = np.where(u > 1.0 - FRESH_SHARE, fresh, choice)
            preference[sides] = choice

            round_kept: list[str] = []
            raws: list[str] = []
            for i, agent in enumerate(sides.tolist()):
                if fallback[i]:
                    raw = last_raw[agent] or FALLBACK_SENTINEL
                else:
                    raw = variants[choice[i]][spelling[i]]
                    round_kept.append(raw)
                raws.append(raw)
            for i, agent in enumerate(sides.tolist()):
                last_raw[agent] = raws[i]
            kept.append(round_kept)

            for j, (a, b) in enumerate(pairing.pairs):
                raw_a, raw_b = raws[2 * j], raws[2 * j + 1]
                match = normalized[raw_a] == normalized[raw_b]
                points = 1 if match else 0
                handle.write(json.dumps({
                    "round": round_index,
                    "agent_a": a,
                    "agent_b": b,
                    "raw_a": raw_a,
                    "raw_b": raw_b,
                    "hashtag_a": {"raw": raw_a, "normalized": normalized[raw_a]},
                    "hashtag_b": {"raw": raw_b, "normalized": normalized[raw_b]},
                    "match": match,
                    "points_a": points,
                    "points_b": points,
                    "fallback_a": bool(fallback[2 * j]),
                    "fallback_b": bool(fallback[2 * j + 1]),
                }, ensure_ascii=False) + "\n")
            records += len(pairing.pairs)
    return {"records": records, "kept": kept}


# --- output checks ---------------------------------------------------------------


def file_digest(path: Path, *, skip_header: bool = False) -> str:
    """SHA-256 of a file, optionally of every line after the first."""
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        if skip_header:
            handle.readline()
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


METRIC_CSVS = ("entropy.csv", "dominant_share.csv", "perplexity.csv", "rank_abundance.csv", "alignment.csv")


def metrics_digest(out_dir: Path) -> str:
    """One digest over the metric CSVs. metadata.json is left out: it names
    the corpus by absolute path, which differs between checkouts."""
    h = hashlib.sha256()
    for name in METRIC_CSVS:
        h.update(name.encode() + b"\0" + file_digest(out_dir / name).encode() + b"\n")
    return h.hexdigest()


def check_transcript(path: Path, size: str, workload: str, lexicon_pick) -> list[str]:
    """Independent checks of a simulated transcript; returns the problems.

    Every round has its pairs, which are disjoint edges of the header
    network between ids below n; points equal match; each normalized form
    is the normalization of its raw form; and every guess follows the
    imitate rule applied to the agent's own history. An agent with no
    history may open only with ``lexicon_pick(agent)``, or with any lexicon
    entry when that is None.
    """
    spec = SIZES[size][workload]
    problems: list[str] = []
    with open(path, encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        docs = [json.loads(line) for line in handle if line.strip()]
    n = spec["n"]
    edges = {tuple(edge) for edge in header["network_edges"]}
    if len(edges) != n * spec["k"] // 2:
        problems.append(f"network has {len(edges)} edges, expected {n * spec['k'] // 2}")
    history: dict[int, list[tuple[int, str]]] = {i: [] for i in range(n)}
    rounds_seen: set[int] = set()
    in_round: set[int] = set()
    current = 0
    for doc in docs:
        if "abort" in doc:
            problems.append(f"run aborted: {doc.get('reason')}")
            continue
        r, a, b = doc["round"], doc["agent_a"], doc["agent_b"]
        if r != current:
            current, in_round = r, set()
        rounds_seen.add(r)
        if not (0 <= a < b < n) or (a, b) not in edges:
            problems.append(f"round {r}: pair ({a}, {b}) is not an edge")
        if a in in_round or b in in_round:
            problems.append(f"round {r}: agent paired twice")
        in_round.update((a, b))
        tags = {a: doc["hashtag_a"], b: doc["hashtag_b"]}
        for tag in tags.values():
            if tag["normalized"] != normalize(tag["raw"]):
                problems.append(f"round {r}: {tag['raw']!r} normalizes to {tag['normalized']!r}")
        match = tags[a]["normalized"] == tags[b]["normalized"]
        if doc["match"] != match or doc["points_a"] != int(match) or doc["points_b"] != int(match):
            problems.append(f"round {r}: pair ({a}, {b}) is scored wrongly")
        if doc["fallback_a"] or doc["fallback_b"]:
            problems.append(f"round {r}: pair ({a}, {b}) fell back")
        for agent in (a, b):
            guess = tags[agent]["raw"]
            if history[agent]:
                expected = imitate(history[agent], "")
                if guess != expected:
                    problems.append(f"round {r}: agent {agent} said {guess!r}, imitate gives {expected!r}")
            else:
                allowed = lexicon_pick(agent)
                if guess not in (LEXICON if allowed is None else (allowed,)):
                    problems.append(f"round {r}: agent {agent} opened with {guess!r}")
        history[a].append((r, tags[b]["raw"]))
        history[b].append((r, tags[a]["raw"]))
        if len(problems) > 20:
            break
    if rounds_seen != set(range(1, spec["rounds"] + 1)):
        problems.append(f"rounds present: {len(rounds_seen)}, expected {spec['rounds']}")
    return problems


def metric_oracle(kept: list[list[str]], corpus_path: Path) -> dict[str, list[float]]:
    """Entropy, dominant share and perplexity per round, and the top-10
    rank-abundance counts, recomputed from the generator's own responses."""
    corpus = [line.strip() for line in corpus_path.read_text(encoding="utf-8").splitlines() if line.strip()]
    tokens = Counter(t for t in map(normalize, corpus) if t)
    denominator = sum(tokens.values()) + len(tokens) + 1
    entropy, dominant, perplexity = [], [], []
    overall: Counter[str] = Counter()
    for responses in kept:
        forms = [normalize(raw) for raw in responses]
        counts = Counter(forms)
        overall.update(counts)
        total = sum(counts.values())
        entropy.append(-sum(c / total * math.log2(c / total) for c in counts.values()) + 0.0)
        dominant.append(max(counts.values()) / total)
        usable = [t for t in forms if t]
        log_p = sum(math.log((tokens.get(t, 0) + 1) / denominator) for t in usable)
        perplexity.append(math.exp(-log_p / len(usable)))
    top = sorted(overall.items(), key=lambda item: (-item[1], item[0]))[:10]
    return {
        "entropy": entropy,
        "dominant_share": dominant,
        "perplexity": perplexity,
        "rank_abundance": [float(count) for _, count in top],
    }


def check_metrics(out_dir: Path, oracle: dict[str, list[float]]) -> list[str]:
    """Compare the metric CSVs with the oracle to twelve significant digits."""
    problems: list[str] = []
    for name, expected in oracle.items():
        with open(out_dir / f"{name}.csv", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))[1:]
        got = [float(row[-1]) for row in rows]
        if len(got) != len(expected):
            problems.append(f"{name}: {len(got)} rows, expected {len(expected)}")
            continue
        bad = [i for i, (g, e) in enumerate(zip(got, expected)) if not math.isclose(g, e, rel_tol=1e-9, abs_tol=1e-12)]
        if bad:
            problems.append(f"{name}: row {bad[0] + 1} is {got[bad[0]]}, expected {expected[bad[0]]}")
    return problems
