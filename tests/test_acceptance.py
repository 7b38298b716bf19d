"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured result (run with -s to see them; a pytest failure on
any test is that criterion's FAIL line).

Run:  pytest tests/test_acceptance.py -v -s
"""

import os
import random
import time

import numpy as np
import pytest

from hashnet import (
    AgentSpec,
    DecodeParams,
    HashtagDistribution,
    Network,
    RunConfig,
    TopologySpec,
    UnigramModel,
    build_prompt,
    build_unigram_model,
    generate_network,
    load_narrative,
    metric_series,
    pair_round,
    perplexity,
    read_transcript,
    round_distribution,
    run_simulation,
    shannon_entropy,
)
from hashnet.cli import main as cli_main

from conftest import FIXTURES
from oracles import average_clustering, check_pairing, entropy_mp, perplexity_mp


def report(number: int, message: str) -> None:
    print(f"\nCRITERION {number}: PASS — {message}")


def test_criterion_1_metric_oracle_equivalence():
    rng = random.Random(12345)
    start = time.monotonic()

    worst_entropy = 0.0
    for _ in range(1000):
        counts = {f"t{i}": rng.randint(1, 60) for i in range(rng.randint(1, 40))}
        ours = shannon_entropy(HashtagDistribution(counts))
        oracle = float(entropy_mp(counts))
        scale = max(abs(oracle), 1e-30)
        worst_entropy = max(worst_entropy, abs(ours - oracle) / scale)
    assert worst_entropy < 1e-9

    worst_perplexity = 0.0
    for _ in range(1000):
        corpus = [f"t{rng.randint(0, 25)}" for _ in range(rng.randint(1, 60))]
        responses = [f"t{rng.randint(0, 30)}" for _ in range(rng.randint(1, 20))]
        ours = perplexity(build_unigram_model(corpus), responses)
        oracle = float(perplexity_mp(corpus, responses))
        worst_perplexity = max(worst_perplexity, abs(ours - oracle) / abs(oracle))
    assert worst_perplexity < 1e-9

    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(1, f"2000 instances vs arbitrary-precision oracle; worst rel err "
              f"entropy {worst_entropy:.2e}, perplexity {worst_perplexity:.2e}, {elapsed:.1f}s")


def test_criterion_2_known_values():
    assert shannon_entropy(HashtagDistribution({"a": 4, "b": 4, "c": 4, "d": 4})) == 2.0
    assert abs(shannon_entropy(HashtagDistribution({"a": 3, "b": 1})) - 0.8112781245) < 1e-9

    uniform4 = UnigramModel(probabilities={f"t{i}": 0.25 for i in range(4)}, oov_probability=1e-9)
    assert perplexity(uniform4, ["t0", "t1"]) == 4.0  # exact in floats for V=4
    for v in range(1, 65):
        model = UnigramModel(probabilities={f"t{i}": 1.0 / v for i in range(v)}, oov_probability=1e-9)
        value = perplexity(model, [f"t{i % v}" for i in range(5)])
        assert abs(value - v) / v < 1e-12

    worked = perplexity(build_unigram_model(["f", "f", "t", "n"]), ["f", "s"])
    assert abs(worked - 4.6188) < 1e-4
    report(2, f"uniform-4 entropy 2.0, {{3,1}} split 0.8112781245, PP=V identity, "
              f"worked add-one example PP={worked:.6f}")


def test_criterion_3_topology_suite():
    rng = random.Random(777)
    for _ in range(200):
        n = rng.randint(4, 60)
        k = 2 * rng.randint(1, max(1, (n - 1) // 2))
        spec = TopologySpec(n=n, k=k, p=rng.random(), seed=rng.randrange(2**32))
        net = generate_network(spec)
        assert len(net.edges) == n * k // 2
        for a, b in net.edges:
            assert 0 <= a < b < n  # no self-loops; (lo, hi) storage forbids duplicates
        assert sum(net.degree(i) for i in range(n)) == n * k

    lattice = generate_network(TopologySpec(n=12, k=4, p=0.0, seed=5))
    expected = set()
    for i in range(12):
        for j in (1, 2):
            b = (i + j) % 12
            expected.add((min(i, b), max(i, b)))
    assert set(lattice.edges) == expected

    clustering = average_clustering(12, set(lattice.edges))
    assert abs(clustering - 0.5) < 1e-12
    report(3, "200 random specs hold edge-count/simple-graph invariants; "
              "p=0 reproduces the ring lattice; lattice clustering 0.5 by triangle count")


def test_criterion_4_pairing_suite():
    rng = random.Random(2024)
    draws = 0
    while draws < 1000:
        n = rng.randint(4, 40)
        k = 2 * rng.randint(1, max(1, min(4, (n - 1) // 2)))
        net = generate_network(TopologySpec(n=n, k=k, p=rng.random(), seed=rng.randrange(2**32)))
        edges = set(net.edges)
        for _ in range(4):
            draws += 1
            pairing = pair_round(net, 1, np.random.default_rng(rng.randrange(2**32)))
            check_pairing(n, edges, pairing.pairs, pairing.unmatched)
    report(4, f"{draws} random-graph draws verified exhaustively "
              "(edge membership, disjointness, maximality)")


def _convergence_config(seed: int) -> RunConfig:
    lexicon = ["#one", "#two", "#three", "#four", "#five"]
    return RunConfig(
        topology=TopologySpec(n=20, k=4, p=0.1),  # spec recorded; complete graph injected
        rounds=40,
        agents=tuple(AgentSpec(i, "mock", {"strategy": "imitate", "lexicon": lexicon}) for i in range(20)),
        narrative_path=str(FIXTURES / "synthetic_narrative.json"),
        seed=seed,
    )


def test_criterion_5_convergence_property():
    start = time.monotonic()
    network = Network.complete(20)
    converged = 0
    entropy_by_seed = []
    for seed in range(100):
        transcript = run_simulation(_convergence_config(seed), network=network)
        series = metric_series(transcript, "entropy")
        values = [value for _, value in series.values]
        entropy_by_seed.append(values)
        if values[-1] == 0.0:
            converged += 1
    elapsed = time.monotonic() - start

    medians = np.median(np.array(entropy_by_seed), axis=0)
    diffs = np.diff(medians)
    assert converged >= 95, f"only {converged}/100 seeds reached zero final-round entropy"
    assert np.all(diffs <= 1e-9), "median entropy across seeds is not non-increasing"
    assert elapsed < 30.0
    report(5, f"{converged}/100 seeds fully converged by round 40; median entropy "
              f"non-increasing ({medians[0]:.2f} -> {medians[-1]:.2f}); {elapsed:.1f}s")


def test_criterion_6_determinism_and_replay(tmp_path):
    lexicon = ["#x", "#y", "#z"]
    agents = [AgentSpec(i, "mock", {"strategy": "imitate", "lexicon": lexicon}) for i in range(10)]
    agents.append(AgentSpec(10, "mock", {"strategy": "constant:#x"}))
    agents.append(AgentSpec(11, "mock", {"strategy": "constant:#y"}))
    config = RunConfig(
        topology=TopologySpec(n=12, k=4, p=0.2),
        rounds=10,
        agents=tuple(agents),
        narrative_path="bundled:fukushima",
        seed=31,
    )
    serial_path = tmp_path / "serial.jsonl"
    parallel_path = tmp_path / "parallel.jsonl"
    run_simulation(config, out_path=serial_path)
    run_simulation(config._replace(parallelism=8), out_path=parallel_path)
    assert serial_path.read_bytes() == parallel_path.read_bytes()

    original = read_transcript(serial_path)
    replay_config = config._replace(
        agents=tuple(AgentSpec(i, "replay", {"transcript": str(serial_path)}) for i in range(12)),
    )
    replayed = run_simulation(replay_config)
    assert replayed.records == original.records
    report(6, "transcripts byte-identical at parallelism 1 and 8; replay backends "
              f"reproduce all {len(original.records)} records")


def test_criterion_7_golden_pipeline(tmp_path):
    out_dir = tmp_path / "metrics"
    code = cli_main([
        "metrics", str(FIXTURES / "fixture_transcript.jsonl"),
        "--config", str(FIXTURES / "fixture_config.json"),
        "--out", str(out_dir),
    ])
    assert code == 0
    names = ("entropy", "dominant_share", "perplexity", "rank_abundance", "alignment")
    for name in names:
        produced = (out_dir / f"{name}.csv").read_bytes()
        golden = (FIXTURES / "golden_metrics" / f"{name}.csv").read_bytes()
        assert produced == golden, f"{name}.csv diverges from its oracle-generated golden"
    report(7, f"all {len(names)} metric CSVs byte-equal to oracle-generated goldens")


def test_criterion_8_prompt_conformance():
    narrative = load_narrative(FIXTURES / "synthetic_narrative.json")
    transcript = read_transcript(FIXTURES / "fixture_transcript.jsonl")

    built_round1 = build_prompt(0, 1, transcript, narrative)
    golden_round1 = (FIXTURES / "prompt_round1_golden.txt").read_text(encoding="utf-8")
    assert built_round1 == golden_round1
    assert "round,your_guess,neighbor_guess" not in built_round1

    built_round3 = build_prompt(0, 3, transcript, narrative)
    golden_round3 = (FIXTURES / "prompt_round3_golden.txt").read_text(encoding="utf-8")
    assert built_round3 == golden_round3
    report(8, "round-1 and round-3 prompts match golden files byte-for-byte")


@pytest.mark.live
def test_criterion_9_optional_live_smoke():
    base_url = os.environ.get("HASHNET_LIVE_BASE_URL")
    model = os.environ.get("HASHNET_LIVE_MODEL")
    if not base_url or not model:
        pytest.skip("set HASHNET_LIVE_BASE_URL and HASHNET_LIVE_MODEL to run the live smoke test")

    config = RunConfig(
        topology=TopologySpec(n=5, k=2, p=0.1),
        rounds=5,
        agents=tuple(
            AgentSpec(i, "remote", {"base_url": base_url, "model": model}) for i in range(5)
        ),
        narrative_path="bundled:philippines",
        decode=DecodeParams(temperature=0.7, max_tokens=64),
        parallelism=2,
        seed=1,
    )
    transcript = run_simulation(config)
    assert transcript.abort is None
    assert transcript.rounds_completed() == 5

    shares = []
    for round_index in range(1, 6):
        dist = round_distribution(transcript, round_index)
        share = max(dist.counts.values()) / dist.total
        assert 0.0 < share <= 1.0
        shares.append(share)
    entropy = shannon_entropy(round_distribution(transcript, 5))
    # qualitative expectations are reported, not asserted
    report(9, f"live 5x5 smoke run parsed; dominant share {min(shares):.2f}-{max(shares):.2f}, "
              f"final-round entropy {entropy:.2f} bits")
