"""Prompt construction, response parsing, scoring, and run orchestration."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashnet import (
    AgentSpec,
    Hashtag,
    InteractionRecord,
    Network,
    ParseError,
    RunConfig,
    TopologySpec,
    Transcript,
    TranscriptError,
    build_prompt,
    load_narrative,
    mock_imitate,
    normalize_hashtag,
    parse_response,
    read_transcript,
    run_simulation,
    write_transcript,
)
from hashnet import agents, engine
from hashnet import rng as rng_streams
from hashnet.agents import SCORING_PARAGRAPH, parse_interaction_table
from hashnet.engine import config_digest, config_snapshot

from conftest import FIXTURES, REPO, make_mock_config
from oracles import prompt_reference


def make_record(round_index, a, b, raw_a, raw_b, fb_a=False, fb_b=False):
    tag_a, tag_b = Hashtag.from_raw(raw_a), Hashtag.from_raw(raw_b)
    match = tag_a.normalized == tag_b.normalized
    return InteractionRecord(
        round=round_index, agent_a=a, agent_b=b, raw_a=raw_a, raw_b=raw_b,
        hashtag_a=tag_a, hashtag_b=tag_b, match=match,
        points_a=int(match), points_b=int(match), fallback_a=fb_a, fallback_b=fb_b,
    )


class TestNormalization:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("#FukushimaDisaster", "fukushimadisaster"),
            ("#Fukushima!", "fukushima"),
            ("#Bongbong Marcos 2022", "bongbongmarcos2022"),
            ("##double", "double"),
            ("no-hash HERE", "nohashhere"),
            ("", ""),
            ("###", ""),
        ],
    )
    def test_examples(self, raw, expected):
        assert normalize_hashtag(raw) == expected

    @given(st.text(max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_idempotent(self, text):
        once = normalize_hashtag(text)
        assert normalize_hashtag(once) == once

    @given(st.text(max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_output_alphanumeric_lowercase(self, text):
        out = normalize_hashtag(text)
        assert all(c.isalnum() for c in out)
        assert out == out.lower()

    @given(st.text(max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_keeps_each_alphanumeric_character_in_order(self, text):
        assert normalize_hashtag(text) == "".join(c for c in text.lower() if c.isalnum())


class TestParseResponse:
    def test_hand_labeled_fixture(self, fixtures):
        cases = json.loads((fixtures / "reasoning_responses.json").read_text(encoding="utf-8"))
        assert len(cases) >= 20
        # Parsed twice: a repeat is served from the memo, which must agree
        # with the first parse and must not remember a failure.
        for case in cases:
            if case.get("expected_error"):
                for _ in range(2):
                    with pytest.raises(ParseError):
                        parse_response(case["raw_text"])
            else:
                first, second = parse_response(case["raw_text"]), parse_response(case["raw_text"])
                assert first.raw == case["expected_raw"], case["raw_text"]
                assert second == first, case["raw_text"]

    def test_normalized_form_populated(self):
        tag = parse_response("Sure! I'll go with #FukushimaDisaster")
        assert tag.raw == "#FukushimaDisaster"
        assert tag.normalized == "fukushimadisaster"

    def test_five_word_cap(self):
        tag = parse_response("#Bongbong Marcos 2022 landslide victory imminent")
        assert tag.raw == "#Bongbong Marcos 2022 landslide victory"

    def test_empty_raises(self):
        with pytest.raises(ParseError):
            parse_response("   \n\t  ")

    @pytest.mark.parametrize("raw", ["— …", "#!!!", '"#"', "**#**", "..."])
    def test_guess_without_letter_or_digit_raises(self, raw):
        with pytest.raises(ParseError):
            parse_response(raw)


class TestBuildPrompt:
    def setup_method(self):
        self.narrative = load_narrative("bundled:fukushima")
        self.empty = Transcript(header={}, records=[])

    def test_round_one_has_no_table(self):
        prompt = build_prompt(0, 1, self.empty, self.narrative)
        assert prompt.startswith(SCORING_PARAGRAPH)
        assert self.narrative.full_text in prompt
        assert "round,your_guess,neighbor_guess" not in prompt
        assert "You are in round 1 of the experiment." in prompt

    def test_round_three_table_has_two_rows(self):
        records = [
            make_record(1, 0, 1, "#a", "#b"),
            make_record(2, 0, 2, "#c", "#d"),
        ]
        transcript = Transcript(header={}, records=records)
        prompt = build_prompt(0, 3, transcript, self.narrative)
        lines = prompt.splitlines()
        start = lines.index("round,your_guess,neighbor_guess")
        assert lines[start + 1] == "1,#a,#b"
        assert lines[start + 2] == "2,#c,#d"
        assert lines[start + 3] == ""

    def test_unmatched_round_leaves_no_row(self):
        # agent 0 paired in rounds 1 and 3 only of a 4-round fixture
        records = [
            make_record(1, 0, 1, "#r1", "#x"),
            make_record(1, 2, 3, "#y", "#z"),
            make_record(2, 1, 2, "#y", "#z"),
            make_record(3, 0, 3, "#r3", "#w"),
            make_record(3, 1, 2, "#y", "#z"),
            make_record(4, 0, 2, "#r4", "#v"),
        ]
        transcript = Transcript(header={}, records=records)
        prompt = build_prompt(0, 4, transcript, self.narrative)
        lines = prompt.splitlines()
        start = lines.index("round,your_guess,neighbor_guess")
        body = []
        for line in lines[start + 1:]:
            if not line:
                break
            body.append(line)
        assert body == ["1,#r1,#x", "3,#r3,#w"]

    def test_oracle_renders_the_prompt_goldens(self):
        # the oracle the engine's prompts are checked against is pinned here
        event_text = load_narrative(FIXTURES / "synthetic_narrative.json").full_text
        rows = [(1, "#storm", "#Storm!"), (2, "#blackout", "#blackout")]
        for round_index, history in ((1, []), (3, rows)):
            golden = (FIXTURES / f"prompt_round{round_index}_golden.txt").read_text(encoding="utf-8")
            assert prompt_reference(round_index, history, event_text) == golden

    def test_history_cut_at_current_round(self):
        records = [make_record(1, 0, 1, "#a", "#b"), make_record(2, 0, 1, "#c", "#d")]
        transcript = Transcript(header={}, records=records)
        prompt = build_prompt(0, 2, transcript, self.narrative)
        assert "1,#a,#b" in prompt
        assert "2,#c,#d" not in prompt


class TestRunSimulation:
    def test_constant_agents_always_match(self):
        config = RunConfig(
            topology=TopologySpec(n=4, k=2, p=0.0),
            rounds=2,
            agents=tuple(AgentSpec(i, "mock", {"strategy": "constant:#x"}) for i in range(4)),
            narrative_path=str(FIXTURES / "synthetic_narrative.json"),
        )
        transcript = run_simulation(config, network=Network.complete(4))
        assert len(transcript.records) == 4  # 2 pairs x 2 rounds
        for record in transcript.records:
            assert record.match
            assert (record.points_a, record.points_b) == (1, 1)
            assert not record.fallback_a and not record.fallback_b

    def test_two_agents_disagree(self):
        config = RunConfig(
            topology=TopologySpec(n=2, k=2, p=0.0),  # spec unused with injected graph
            rounds=1,
            agents=(
                AgentSpec(0, "mock", {"strategy": "constant:#x"}),
                AgentSpec(1, "mock", {"strategy": "constant:#y"}),
            ),
            narrative_path=str(FIXTURES / "synthetic_narrative.json"),
        )
        transcript = run_simulation(config, network=Network.from_edges(2, [(0, 1)]))
        assert len(transcript.records) == 1
        record = transcript.records[0]
        assert not record.match
        assert (record.points_a, record.points_b) == (0, 0)

    def test_scoring_invariant_on_random_run(self):
        transcript = run_simulation(make_mock_config(n=10, rounds=6, seed=5))
        assert transcript.records
        for record in transcript.records:
            assert record.match == (record.hashtag_a.normalized == record.hashtag_b.normalized)
            expected = 1 if record.match else 0
            assert (record.points_a, record.points_b) == (expected, expected)
            assert record.agent_a < record.agent_b

    def test_canonical_record_order(self):
        transcript = run_simulation(make_mock_config(n=12, rounds=4, seed=1))
        keys = [(r.round, r.agent_a) for r in transcript.records]
        assert keys == sorted(keys)
        assert {r.round for r in transcript.records} == set(range(1, 5))

    def test_parallelism_does_not_change_bytes(self, tmp_path):
        config = make_mock_config(n=12, rounds=8, seed=3)
        path_serial = tmp_path / "serial.jsonl"
        path_parallel = tmp_path / "parallel.jsonl"
        run_simulation(config, out_path=path_serial)
        run_simulation(replace(config, parallelism=8), out_path=path_parallel)
        assert path_serial.read_bytes() == path_parallel.read_bytes()

    def test_repeat_run_identical_bytes(self, tmp_path):
        config = make_mock_config(n=8, rounds=5, seed=11)
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_simulation(config, out_path=first)
        run_simulation(config, out_path=second)
        assert first.read_bytes() == second.read_bytes()

    def test_replay_reproduces_records(self, tmp_path):
        config = make_mock_config(n=8, rounds=6, seed=2)
        source = tmp_path / "source.jsonl"
        original = run_simulation(config, out_path=source)
        replay_config = replace(
            config,
            agents=tuple(
                AgentSpec(i, "replay", {"transcript": str(source)}) for i in range(8)
            ),
        )
        replayed = run_simulation(replay_config)
        assert replayed.records == original.records

    def test_imitate_agents_converge_on_complete_graph(self):
        lexicon = ["#one", "#two", "#three", "#four", "#five"]
        config = RunConfig(
            topology=TopologySpec(n=20, k=4, p=0.1),
            rounds=40,
            agents=tuple(AgentSpec(i, "mock", {"strategy": "imitate", "lexicon": lexicon}) for i in range(20)),
            narrative_path=str(FIXTURES / "synthetic_narrative.json"),
            seed=11,
        )
        transcript = run_simulation(config, network=Network.complete(20))
        from hashnet import round_distribution, shannon_entropy

        final = round_distribution(transcript, 40)
        assert shannon_entropy(final) == 0.0
        assert len(final.counts) == 1

    def test_match_on_raw_scores_literal_strings(self):
        def config_for(match_on):
            return RunConfig(
                topology=TopologySpec(n=2, k=2, p=0.0),
                rounds=1,
                agents=(
                    AgentSpec(0, "mock", {"strategy": "constant:#X!"}),
                    AgentSpec(1, "mock", {"strategy": "constant:#x"}),
                ),
                narrative_path=str(FIXTURES / "synthetic_narrative.json"),
                match_on=match_on,
            )

        edge = Network.from_edges(2, [(0, 1)])
        normalized = run_simulation(config_for("normalized"), network=edge)
        assert normalized.records[0].match
        literal = run_simulation(config_for("raw"), network=edge)
        assert not literal.records[0].match

    def test_engine_sends_the_prompts_build_prompt_renders(self, monkeypatch):
        # the engine's requests and build_prompt share one renderer, so both
        # are checked against the independent oracle over rows taken straight
        # from the records
        sent = {}

        class Spy:
            def __init__(self, inner):
                self.inner = inner

            def respond(self, req, rng):
                sent[(req.agent_id, req.round)] = req.prompt
                return self.inner.respond(req, rng)

        build = engine.build_backends
        monkeypatch.setattr(engine, "build_backends", lambda specs: {i: Spy(b) for i, b in build(specs).items()})
        lexicon = ('#say "hi", world', "#x,y", "#plain")
        config = make_mock_config(n=10, rounds=15, k=2, p=0.3, seed=4, lexicon=lexicon)
        transcript = run_simulation(config)
        narrative = load_narrative(config.narrative_path)

        assert len(sent) == 2 * len(transcript.records)
        assert len({agent for agent, round_index in sent if round_index == 15}) < 10  # some agents sit out
        assert any('"#x,y"' in prompt for prompt in sent.values())
        for (agent, round_index), prompt in sent.items():
            before = [r for r in transcript.records if r.round < round_index]
            rows = [(r.round, r.hashtag_a.raw, r.hashtag_b.raw) for r in before if r.agent_a == agent]
            rows += [(r.round, r.hashtag_b.raw, r.hashtag_a.raw) for r in before if r.agent_b == agent]
            expected = prompt_reference(round_index, sorted(rows), narrative.full_text)
            assert prompt == expected
            assert build_prompt(agent, round_index, Transcript(transcript.header, before), narrative) == expected

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_mock_run_renders_no_prompt(self, monkeypatch, parallelism):
        config = make_mock_config(n=10, rounds=8, seed=6, lexicon=('#say "hi", world', "#x,y", "#plain"),
                                  parallelism=parallelism)
        expected = run_simulation(config).records

        def refuse(*args):
            raise AssertionError("a mock run rendered a prompt")

        for owner, name in ((agents, "render_prompt"), (engine, "render_prompt"), (agents, "render_interaction_row")):
            monkeypatch.setattr(owner, name, refuse)
        assert run_simulation(config).records == expected

    def test_mock_run_never_imports_requests(self):
        # requests loads with the first remote backend, never at import time
        code = (
            "import sys\n"
            "import hashnet\n"
            "agents = tuple(hashnet.AgentSpec(i, 'mock', {'strategy': 'imitate', 'lexicon': ['#a', '#b']})"
            " for i in range(6))\n"
            "hashnet.run_simulation(hashnet.RunConfig(hashnet.TopologySpec(n=6, k=2, p=0.1), 3, agents,"
            " 'bundled:fukushima', parallelism=2))\n"
            "assert 'requests' not in sys.modules, 'requests was imported'\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr

    def test_remote_run_sends_the_oracle_prompt(self, stub_server):
        # each agent names its own model, so the stub's log says who asked;
        # at parallelism 1 an agent's requests arrive in round order
        n, rounds = 4, 4
        stub_server.script.extend(['#a,"b', "#Storm", "#storm!", "#x"] * 2)
        config = RunConfig(
            topology=TopologySpec(n=n, k=2, p=0.0),
            rounds=rounds,
            agents=tuple(
                AgentSpec(i, "remote", {"base_url": stub_server.base_url, "model": f"agent-{i}", "backoff": 0.0})
                for i in range(n)
            ),
            narrative_path=str(FIXTURES / "synthetic_narrative.json"),
        )
        transcript = run_simulation(config, network=Network.complete(n))
        event_text = load_narrative(config.narrative_path).full_text
        assert any('"#a,""b"' in payload["messages"][0]["content"] for _, payload, _ in stub_server.requests)
        for agent in range(n):
            sent = [payload["messages"] for _, payload, _ in stub_server.requests
                    if payload["model"] == f"agent-{agent}"]
            rows = []
            for record in transcript.records:
                if agent in (record.agent_a, record.agent_b):
                    prompt = prompt_reference(record.round, rows, event_text)
                    assert sent.pop(0) == [{"role": "user", "content": prompt}]
                    own, other = record.sides()[0 if agent == record.agent_a else 1][2:]
                    rows.append((record.round, own, other))
            assert sent == []

    @given(
        st.lists(st.sampled_from(['#a,"b', "#Fukushima—Daiichi", "#福島", '#say "hi", world']),
                 min_size=1, max_size=4, unique=True),
        st.integers(3, 9),
        st.integers(1, 8),
        st.sampled_from([0.0, 0.3]),
        st.integers(0, 2**32),
        st.sampled_from([1, 4]),
    )
    @settings(max_examples=30, deadline=None)
    def test_request_history_is_the_prompt_table(self, lexicon, n, rounds, p, seed, parallelism):
        # the engine keeps each agent's rendered table and its rows side by
        # side; every request's rows must be a full read of its prompt, and
        # the mock's answer the one those rows give
        seen = []

        class Recording:
            def __init__(self, inner):
                self.inner = inner

            def respond(self, req, rng):
                response = self.inner.respond(req, rng)
                seen.append((req, response.raw_text))
                return response

        build = engine.build_backends
        config = replace(
            make_mock_config(n=n, rounds=rounds, k=2, p=p, seed=seed, lexicon=tuple(lexicon), parallelism=parallelism),
            narrative_path="bundled:fukushima",
        )
        with mock.patch.object(engine, "build_backends", lambda specs: {i: Recording(b) for i, b in build(specs).items()}):
            run_simulation(config)
        assert seen
        for req, answer in seen:
            rows = parse_interaction_table(req.prompt)
            assert rows == list(req.history)
            assert req.round > 1 or req.history == ()
            assert answer == mock_imitate(rows, lexicon, rng_streams.agent_rng(seed, req.round, req.agent_id))

    def test_unmatched_agents_gain_no_history(self):
        # path graph: one agent sits out every round
        config = replace(make_mock_config(n=3, rounds=4, strategy="constant:#s"), topology=TopologySpec(n=3, k=2, p=0.0))
        network = Network.from_edges(3, [(0, 1), (1, 2)])
        transcript = run_simulation(config, network=network)
        for round_index in range(1, 5):
            assert len(transcript.records_for_round(round_index)) == 1
        histories = [transcript.agent_history(i) for i in range(3)]
        assert sum(len(h) for h in histories) == 8  # 4 rounds x 2 participants


class TestAgentRng:
    @staticmethod
    def count_builds(monkeypatch) -> list[tuple[int, int, int]]:
        builds = []
        build = rng_streams.agent_rng

        def counted(*key):
            builds.append(key)
            return build(*key)

        monkeypatch.setattr(rng_streams, "agent_rng", counted)
        return builds

    def test_imitate_run_builds_each_agent_generator_at_most_once(self, monkeypatch):
        builds = self.count_builds(monkeypatch)
        run_simulation(make_mock_config(n=6, rounds=10, seed=3))
        agents = [agent for _, _, agent in builds]
        assert agents  # an imitate agent facing an empty table draws
        assert len(agents) == len(set(agents)) <= 6

    def test_constant_run_builds_none(self, monkeypatch):
        builds = self.count_builds(monkeypatch)
        run_simulation(make_mock_config(n=6, rounds=10, strategy="constant:#c"))
        assert builds == []

    @given(st.integers(0, 2**64 - 1), st.integers(1, 10**6), st.integers(0, 10**4), st.integers(1, 2**62))
    @settings(max_examples=50, deadline=None)
    def test_lazy_handle_draws_the_same_stream(self, seed, round_index, agent, high):
        lazy = rng_streams.LazyAgentRng(seed, round_index, agent)
        eager = rng_streams.agent_rng(seed, round_index, agent)
        assert lazy.integers(high, size=4).tolist() == eager.integers(high, size=4).tolist()
        assert int(lazy.integers(high)) == int(eager.integers(high))


class TestFallbacks:
    def _one_remote_config(self, stub_url, n=4, rounds=2, retries=3):
        agents = [AgentSpec(i, "mock", {"strategy": "constant:#y"}) for i in range(n - 1)]
        agents.append(
            AgentSpec(
                n - 1,
                "remote",
                {
                    "base_url": stub_url,
                    "model": "stub",
                    "max_retries": retries,
                    "backoff": 0.01,
                    "timeout": 5.0,
                },
            )
        )
        return RunConfig(
            topology=TopologySpec(n=n, k=2, p=0.0),
            rounds=rounds,
            agents=tuple(agents),
            narrative_path=str(FIXTURES / "synthetic_narrative.json"),
        )

    def test_failed_backend_substitutes_previous_guess(self, stub_server):
        # round 1 succeeds with #y (match), round 2 exhausts retries
        stub_server.script.extend(["#y", 500, 500, 500])
        config = self._one_remote_config(stub_server.base_url)
        transcript = run_simulation(config, network=Network.complete(4))
        flagged = [r for r in transcript.records if r.fallback_a or r.fallback_b]
        assert len(flagged) == 1
        record = flagged[0]
        assert record.round == 2
        failed_raw = record.raw_b if record.fallback_b else record.raw_a
        assert failed_raw == "#y"
        assert record.match  # substitute equals the constant partners
        assert transcript.abort is None

    def test_round_one_failure_uses_sentinel(self, stub_server):
        stub_server.script.extend([500, 500, 500])
        config = self._one_remote_config(stub_server.base_url, rounds=1)
        transcript = run_simulation(config, network=Network.complete(4))
        flagged = [r for r in transcript.records if r.fallback_a or r.fallback_b]
        assert len(flagged) == 1
        record = flagged[0]
        failed_raw = record.raw_b if record.fallback_b else record.raw_a
        assert failed_raw == "#noresponse"
        assert not record.match

    def test_unparseable_response_flags_fallback(self, stub_server):
        stub_server.script.append("   \n  ")  # whitespace only: parse error
        config = self._one_remote_config(stub_server.base_url, rounds=1)
        transcript = run_simulation(config, network=Network.complete(4))
        flagged = [r for r in transcript.records if r.fallback_a or r.fallback_b]
        assert len(flagged) == 1
        record = flagged[0]
        raw = record.raw_b if record.fallback_b else record.raw_a
        assert raw.strip() == ""  # backend text kept byte-exact
        tag = record.hashtag_b if record.fallback_b else record.hashtag_a
        assert tag.raw == "#noresponse"
        assert transcript.abort is None

    def test_guess_without_letter_or_digit_flags_fallback(self):
        agents = [AgentSpec(0, "mock", {"strategy": "constant:— …"})]
        agents += [AgentSpec(i, "mock", {"strategy": "constant:#x"}) for i in range(1, 4)]
        config = RunConfig(
            topology=TopologySpec(n=4, k=2, p=0.0),
            rounds=3,
            agents=tuple(agents),
            narrative_path=str(FIXTURES / "synthetic_narrative.json"),
        )
        transcript = run_simulation(config, network=Network.complete(4))
        for record in transcript.records:
            for agent, raw, tag, fell_back in (
                (record.agent_a, record.raw_a, record.hashtag_a, record.fallback_a),
                (record.agent_b, record.raw_b, record.hashtag_b, record.fallback_b),
            ):
                assert fell_back == (agent == 0)
                if agent == 0:
                    assert (raw, tag.raw) == ("— …", "#noresponse")
                    assert not record.match
        assert transcript.abort is None

    def test_majority_unavailable_aborts_with_marker(self, tmp_path):
        agents = tuple(
            AgentSpec(
                i,
                "remote",
                {"base_url": "http://127.0.0.1:1/v1", "model": "m", "max_retries": 1, "timeout": 0.3},
            )
            for i in range(4)
        )
        config = RunConfig(
            topology=TopologySpec(n=4, k=2, p=0.0),
            rounds=3,
            agents=agents,
            narrative_path=str(FIXTURES / "synthetic_narrative.json"),
        )
        out = tmp_path / "aborted.jsonl"
        transcript = run_simulation(config, network=Network.complete(4), out_path=out)
        assert transcript.abort is not None
        assert transcript.abort["round"] == 1
        assert transcript.rounds_completed() == 1  # round 1 records retained

        reloaded = read_transcript(out)
        assert reloaded.abort == transcript.abort
        assert len(reloaded.records) == len(transcript.records)


class TestTranscriptIO:
    def test_write_read_round_trip(self, tmp_path):
        transcript = run_simulation(make_mock_config(n=6, rounds=3, seed=9))
        path = tmp_path / "t.jsonl"
        write_transcript(transcript, path)
        reloaded = read_transcript(path)
        assert reloaded.header == transcript.header
        assert reloaded.records == transcript.records
        assert reloaded.abort is None

    def test_record_field_order_fixed(self, tmp_path):
        path = tmp_path / "t.jsonl"
        run_simulation(make_mock_config(n=6, rounds=1, seed=0), out_path=path)
        lines = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        assert list(record) == [
            "round", "agent_a", "agent_b", "raw_a", "raw_b",
            "hashtag_a", "hashtag_b", "match", "points_a", "points_b",
            "fallback_a", "fallback_b",
        ]

    def test_header_fields(self, tmp_path):
        path = tmp_path / "t.jsonl"
        config = make_mock_config(n=6, rounds=1, seed=4)
        run_simulation(config, out_path=path)
        header = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        assert list(header) == ["run_id", "config", "seed", "narrative_id", "network_edges", "timestamp"]
        assert header["seed"] == 4
        assert header["narrative_id"] == "synthetic-grid"
        assert header["timestamp"] == "1970-01-01T00:00:00Z"  # deterministic backends
        assert header["run_id"] == config_digest(config_snapshot(config))[:12]
        assert len(header["network_edges"]) == 6 * 4 // 2

    def test_noncontiguous_rounds_rejected(self, tmp_path):
        transcript = run_simulation(make_mock_config(n=6, rounds=3, seed=9))
        records = transcript.records
        assert records[0].round == records[1].round == 1
        bad_orders = {
            "round gap": [r for r in records if r.round != 2],
            "swapped within a round": [records[1], records[0], *records[2:]],
            "repeated record": [records[0], *records],
            "first round 0": [replace(r, round=r.round - 1) for r in records],
            "first round 2": [replace(r, round=r.round + 1) for r in records],
        }
        for name, bad in bad_orders.items():
            path = tmp_path / f"{name.replace(' ', '_')}.jsonl"
            write_transcript(replace(transcript, records=bad), path)
            with pytest.raises(TranscriptError, match="out of order"):
                read_transcript(path)

    @pytest.mark.parametrize("line,edit,message", [
        (0, lambda doc: [1, 2], "line 1: header must be a JSON object"),
        (1, lambda doc: [1, 2], "line 2: record must be a JSON object"),
        (1, lambda doc: None, "line 2: record must be a JSON object"),
        (2, lambda doc: {**doc, "hashtag_a": "#x"}, "line 3: hashtag_a must be a JSON object"),
        (2, lambda doc: {**doc, "hashtag_b": "#x"}, "line 3: hashtag_b must be a JSON object"),
        (1, lambda doc: {k: v for k, v in doc.items() if k != "raw_b"}, "line 2: record missing field 'raw_b'"),
        (1, lambda doc: {**doc, "hashtag_a": {"normalized": "x"}}, "line 2: hashtag_a missing field 'raw'"),
        (2, lambda doc: {**doc, "hashtag_b": {"raw": "#x"}}, "line 3: hashtag_b missing field 'normalized'"),
        (1, lambda doc: {**doc, "match": False, "points_a": 1, "points_b": 0},
         "line 2: points_a 1 contradicts match False"),
        (2, lambda doc: {**doc, "match": True, "points_a": 1, "points_b": 0},
         "line 3: points_b 0 contradicts match True"),
        (0, lambda doc: {**doc, "network_edges": [[0]]}, r"line 1: network_edges must be a list of \[a, b\] pairs"),
    ], ids=["header-array", "record-array", "record-null", "hashtag_a-string", "hashtag_b-string", "missing-field",
            "hashtag_a-missing-raw", "hashtag_b-missing-normalized", "points_a-without-match", "points_b-on-match",
            "header-edge-not-a-pair"])
    def test_malformed_line_rejected_with_its_number(self, tmp_path, line, edit, message):
        path = tmp_path / "t.jsonl"
        run_simulation(make_mock_config(n=6, rounds=2, seed=9), out_path=path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[line] = json.dumps(edit(json.loads(lines[line])))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(TranscriptError, match=message) as caught:
            read_transcript(path)
        assert str(path) in str(caught.value)

    @pytest.mark.parametrize("pair", [(0, 999), (0, 3)], ids=["foreign-agent", "non-edge"])
    def test_pair_outside_the_header_network_rejected(self, tmp_path, pair):
        # a ring of six where each agent neighbors only the next and previous
        path = tmp_path / "t.jsonl"
        run_simulation(make_mock_config(n=6, rounds=2, k=2, p=0.0, seed=9), out_path=path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert list(pair) not in json.loads(lines[0])["network_edges"]
        doc = json.loads(lines[1])
        doc["agent_a"], doc["agent_b"] = pair
        lines[1] = json.dumps(doc)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(TranscriptError, match=rf"line 2: pair \(0, {pair[1]}\) is not an edge") as caught:
            read_transcript(path)
        assert str(path) in str(caught.value)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(TranscriptError):
            read_transcript(path)
