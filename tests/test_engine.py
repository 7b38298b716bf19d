"""Prompt construction, response parsing, scoring, and run orchestration."""

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hashnet import (
    AgentSpec,
    ConfigError,
    Hashtag,
    InteractionRecord,
    Network,
    ParseError,
    ReplayGapError,
    RunConfig,
    TopologySpec,
    Transcript,
    TranscriptError,
    build_prompt,
    load_narrative,
    metric_series,
    mock_imitate,
    normalize_hashtag,
    parse_response,
    rank_abundance,
    read_transcript,
    run_simulation,
    write_transcript,
)
import hashnet
from hashnet import agents, engine
from hashnet import rng as rng_streams
from hashnet.agents import SCORING_PARAGRAPH, History, parse_interaction_table
from hashnet.engine import config_digest, config_snapshot, extend_histories
from hashnet.errors import NOT_UNICODE

from conftest import DIGIT_LIMIT, FIXTURES, LONG_INTEGER, NESTED_ARRAYS, REPO, make_mock_config
from oracles import mock_run_bytes, prompt_reference


def make_record(round_index, a, b, raw_a, raw_b, fb_a=False, fb_b=False):
    tag_a, tag_b = Hashtag.from_raw(raw_a), Hashtag.from_raw(raw_b)
    match = tag_a.normalized == tag_b.normalized
    return InteractionRecord(
        round=round_index, agent_a=a, agent_b=b, raw_a=raw_a, raw_b=raw_b,
        hashtag_a=tag_a, hashtag_b=tag_b, match=match,
        points_a=int(match), points_b=int(match), fallback_a=fb_a, fallback_b=fb_b,
    )


# Raw hashtags the engine never writes but the reader takes as they are:
# CSV-hostile and non-ASCII text, text that normalizes to nothing, and text
# JSON must escape (quotes, backslashes, control characters) or may leave
# as is (U+2028, which str.splitlines would split on).
HOSTILE_RAW = st.one_of(
    st.sampled_from(["#a", "#A!", "a b", '#x,"y"', "#福島", "#Straße", "###", "", "\r\n", "#noresponse",
                     '#a\\"b', "#a\u2028b", "\x00\x1f\x7f"]),
    st.text(st.one_of(st.sampled_from('#",\r\n Aa1\\\u2028\x00'), st.characters(blacklist_categories=("Cs",))),
            max_size=6),
)


@st.composite
def hostile_transcripts(draw):
    """Transcripts the reader accepts: agents 2j and 2j+1 pair in every round
    over a header network of those edges, each side's hashtag comes from
    ``Hashtag.from_raw`` of a ``HOSTILE_RAW`` text, and each side may be a
    fallback, and a fallback side unavailable."""
    pairs, rounds = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    records = [
        make_record(r, 2 * j, 2 * j + 1, draw(HOSTILE_RAW), draw(HOSTILE_RAW), draw(st.booleans()), draw(st.booleans()))
        for r in range(1, rounds + 1)
        for j in range(pairs)
    ]
    records = [record._replace(unavailable_a=record.fallback_a and draw(st.booleans()),
                               unavailable_b=record.fallback_b and draw(st.booleans())) for record in records]
    return Transcript(header={"run_id": "hostile", "network_edges": [[2 * j, 2 * j + 1] for j in range(pairs)]},
                      records=records)


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
        run_simulation(config._replace(parallelism=8), out_path=path_parallel)
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
        replay_config = config._replace(
            agents=tuple(
                AgentSpec(i, "replay", {"transcript": str(source)}) for i in range(8)
            ),
        )
        replayed = run_simulation(replay_config)
        assert replayed.records == original.records

    def test_replay_reproduces_fallbacks_of_an_unavailable_backend(self, tmp_path):
        # one remote agent on a closed port among 19 imitate mocks
        remote = {"base_url": "http://127.0.0.1:1/v1", "model": "m", "max_retries": 1, "backoff": 0}
        config = make_mock_config(n=20, rounds=6, seed=7)
        config = config._replace(agents=(AgentSpec(0, "remote", remote), *config.agents[1:]))
        source = tmp_path / "source.jsonl"
        original = run_simulation(config, out_path=source)
        assert original.fallback_count() > 0 and original.abort is None
        replay_config = config._replace(agents=tuple(AgentSpec(i, "replay", {"transcript": str(source)})
                                                    for i in range(20)))
        assert run_simulation(replay_config).records == original.records

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

    @given(
        st.lists(st.text(st.sampled_from('#ab,"\r\n '), min_size=1, max_size=6), min_size=1, max_size=4, unique=True),
        st.integers(3, 10),
        st.sampled_from([2, 4]),
        st.sampled_from([0.0, 0.3, 1.0]),
        st.integers(1, 8),
        st.integers(0, 2**32),
        st.sampled_from([1, 4]),
    )
    @example(lexicon=['#say "hi", world', "#x,y", "#plain"], n=10, k=2, p=0.3, rounds=15, seed=4, parallelism=1)
    @settings(max_examples=25, deadline=None)
    def test_engine_sends_the_prompts_build_prompt_renders(self, lexicon, n, k, p, rounds, seed, parallelism):
        # every request carries the fold of the records before its round,
        # and the prompt it renders and build_prompt's both equal the
        # independent oracle over rows taken straight from the records
        assume(k < n)
        sent = {}

        class Recording:
            def __init__(self, inner):
                self.inner = inner

            def respond(self, req, rng):
                sent[(req.agent_id, req.round)] = req
                return self.inner.respond(req, rng)

        build = engine.build_backends
        recording = lambda specs: {i: Recording(b) for i, b in build(specs).items()}  # noqa: E731
        config = make_mock_config(n=n, rounds=rounds, k=k, p=p, seed=seed, lexicon=tuple(lexicon),
                                  parallelism=parallelism)
        with mock.patch.object(engine, "build_backends", recording):
            transcript = run_simulation(config)
        narrative = load_narrative(config.narrative_path)

        assert len(sent) == 2 * len(transcript.records)
        for (agent, round_index), req in sent.items():
            before = [r for r in transcript.records if r.round < round_index]
            rows = [(r.round, r.hashtag_a.raw, r.hashtag_b.raw) for r in before if r.agent_a == agent]
            rows += [(r.round, r.hashtag_b.raw, r.hashtag_a.raw) for r in before if r.agent_b == agent]
            assert req.history == extend_histories({}, before).get(agent, ()) == tuple(sorted(rows))
            expected = prompt_reference(round_index, sorted(rows), narrative.full_text)
            assert req.prompt == expected
            assert build_prompt(agent, round_index, Transcript(transcript.header, before), narrative) == expected
        if rounds == 15:  # the pinned example: some agents sit out, and some cells are quoted
            assert len({agent for agent, round_index in sent if round_index == 15}) < 10
            assert any('"#x,y"' in req.prompt for req in sent.values())

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_mock_run_renders_no_prompt(self, monkeypatch, parallelism):
        config = make_mock_config(n=10, rounds=8, seed=6, lexicon=('#say "hi", world', "#x,y", "#plain"),
                                  parallelism=parallelism)
        expected = run_simulation(config).records

        def refuse(*args):
            raise AssertionError("a mock run rendered a prompt")

        for owner, name in ((agents, "render_prompt"), (engine, "render_prompt"), (agents, "render_interaction_table")):
            monkeypatch.setattr(owner, name, refuse)
        assert run_simulation(config).records == expected

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_mock_memo_never_walks_a_history(self, monkeypatch, parallelism):
        # each request's history shares its agent's row list with the
        # snapshot the mock's memo kept, so the memo checks it and tallies
        # its new row without iterating or slicing a History
        config = make_mock_config(n=10, rounds=8, seed=6, lexicon=('#say "hi", world', "#x,y", "#plain"),
                                  parallelism=parallelism)
        expected = run_simulation(config).records
        index = History.__getitem__

        def refuse_iter(self):
            raise AssertionError("a mock run iterated a history")

        def refuse_slice(self, key):
            if isinstance(key, slice):
                raise AssertionError("a mock run sliced a history")
            return index(self, key)

        monkeypatch.setattr(History, "__iter__", refuse_iter)
        monkeypatch.setattr(History, "__getitem__", refuse_slice)
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
                    own, other = (record.hashtag_a.raw, record.hashtag_b.raw)[::1 if agent == record.agent_a else -1]
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
        config = make_mock_config(
            n=n, rounds=rounds, k=2, p=p, seed=seed, lexicon=tuple(lexicon), parallelism=parallelism,
        )._replace(narrative_path="bundled:fukushima")
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
        config = make_mock_config(n=3, rounds=4, strategy="constant:#s")._replace(topology=TopologySpec(n=3, k=2, p=0.0))
        network = Network.from_edges(3, [(0, 1), (1, 2)])
        transcript = run_simulation(config, network=network)
        for round_index in range(1, 5):
            assert len(transcript.records_for_round(round_index)) == 1
        histories = extend_histories({}, transcript.records)
        assert sum(len(h) for h in histories.values()) == 8  # 4 rounds x 2 participants

    @given(
        st.integers(3, 12),
        st.sampled_from([2, 4, 6]),
        st.sampled_from([0.0, 0.3, 1.0]),
        st.integers(1, 6),
        st.integers(0, 2**32),
        st.sampled_from([1, 4]),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_written_round_reads_back_whole(self, n, k, p, rounds, seed, parallelism):
        # the reader checks each round is a maximal matching with no agent
        # paired twice; no legal run may trip that check
        assume(k < n)
        config = make_mock_config(n=n, k=k, p=p, rounds=rounds, seed=seed, parallelism=parallelism)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "t.jsonl")
            written = run_simulation(config, out_path=path)
            transcript = read_transcript(path)
        assert not transcript.partial
        assert transcript.records == written.records
        assert transcript.rounds_completed() == rounds

    def test_library_path_refuses_a_lone_surrogate_before_opening_a_file(self, tmp_path):
        # the parser's rule on the RunConfig itself, named by its path there
        config = RunConfig(
            topology=TopologySpec(n=4, k=2, p=0.0),
            rounds=2,
            agents=tuple(AgentSpec(i, "mock", {"strategy": "imitate", "lexicon": ["#ok\ud800"]}) for i in range(4)),
            narrative_path="bundled:fukushima",
        )
        out = tmp_path / "run.jsonl"
        with pytest.raises(ConfigError) as caught:
            run_simulation(config, out_path=out)
        assert caught.value.field == "agents[0].backend_params.lexicon[0]"
        assert caught.value.message == NOT_UNICODE
        assert not out.exists()


class TestWholeRun:
    @given(
        st.lists(st.text(st.sampled_from('#ab,"\r\n '), min_size=1, max_size=6), min_size=1, max_size=4, unique=True),
        st.integers(3, 10),
        st.sampled_from([2, 4, 6]),
        st.sampled_from([0.0, 0.3, 1.0]),
        st.integers(1, 6),
        st.integers(0, 2**64 - 1),
        st.booleans(),
    )
    @example(lexicon=["#a"], n=3, k=2, p=0.0, rounds=4, seed=2**64 - 1, remote=True)  # aborts in round 1
    @settings(max_examples=20, deadline=None)
    def test_simulate_read_metrics_and_replay_agree(self, lexicon, n, k, p, rounds, seed, remote):
        # a run is the same file at parallelism 1 and 4, reads back to the
        # records it returned, gives the same metrics from disk, and replays
        # to the same lines; with a remote agent on a closed port, that
        # agent is unavailable whenever it is paired, and the run may abort
        assume(k < n)
        config = make_mock_config(n=n, k=k, p=p, rounds=rounds, seed=seed, lexicon=tuple(lexicon))
        if remote:
            closed = AgentSpec(0, "remote", {"base_url": "http://127.0.0.1:1/v1", "model": "m",
                                             "max_retries": 1, "backoff": 0})
            config = config._replace(agents=(closed, *config.agents[1:]))
        with tempfile.TemporaryDirectory() as tmp:
            paths = [Path(tmp, f"p{parallelism}.jsonl") for parallelism in (1, 4)]
            written = [run_simulation(config._replace(parallelism=parallelism), out_path=path)
                       for parallelism, path in zip((1, 4), paths)]
            replay = tuple(AgentSpec(i, "replay", {"transcript": str(paths[0])}) for i in range(n))
            replayed_path = Path(tmp, "replayed.jsonl")
            run_simulation(config._replace(agents=replay), out_path=replayed_path)
            lines = [path.read_bytes().splitlines(keepends=True) for path in (*paths, replayed_path)]
            transcript = read_transcript(paths[0])

        memory = written[0]
        assert written[1].records == memory.records and written[1].abort == memory.abort
        # the header holds the wall-clock time when an agent is remote, and the
        # replay's names its own backends; every line after it is the same bytes
        assert lines[0] == lines[1] or remote
        assert lines[0][1:] == lines[1][1:] == lines[2][1:]
        assert transcript.records == memory.records and transcript.abort == memory.abort
        assert (memory.abort is not None) <= remote

        by_round = [[r for r in memory.records if r.round == i] for i in range(1, memory.rounds_completed() + 1)]
        for read in (transcript, memory):
            assert read.rounds() == by_round
            assert [read.records_for_round(i) for i in range(memory.rounds_completed() + 2)] == [[], *by_round, []]
        for metric in ("entropy", "dominant_share"):
            assert metric_series(transcript, metric) == metric_series(memory, metric)
        assert rank_abundance(transcript) == rank_abundance(memory)


# Mock words: quotes, backslashes, commas, line ends, non-ASCII letters and
# U+2028 around hashtags, and words that fail to parse ("", "!!", "##").
_MOCK_WORD = st.one_of(
    st.text(st.sampled_from('#aB,"\\\r\n é福ß\u2028'), max_size=6),
    st.sampled_from(["#Setsuden", "#a", "!!", "##", "", " ", "#\u2028b", '#x"y', "#a\\b", "#a,\r\nb"]),
)


class TestMockLoopOracle:
    @given(
        st.lists(_MOCK_WORD, min_size=1, max_size=4),
        st.lists(st.none() | _MOCK_WORD.filter(bool), min_size=12, max_size=12),
        st.integers(3, 12),
        st.sampled_from([2, 4, 6]),
        st.sampled_from([0.0, 0.2, 1.0]),
        st.integers(1, 7),
        st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_run_writes_the_naive_loops_bytes(self, lexicon, constants, n, k, p, rounds, seed):
        # imitate agents (None) beside constant ones: the file is the oracle's bytes at parallelism 1 and 4
        assume(k < n)
        agents = tuple(AgentSpec(i, "mock", {"strategy": "imitate", "lexicon": lexicon} if text is None
                                 else {"strategy": f"constant:{text}"}) for i, text in enumerate(constants[:n]))
        narrative = FIXTURES / "synthetic_narrative.json"
        config = RunConfig(TopologySpec(n=n, k=k, p=p), rounds, agents, str(narrative), seed=seed)
        expected = mock_run_bytes(hashnet, config, json.loads(narrative.read_text(encoding="utf-8"))["id"])
        with tempfile.TemporaryDirectory() as tmp:
            for parallelism in (1, 4):
                path = Path(tmp, f"p{parallelism}.jsonl")
                run_simulation(config._replace(parallelism=parallelism), out_path=path)
                assert path.read_bytes() == expected


class TestAgentRng:
    @staticmethod
    def count_builds(monkeypatch) -> list[tuple[int, int, int]]:
        """(seed, round, agent) of each per-agent stream that builds its state."""
        builds = []
        build = rng_streams.Stream._build

        def counted(stream):
            entropy, key = stream._seed
            if key[:1] == (rng_streams._AGENT_STREAM,):
                builds.append((entropy, *key[1:]))
            return build(stream)

        monkeypatch.setattr(rng_streams.Stream, "_build", counted)
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

    @given(st.integers(0, 2**64 - 1), st.integers(1, 10**6), st.integers(0, 10**4), st.integers(1, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_lazy_handle_draws_the_same_stream(self, seed, round_index, agent, high):
        # the stream the engine hands a backend draws what agent_rng's numpy generator draws
        lazy = rng_streams.agent_stream(seed, round_index, agent)
        eager = rng_streams.agent_rng(seed, round_index, agent)
        assert [lazy.integers(high) for _ in range(4)] == eager.integers(high, size=4).tolist()
        assert lazy.integers(high) == int(eager.integers(high))


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

    @pytest.mark.parametrize("content", ["#ok\ud800", "\udfff", "#a \ud83d b"], ids=["trailing", "alone", "inside"])
    def test_reply_that_is_not_unicode_text_is_malformed(self, stub_server, tmp_path, content):
        # legal JSON, but no transcript can hold it: each attempt is malformed, so the side falls back
        stub_server.script.extend([content] * 3)
        out_path = tmp_path / "transcript.jsonl"
        config = self._one_remote_config(stub_server.base_url)
        transcript = run_simulation(config, out_path=out_path, network=Network.complete(4))
        assert len(stub_server.requests) == 4  # three attempts in round 1, then the stub's '#stub' in round 2
        flagged = [r for r in transcript.records if r.fallback_a or r.fallback_b]
        assert [(r.round, r.unavailable_a or r.unavailable_b) for r in flagged] == [(1, True)]
        assert transcript.abort is None
        assert read_transcript(out_path) == transcript

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


class TestCrashMarker:
    """An exception that escapes a round after the header is written leaves
    an abort marker naming it, then propagates."""

    @staticmethod
    def crashing(fail_round: int, message: str):
        build = engine.build_backends

        class Crashing:
            def __init__(self, inner):
                self.inner = inner

            def respond(self, req, rng):
                if req.round == fail_round:
                    raise RuntimeError(message)
                return self.inner.respond(req, rng)

        return mock.patch.object(engine, "build_backends",
                                 lambda specs: {i: Crashing(b) for i, b in build(specs).items()})

    @pytest.mark.parametrize("parallelism", [1, 4])
    @pytest.mark.parametrize("fail_round", [1, 3])
    def test_crash_leaves_a_marker_naming_it(self, tmp_path, fail_round, parallelism):
        config = make_mock_config(n=8, rounds=5, seed=2, parallelism=parallelism)
        out = tmp_path / "crashed.jsonl"
        with self.crashing(fail_round, "backend exploded"), pytest.raises(RuntimeError, match="backend exploded"):
            run_simulation(config, out_path=out)
        reloaded = read_transcript(out)
        assert reloaded.abort == {"abort": True, "round": fail_round, "reason": "RuntimeError: backend exploded"}
        assert not reloaded.partial
        assert reloaded.rounds_completed() == fail_round - 1
        finished = run_simulation(config._replace(rounds=fail_round - 1)).records if fail_round > 1 else []
        assert reloaded.records == finished

    def test_a_reason_utf8_cannot_hold_is_escaped(self, tmp_path):
        out = tmp_path / "crashed.jsonl"
        with self.crashing(1, "bad \ud800 text"), pytest.raises(RuntimeError):
            run_simulation(make_mock_config(n=4, k=2, rounds=2), out_path=out)
        assert read_transcript(out).abort["reason"] == "RuntimeError: bad \\ud800 text"

    def test_replay_gap_marker_keeps_its_bytes(self, tmp_path):
        config = make_mock_config(n=6, rounds=2, seed=4)
        source = tmp_path / "source.jsonl"
        run_simulation(config, out_path=source)
        replay = tuple(AgentSpec(i, "replay", {"transcript": str(source)}) for i in range(6))
        out = tmp_path / "replayed.jsonl"
        with pytest.raises(ReplayGapError) as caught:
            run_simulation(config._replace(rounds=3, agents=replay), out_path=out)
        assert str(caught.value).startswith("no recorded response for agent ")
        last = out.read_text(encoding="utf-8").splitlines()[-1]
        assert last == json.dumps({"abort": True, "round": 3, "reason": str(caught.value)}, ensure_ascii=False)


class CountingList(list):
    """A list that counts the elements read from it by index, slice or iteration."""

    visits = 0

    def __getitem__(self, key):
        found = super().__getitem__(key)
        self.visits += len(found) if isinstance(key, slice) else 1
        return found

    def __iter__(self):
        for item in super().__iter__():
            self.visits += 1
            yield item


class TestRoundLookup:
    @pytest.fixture
    def transcripts(self, tmp_path):
        config = make_mock_config(n=10, rounds=4, seed=11)
        path = tmp_path / "full.jsonl"
        full = run_simulation(config, out_path=path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        cut = tmp_path / "partial.jsonl"
        cut.write_text("".join(lines[:-2]), encoding="utf-8")
        partial = read_transcript(cut)
        # replaying past the recorded rounds ends the file with an abort marker
        replay = tuple(AgentSpec(i, "replay", {"transcript": str(path)}) for i in range(10))
        with pytest.raises(ReplayGapError):
            run_simulation(config._replace(rounds=6, agents=replay), out_path=tmp_path / "aborted.jsonl")
        aborted = read_transcript(tmp_path / "aborted.jsonl")
        assert partial.partial and aborted.abort is not None and not full.partial
        return {"full": full, "partial": partial, "aborted": aborted}

    def test_each_round_reads_as_its_group(self, transcripts):
        for name, transcript in transcripts.items():
            groups = transcript.rounds()
            assert len(groups) == (3 if name == "partial" else 4)
            for round_index in range(-1, 8):
                expected = groups[round_index - 1] if 1 <= round_index <= len(groups) else []
                assert transcript.records_for_round(round_index) == expected, (name, round_index)

    def test_reading_every_round_visits_each_record_about_once(self):
        # each record once, in its round's slice, plus two bisections per round
        transcript = run_simulation(make_mock_config(n=20, rounds=100, seed=3))
        records = CountingList(transcript.records)
        counted = Transcript(transcript.header, records)
        assert [counted.records_for_round(r) for r in range(1, 101)] == transcript.rounds()
        assert records.visits <= len(records) + 100 * 4 * len(records).bit_length()


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

    def test_unavailable_key_written_only_when_true(self):
        record = make_record(1, 0, 1, "#a", "#b", fb_a=True, fb_b=True)
        assert "unavailable_a" not in record.to_dict() and "unavailable_b" not in record.to_dict()
        doc = record._replace(unavailable_b=True).to_dict()
        assert list(doc)[-3:] == ["fallback_a", "fallback_b", "unavailable_b"] and doc["unavailable_b"] is True
        assert InteractionRecord.from_dict(doc) == record._replace(unavailable_b=True)

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

    @pytest.mark.parametrize("bad", [b"\xff", b"\xc3(", b"\xe2\x82"], ids=["start-byte", "continuation", "truncated"])
    def test_line_not_utf8_is_named(self, tmp_path, bad):
        # the bad bytes sit far past the reader's first chunk, inside a string on line 80
        path = tmp_path / "t.jsonl"
        write_transcript(run_simulation(make_mock_config(n=6, rounds=30, seed=9)), path)
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) > 80 and len(b"".join(lines[:79])) > 16384
        lines[79] = lines[79].replace(b'"raw_a": "', b'"raw_a": "' + bad, 1)
        path.write_bytes(b"".join(lines))
        with pytest.raises(TranscriptError, match=re.escape(f"{path}: line 80: not UTF-8 text (")):
            read_transcript(path)

    def test_first_bad_line_in_file_order_is_named(self, tmp_path):
        # invalid JSON on line 3 comes before a bad byte on line 5, whatever each fault is
        path = tmp_path / "t.jsonl"
        run_simulation(make_mock_config(n=6, rounds=3, seed=9), out_path=path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = b"{" + lines[2]
        lines[4] = lines[4].replace(b'"raw_a": "', b'"raw_a": "\xff', 1)
        path.write_bytes(b"".join(lines))
        with pytest.raises(TranscriptError, match=re.escape(f"{path}: line 3: invalid JSON")):
            read_transcript(path)

    @pytest.mark.parametrize("after", ["record", "abort"])
    def test_nothing_may_follow_the_abort_marker(self, tmp_path, after):
        path = tmp_path / "t.jsonl"
        run_simulation(make_mock_config(n=10, rounds=3, seed=17), out_path=path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        round_2 = next(i for i, line in enumerate(lines) if i and json.loads(line)["round"] == 2)
        marker = json.dumps({"abort": True, "round": 1, "reason": "x"}) + "\n"
        lines[round_2:round_2] = [marker, "\n"]  # a blank line may follow it
        if after == "abort":
            lines[round_2 + 2:] = [marker]
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(TranscriptError, match=f"{re.escape(str(path))}: line {round_2 + 3}: "
                                                  "nothing may follow the abort marker$"):
            read_transcript(path)
        path.write_text("".join(lines[:round_2 + 2]), encoding="utf-8")
        assert read_transcript(path).abort == json.loads(marker)

    @given(hostile_transcripts())
    @settings(max_examples=40, deadline=None)
    def test_crlf_line_ends_read_as_lf(self, transcript):
        with tempfile.TemporaryDirectory() as tmp:
            lf, crlf = Path(tmp, "lf.jsonl"), Path(tmp, "crlf.jsonl")
            write_transcript(transcript, lf)
            crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
            expected, reloaded = read_transcript(lf), read_transcript(crlf)
        assert (reloaded.header, reloaded.records, reloaded.abort, reloaded.partial) == (
            expected.header, expected.records, expected.abort, expected.partial)
        for metric in ("entropy", "dominant_share"):
            assert metric_series(reloaded, metric) == metric_series(expected, metric)

    def test_bare_cr_line_ends_are_invalid_json(self, tmp_path):
        # JSON Lines separates lines with LF: a file of CR-ended lines is one invalid line
        path = tmp_path / "t.jsonl"
        write_transcript(run_simulation(make_mock_config(n=6, rounds=2, seed=9)), path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
        with pytest.raises(TranscriptError, match=re.escape(f"{path}: line 1: invalid JSON")):
            read_transcript(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        transcript = run_simulation(make_mock_config(n=6, rounds=3, seed=9))
        write_transcript(transcript, path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(line + blank for line, blank in zip(lines, ["\n", " \t\n", "\r\n"] * len(lines))),
                        encoding="utf-8", newline="")
        reloaded = read_transcript(path)
        assert (reloaded.header, reloaded.records) == (transcript.header, transcript.records)

    def test_noncontiguous_rounds_rejected(self, tmp_path):
        transcript = run_simulation(make_mock_config(n=6, rounds=3, seed=9))
        records = transcript.records
        assert records[0].round == records[1].round == 1
        bad_orders = {
            "round gap": [r for r in records if r.round != 2],
            "swapped within a round": [records[1], records[0], *records[2:]],
            "repeated record": [records[0], *records],
            "first round 0": [r._replace(round=r.round - 1) for r in records],
            "first round 2": [r._replace(round=r.round + 1) for r in records],
        }
        for name, bad in bad_orders.items():
            path = tmp_path / f"{name.replace(' ', '_')}.jsonl"
            write_transcript(Transcript(transcript.header, bad, transcript.abort, transcript.partial), path)
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
        (1, lambda doc: {**doc, "hashtag_b": doc["hashtag_a"], "match": False, "points_a": 0, "points_b": 0},
         "line 2: match False contradicts the normalized forms of"),
        (2, lambda doc: {**doc, "hashtag_b": {"raw": "#zz", "normalized": "zz"}, "match": True, "points_a": 1,
                         "points_b": 1}, "line 3: match True contradicts the normalized forms of"),
        (0, lambda doc: {**doc, "config": {**doc["config"], "match_on": "fuzzy"}},
         "line 1: match_on must be 'normalized' or 'raw', got 'fuzzy'"),
        (1, lambda doc: {**doc, "hashtag_a": {**doc["hashtag_a"], "normalized": "zzz"}},
         "line 2: hashtag_a normalized 'zzz' is not the normalized form of raw"),
        (2, lambda doc: {**doc, "hashtag_b": {**doc["hashtag_b"], "normalized": doc["hashtag_b"]["normalized"].title()}},
         "line 3: hashtag_b normalized '[^']*[A-Z][^']*' is not the normalized form of raw"),
        (1, lambda doc: {**doc, "fallback_a": "no"}, "line 2: fallback_a must be true or false, got 'no'"),
        (2, lambda doc: {**doc, "fallback_b": 0}, "line 3: fallback_b must be true or false, got 0"),
        (1, lambda doc: {**doc, "hashtag_b": doc["hashtag_a"], "match": 1, "points_a": 1, "points_b": 1},
         "line 2: match must be true or false, got 1"),
        (1, lambda doc: {**doc, "hashtag_b": doc["hashtag_a"], "match": True, "points_a": True, "points_b": 1},
         "line 2: points_a must be an integer, got True"),
        (2, lambda doc: {**doc, "hashtag_a": {"raw": "#yy", "normalized": "yy"}, "hashtag_b": {"raw": "#zz",
                         "normalized": "zz"}, "match": False, "points_a": 0, "points_b": 0.0},
         r"line 3: points_b must be an integer, got 0\.0"),
        (1, lambda doc: {**doc, "fallback_a": True, "unavailable_a": "yes"},
         "line 2: unavailable_a must be true if present, got 'yes'"),
        (2, lambda doc: {**doc, "fallback_b": True, "unavailable_b": False},
         "line 3: unavailable_b must be true if present, got False"),
        (1, lambda doc: {**doc, "fallback_a": False, "unavailable_a": True},
         "line 2: unavailable_a on a side whose fallback_a is false"),
        (1, lambda doc: json.dumps(doc) + "\x0c", "line 2: invalid JSON"),
        # arrays nested past the recursion limit, and integers past int's digit limit
        (0, lambda doc: NESTED_ARRAYS, r"line 1: invalid JSON \(maximum recursion depth"),
        (1, lambda doc: json.dumps(doc).replace('"round": 1', '"round": ' + NESTED_ARRAYS),
         r"line 2: invalid JSON \(maximum recursion depth"),
        pytest.param(0, lambda doc: json.dumps(doc)[:-1] + ', "big": ' + LONG_INTEGER + "}",
                     r"line 1: invalid JSON \(Exceeds the limit", marks=DIGIT_LIMIT),
        # laid out as the engine writes it, so the line is matched by its template
        pytest.param(1, lambda doc: json.dumps(doc).replace('"round": 1', '"round": ' + LONG_INTEGER),
                     r"line 2: invalid JSON \(Exceeds the limit", marks=DIGIT_LIMIT),
        pytest.param(1, lambda doc: json.dumps(doc, separators=(",", ":")).replace('"round":1', '"round":' + LONG_INTEGER),
                     r"line 2: invalid JSON \(Exceeds the limit", marks=DIGIT_LIMIT),
        # a \u escape of a lone surrogate: legal JSON, but not text, on the template path and off it
        (1, lambda doc: {**doc, "raw_a": doc["raw_a"] + "\ud800"}, "line 2: raw_a holds a lone surrogate"),
        (2, lambda doc: json.dumps({**doc, "raw_b": "\udfff" + doc["raw_b"]}, separators=(",", ":")),
         "line 3: raw_b holds a lone surrogate"),
        (1, lambda doc: {**doc, "hashtag_a": {"raw": "#a\ud83d", "normalized": "a"}},
         "line 2: hashtag_a.raw holds a lone surrogate"),
        (0, lambda doc: {**doc, "narrative_id": "x\udbff"}, "line 1: narrative_id holds a lone surrogate"),
        (0, lambda doc: {**doc, "note\ud800": 1}, r"line 1: 'note\\ud800' holds a lone surrogate"),
        (-1, lambda doc: {"abort": True, "round": 2, "reason": "\ud800"}, r"line \d+: reason holds a lone surrogate"),
    ], ids=["header-array", "record-array", "record-null", "hashtag_a-string", "hashtag_b-string", "missing-field",
            "hashtag_a-missing-raw", "hashtag_b-missing-normalized", "points_a-without-match", "points_b-on-match",
            "header-edge-not-a-pair", "no-match-on-equal-hashtags", "match-on-distinct-hashtags",
            "header-unknown-match_on", "hashtag_a-normalized-zzz", "hashtag_b-normalized-capital",
            "fallback_a-string", "fallback_b-zero", "match-one", "points_a-true", "points_b-float",
            "unavailable_a-string", "unavailable_b-false", "unavailable_a-without-fallback",
            "form-feed-after-the-value", "header-nested-arrays", "record-nested-arrays", "header-long-integer",
            "written-record-long-integer", "compact-record-long-integer", "written-raw-surrogate",
            "compact-raw-surrogate", "hashtag-surrogate", "header-surrogate", "header-key-surrogate",
            "abort-reason-surrogate"])
    def test_malformed_line_rejected_with_its_number(self, tmp_path, line, edit, message):
        path = tmp_path / "t.jsonl"
        run_simulation(make_mock_config(n=6, rounds=2, seed=9), out_path=path)
        lines = path.read_text(encoding="utf-8").splitlines()
        edited = edit(json.loads(lines[line]))
        lines[line] = edited if isinstance(edited, str) else json.dumps(edited)  # a str is the line itself
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(TranscriptError, match=message) as caught:
            read_transcript(path)
        assert str(path) in str(caught.value)

    def test_escaped_surrogate_pair_reads_as_its_character(self, tmp_path):
        # json.dumps escapes U+1F600 as a pair, "😀", in a line the template path reads
        path = tmp_path / "t.jsonl"
        run_simulation(make_mock_config(n=6, rounds=2, seed=9), out_path=path)
        lines = path.read_text(encoding="utf-8").splitlines()
        doc = {**json.loads(lines[1]), "raw_a": "#a \U0001F600"}
        lines[1] = json.dumps(doc)
        assert "\\ud83d\\ude00" in lines[1] and re.fullmatch(engine._WRITTEN_LINE, lines[1])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert read_transcript(path).records[0].raw_a == "#a \U0001F600"

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

    @pytest.mark.parametrize("run_on,header_edit,message", [
        ("normalized", lambda config: config, None),
        ("raw", lambda config: config, None),
        ("normalized", lambda config: {**config, "match_on": "raw"}, "match True contradicts the raw forms of"),
        ("raw", lambda config: {**config, "match_on": "normalized"}, "match False contradicts the normalized forms of"),
        ("raw", lambda config: None, "match False contradicts the normalized forms of"),
    ], ids=["normalized", "raw", "read-as-raw", "read-as-normalized", "no-config-reads-as-normalized"])
    def test_match_is_checked_under_the_header_match_on(self, tmp_path, run_on, header_edit, message):
        # '#X!' and '#x' match when normalized and differ as raw text
        path = tmp_path / "t.jsonl"
        config = RunConfig(
            topology=TopologySpec(n=2, k=2, p=0.0),
            rounds=1,
            agents=(AgentSpec(0, "mock", {"strategy": "constant:#X!"}),
                    AgentSpec(1, "mock", {"strategy": "constant:#x"})),
            narrative_path=str(FIXTURES / "synthetic_narrative.json"),
            match_on=run_on,
        )
        run_simulation(config, out_path=path, network=Network.from_edges(2, [(0, 1)]))
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        lines[0] = json.dumps({**header, "config": header_edit(header["config"])})
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        if message is None:
            assert read_transcript(path).records[0].match == (run_on == "normalized")
        else:
            with pytest.raises(TranscriptError, match=f"line 2: {message}"):
                read_transcript(path)

    @given(hostile_transcripts())
    @settings(max_examples=60, deadline=None)
    def test_write_read_write_keeps_bytes_and_shares_each_hashtag(self, transcript):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "first.jsonl"), Path(tmp, "second.jsonl")
            write_transcript(transcript, first)
            reloaded = read_transcript(first)
            write_transcript(reloaded, second)
            assert second.read_bytes() == first.read_bytes()
        assert reloaded.records == transcript.records
        shared: dict[Hashtag, Hashtag] = {}
        for record in reloaded.records:
            for tag in (record.hashtag_a, record.hashtag_b):
                assert shared.setdefault(tag, tag) is tag  # one object per (raw, normalized) pair

    @given(hostile_transcripts())
    @settings(max_examples=100, deadline=None)
    def test_record_line_is_json_dumps_of_its_dict(self, transcript):
        lines = [record.to_json() for record in transcript.records]
        assert lines == [json.dumps(record.to_dict(), ensure_ascii=False) for record in transcript.records]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "t.jsonl")
            write_transcript(transcript, path)
            assert path.read_text(encoding="utf-8").split("\n")[1:] == [*lines, ""]
            reloaded = read_transcript(path)
        assert reloaded.records == transcript.records
        assert not reloaded.partial

    def test_partial_last_round_is_flagged_and_not_completed(self, tmp_path):
        # each round's pairs are a maximal matching, so every cut inside the
        # last round leaves two neighbors unpaired; a cut between rounds does not
        path = tmp_path / "t.jsonl"
        run_simulation(make_mock_config(n=20, rounds=4, seed=7), out_path=path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        round_4 = [i for i, line in enumerate(lines) if i and json.loads(line)["round"] == 4]
        assert len(round_4) > 2
        cut = tmp_path / "cut.jsonl"
        for end in range(round_4[0], round_4[-1] + 2):
            cut.write_text("".join(lines[:end]), encoding="utf-8")
            transcript = read_transcript(cut)
            whole = end in (round_4[0], round_4[-1] + 1)
            assert transcript.partial is not whole, end
            assert transcript.rounds_completed() == (4 if end > round_4[-1] else 3), end
            assert len(transcript.records) == end - 1  # a partial round's records are kept
            assert [r for r, _ in metric_series(transcript, "entropy").values] == list(
                range(1, transcript.rounds_completed() + 1))

    def test_record_lost_before_the_last_round_is_rejected(self, tmp_path):
        # a lost record leaves its two agents, who are neighbors, unpaired
        path = tmp_path / "t.jsonl"
        run_simulation(make_mock_config(n=20, rounds=4, seed=7), out_path=path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        cut = tmp_path / "cut.jsonl"
        for i in range(1, len(lines)):
            lost_round = json.loads(lines[i])["round"]
            if lost_round == 4:
                break
            cut.write_text("".join(lines[:i] + lines[i + 1:]), encoding="utf-8")
            opener = next(j for j in range(i + 1, len(lines)) if json.loads(lines[j])["round"] == lost_round + 1)
            with pytest.raises(TranscriptError, match=rf"line {opener}: round {lost_round} is missing records: "
                                                      r"neighbors \d+ and \d+ are both unpaired"):
                read_transcript(cut)

    def test_agent_paired_twice_in_a_round_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_transcript(Transcript(header={"network_edges": [[0, 1], [1, 2]]},
                                    records=[make_record(1, 0, 1, "#a", "#b"), make_record(1, 1, 2, "#a", "#b")]), path)
        with pytest.raises(TranscriptError, match=r"line 3: agent 1 is paired twice in round 1$"):
            read_transcript(path)

    def test_record_checks_are_shared_with_from_dict(self, tmp_path):
        # each record check of the reader also runs in from_dict, with the same message
        doc = make_record(1, 0, 1, "#a", "#b", fb_a=True).to_dict()
        header = {"network_edges": [[0, 1]]}
        # with two bad fields, the first in field order is the one named
        for edits, message in [({"round": "1"}, "round must be an integer, got '1'"),
                               ({"points_a": True}, "points_a must be an integer, got True"),
                               ({"round": "1", "points_a": True}, "round must be an integer, got '1'"),
                               ({"fallback_b": "no"}, "fallback_b must be true or false, got 'no'"),
                               ({"unavailable_a": "yes"}, "unavailable_a must be true if present, got 'yes'"),
                               ({"points_b": 1}, "points_b 1 contradicts match False")]:
            bad = {**doc, **edits}
            with pytest.raises(TranscriptError, match=f"^{message}$"):
                InteractionRecord.from_dict(bad)
            path = tmp_path / "t.jsonl"
            path.write_text(f"{json.dumps(header)}\n{json.dumps(bad)}\n", encoding="utf-8")
            with pytest.raises(TranscriptError, match=f"^{re.escape(str(path))}: line 2: {message}$"):
                read_transcript(path)
        assert InteractionRecord.from_dict(doc) == make_record(1, 0, 1, "#a", "#b", fb_a=True)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(TranscriptError):
            read_transcript(path)

    def test_first_line_blank_reads_the_next_as_header(self, tmp_path):
        source = FIXTURES / "fixture_transcript.jsonl"
        path = tmp_path / "t.jsonl"
        path.write_bytes(b"\n" + source.read_bytes())
        assert read_transcript(path) == read_transcript(source)
        path.write_text("\n \t\n\r\n", encoding="utf-8")
        with pytest.raises(TranscriptError, match=f"^{re.escape(str(path))}: missing header line$"):
            read_transcript(path)

    @pytest.mark.parametrize("layout", ["written", "compact"])
    @pytest.mark.parametrize("first,later", [("a", "a"), ("a", "b"), ("b", "a")])
    def test_known_raw_hashtag_with_another_normalized_form_is_rejected(self, tmp_path, first, later, layout):
        # line 2 checks '#Storm' and '#sun'; line 3 gives '#Storm' another normalized form, in the
        # engine's own layout or in compact JSON
        records = [make_record(1, 0, 1, *(("#Storm", "#sun") if first == "a" else ("#sun", "#Storm"))),
                   make_record(1, 2, 3, "#sun", "#sun")._replace(match=False, points_a=0, points_b=0,
                                                                 **{f"hashtag_{later}": Hashtag("#Storm", "sto")})]
        path = tmp_path / "t.jsonl"
        write_transcript(Transcript(header={"network_edges": [[0, 1], [2, 3]]}, records=records), path)
        if layout == "compact":
            lines = path.read_text(encoding="utf-8").splitlines()
            path.write_text("".join(json.dumps(json.loads(line), separators=(",", ":")) + "\n" for line in lines),
                            encoding="utf-8")
        with pytest.raises(TranscriptError, match=f"^{re.escape(str(path))}: line 3: hashtag_{later} normalized 'sto' "
                                                  "is not the normalized form of raw '#Storm'$"):
            read_transcript(path)

    def test_written_line_points_must_agree_with_match(self, tmp_path):
        # line 2 checks '#a' and '#b'; line 3, laid out as the engine writes it, matches with points 0/0
        records = [make_record(1, 0, 1, "#a", "#b"), make_record(1, 2, 3, "#a", "#b")._replace(
            hashtag_b=Hashtag("#a", "a"), match=True, points_a=0, points_b=0)]
        path = tmp_path / "t.jsonl"
        write_transcript(Transcript(header={"network_edges": [[0, 1], [2, 3]]}, records=records), path)
        message = "line 3: points_a 0 contradicts match True"
        with pytest.raises(TranscriptError, match=f"^{re.escape(str(path))}: {message}$"):
            read_transcript(path)

    @given(hostile_transcripts(), st.lists(HOSTILE_RAW, min_size=24, max_size=24))
    @settings(max_examples=60, deadline=None)
    def test_response_texts_read_back_as_written(self, transcript, texts):
        # response texts that are not their hashtags, many with characters JSON escapes
        records = [record._replace(raw_a=f"<think>{texts[2 * i]}</think>\n{record.raw_a}", raw_b=texts[2 * i + 1])
                   for i, record in enumerate(transcript.records)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "t.jsonl")
            write_transcript(Transcript(transcript.header, records), path)
            assert read_transcript(path) == Transcript(transcript.header, records)

    @given(hostile_transcripts())
    @settings(max_examples=60, deadline=None)
    def test_lines_in_another_json_layout_read_to_the_same_records(self, transcript):
        # compact separators and ASCII escapes: no record line is laid out as the engine writes it
        with tempfile.TemporaryDirectory() as tmp:
            written, relaid = Path(tmp, "written.jsonl"), Path(tmp, "relaid.jsonl")
            write_transcript(transcript, written)
            lines = written.read_text(encoding="utf-8").split("\n")[:-1]  # U+2028 is no line end here
            relaid.write_text("".join(json.dumps(json.loads(line), separators=(",", ":")) + "\n" for line in lines),
                              encoding="utf-8")
            assert read_transcript(relaid) == read_transcript(written)
