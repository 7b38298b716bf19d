"""Backend implementations and the interaction-table wire format."""

import csv
import io
import json
import random
import sys
import threading

import numpy as np
import pytest
import requests
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hashnet import (
    AgentSpec,
    BackendRequest,
    BackendUnavailableError,
    ConfigError,
    DecodeParams,
    MockBackend,
    RemoteBackend,
    ReplayBackend,
    ReplayGapError,
    mock_imitate,
)
from hashnet import agents
from hashnet.agents import (
    INTERACTION_TABLE_HEADER,
    is_retryable,
    parse_interaction_table,
    render_interaction_row,
    render_interaction_table,
)

from oracles import prompt_reference


def rng(seed=0):
    return np.random.default_rng(seed)


def request(round_index=1, agent_id=0, history=()):
    return BackendRequest(round=round_index, agent_id=agent_id, event_text="A storm hits the grid.", history=history)


# Text that CSV must quote or escape: quotes, commas, line breaks, empty.
_CSV_TEXT = st.text(alphabet=st.one_of(st.sampled_from('",\r\n# '), st.characters()), max_size=8)


# A parsed guess: up to five whitespace-free words joined by single spaces.
_WORD_CHAR = st.one_of(st.sampled_from('#",\x00\x7f'), st.characters(blacklist_categories=("Cs", "Cc", "Z")))
_GUESS = st.lists(st.text(_WORD_CHAR, min_size=1, max_size=6), min_size=1, max_size=5).map(" ".join)


class TestInteractionTable:
    @given(st.integers(-10**6, 10**6), _CSV_TEXT, _CSV_TEXT)
    @example(3, "#Fukushima—Daiichi", "#福島")  # joined directly
    @example(3, '#a,"b', "#福島")  # through csv.writer
    @settings(max_examples=300)
    def test_row_equals_a_fresh_csv_rendering(self, round_index, own, neighbor):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([round_index, own, neighbor])
        assert render_interaction_row(round_index, own, neighbor) == buf.getvalue()[:-1]

    def test_round_trip(self):
        rows = [(1, "#a", "#b"), (3, "#c d", "#e")]
        table = render_interaction_table(rows)
        assert table.splitlines()[0] == INTERACTION_TABLE_HEADER
        assert parse_interaction_table("prefix\n\n" + table + "\n\nsuffix") == rows

    @given(st.lists(st.tuples(st.integers(1, 10**6), _GUESS, _GUESS), max_size=6))
    @example([(1, '#a,"b', "#福島"), (2, '"', ",")])
    @settings(max_examples=100)
    def test_guesses_round_trip(self, rows):
        # the engine's requests carry their table's rows beside the prompt;
        # a full read of the prompt must give those rows back
        assert parse_interaction_table(f"round 9\n\n{render_interaction_table(rows)}\n\nrest") == rows

    def test_round_trip_with_commas_and_quotes(self):
        rows = [(1, '#say "hi", world', "#x,y"), (2, "#plain", '#"quoted"')]
        assert parse_interaction_table(render_interaction_table(rows)) == rows

    def test_absent_table(self):
        assert parse_interaction_table("no table in here") == []

    def test_table_is_header_plus_rendered_rows(self):
        rows = [(1, '#say "hi", world', "#x,y"), (2, "#a\nb", ""), (3, "#c\rd", "#e")]
        expected = "\n".join([INTERACTION_TABLE_HEADER] + [render_interaction_row(*row) for row in rows])
        assert render_interaction_table(rows) == expected
        assert render_interaction_row(2, "#a\nb", "") == '2,"#a\nb",'
        assert render_interaction_table([]) == INTERACTION_TABLE_HEADER

    def test_header_must_be_a_whole_line(self):
        assert parse_interaction_table("x" + INTERACTION_TABLE_HEADER + "\n1,#a,#b") == []
        assert parse_interaction_table(f"x\r\n{INTERACTION_TABLE_HEADER}\r\n1,#a,#b\r\n\r\n") == [(1, "#a", "#b")]


class TestMockImitate:
    def test_single_choice_lexicon(self):
        assert mock_imitate([], ["#x"], rng()) == "#x"

    def test_strict_majority(self):
        history = [(1, "#own", "#a"), (2, "#own", "#b"), (3, "#own", "#b")]
        assert mock_imitate(history, ["#z"], rng()) == "#b"

    def test_tie_breaks_by_recency(self):
        history = [(1, "#own", "#a"), (2, "#own", "#b")]
        assert mock_imitate(history, ["#z"], rng()) == "#b"

    def test_tie_breaks_lexicographically_after_recency(self):
        # real histories have one row per round; constructed duplicate-round
        # rows force the final lexicographic rule
        history = [(1, "#own", "#b"), (1, "#own", "#a")]
        assert mock_imitate(history, ["#z"], rng()) == "#a"

    def test_recency_beats_lexicographic_order(self):
        history = [(1, "#own", "#b"), (2, "#own", "#a"), (3, "#own", "#a"), (4, "#own", "#b")]
        assert mock_imitate(history, ["#z"], rng()) == "#b"

    def test_rounds_below_one_count(self):
        assert mock_imitate([(0, "#own", "#a")], ["#z"], rng()) == "#a"
        assert mock_imitate([(-2, "#own", "#b"), (-1, "#own", "#a")], ["#z"], rng()) == "#a"

    def test_empty_lexicon_rejected(self):
        with pytest.raises(ConfigError):
            mock_imitate([], [], rng())

    def test_first_round_draw_is_deterministic(self):
        lexicon = ["#a", "#b", "#c", "#d"]
        draws = {mock_imitate([], lexicon, rng(7)) for _ in range(3)}
        assert len(draws) == 1


class TestMockBackend:
    def test_constant_strategy(self):
        backend = MockBackend("constant:#fukushima")
        for round_index in (1, 5, 40):
            response = backend.respond(request(round_index=round_index), rng())
            assert response.raw_text == "#fukushima"
            assert response.attempt == 1

    def test_imitate_round_one_uniform_draw(self):
        backend = MockBackend("imitate", lexicon=["#only"])
        assert backend.respond(request(1), rng()).raw_text == "#only"

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            MockBackend("chaos")

    def test_purity(self):
        backend = MockBackend("imitate", lexicon=["#a", "#b", "#c"])
        first = backend.respond(request(1), rng(3)).raw_text
        second = backend.respond(request(1), rng(3)).raw_text
        assert first == second


# A small alphabet, so that CSV quoting and shared prefixes turn up often.
_FIELD = st.text(alphabet='ab#, "', max_size=5)
_ROW = st.tuples(st.integers(-1, 30), _FIELD, _FIELD)
LEXICON = ["#z", "#y", "#x"]


def fresh_read(history, seed):
    """The tallies and answer of a read of the whole history."""
    counts, last_seen = {}, {}
    agents._tally(history, counts, last_seen)
    return counts, last_seen, mock_imitate(history, LEXICON, rng(seed))


def memo_read(backend, agent, history, seed):
    """The same through a mock's memo: its tallies, then its answer."""
    counts, last_seen = backend._tallies(agent, history)
    answer = backend.respond(request(2, agent, history), rng(seed)).raw_text
    return counts, last_seen, answer


class TestMockMemo:
    @given(st.data())
    @settings(max_examples=500, deadline=None)
    def test_reads_equal_a_full_read(self, data):
        backend = MockBackend("imitate", lexicon=LEXICON)
        histories: dict[int, tuple] = {}
        for step in range(data.draw(st.integers(1, 10), label="steps")):
            agent = data.draw(st.integers(0, 2), label="agent")
            history = histories.get(agent, ())
            op = data.draw(st.sampled_from(["grow", "grow", "grow", "cut", "shrink", "edit"]), label="op")
            if op == "grow":
                history += tuple(data.draw(st.lists(_ROW, max_size=3)))
            elif op == "cut":
                history = history[:-1]
            elif op == "shrink":
                history = history[: data.draw(st.integers(0, len(history)))]
            elif op == "edit" and history:
                at = data.draw(st.integers(0, len(history) - 1))
                history = history[:at] + (data.draw(_ROW),) + history[at + 1:]
            histories[agent] = history
            assert memo_read(backend, agent, history, step) == fresh_read(history, step), history

    def test_threads_sharing_one_memo_read_whole_tables(self):
        # many threads grow, shrink and re-read one agent's history through
        # one mock; a memo entry changed after it was stored would corrupt tallies
        rows = tuple((r, "#own", f"#n{r * 7 % 5}") for r in range(1, 41))
        expected = [fresh_read(rows[:k], 0)[:2] for k in range(41)]
        backend = MockBackend("imitate", lexicon=LEXICON)
        wrong = []

        def work(worker):
            for k in random.Random(worker).choices(range(41), k=1500):
                if backend._tallies(0, rows[:k]) != expected[k]:
                    wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_grown_table_parses_each_row_once(self, monkeypatch):
        rows = [(r, "#own", f'#n,"{r % 3}"') for r in range(1, 41)]
        expected = [mock_imitate(rows[:k], ["#z"], rng()) for k in range(40)]
        tallied = []
        tally = agents._tally

        def counting(new_rows, counts, last_seen):
            tallied.extend(new_rows)
            tally(new_rows, counts, last_seen)

        monkeypatch.setattr(agents, "_tally", counting)
        backend = MockBackend("imitate", lexicon=["#z"])
        for k in range(40):
            answer = backend.respond(request(k + 1, 7, tuple(rows[:k])), rng()).raw_text
            assert answer == expected[k]
        assert tallied == rows[:-1]


class TestReplayBackend:
    def _write_transcript(self, path):
        # Agents 3 and 5 meet in round 7; agents 0 and 1 fill rounds 1-6,
        # since the reader requires rounds contiguous from 1.
        header = {"run_id": "t", "config": {}, "seed": 0, "narrative_id": "x",
                  "network_edges": [[0, 1], [3, 5]], "timestamp": "1970-01-01T00:00:00Z"}

        def record(round_index, agent_a, agent_b, raw_a, raw_b):
            return {
                "round": round_index, "agent_a": agent_a, "agent_b": agent_b,
                "raw_a": raw_a, "raw_b": raw_b,
                "hashtag_a": {"raw": raw_a, "normalized": raw_a.lstrip("#").lower()},
                "hashtag_b": {"raw": raw_b, "normalized": raw_b.lstrip("#").lower()},
                "match": False, "points_a": 0, "points_b": 0,
                "fallback_a": False, "fallback_b": False,
            }

        records = [record(r, 0, 1, "#Filler", "#Other") for r in range(1, 7)]
        records.append(record(7, 3, 5, "#Setsuden", "#Other"))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for doc in records:
                handle.write(json.dumps(doc) + "\n")

    def test_lookup(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write_transcript(path)
        backend = ReplayBackend.from_transcript(path)
        assert backend.respond(request(agent_id=3, round_index=7), rng()).raw_text == "#Setsuden"
        assert backend.respond(request(agent_id=5, round_index=7), rng()).raw_text == "#Other"

    def test_gap_error(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write_transcript(path)
        backend = ReplayBackend.from_transcript(path)
        with pytest.raises(ReplayGapError) as err:
            backend.respond(request(agent_id=3, round_index=8), rng())
        assert err.value.agent_id == 3
        assert err.value.round_index == 8


class TestRemoteBackend:
    def test_single_user_message_and_decode_params(self, stub_server, monkeypatch):
        monkeypatch.setenv("HASHNET_API_KEY", "secret-token")
        stub_server.script.append("#FromModel")
        backend = RemoteBackend(stub_server.base_url, "test-model", max_in_flight=2)
        req = BackendRequest(
            round=2,
            agent_id=4,
            event_text="A storm hits the grid.",
            decode=DecodeParams(temperature=0.3, max_tokens=16),
            history=((1, '#say "hi", world', "#x"),),
        )
        response = backend.respond(req, rng())
        assert response.raw_text == "#FromModel"
        assert response.attempt == 1
        assert response.latency_ms >= 0.0

        path, payload, headers = stub_server.requests[0]
        assert path.endswith("/chat/completions")
        assert payload["model"] == "test-model"
        prompt = prompt_reference(2, [(1, '#say "hi", world', "#x")], "A storm hits the grid.")
        assert payload["messages"] == [{"role": "user", "content": prompt}]
        assert payload["temperature"] == 0.3
        assert payload["max_tokens"] == 16
        assert headers.get("Authorization") == "Bearer secret-token"

    def test_no_key_sends_no_auth_header(self, stub_server, monkeypatch):
        monkeypatch.delenv("HASHNET_API_KEY", raising=False)
        backend = RemoteBackend(stub_server.base_url, "m")
        backend.respond(request(), rng())
        _, _, headers = stub_server.requests[0]
        assert "Authorization" not in headers

    def test_retry_then_success(self, stub_server):
        stub_server.script.extend([500, "#Recovered"])
        backend = RemoteBackend(stub_server.base_url, "m", backoff=0.01)
        response = backend.respond(request(), rng())
        assert response.raw_text == "#Recovered"
        assert response.attempt == 2

    def test_exhausted_retries_raise(self, stub_server):
        stub_server.script.extend([500, 500])
        backend = RemoteBackend(stub_server.base_url, "m", max_retries=2, backoff=0.01)
        with pytest.raises(BackendUnavailableError) as err:
            backend.respond(request(agent_id=9, round_index=3), rng())
        assert err.value.agent_id == 9
        assert err.value.round_index == 3
        assert len(stub_server.requests) == 2

    @pytest.mark.parametrize("status", [400, 401, 404, 422])
    def test_client_error_is_not_retried(self, stub_server, status):
        stub_server.script.append(status)
        backend = RemoteBackend(stub_server.base_url, "m", backoff=0.01)
        with pytest.raises(BackendUnavailableError):
            backend.respond(request(), rng())
        assert len(stub_server.requests) == 1

    @pytest.mark.parametrize("status", [408, 429, 503])
    def test_transient_status_is_retried(self, stub_server, status):
        stub_server.script.extend([status, "#ok"])
        backend = RemoteBackend(stub_server.base_url, "m", backoff=0.01)
        response = backend.respond(request(), rng())
        assert (response.raw_text, response.attempt) == ("#ok", 2)

    def test_transport_and_malformed_replies_are_retryable(self):
        assert is_retryable(requests.ConnectionError("refused"))
        assert is_retryable(ValueError("not JSON"))

    def test_unreachable_endpoint(self):
        backend = RemoteBackend("http://127.0.0.1:1/v1", "m", max_retries=1, timeout=0.5)
        with pytest.raises(BackendUnavailableError):
            backend.respond(request(), rng())

    def test_completion_style_text_choice(self, stub_server):
        stub_server.script.append({"choices": [{"text": "#LegacyStyle"}]})
        backend = RemoteBackend(stub_server.base_url, "m")
        assert backend.respond(request(), rng()).raw_text == "#LegacyStyle"


class TestSpecAndDispatch:
    def test_spec_validation_errors_name_fields(self):
        with pytest.raises(ConfigError) as err:
            AgentSpec(2, "mock", {"strategy": "imitate"}).validate()
        assert "lexicon" in err.value.field
        with pytest.raises(ConfigError) as err:
            AgentSpec(1, "teleport", {}).validate()
        assert err.value.field == "agents[1].backend"
        with pytest.raises(ConfigError) as err:
            AgentSpec(0, "remote", {"model": "m"}).validate()
        assert "base_url" in err.value.field

    @pytest.mark.parametrize("key, value", [
        ("max_retries", "three"),
        ("max_retries", True),
        ("max_in_flight", 0),
        ("timeout", "60"),
        ("backoff", -1),
    ])
    def test_remote_params_checked_by_constructor(self, key, value):
        spec = AgentSpec(3, "remote", {"base_url": "http://127.0.0.1:1/v1", "model": "m", key: value})
        [err] = spec.violations()
        assert err.field == f"agents[3].backend_params.{key}"
