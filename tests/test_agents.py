"""Backend implementations and the interaction-table wire format."""

import csv
import http.client
import io
import json
import random
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
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
    RunConfig,
    TopologySpec,
    mock_imitate,
    run_simulation,
)
from hashnet import agents, engine
from hashnet.agents import (
    INTERACTION_TABLE_HEADER,
    NO_HISTORY,
    History,
    HttpStatusError,
    build_backends,
    is_retryable,
    parse_interaction_table,
    render_interaction_table,
)

from conftest import FIXTURES
from oracles import csv_line, prompt_reference


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
    @example(3, "#Fukushima—Daiichi", "#福島")  # written as is
    @example(3, '#a,"b', "#福島")  # quoted
    @settings(max_examples=300)
    def test_row_equals_a_fresh_csv_rendering(self, round_index, own, neighbor):
        row = csv_line([round_index, own, neighbor])
        assert render_interaction_table([(round_index, own, neighbor)]) == f"{INTERACTION_TABLE_HEADER}\n{row}"

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
        assert render_interaction_table(rows) == "\n".join(map(csv_line, [INTERACTION_TABLE_HEADER.split(","), *rows]))
        assert render_interaction_table(rows[1:2]) == f'{INTERACTION_TABLE_HEADER}\n2,"#a\nb",'
        assert render_interaction_table([]) == INTERACTION_TABLE_HEADER

    def test_carriage_return_cell_is_quoted(self):
        # csv.writer quotes only the characters of its line end before 3.13,
        # so an LF-terminated writer leaves this cell bare there
        table = render_interaction_table([(1, "#a\rb", "#c")])
        assert table == f'{INTERACTION_TABLE_HEADER}\n1,"#a\rb",#c'
        assert list(csv.reader(io.StringIO(table, newline=""))) == [
            INTERACTION_TABLE_HEADER.split(","), ["1", "#a\rb", "#c"],
        ]

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
# Rows whose rounds repeat or decrease and whose few guesses tie on count and
# round, so the answer often falls to the lexicographic tie-break.
_ROW = st.one_of(
    st.tuples(st.integers(-1, 30), _FIELD, _FIELD),
    st.tuples(st.integers(1, 3), st.just("#own"), st.sampled_from(["#b", "#a", "#c", "#a "])),
)
LEXICON = ["#z", "#y", "#x"]


def fresh_read(history, seed):
    """The tallies and answer of a read of the whole history; the answer is
    ``mock_imitate``'s, which ranks every guess."""
    counts, last_seen = {}, {}
    agents._tally(history, counts, last_seen, None)
    return counts, last_seen, mock_imitate(history, LEXICON, rng(seed))


def memo_read(backend, agent, history, seed):
    """The same through a mock's memo: its tallies, then its answer. The
    answer the memo keeps beside its tallies must be the one it gives."""
    counts, last_seen, kept = backend._entry(agent, history)[1:4]
    answer = backend.respond(request(2, agent, history), rng(seed)).raw_text
    assert kept == (answer if history else None)
    return counts, last_seen, answer


def pick(data, snapshots, label):
    """An index into ``snapshots``: the newest one often, any one otherwise."""
    newest = len(snapshots) - 1
    return data.draw(st.one_of(st.just(newest), st.integers(0, newest)), label=label)


_SLICE = st.builds(slice, st.none() | st.integers(-12, 12), st.none() | st.integers(-12, 12),
                   st.sampled_from([None, 1, 2, -1, -3]))


class TestHistory:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_snapshots_read_as_the_tuple_fold(self, data):
        # each step extends the newest snapshot in place, or forks an older
        # one or the shared empty one; after all the steps, every snapshot
        # must still read as the tuple it was made equal to
        snapshots = [(NO_HISTORY, ()), (History(), ())]
        for _ in range(data.draw(st.integers(1, 25), label="extends")):
            history, rows = snapshots[pick(data, snapshots, "base")]
            row = data.draw(_ROW, label="row")
            snapshots.append((history.extended(row), rows + (row,)))
        for history, rows in snapshots:
            assert len(history) == len(rows) and bool(history) == bool(rows)
            assert tuple(history) == rows and list(history) == list(rows)
            if rows:
                assert history[-1] == rows[-1] and history[0] == rows[0]
            with pytest.raises(IndexError):
                history[len(rows)]
            cut = data.draw(_SLICE, label="slice")
            assert history[cut] == rows[cut] and type(history[cut]) is tuple
            assert history == rows and rows == history and history == list(rows) and list(rows) == history
            assert history == History(rows) and not history != rows
            assert history != rows + (row,) and history != rows[:-1] + (("x",),) and history != "rows"
        assert NO_HISTORY.rows == [] and len(NO_HISTORY) == 0 and NO_HISTORY != ""

    def test_extending_the_newest_snapshot_shares_its_list(self):
        first = NO_HISTORY.extended((1, "#a", "#b"))
        second = first.extended((2, "#a", "#c"))
        fork = first.extended((2, "#a", "#d"))
        assert second.rows is first.rows and fork.rows is not first.rows
        assert first == [(1, "#a", "#b")] and second[1:] == ((2, "#a", "#c"),) and fork[1:] == ((2, "#a", "#d"),)

    def test_unhashable(self):
        # a History equals lists as well as tuples, so like a list it has no hash
        with pytest.raises(TypeError):
            hash(History([(1, "#a", "#b")]))


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

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_snapshots_forks_and_tuples_read_as_a_full_read(self, data):
        # one agent's reads mix snapshots extended as the engine's fold
        # extends them, forks of older snapshots, and plain tuples
        backend = MockBackend("imitate", lexicon=LEXICON)
        snapshots = [NO_HISTORY]
        for step in range(data.draw(st.integers(1, 12), label="steps")):
            history = snapshots[pick(data, snapshots, "base")]
            for row in data.draw(st.lists(_ROW, max_size=3), label="rows"):
                history = history.extended(row)
            snapshots.append(history)
            history = snapshots[pick(data, snapshots, "read")]
            read = history if data.draw(st.booleans(), label="as snapshot") else tuple(history)
            assert memo_read(backend, 0, read, step) == fresh_read(tuple(history), step), read

    @pytest.mark.parametrize("rows, answer", [
        ([(2, "#o", "#b"), (2, "#o", "#a")], "#a"),  # tied on count and round: the smaller guess
        ([(2, "#o", "#a"), (2, "#o", "#b")], "#a"),
        ([(3, "#o", "#b"), (2, "#o", "#a")], "#b"),  # tied on count: the later round, rows in any order
        ([(2, "#o", "#a"), (3, "#o", "#b"), (1, "#o", "#a")], "#a"),  # a row from an earlier round still counts
        ([(5, "#o", "#b"), (1, "#o", "#a"), (5, "#o", "#a"), (5, "#o", "#b")], "#a"),
    ], ids=["tie-smaller-second", "tie-smaller-first", "later-round-first", "count-beats-round", "full-tie"])
    def test_kept_answer_follows_each_tie_break(self, rows, answer):
        backend = MockBackend("imitate", lexicon=LEXICON)
        for k in range(len(rows) + 1):
            assert memo_read(backend, 0, tuple(rows[:k]), 0) == fresh_read(tuple(rows[:k]), 0)
        assert fresh_read(tuple(rows), 0)[2] == answer

    def test_threads_sharing_one_memo_read_whole_tables(self):
        # many threads grow, shrink and re-read one agent's history through
        # one mock, as tuples or as snapshots of one shared row list; a memo
        # entry changed after it was stored would corrupt tallies or the
        # answer kept beside them
        rows = tuple((r, "#own", f"#n{r * 7 % 5}") for r in range(1, 41))
        snapshots = [NO_HISTORY]
        for row in rows:
            snapshots.append(snapshots[-1].extended(row))
        expected = [fresh_read(rows[:k], 0) for k in range(41)]
        backend = MockBackend("imitate", lexicon=LEXICON)
        wrong = []

        def work(worker):
            draw = random.Random(worker)
            for k in draw.choices(range(41), k=1500):
                history = draw.choice((rows[:k], snapshots[k]))
                counts, last_seen, kept = backend._entry(0, history)[1:4]
                answer = backend.respond(request(2, 0, history), rng(0)).raw_text
                if (counts, last_seen, answer) != expected[k] or kept != (answer if k else None):
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

        def counting(new_rows, counts, last_seen, best):
            tallied.extend(new_rows)
            return tally(new_rows, counts, last_seen, best)

        monkeypatch.setattr(agents, "_tally", counting)
        backend = MockBackend("imitate", lexicon=["#z"])
        for k in range(40):
            answer = backend.respond(request(k + 1, 7, tuple(rows[:k])), rng()).raw_text
            assert answer == expected[k]
        assert tallied == rows[:-1]


class TestReplayBackend:
    def _write_transcript(self, path):
        # Agents 3 and 5 meet in round 7; rounds 1-6 come first, since the
        # reader requires rounds contiguous from 1, and every round pairs
        # both edges, since each round's pairs are a maximal matching.
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

        records = [record(r, a, b, "#Filler", "#Other") for r in range(1, 7) for a, b in ((0, 1), (3, 5))]
        records += [record(7, 0, 1, "#Filler", "#Other"), record(7, 3, 5, "#Setsuden", "#Other")]
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

    def test_transcript_holding_a_lone_surrogate_is_refused(self, tmp_path):
        # a raw text JSON escapes as "\ud800" reads as no text, so it cannot be replayed and written again
        path = tmp_path / "t.jsonl"
        self._write_transcript(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[-1] = lines[-1].replace('"raw_a": "#Setsuden"', '"raw_a": "#Setsuden\\ud800"')
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"line {len(lines)}: raw_a holds a lone surrogate") as caught:
            ReplayBackend.from_transcript(path)
        assert caught.value.field == "transcript"

    def test_unavailable_side_raises(self):
        backend = ReplayBackend({(0, 1): "#a", (1, 1): None})
        assert backend.respond(request(agent_id=0, round_index=1), rng()).raw_text == "#a"
        with pytest.raises(BackendUnavailableError) as err:
            backend.respond(request(agent_id=1, round_index=1), rng())
        assert (err.value.agent_id, err.value.round_index) == (1, 1)

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
        backend = RemoteBackend(stub_server.base_url, "test-model")
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

    @pytest.mark.parametrize("bad", [{"choices": [None]}, {"choices": ["#x"]}, {"choices": "#x"}],
                             ids=["null-choice", "string-choice", "string-choices"])
    def test_reply_of_the_wrong_shape_is_retried(self, stub_server, bad):
        stub_server.script.extend([bad, "#ok"])
        backend = RemoteBackend(stub_server.base_url, "m", backoff=0.01)
        response = backend.respond(request(), rng())
        assert (response.raw_text, response.attempt) == ("#ok", 2)
        stub_server.script.extend([bad] * 3)
        with pytest.raises(BackendUnavailableError, match="ValueError"):
            RemoteBackend(stub_server.base_url, "m", max_retries=3, backoff=0.01).respond(request(), rng())
        assert len(stub_server.requests) == 5

    def test_transport_and_malformed_replies_are_retryable(self):
        assert is_retryable(ConnectionRefusedError("refused"))
        assert is_retryable(http.client.RemoteDisconnected("closed without a reply"))
        assert is_retryable(TimeoutError("timed out"))
        assert is_retryable(ValueError("not JSON"))

    def test_only_408_429_and_5xx_statuses_are_retryable(self):
        statuses = (301, 302, 307, 404, 408, 429, 503)
        assert [status for status in statuses if is_retryable(HttpStatusError(status))] == [408, 429, 503]

    def test_redirect_is_not_followed(self, stub_server):
        stub_server.script.append((302, {"Location": stub_server.base_url + "/chat/completions"}))
        backend = RemoteBackend(stub_server.base_url, "m", backoff=0.01)
        with pytest.raises(BackendUnavailableError, match="HTTP status 302"):
            backend.respond(request(), rng())
        assert len(stub_server.requests) == 1

    @pytest.mark.parametrize("status, retry_after, timeout, slept", [
        (503, "2", 60, 2),
        (429, "120", 5, 5),
        (503, "0", 60, 0.5),
        (429, "Wed, 21 Oct 2015 07:28:00 GMT", 60, 0.5),
        (500, "2", 60, 0.5),
    ], ids=["longer-than-backoff", "capped-at-timeout", "shorter-than-backoff", "http-date", "not-429-or-503"])
    def test_retry_after_stretches_the_backoff(self, stub_server, monkeypatch, status, retry_after, timeout, slept):
        # the larger of the backoff (0.5 s) and a delta-seconds Retry-After, up to the timeout
        sleeps = []
        monkeypatch.setattr(agents.time, "sleep", sleeps.append)
        stub_server.script.extend([(status, {"Retry-After": retry_after}), "#ok"])
        backend = RemoteBackend(stub_server.base_url, "m", backoff=0.5, timeout=timeout)
        assert backend.respond(request(), rng()).attempt == 2
        assert sleeps == [slept]

    def test_unreachable_endpoint(self):
        backend = RemoteBackend("http://127.0.0.1:1/v1", "m", max_retries=1, timeout=0.5)
        with pytest.raises(BackendUnavailableError):
            backend.respond(request(), rng())

    def test_completion_style_text_choice(self, stub_server):
        stub_server.script.append({"choices": [{"text": "#LegacyStyle"}]})
        backend = RemoteBackend(stub_server.base_url, "m")
        assert backend.respond(request(), rng()).raw_text == "#LegacyStyle"


class KeepAliveServer:
    """An HTTP/1.1 chat-completions endpoint that keeps connections open,
    counting the connections it accepts and the requests it answers. With
    ``close_after_reply`` it closes each connection once its reply is sent,
    without saying so in the reply, and releases ``closed``."""

    def __init__(self, latency=0.0, close_after_reply=False):
        self.connections = 0
        self.requests = 0
        self.closed = threading.Semaphore(0)
        lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def setup(self):
                super().setup()
                with lock:
                    outer.connections += 1

            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                with lock:
                    outer.requests += 1
                time.sleep(latency)
                data = json.dumps({"choices": [{"message": {"content": "#ok"}}]}).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)
                self.close_connection = close_after_reply

            def log_message(self, *args):
                pass

        class Server(ThreadingHTTPServer):
            daemon_threads = True

            def shutdown_request(self, request):
                super().shutdown_request(request)
                outer.closed.release()

        self._server = Server(("127.0.0.1", 0), Handler)
        host, port = self._server.server_address[:2]
        self.base_url = f"http://{host}:{port}/v1"
        threading.Thread(target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True).start()

    def stop(self):
        self._server.shutdown()
        self._server.server_close()


@pytest.fixture
def keep_alive_server():
    servers = []

    def start(**options):
        servers.append(KeepAliveServer(**options))
        return servers[-1]

    yield start
    for server in servers:
        server.stop()


class TestConnectionReuse:
    def test_keep_alive_connection_carries_every_call(self, keep_alive_server):
        server = keep_alive_server()
        backend = RemoteBackend(server.base_url, "m")
        assert [backend.respond(request(), rng()).attempt for _ in range(3)] == [1, 1, 1]
        assert (server.requests, server.connections) == (3, 1)
        backend.client.close()

    def test_dropped_idle_connection_costs_no_attempt(self, keep_alive_server):
        server = keep_alive_server(close_after_reply=True)
        backend = RemoteBackend(server.base_url, "m", backoff=0.01)
        assert backend.respond(request(), rng()).attempt == 1
        assert server.closed.acquire(timeout=5)  # the pooled connection is now closed at the server
        assert backend.respond(request(), rng()).attempt == 1
        assert (server.requests, server.connections) == (2, 2)
        backend.client.close()

    def test_http_1_0_server_gets_a_connection_per_call(self, stub_server):
        # the conftest stub closes after each reply and says so
        backend = RemoteBackend(stub_server.base_url, "m")
        assert [backend.respond(request(), rng()).attempt for _ in range(3)] == [1, 1, 1]
        assert len(stub_server.requests) == 3

    def test_concurrent_calls_open_at_most_one_connection_each(self, keep_alive_server):
        server = keep_alive_server(latency=0.02)
        backend = RemoteBackend(server.base_url, "m")
        threads_n, calls = 4, 5
        start = threading.Barrier(threads_n)
        attempts = []

        def work():
            start.wait()
            for _ in range(calls):
                attempts.append(backend.respond(request(), rng()).attempt)

        threads = [threading.Thread(target=work) for _ in range(threads_n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside the pool's check-out and check-in too
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        backend.client.close()
        assert not any(thread.is_alive() for thread in threads)
        assert attempts == [1] * (threads_n * calls)
        assert server.requests == threads_n * calls
        assert 1 <= server.connections <= threads_n

    def test_a_run_closes_its_connections(self, keep_alive_server, monkeypatch):
        # the backends outlive the run here, so only an explicit close ends the connections
        server = keep_alive_server()
        built = []
        monkeypatch.setattr(engine, "build_backends", lambda specs: built.append(build_backends(specs)) or built[-1])
        specs = tuple(AgentSpec(i, "remote", {"base_url": server.base_url, "model": f"agent-{i}"}) for i in range(4))
        config = RunConfig(TopologySpec(n=4, k=2, p=0.0), 2, specs, str(FIXTURES / "synthetic_narrative.json"),
                           parallelism=2)
        assert len(run_simulation(config).records) == 4
        assert 1 <= server.connections <= 2
        for _ in range(server.connections):
            assert server.closed.acquire(timeout=5)

    def test_agents_on_one_endpoint_share_one_client(self):
        url = "http://127.0.0.1:1/v1"
        specs = [AgentSpec(i, "remote", {"base_url": url, "model": f"agent-{i}"}) for i in range(20)]
        specs.append(AgentSpec(20, "remote", {"base_url": url, "model": "agent-20", "timeout": 5}))
        backends = build_backends(specs)
        assert len({id(backends[i].client) for i in range(20)}) == 1
        assert backends[20].client is not backends[0].client


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

    @pytest.mark.parametrize("key, value, message", [
        ("max_retries", "three", "must be a positive integer"),
        ("max_retries", True, "must be a positive integer"),
        ("max_in_flight", 0, "unknown field"),
        ("timeout", "60", "must be a number > 0"),
        ("backoff", -1, "must be a number >= 0"),
        ("base_url", "127.0.0.1:8000/v1", "must be an http:// or https:// URL"),
        ("base_url", "ftp://127.0.0.1/v1", "must be an http:// or https:// URL"),
        ("base_url", "http://127.0.0.1:99999/v1", "must be an http:// or https:// URL"),
    ], ids=["max_retries-three", "max_retries-True", "max_in_flight-0", "timeout-60", "backoff--1",
            "base_url-no-scheme", "base_url-ftp", "base_url-port-out-of-range"])
    def test_remote_params_checked_by_constructor(self, key, value, message):
        spec = AgentSpec(3, "remote", {"base_url": "http://127.0.0.1:1/v1", "model": "m", key: value})
        [err] = spec.violations()
        assert err.field == f"agents[3].backend_params.{key}"
        assert err.message.startswith(message)

    @pytest.mark.parametrize("make, field", [
        (lambda: MockBackend("chaos"), "strategy"),
        (lambda: MockBackend("imitate"), "lexicon"),
        (lambda: MockBackend("constant:#x", lexicon="#x"), "lexicon"),
        (lambda: mock_imitate([], [], rng()), "lexicon"),
        (lambda: RemoteBackend("http://127.0.0.1:1/v1", "m", timeout=0), "timeout"),
    ], ids=["mock-strategy", "imitate-lexicon", "lexicon-type", "mock_imitate-lexicon", "remote-timeout"])
    def test_constructors_name_bare_settings(self, make, field):
        with pytest.raises(ConfigError) as err:
            make()
        assert err.value.field == field
