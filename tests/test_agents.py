"""Backend implementations and the interaction-table wire format."""

import json

import numpy as np
import pytest

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
from hashnet.agents import (
    INTERACTION_TABLE_HEADER,
    parse_interaction_table,
    render_interaction_table,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def request(prompt="#prompt", round_index=1, agent_id=0):
    return BackendRequest(prompt=prompt, round=round_index, agent_id=agent_id)


class TestInteractionTable:
    def test_round_trip(self):
        rows = [(1, "#a", "#b"), (3, "#c d", "#e")]
        table = render_interaction_table(rows)
        assert table.splitlines()[0] == INTERACTION_TABLE_HEADER
        assert parse_interaction_table("prefix\n\n" + table + "\n\nsuffix") == rows

    def test_round_trip_with_commas_and_quotes(self):
        rows = [(1, '#say "hi", world', "#x,y"), (2, "#plain", '#"quoted"')]
        assert parse_interaction_table(render_interaction_table(rows)) == rows

    def test_absent_table(self):
        assert parse_interaction_table("no table in here") == []


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

    def test_imitate_reads_history_from_prompt(self):
        table = render_interaction_table([(1, "#m", "#a"), (2, "#m", "#a"), (3, "#m", "#b")])
        prompt = f"preamble\n\n{table}\n\nrest of prompt"
        backend = MockBackend("imitate", lexicon=["#z"])
        assert backend.respond(request(prompt, 4), rng()).raw_text == "#a"

    def test_imitate_round_one_uniform_draw(self):
        backend = MockBackend("imitate", lexicon=["#only"])
        assert backend.respond(request("no table", 1), rng()).raw_text == "#only"

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            MockBackend("chaos")

    def test_purity(self):
        backend = MockBackend("imitate", lexicon=["#a", "#b", "#c"])
        first = backend.respond(request("no table", 1), rng(3)).raw_text
        second = backend.respond(request("no table", 1), rng(3)).raw_text
        assert first == second


class TestReplayBackend:
    def _write_transcript(self, path):
        header = {"run_id": "t", "config": {}, "seed": 0, "narrative_id": "x",
                  "network_edges": [], "timestamp": "1970-01-01T00:00:00Z"}
        record = {
            "round": 7, "agent_a": 3, "agent_b": 5,
            "raw_a": "#Setsuden", "raw_b": "#Other",
            "hashtag_a": {"raw": "#Setsuden", "normalized": "setsuden"},
            "hashtag_b": {"raw": "#Other", "normalized": "other"},
            "match": False, "points_a": 0, "points_b": 0,
            "fallback_a": False, "fallback_b": False,
        }
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            handle.write(json.dumps(record) + "\n")

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
            prompt="the full prompt",
            round=2,
            agent_id=4,
            decode=DecodeParams(temperature=0.3, max_tokens=16),
        )
        response = backend.respond(req, rng())
        assert response.raw_text == "#FromModel"
        assert response.attempt == 1
        assert response.latency_ms >= 0.0

        path, payload, headers = stub_server.requests[0]
        assert path.endswith("/chat/completions")
        assert payload["model"] == "test-model"
        assert payload["messages"] == [{"role": "user", "content": "the full prompt"}]
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
