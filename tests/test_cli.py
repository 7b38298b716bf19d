"""Command-line surface: validation reports, run summaries, metric and
report outputs, exit codes."""

import collections
import hashlib
import json
import shutil
from pathlib import Path

import pytest

from hashnet import (
    AgentSpec, ConfigError, Hashtag, RunConfig, TopologySpec, read_transcript, run_simulation, write_transcript,
)
from hashnet.cli import EXIT_INVALID, EXIT_IO, EXIT_OK, main, validate_config
from hashnet.engine import config_digest

from conftest import FIXTURES, REPO, UNDECODABLE_VALUES


def run_cli(*argv):
    return main(list(argv))


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def small_mock_doc(**overrides):
    doc = {
        "seed": 5,
        "rounds": 3,
        "topology": {"n": 6, "k": 2, "p": 0.0},
        "agents": {"backend": "mock", "count": 6, "params": {"strategy": "constant:#x"}},
        "narrative": "bundled:fukushima",
    }
    doc.update(overrides)
    return doc


class TestValidate:
    def test_demo_config_is_valid(self, demo_config_path, capsys):
        assert run_cli("validate", "--config", str(demo_config_path)) == EXIT_OK
        assert "ok:" in capsys.readouterr().out

    def test_fixture_config_is_valid(self):
        assert run_cli("validate", "--config", str(FIXTURES / "fixture_config.json")) == EXIT_OK

    def test_odd_k_violation_names_field(self, tmp_path, capsys):
        path = write_config(tmp_path, small_mock_doc(topology={"n": 6, "k": 3, "p": 0.0}))
        assert run_cli("validate", "--config", str(path)) == EXIT_INVALID
        assert "topology.k" in capsys.readouterr().out

    def test_bundled_name_outside_the_package_is_a_violation(self, tmp_path, capsys):
        # a name that climbs out of hashnet/data to a file that is not JSON
        import os

        import hashnet.data

        (tmp_path / "notes.json").write_text("not json\n", encoding="utf-8")
        name = os.path.relpath(tmp_path / "notes", Path(hashnet.data.__file__).parent)
        path = write_config(tmp_path, small_mock_doc(narrative=f"bundled:{name}"))
        assert run_cli("validate", "--config", str(path)) == EXIT_INVALID
        assert f"  narrative: no bundled narrative named {name!r}" in capsys.readouterr().out

    def test_zero_rounds_violation(self, tmp_path, capsys):
        path = write_config(tmp_path, small_mock_doc(rounds=0))
        assert run_cli("validate", "--config", str(path)) == EXIT_INVALID
        assert "rounds" in capsys.readouterr().out

    def test_all_violations_reported(self, tmp_path, capsys):
        doc = small_mock_doc(rounds=0, topology={"n": 6, "k": 3, "p": 7.0}, parallelism=0)
        path = write_config(tmp_path, doc)
        assert run_cli("validate", "--config", str(path)) == EXIT_INVALID
        out = capsys.readouterr().out
        for needle in ("rounds", "topology.k", "parallelism"):
            assert needle in out

    def test_agent_count_mismatch(self, tmp_path, capsys):
        doc = small_mock_doc()
        doc["agents"]["count"] = 4
        path = write_config(tmp_path, doc)
        assert run_cli("validate", "--config", str(path)) == EXIT_INVALID
        assert "agents" in capsys.readouterr().out

    def test_unknown_key_flagged(self, tmp_path, capsys):
        path = write_config(tmp_path, small_mock_doc(typo_section={}))
        assert run_cli("validate", "--config", str(path)) == EXIT_INVALID
        assert "typo_section" in capsys.readouterr().out

    @pytest.mark.parametrize("field_path, overrides", [
        ("topology.N", {"topology": {"n": 6, "k": 2, "p": 0.0, "N": 100}}),
        ("decode.temprature", {"decode": {"temprature": 0.2}}),
        ("agents.cuont", {"agents": {"backend": "mock", "cuont": 6, "params": {"strategy": "constant:#x"}}}),
        ("agents[0].parms", {"agents": [{"backend": "mock", "params": {"strategy": "constant:#x"}, "parms": {}}] * 6}),
        ("agents[0].backend_params.lexicn", {"agents": {
            "backend": "mock", "count": 6, "params": {"strategy": "imitate", "lexicon": ["#a"], "lexicn": ["#b"]},
        }}),
        ("agents[0].backend_params.max_retires", {"agents": {"backend": "remote", "count": 6, "params": {
            "base_url": "http://127.0.0.1:1/v1", "model": "m", "max_retires": 5,
        }}}),
        ("agents[0].backend_params.strict", {"agents": {"backend": "replay", "count": 6, "params": {
            "transcript": str(FIXTURES / "fixture_transcript.jsonl"), "strict": True,
        }}}),
        ("metrics.entropy_bsae", {"metrics": {"entropy_bsae": 10}}),
        ("metrics.embedding.dimm", {"metrics": {"embedding": {"provider": "hashing", "dimm": 8}}}),
        ("metrics.embedding.dimm", {"metrics": {"embedding": {"provider": "onehot", "dimm": 8}}}),
        ("metrics.embedding.backoff", {"metrics": {"embedding": {
            "provider": "remote", "base_url": "http://127.0.0.1:1/v1", "model": "m", "backoff": 2,
        }}}),
        ("output.transcirpt", {"output": {"transcirpt": "t.jsonl"}}),
        ("agents[0].backend_params.max_in_flight", {"agents": {"backend": "remote", "count": 6, "params": {
            "base_url": "http://127.0.0.1:1/v1", "model": "m", "max_in_flight": 2,
        }}}),
    ])
    def test_unknown_key_in_a_section_flagged(self, tmp_path, capsys, field_path, overrides):
        path = write_config(tmp_path, small_mock_doc(**overrides))
        assert run_cli("validate", "--config", str(path)) == EXIT_INVALID
        assert f"  {field_path}: unknown field" in capsys.readouterr().out

    def test_one_violation_per_agent_backend_params(self, tmp_path):
        # five bad settings on each of six agents: each constructor stops at its first
        params = {"base_url": "", "model": "", "timeout": 0, "max_retries": 0, "backoff": -1}
        doc = small_mock_doc(agents={"backend": "remote", "count": 6, "params": params})
        assert validate_config(doc, tmp_path) == [(f"agents[{i}].backend_params.base_url", "must be a nonempty "
                                                   "string, got ''") for i in range(6)]

    def test_missing_reference_corpus_flagged(self, tmp_path, capsys):
        doc = small_mock_doc(metrics={"reference_corpus": "nowhere.txt"})
        path = write_config(tmp_path, doc)
        assert run_cli("validate", "--config", str(path)) == EXIT_INVALID
        assert "metrics.reference_corpus" in capsys.readouterr().out

    def test_parse_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"seed": 1,\n  "rounds": }\n', encoding="utf-8")
        assert run_cli("validate", "--config", str(path)) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "line 2" in err

    @pytest.mark.parametrize("value", UNDECODABLE_VALUES)
    def test_json_the_decoder_cannot_hold_is_a_parse_error(self, tmp_path, capsys, value):
        path = tmp_path / "config.json"
        path.write_text('{"seed": ' + value + "}", encoding="utf-8")
        assert run_cli("validate", "--config", str(path)) == EXIT_INVALID
        assert capsys.readouterr().err.startswith(f"error: config parse error in {path}: ")

    @pytest.mark.parametrize("value", UNDECODABLE_VALUES)
    def test_replay_transcript_the_decoder_cannot_hold_is_a_violation(self, tmp_path, capsys, value):
        source = tmp_path / "t.jsonl"
        header = (FIXTURES / "fixture_transcript.jsonl").read_text(encoding="utf-8").splitlines()[0]
        source.write_text(header + '\n{"round": ' + value + "}\n", encoding="utf-8")
        doc = small_mock_doc(agents={"backend": "replay", "count": 6, "params": {"transcript": str(source)}})
        assert run_cli("validate", "--config", str(write_config(tmp_path, doc))) == EXIT_INVALID
        out = capsys.readouterr().out
        assert out.startswith("invalid: 6 violation(s)")
        assert f"  agents[0].backend_params.transcript: {source}: line 2: invalid JSON (" in out

    def test_missing_config_is_io_error(self, tmp_path):
        assert run_cli("validate", "--config", str(tmp_path / "absent.json")) == EXIT_IO

    @pytest.mark.parametrize("field_path, overrides", [
        ("rounds", {"rounds": True}),
        ("seed", {"seed": True}),
        ("parallelism", {"parallelism": True}),
        ("decode.max_tokens", {"decode": {"max_tokens": True}}),
        ("agents[False].agent_id", {"agents": [
            {"agent_id": False, "backend": "mock", "params": {"strategy": "constant:#x"}},
        ]}),
    ])
    def test_bool_is_not_an_integer(self, tmp_path, capsys, field_path, overrides):
        path = write_config(tmp_path, small_mock_doc(**overrides))
        assert run_cli("validate", "--config", str(path)) == EXIT_INVALID
        assert f"  {field_path}: " in capsys.readouterr().out

    @pytest.mark.parametrize("embedding", [
        {"provider": "hashing", "dim": 0},
        {"provider": "hashing", "dim": "x"},
        {"provider": "onehot", "dim": True},
    ])
    def test_embedding_dim_must_be_positive_integer(self, tmp_path, capsys, embedding):
        path = write_config(tmp_path, small_mock_doc(metrics={"embedding": embedding}))
        assert run_cli("validate", "--config", str(path)) == EXIT_INVALID
        assert "  metrics.embedding.dim: " in capsys.readouterr().out


    @pytest.mark.parametrize("key, value", [
        ("timeout", "60"),
        ("api_key_env", ""),
        ("max_retries", 0),
        ("timeout", float("inf")),
    ])
    def test_remote_embedding_settings_checked_like_remote_backend(self, tmp_path, key, value):
        embedding = {"provider": "remote", "base_url": "http://127.0.0.1:1/v1", "model": "m", key: value}
        violations = validate_config(small_mock_doc(metrics={"embedding": embedding}), tmp_path)
        assert [field_path for field_path, _ in violations] == [f"metrics.embedding.{key}"]


def _constant_agents(n, **first_agent):
    agents = [{"agent_id": i, "backend": "mock", "params": {"strategy": "constant:#x"}} for i in range(n)]
    agents[0].update(first_agent)
    return agents


def _remote_doc(**params):
    return small_mock_doc(agents={"backend": "remote", "count": 6, "params": {
        "base_url": "http://127.0.0.1:1/v1", "model": "m", **params}})


@pytest.mark.parametrize("doc, simulate_args, field_path", [
    (small_mock_doc(agents=_constant_agents(6, agent_id=1)), [], "agents"),
    (
        small_mock_doc(agents=_constant_agents(
            6, backend="remote",
            params={"base_url": "http://127.0.0.1:1/v1", "model": "m", "max_retries": "three"},
        )),
        [],
        "agents[0].backend_params.max_retries",
    ),
    (small_mock_doc(), ["--parallelism", "0"], "parallelism"),
    (
        small_mock_doc(agents={"backend": "replay", "count": 6,
                               "params": {"transcript": str(FIXTURES / "replay_missing_hashtag_a.jsonl")}}),
        [],
        "agents[0].backend_params.transcript",
    ),
    (
        small_mock_doc(agents={"backend": "replay", "count": 6,
                               "params": {"transcript": str(FIXTURES / "replay_utf16.jsonl")}}),
        [],
        "agents[0].backend_params.transcript",
    ),
    (small_mock_doc(metrics={"entropy_base": float("inf")}), [], "metrics.entropy_base"),
    (small_mock_doc(metrics={"entropy_base": float("nan")}), [], "metrics.entropy_base"),
    (small_mock_doc(decode={"temperature": float("nan")}), [], "decode.temperature"),
    (_remote_doc(timeout=float("inf")), [], "agents[0].backend_params.timeout"),
    (_remote_doc(backoff=float("inf")), [], "agents[0].backend_params.backoff"),
    (small_mock_doc(run_id=["a"]), [], "run_id"),
    (small_mock_doc(agents={"backend": "mock", "count": 0}), [], "agents.count"),
    ({key: value for key, value in small_mock_doc().items() if key != "agents"}, [], "agents"),
    (small_mock_doc(decode=[]), [], "decode"),
    (small_mock_doc(agents={"backend": "replay", "count": 6, "params": {"transcript": "absent.jsonl"}}), [],
     "agents[0].backend_params.transcript"),
    (small_mock_doc(agents={"backend": "replay", "count": 6}), [], "agents[0].backend_params.transcript"),
    (small_mock_doc(narrative="absent.json"), [], "narrative"),
    (small_mock_doc(metrics={"reference_corpus": 5}), [], "metrics.reference_corpus"),
    (small_mock_doc(output={"metrics_dir": ["m"]}), [], "output.metrics_dir"),
    (small_mock_doc(match_on="fuzzy"), [], "match_on"),
    (small_mock_doc(narrative=7), [], "narrative"),
    (small_mock_doc(metrics={"entropy_base": 10**400}), [], "metrics.entropy_base"),
    (small_mock_doc(topology={"n": 6, "k": 2, "p": 10**400}), [], "topology.p"),
    (small_mock_doc(decode={"temperature": 10**400}), [], "decode.temperature"),
    # a string holding a lone surrogate, which JSON escapes as \ud800 but no file, header or prompt can hold
    (small_mock_doc(agents={"backend": "mock", "params": {"strategy": "imitate", "lexicon": ["#a", "#ok\ud800"]}}),
     [], "agents.params.lexicon[1]"),
    (small_mock_doc(metrics={"reference_corpus": "corpus\udc00.txt"}), [], "metrics.reference_corpus"),
    (small_mock_doc(run_id="run\ud800"), [], "run_id"),
], ids=["duplicate-agent-ids", "max-retries-not-integer", "parallelism-override-zero",
        "replay-record-missing-a-field", "replay-transcript-not-utf8", "entropy-base-infinite", "entropy-base-nan",
        "temperature-nan", "remote-timeout-infinite", "remote-backoff-infinite", "run-id-not-a-string",
        "agent-count-zero", "agents-missing", "section-not-an-object", "replay-transcript-not-found",
        "replay-without-transcript", "narrative-not-found", "reference-corpus-not-a-string",
        "output-not-a-string", "match-on-unknown", "narrative-not-a-string", "entropy-base-huge-integer",
        "topology-p-huge-integer", "temperature-huge-integer", "lexicon-surrogate", "corpus-path-surrogate",
        "run-id-surrogate"])
def test_validate_and_simulate_reject_the_same_documents(tmp_path, capsys, doc, simulate_args, field_path):
    path = write_config(tmp_path, doc)
    out_dir = tmp_path / "out"
    commands = [["simulate", "--config", str(path), "--out", str(out_dir), *simulate_args]]
    if not simulate_args:
        commands.append(["validate", "--config", str(path)])
    for argv in commands:
        assert run_cli(*argv) == EXIT_INVALID
        out = capsys.readouterr().out
        assert out.startswith("invalid:")
        assert f"  {field_path}: " in out
    assert not (out_dir / "transcript.jsonl").exists()


def test_narrative_holding_a_lone_surrogate_is_a_violation(tmp_path, capsys):
    narrative = json.loads((FIXTURES / "synthetic_narrative.json").read_text(encoding="utf-8"))
    narrative["events"][0]["description"] += "\ud800"
    (tmp_path / "narrative.json").write_text(json.dumps(narrative), encoding="utf-8")
    path = write_config(tmp_path, small_mock_doc(narrative="narrative.json"))
    for argv in (["validate"], ["simulate", "--out", str(tmp_path / "out")]):
        assert run_cli(*argv, "--config", str(path)) == EXIT_INVALID
        assert "  narrative.events[0].description: holds a lone surrogate" in capsys.readouterr().out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("agents, field_path", [
    ({"backend": "remote", "params": {"base_url": "http://127.0.0.1:1/v1", "model": "m", "max_retries": "three"}},
     "agents[0].backend_params.max_retries"),
    ({"backend": "replay", "params": {"transcript": str(FIXTURES / "replay_missing_hashtag_a.jsonl")}},
     "agents[0].backend_params.transcript"),
    ({"backend": "replay", "params": {"transcript": str(FIXTURES / "replay_utf16.jsonl")}},
     "agents[0].backend_params.transcript"),
], ids=["remote-max-retries", "replay-record-missing-a-field", "replay-transcript-not-utf8"])
def test_run_simulation_refuses_an_agent_as_validate_does(tmp_path, agents, field_path):
    # the library path checks the agents it builds with the same field and message
    violations = validate_config(small_mock_doc(agents={"count": 6, **agents}), tmp_path)
    assert violations[0][0] == field_path
    specs = tuple(AgentSpec(i, agents["backend"], agents["params"]) for i in range(6))
    config = RunConfig(TopologySpec(n=6, k=2, p=0.0), 3, specs, "bundled:fukushima", seed=5)
    out_path = tmp_path / "transcript.jsonl"
    with pytest.raises(ConfigError) as caught:
        run_simulation(config, out_path=out_path)
    assert (caught.value.field, caught.value.message) == violations[0]
    assert not out_path.exists()


class TestEachInputBuiltOnce:
    """Each command reads each input, and builds each backend and the
    embedder, once: the objects the config parser builds to check a config
    are the ones the command uses."""

    @pytest.fixture
    def counts(self, monkeypatch):
        """Calls of the loaders and constructors, and under ``"parsed"`` the
        counts when the config parser last returned."""
        from hashnet import agents, cli, engine, metrics

        counts = collections.Counter()

        def count(owner, name, key, by_argument=False):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                counts[(key, str(args[0])) if by_argument else key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for module in (cli, engine):
            count(module, "load_narrative", "load_narrative")
            count(module, "read_transcript", "read_transcript", by_argument=True)
        count(agents.MockBackend, "__init__", "MockBackend")
        count(metrics.HashingEmbedder, "__init__", "HashingEmbedder")
        parse = cli._parse

        def parsed(*args):
            result = parse(*args)
            counts["parsed"] = collections.Counter(counts)
            return result

        monkeypatch.setattr(cli, "_parse", parsed)
        return counts

    def test_simulate_builds_only_in_the_parser(self, demo_config_path, tmp_path, counts):
        assert run_cli("simulate", "--config", str(demo_config_path), "--out", str(tmp_path)) == EXIT_OK
        assert (counts["load_narrative"], counts["MockBackend"]) == (1, 20)
        assert counts.pop("parsed") == counts

    def test_simulate_reads_each_replay_source_once(self, demo_config_path, tmp_path, counts):
        sources = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        assert run_cli("simulate", "--config", str(demo_config_path), "--out", str(tmp_path)) == EXIT_OK
        for source in sources:
            shutil.copy(tmp_path / "transcript.jsonl", source)
        doc = _replay_doc(demo_config_path, sources[0], 40)
        doc["agents"] = [{"backend": "replay", "params": {"transcript": str(sources[i % 2])}} for i in range(20)]
        config = write_config(tmp_path, doc)
        counts.clear()
        assert run_cli("simulate", "--config", str(config), "--out", str(tmp_path / "replay")) == EXIT_OK
        assert [counts[("read_transcript", str(source))] for source in sources] == [1, 1]
        assert counts.pop("parsed") == counts

    def test_validate_metrics_and_report_build_each_agent_and_the_embedder_once(self, demo_config_path, tmp_path,
                                                                                 counts):
        assert run_cli("simulate", "--config", str(demo_config_path), "--out", str(tmp_path)) == EXIT_OK
        transcript = str(tmp_path / "transcript.jsonl")
        for argv in (["validate"], ["metrics", transcript, "--out", str(tmp_path / "metrics")],
                     ["report", transcript, "--out", str(tmp_path / "report")]):
            counts.clear()
            assert run_cli(*argv, "--config", str(demo_config_path)) == EXIT_OK
            assert (counts["MockBackend"], counts["HashingEmbedder"]) == (20, 1), argv

    def test_metrics_and_report_walk_each_transcript_once(self, demo_config_path, tmp_path, monkeypatch):
        from hashnet import engine

        calls = []
        rounds = engine.Transcript.rounds
        monkeypatch.setattr(engine.Transcript, "rounds", lambda self: calls.append(self) or rounds(self))
        paths = []
        for seed in ("7", "17"):
            assert run_cli("simulate", "--config", str(demo_config_path), "--seed", seed,
                           "--out", str(tmp_path / seed)) == EXIT_OK
            paths.append(str(tmp_path / seed / "transcript.jsonl"))
        calls.clear()
        assert run_cli("metrics", paths[0], "--config", str(demo_config_path), "--out", str(tmp_path / "m")) == EXIT_OK
        assert len(calls) == 1
        calls.clear()
        assert run_cli("report", *paths, "--config", str(demo_config_path), "--out", str(tmp_path / "r")) == EXIT_OK
        assert len(calls) == 2 and calls[0] is not calls[1]


class TestSimulate:
    def test_demo_digest_and_replay_cross_check(self, demo_config_path, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert run_cli("simulate", "--config", str(demo_config_path), "--out", str(out_dir)) == EXIT_OK
        summary = capsys.readouterr().out
        assert "40/40 rounds" in summary
        transcript_path = out_dir / "transcript.jsonl"

        committed = (FIXTURES / "demo_transcript.sha256").read_text().strip()
        actual = hashlib.sha256(transcript_path.read_bytes()).hexdigest()
        assert actual == committed

        # cross-check the digest through the replay invariant
        original = read_transcript(transcript_path)
        doc = json.loads(demo_config_path.read_text(encoding="utf-8"))
        from hashnet import DecodeParams, RunConfig, TopologySpec

        replay = RunConfig(
            topology=TopologySpec(**doc["topology"]),
            rounds=doc["rounds"],
            agents=tuple(
                AgentSpec(i, "replay", {"transcript": str(transcript_path)})
                for i in range(doc["topology"]["n"])
            ),
            narrative_path=doc["narrative"],
            decode=DecodeParams(**doc["decode"]),
            seed=doc["seed"],
        )
        assert run_simulation(replay).records == original.records

    def test_same_config_twice_identical_bytes(self, demo_config_path, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        run_cli("simulate", "--config", str(demo_config_path), "--out", str(first))
        run_cli("simulate", "--config", str(demo_config_path), "--out", str(second))
        assert (first / "transcript.jsonl").read_bytes() == (second / "transcript.jsonl").read_bytes()

    def test_seed_override_changes_output(self, demo_config_path, tmp_path):
        base, other = tmp_path / "a", tmp_path / "b"
        run_cli("simulate", "--config", str(demo_config_path), "--out", str(base))
        run_cli("simulate", "--config", str(demo_config_path), "--out", str(other), "--seed", "99")
        assert (base / "transcript.jsonl").read_bytes() != (other / "transcript.jsonl").read_bytes()

    def test_parallelism_override_keeps_bytes(self, demo_config_path, tmp_path):
        serial, parallel = tmp_path / "a", tmp_path / "b"
        run_cli("simulate", "--config", str(demo_config_path), "--out", str(serial))
        run_cli("simulate", "--config", str(demo_config_path), "--out", str(parallel),
                "--parallelism", "8")
        assert (serial / "transcript.jsonl").read_bytes() == (parallel / "transcript.jsonl").read_bytes()

    def test_invalid_config_blocks_run(self, tmp_path):
        path = write_config(tmp_path, small_mock_doc(rounds=0))
        assert run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "o")) == EXIT_INVALID
        assert not (tmp_path / "o" / "transcript.jsonl").exists()

    def test_fully_defaulted_run_is_pinned(self, tmp_path):
        # Only agents is set, so topology, rounds, seed, decode, match_on and
        # every metrics setting come from their defaults; the header's config
        # snapshot, run_id and config_digest pin each of them.
        config = write_config(tmp_path, {"agents": {"backend": "mock", "params": {"strategy": "constant:#x"}}})
        assert run_cli("simulate", "--config", str(config), "--out", str(tmp_path / "run")) == EXIT_OK
        transcript = tmp_path / "run" / "transcript.jsonl"
        assert run_cli("metrics", str(transcript), "--config", str(config), "--out", str(tmp_path / "m")) == EXIT_OK
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (transcript, tmp_path / "m" / "metadata.json")
        }
        assert digests == {
            "transcript.jsonl": "26ac43eaff50965f5c34b75d66c3f4acc0c28c658d9ad4abe032ebd2bef990c7",
            "metadata.json": "ea966fb16e5393f6264921a401865a586f06d0e90ee0c6074515c4e7d860c04d",
        }

    def test_unreachable_remote_aborts_with_marker(self, tmp_path, capsys):
        doc = small_mock_doc(
            agents={
                "backend": "remote",
                "count": 6,
                "params": {
                    "base_url": "http://127.0.0.1:1/v1",
                    "model": "m",
                    "max_retries": 1,
                    "timeout": 0.3,
                },
            },
            rounds=2,
        )
        path = write_config(tmp_path, doc)
        out_dir = tmp_path / "out"
        assert run_cli("simulate", "--config", str(path), "--out", str(out_dir)) == EXIT_INVALID
        assert "aborted in round 1" in capsys.readouterr().out
        transcript = read_transcript(out_dir / "transcript.jsonl")
        assert transcript.abort is not None
        assert transcript.records  # partial transcript retained

    def test_remote_reply_of_the_wrong_shape_falls_back(self, tmp_path, stub_server):
        # a 2xx reply with no usable choice is retried, then unavailable: the
        # run records a fallback and goes on
        stub_server.script.append({"choices": [None]})
        path = write_config(tmp_path, _remote_doc(base_url=stub_server.base_url, max_retries=1))
        assert run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "out")) == EXIT_OK
        transcript = read_transcript(tmp_path / "out" / "transcript.jsonl")
        assert transcript.abort is None and transcript.rounds_completed() == 3
        assert [r.round for r in transcript.records if r.unavailable_a or r.unavailable_b] == [1]
        assert transcript.fallback_count() == 1


def _replay_doc(demo_config_path, transcript_path, rounds):
    doc = json.loads(demo_config_path.read_text(encoding="utf-8"))
    del doc["metrics"], doc["output"]
    doc["rounds"] = rounds
    doc["agents"] = {"backend": "replay", "count": 20, "params": {"transcript": str(transcript_path)}}
    return doc


class TestReplayFailures:
    """A replay that cannot go on ends in an ``error:`` line and exit 1; one
    whose source transcript does not read is refused before it starts."""

    def _assert_reported(self, capsys, code):
        err = capsys.readouterr().err
        assert code == EXIT_INVALID
        assert err.startswith("error: ")
        assert "Traceback" not in err
        return err

    def test_more_rounds_than_recorded(self, demo_config_path, tmp_path, capsys):
        source = tmp_path / "source"
        assert run_cli("simulate", "--config", str(demo_config_path), "--out", str(source)) == EXIT_OK
        config = write_config(tmp_path, _replay_doc(demo_config_path, source / "transcript.jsonl", 41))
        code = run_cli("simulate", "--config", str(config), "--out", str(tmp_path / "replay"))
        assert "round 41" in self._assert_reported(capsys, code)
        replay = read_transcript(tmp_path / "replay" / "transcript.jsonl")
        assert replay.abort["round"] == 41
        assert replay.rounds_completed() == 40

    def test_torn_last_line(self, demo_config_path, tmp_path, capsys):
        source = tmp_path / "source"
        assert run_cli("simulate", "--config", str(demo_config_path), "--out", str(source)) == EXIT_OK
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes((source / "transcript.jsonl").read_bytes()[:-20])
        config = write_config(tmp_path, _replay_doc(demo_config_path, torn, 40))
        capsys.readouterr()
        code = run_cli("simulate", "--config", str(config), "--out", str(tmp_path / "replay"))
        assert code == EXIT_INVALID
        out, err = capsys.readouterr()
        assert out.startswith("invalid:") and err == ""
        assert f"  agents[0].backend_params.transcript: {torn}: line " in out and "invalid JSON" in out
        assert not (tmp_path / "replay" / "transcript.jsonl").exists()


class TestMetrics:
    def test_fixture_goldens_byte_equal(self, tmp_path):
        out_dir = tmp_path / "metrics"
        code = run_cli(
            "metrics", str(FIXTURES / "fixture_transcript.jsonl"),
            "--config", str(FIXTURES / "fixture_config.json"),
            "--out", str(out_dir),
        )
        assert code == EXIT_OK
        for name in ("entropy", "dominant_share", "perplexity", "rank_abundance", "alignment"):
            produced = (out_dir / f"{name}.csv").read_bytes()
            golden = (FIXTURES / "golden_metrics" / f"{name}.csv").read_bytes()
            assert produced == golden, f"{name}.csv diverges from golden"

    def test_narrative_is_loaded_once(self, tmp_path, monkeypatch):
        # the parser's check loads it, and alignment uses that same narrative
        from hashnet import cli

        calls = []
        original = cli.load_narrative
        monkeypatch.setattr(cli, "load_narrative", lambda ref: calls.append(ref) or original(ref))
        out_dir = tmp_path / "metrics"
        assert run_cli("metrics", str(FIXTURES / "fixture_transcript.jsonl"),
                       "--config", str(FIXTURES / "fixture_config.json"), "--out", str(out_dir)) == EXIT_OK
        assert len(calls) == 1
        metadata = json.loads((out_dir / "metadata.json").read_text(encoding="utf-8"))
        assert metadata["statuses"]["alignment"] == "computed"
        assert (out_dir / "alignment.csv").read_bytes() == (FIXTURES / "golden_metrics" / "alignment.csv").read_bytes()

    def test_single_round_series(self, tmp_path):
        doc = small_mock_doc(rounds=1)
        config = write_config(tmp_path, doc)
        out_dir = tmp_path / "run"
        run_cli("simulate", "--config", str(config), "--out", str(out_dir))
        metrics_dir = tmp_path / "metrics"
        run_cli("metrics", str(out_dir / "transcript.jsonl"), "--config", str(config),
                "--out", str(metrics_dir))
        lines = (metrics_dir / "entropy.csv").read_text().splitlines()
        assert lines[0] == "round,value"
        assert len(lines) == 2

    def test_exclude_fallbacks_toggles_metadata(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        base = ["metrics", str(FIXTURES / "fixture_transcript.jsonl"),
                "--config", str(FIXTURES / "fixture_config.json")]
        run_cli(*base, "--out", str(out_a))
        run_cli(*base, "--out", str(out_b), "--exclude-fallbacks")
        meta_a = json.loads((out_a / "metadata.json").read_text())
        meta_b = json.loads((out_b / "metadata.json").read_text())
        assert meta_a["exclusion_policy"] == "include_fallbacks"
        assert meta_b["exclusion_policy"] == "exclude_fallbacks"
        assert meta_a["reference_corpus_sha256"]
        assert meta_a["statuses"]["perplexity"] == "computed"

    def test_missing_corpus_skips_not_fails(self, tmp_path, capsys):
        doc = small_mock_doc()  # no metrics section at all
        config = write_config(tmp_path, doc)
        run_dir = tmp_path / "run"
        run_cli("simulate", "--config", str(config), "--out", str(run_dir))

        metrics_dir = tmp_path / "m"
        code = run_cli("metrics", str(run_dir / "transcript.jsonl"), "--config", str(config),
                       "--out", str(metrics_dir))
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "perplexity: skipped" in out
        assert not (metrics_dir / "perplexity.csv").exists()
        metadata = json.loads((metrics_dir / "metadata.json").read_text())
        assert metadata["statuses"]["perplexity"].startswith("skipped")

        # alignment computed: bundled narrative has events, default embedder offline
        assert (metrics_dir / "alignment.csv").exists()

        strict = run_cli("metrics", str(run_dir / "transcript.jsonl"), "--config", str(config),
                         "--out", str(tmp_path / "m2"), "--strict")
        assert strict == EXIT_INVALID

    @pytest.mark.parametrize("overrides, status", [
        ({"narrative": "bundled:philippines"}, "skipped: narrative 'philippines' has no events"),
        ({"metrics": {"embedding": {"provider": "remote", "base_url": "http://127.0.0.1:1/v1", "model": "m",
                                    "max_retries": 1}}}, "skipped: embedder unavailable: "),
    ], ids=["narrative-without-events", "embedder-unavailable"])
    def test_alignment_skip_is_recorded_and_strict_fails(self, tmp_path, capsys, overrides, status):
        run_config = write_config(tmp_path, small_mock_doc())
        assert run_cli("simulate", "--config", str(run_config), "--out", str(tmp_path / "run")) == EXIT_OK
        config = write_config(tmp_path, small_mock_doc(**overrides), name="metrics.json")
        for strict, code in (((), EXIT_OK), (("--strict",), EXIT_INVALID)):
            metrics_dir = tmp_path / f"m{len(strict)}"
            assert run_cli("metrics", str(tmp_path / "run" / "transcript.jsonl"), "--config", str(config),
                           "--out", str(metrics_dir), *strict) == code
            assert json.loads((metrics_dir / "metadata.json").read_text())["statuses"]["alignment"].startswith(status)
            assert (metrics_dir / "entropy.csv").is_file() and not (metrics_dir / "alignment.csv").exists()
        assert f"alignment: {status}" in capsys.readouterr().out

    @pytest.mark.parametrize("bad_rows", [
        [None],
        [[1.0, 2.0]],
        # one row per event of bundled:fukushima, whose eight descriptions are embedded first
        [{"index": min(i, 6), "embedding": [1.0, 1.0]} for i in range(8)],
        [{"index": i + 1, "embedding": [1.0, 1.0]} for i in range(8)],
        [{"embedding": [1.0, 1.0]}] + [{"index": i, "embedding": [1.0, 1.0]} for i in range(1, 8)],
    ], ids=["null-row", "list-row", "repeated-index", "out-of-range-index", "missing-index"])
    def test_embedding_row_of_the_wrong_shape_is_retried(self, tmp_path, monkeypatch, stub_server, bad_rows):
        sleeps = []
        monkeypatch.setattr("hashnet.agents.time.sleep", sleeps.append)
        run_config = write_config(tmp_path, small_mock_doc())
        assert run_cli("simulate", "--config", str(run_config), "--out", str(tmp_path / "run")) == EXIT_OK
        embedding = {"provider": "remote", "base_url": stub_server.base_url, "model": "m"}
        config = write_config(tmp_path, small_mock_doc(metrics={"embedding": embedding}), name="metrics.json")
        stub_server.script.append({"data": bad_rows})
        assert run_cli("metrics", str(tmp_path / "run" / "transcript.jsonl"), "--config", str(config),
                       "--out", str(tmp_path / "m")) == EXIT_OK
        assert json.loads((tmp_path / "m" / "metadata.json").read_text())["statuses"]["alignment"] == "computed"
        assert len(sleeps) == 1 and stub_server.requests[0][0] == stub_server.requests[1][0] == "/v1/embeddings"

    @pytest.mark.parametrize("output", [None, {"transcript": "out/t.jsonl", "metrics_dir": "out/m"}])
    def test_default_output_locations(self, tmp_path, monkeypatch, output):
        # without --out, simulate writes output.transcript, else ./transcript.jsonl, and
        # metrics writes output.metrics_dir, else <transcript dir>/metrics
        config = write_config(tmp_path, small_mock_doc() if output is None else small_mock_doc(output=output))
        run_dir, elsewhere = tmp_path / "run", tmp_path / "elsewhere"
        run_dir.mkdir(), elsewhere.mkdir()
        monkeypatch.chdir(run_dir)
        assert run_cli("simulate", "--config", str(config)) == EXIT_OK
        transcript = run_dir / "transcript.jsonl" if output is None else tmp_path / "out" / "t.jsonl"
        assert transcript.is_file() and (output is None or not (run_dir / "transcript.jsonl").exists())
        monkeypatch.chdir(elsewhere)
        assert run_cli("metrics", str(transcript), "--config", str(config)) == EXIT_OK
        metrics_dir = run_dir / "metrics" if output is None else tmp_path / "out" / "m"
        assert (metrics_dir / "entropy.csv").is_file()
        if output is None:
            assert not any(elsewhere.iterdir())
        else:
            assert not (transcript.parent / "metrics").exists()

    def test_guesses_without_letters_fall_back_and_metrics_succeed(self, tmp_path):
        # every response normalizes to "": each side falls back, so no round
        # is left without a comparable guess and perplexity is defined
        doc = small_mock_doc(
            agents={"backend": "mock", "count": 6, "params": {"strategy": "constant:— …"}},
            metrics={"reference_corpus": str(FIXTURES / "fixture_corpus.txt")},
        )
        config = write_config(tmp_path, doc)
        assert run_cli("simulate", "--config", str(config), "--out", str(tmp_path / "run")) == EXIT_OK
        transcript = read_transcript(tmp_path / "run" / "transcript.jsonl")
        assert all(r.fallback_a and r.fallback_b for r in transcript.records)
        code = run_cli("metrics", str(tmp_path / "run" / "transcript.jsonl"), "--config", str(config),
                       "--out", str(tmp_path / "m"))
        assert code == EXIT_OK
        statuses = json.loads((tmp_path / "m" / "metadata.json").read_text())["statuses"]
        assert statuses["perplexity"] == "computed"

    @pytest.mark.parametrize("line, key, value", [
        (3, "agent_a", "7"),
        (2, "agent_b", "x"),
        (2, "round", 1.0),
    ])
    def test_non_integer_ids_are_rejected(self, demo_config_path, tmp_path, capsys, line, key, value):
        run_dir = tmp_path / "run"
        assert run_cli("simulate", "--config", str(demo_config_path), "--out", str(run_dir)) == EXIT_OK
        path = run_dir / "transcript.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[line - 1] = json.dumps(dict(json.loads(lines[line - 1]), **{key: value})) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        code = run_cli("metrics", str(path), "--config", str(demo_config_path), "--out", str(tmp_path / "m"))
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"line {line}: {key} must be an integer, got {value!r}" in err

    @pytest.mark.parametrize("seed", [None, "8"])
    def test_stale_config_warns(self, demo_config_path, tmp_path, capsys, seed):
        # the transcript of a seed-8 run analysed with the seed-7 demo config
        run_dir = tmp_path / "run"
        assert run_cli("simulate", "--config", str(demo_config_path), "--out", str(run_dir),
                       *(("--seed", seed) if seed else ())) == EXIT_OK
        capsys.readouterr()
        code = run_cli("metrics", str(run_dir / "transcript.jsonl"), "--config", str(demo_config_path),
                       "--out", str(tmp_path / "m"))
        assert code == EXIT_OK
        err = capsys.readouterr().err
        digest = json.loads((tmp_path / "m" / "metadata.json").read_text())["config_digest"]
        if seed is None:
            assert err == ""
        else:
            recorded = config_digest(read_transcript(run_dir / "transcript.jsonl").header["config"])
            assert err.startswith("warning: ") and err.count("\n") == 1
            assert recorded in err and digest in err and recorded != digest

    def test_all_fallback_round_excluded_names_the_round_once(self, tmp_path, capsys):
        config = write_config(tmp_path, small_mock_doc(
            agents={"backend": "mock", "count": 6, "params": {"strategy": "constant:!!!"}}))
        assert run_cli("simulate", "--config", str(config), "--out", str(tmp_path / "run")) == EXIT_OK
        capsys.readouterr()
        code = run_cli("metrics", str(tmp_path / "run" / "transcript.jsonl"), "--config", str(config),
                       "--out", str(tmp_path / "m"), "--exclude-fallbacks")
        assert code == EXIT_INVALID
        assert capsys.readouterr().err == "error: round 1 has no responses after exclusions\n"

    @staticmethod
    def _edited_run(tmp_path, edits, metrics=None):
        """A constant-mock run whose rounds in ``edits`` are rewritten: every
        side a fallback, or every hashtag one that normalizes to nothing."""
        doc = small_mock_doc(metrics={"reference_corpus": str(FIXTURES / "fixture_corpus.txt")}
                             if metrics is None else metrics)
        config = write_config(tmp_path, doc)
        path = tmp_path / "run" / "transcript.jsonl"
        assert run_cli("simulate", "--config", str(config), "--out", str(path.parent)) == EXIT_OK
        transcript = read_transcript(path)
        empty = Hashtag.from_raw("!!!")
        for i, record in enumerate(transcript.records):
            if edits.get(record.round) == "fallback":
                transcript.records[i] = record._replace(fallback_a=True, fallback_b=True)
            elif edits.get(record.round) == "empty":
                transcript.records[i] = record._replace(raw_a="!!!", raw_b="!!!", hashtag_a=empty, hashtag_b=empty)
        write_transcript(transcript, path)
        return path, config

    @pytest.mark.parametrize("edits, message", [
        ({2: "fallback"}, "round 2 has no responses after exclusions"),
        ({1: "empty", 2: "fallback"}, "round 2 has no responses after exclusions"),  # entropy's error wins
        ({1: "empty"}, "round 1: responses contain no usable tokens"),
    ], ids=["round-without-responses", "entropy-error-after-perplexity-error", "perplexity-error"])
    def test_a_failing_round_writes_no_metric_file(self, tmp_path, capsys, edits, message):
        path, config = self._edited_run(tmp_path, edits)
        capsys.readouterr()
        out_dir = tmp_path / "m"
        code = run_cli("metrics", str(path), "--config", str(config), "--out", str(out_dir), "--exclude-fallbacks")
        assert code == EXIT_INVALID
        assert capsys.readouterr().err == f"error: {message}\n"
        assert out_dir.is_dir() and not any(out_dir.iterdir())

    def test_config_without_a_corpus_writes_every_other_file(self, tmp_path, capsys):
        path, config = self._edited_run(tmp_path, {1: "empty"}, metrics={})
        out_dir = tmp_path / "m"
        assert run_cli("metrics", str(path), "--config", str(config), "--out", str(out_dir)) == EXIT_OK
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "alignment.csv", "dominant_share.csv", "entropy.csv", "metadata.json", "rank_abundance.csv"]
        statuses = json.loads((out_dir / "metadata.json").read_text(encoding="utf-8"))["statuses"]
        assert statuses == {"entropy": "computed", "dominant_share": "computed",
                            "perplexity": "skipped: no reference corpus configured",
                            "rank_abundance": "computed", "alignment": "computed"}
        assert (out_dir / "entropy.csv").read_text(encoding="utf-8") == "round,value\n1,0\n2,0\n3,0\n"

    def test_partial_last_round_is_refused_and_still_replays(self, demo_config_path, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert run_cli("simulate", "--config", str(demo_config_path), "--out", str(run_dir)) == EXIT_OK
        lines = (run_dir / "transcript.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        first_of_round_3 = next(i for i, line in enumerate(lines) if i and json.loads(line)["round"] == 3)
        cut = tmp_path / "cut.jsonl"
        cut.write_text("".join(lines[:first_of_round_3 + 1]), encoding="utf-8")
        capsys.readouterr()
        for argv in (["metrics", str(cut), "--out", str(tmp_path / "m")],
                     ["report", str(cut), "--out", str(tmp_path / "r")]):
            assert run_cli(*argv, "--config", str(demo_config_path)) == EXIT_INVALID
            err = capsys.readouterr().err
            assert err.startswith(f"error: {cut}: round 3 is partial") and err.count("\n") == 1
        assert not (tmp_path / "m" / "entropy.csv").exists() and not (tmp_path / "r").exists()
        replay = write_config(tmp_path, _replay_doc(demo_config_path, cut, 2))
        assert run_cli("simulate", "--config", str(replay), "--out", str(tmp_path / "replay")) == EXIT_OK
        replayed = (tmp_path / "replay" / "transcript.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        assert replayed[1:] == lines[1:first_of_round_3]

    def test_transcript_not_utf8_is_refused(self, demo_config_path, capsys):
        # a UTF-16 file: its first byte, 0xff, is not UTF-8
        path = FIXTURES / "replay_utf16.jsonl"
        code = run_cli("metrics", str(path), "--config", str(demo_config_path))
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert err == f"error: {path}: line 1: not UTF-8 text (invalid start byte b'\\xff')\n"

    def test_record_lost_mid_file_is_refused(self, demo_config_path, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert run_cli("simulate", "--config", str(demo_config_path), "--out", str(run_dir)) == EXIT_OK
        lines = (run_dir / "transcript.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        round_5 = [i for i, line in enumerate(lines) if i and json.loads(line)["round"] == 5]
        cut = tmp_path / "cut.jsonl"
        cut.write_text("".join(lines[:round_5[2]] + lines[round_5[2] + 1:]), encoding="utf-8")
        capsys.readouterr()
        code = run_cli("metrics", str(cut), "--config", str(demo_config_path), "--out", str(tmp_path / "m"))
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cut}: line {round_5[-1] + 1}: round 5 is missing records: neighbors ")
        assert err.count("\n") == 1
        assert not (tmp_path / "m" / "entropy.csv").exists()

    def test_missing_transcript_is_io_error(self, tmp_path):
        code = run_cli("metrics", str(tmp_path / "nope.jsonl"),
                       "--config", str(FIXTURES / "fixture_config.json"),
                       "--out", str(tmp_path / "m"))
        assert code == EXIT_IO


class TestReport:
    def test_concatenates_runs(self, demo_config_path, tmp_path):
        run_a = tmp_path / "a"
        run_b = tmp_path / "b"
        run_cli("simulate", "--config", str(demo_config_path), "--out", str(run_a))
        run_cli("simulate", "--config", str(demo_config_path), "--out", str(run_b), "--seed", "99")
        report_dir = tmp_path / "report"
        code = run_cli(
            "report",
            str(run_a / "transcript.jsonl"), str(run_b / "transcript.jsonl"),
            "--config", str(demo_config_path), "--out", str(report_dir),
        )
        assert code == EXIT_OK
        lines = (report_dir / "entropy.csv").read_text().splitlines()
        assert lines[0] == "run,round,value"
        runs = {line.split(",")[0] for line in lines[1:]}
        assert len(runs) == 2
        assert len(lines) == 1 + 2 * 40
        rac = (report_dir / "rank_abundance.csv").read_text().splitlines()
        assert rac[0] == "run,rank,hashtag,count"
        metadata = json.loads((report_dir / "metadata.json").read_text())
        assert len(metadata["runs"]) == 2

    def test_output_bytes_are_pinned(self, demo_config_path, tmp_path):
        run_a, run_b = tmp_path / "a", tmp_path / "b"
        run_cli("simulate", "--config", str(demo_config_path), "--out", str(run_a))
        run_cli("simulate", "--config", str(demo_config_path), "--out", str(run_b), "--seed", "99")
        report_dir = tmp_path / "report"
        assert run_cli(
            "report", str(run_a / "transcript.jsonl"), str(run_b / "transcript.jsonl"),
            "--config", str(demo_config_path), "--out", str(report_dir),
        ) == EXIT_OK
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in report_dir.iterdir()
        }
        assert digests == {
            "dominant_share.csv": "289838c68efcb0a8486d57151830ba5fdeca1488f6ee32877220610a9422f2ce",
            "entropy.csv": "dea081a5fa1980e8e6a52e3f4581d0459e8e793ab178748fb87bddde3ade8c48",
            "metadata.json": "61907cca32ca698d7e30bf27a8a93ae392079b053925ea309f4a254c0355e03d",
            "perplexity.csv": "23e98c4d82a77d96a7d7088624b1d62d6ddec7a26ed61b12ed1413fa39ac6f5d",
            "rank_abundance.csv": "1c4f0dc31af82f36b38535f957632d892d5a74d5dc22cb213e8d8192e0dc6a92",
        }

    def test_runs_sharing_a_run_id_are_refused(self, tmp_path, capsys):
        config = write_config(tmp_path, small_mock_doc(run_id="x"))
        paths = []
        for seed in ("1", "2"):
            out_dir = tmp_path / f"seed{seed}"
            assert run_cli("simulate", "--config", str(config), "--out", str(out_dir), "--seed", seed) == EXIT_OK
            paths.append(str(out_dir / "transcript.jsonl"))
        capsys.readouterr()
        report_dir = tmp_path / "report"
        code = run_cli("report", *paths, "--config", str(config), "--out", str(report_dir))
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert paths[0] in err and paths[1] in err
        assert "run_id" in err
        assert not report_dir.exists()


def test_module_entry_point():
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "hashnet", "validate", "--config",
         str(REPO / "demos" / "config_mock.json")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "ok:" in result.stdout


def test_console_flow_needs_no_numpy(tmp_path, demo_config_path, capsys):
    # numpy is a test dependency only: with it unimportable, validate, simulate,
    # metrics --strict and report still run and write the same bytes
    import os
    import subprocess
    import sys

    blocker = tmp_path / "blocker"
    (blocker / "numpy").mkdir(parents=True)
    (blocker / "numpy" / "__init__.py").write_text('raise ImportError("numpy is blocked")\n', encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(blocker), str(REPO / "src")])}
    config = str(demo_config_path)

    def flow(out_dir, run):
        transcript = str(out_dir / "transcript.jsonl")
        for argv in (
            ["validate", "--config", config],
            ["simulate", "--config", config, "--out", str(out_dir)],
            ["metrics", transcript, "--config", config, "--out", str(out_dir / "metrics"), "--strict"],
            ["report", transcript, "--config", config, "--out", str(out_dir / "report")],
        ):
            run(argv)

    def blocked(argv):
        result = subprocess.run([sys.executable, "-m", "hashnet", *argv], capture_output=True, text=True, env=env)
        assert result.returncode == 0, (argv, result.stdout, result.stderr)

    def in_process(argv):
        assert run_cli(*argv) == EXIT_OK

    flow(tmp_path / "blocked", blocked)
    flow(tmp_path / "normal", in_process)
    capsys.readouterr()

    committed = (FIXTURES / "demo_transcript.sha256").read_text().strip()
    assert hashlib.sha256((tmp_path / "blocked" / "transcript.jsonl").read_bytes()).hexdigest() == committed
    for part in ("metrics", "report"):
        names = sorted(path.name for path in (tmp_path / "normal" / part).glob("*.csv"))
        assert names == sorted(path.name for path in (tmp_path / "blocked" / part).glob("*.csv"))
        assert len(names) >= 4
        for name in names:
            normal = (tmp_path / "normal" / part / name).read_bytes()
            assert (tmp_path / "blocked" / part / name).read_bytes() == normal, f"{part}/{name}"


def test_remote_flow_needs_no_requests(tmp_path, stub_server):
    # the HTTP client is the standard library's: with requests unimportable, a
    # remote config validates and simulates, and importing the CLI loads no
    # HTTP stack at all
    import os
    import subprocess
    import sys

    blocker = tmp_path / "blocker"
    (blocker / "requests").mkdir(parents=True)
    (blocker / "requests" / "__init__.py").write_text('raise ImportError("requests is blocked")\n', encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(blocker), str(REPO / "src")])}

    code = "import sys, hashnet.cli\nloaded = {'requests', 'http.client', 'ssl'} & set(sys.modules)\nassert not loaded, loaded\n"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr

    config = str(write_config(tmp_path, _remote_doc(base_url=stub_server.base_url)))
    for argv in (["validate", "--config", config], ["simulate", "--config", config, "--out", str(tmp_path / "run")]):
        result = subprocess.run([sys.executable, "-m", "hashnet", *argv], capture_output=True, text=True, env=env)
        assert result.returncode == 0, (argv, result.stdout, result.stderr)
    transcript = read_transcript(tmp_path / "run" / "transcript.jsonl")
    assert transcript.rounds_completed() == 3
    assert transcript.fallback_count() == 0
    assert len(stub_server.requests) == 2 * len(transcript.records)


def test_serial_runs_load_no_generated_code_and_no_pool(tmp_path):
    # value classes are named tuples or plain classes, the thread pool is
    # imported only above parallelism 1, and the header clock is time's: so
    # importing the CLI, validating and a serial simulate load none of these
    import os
    import subprocess
    import sys

    script = """
import sys
unused = {"dataclasses", "inspect", "concurrent.futures", "datetime"} - set(sys.modules)
from hashnet.cli import main
config, out = sys.argv[1:]
loaded = [sorted(unused & set(sys.modules))]
assert main(["validate", "--config", config]) == 0
loaded.append(sorted(unused & set(sys.modules)))
assert main(["simulate", "--config", config, "--out", out + "/p1"]) == 0
loaded.append(sorted(unused & set(sys.modules)))
assert loaded == [[], [], []], loaded
assert main(["simulate", "--config", config, "--parallelism", "4", "--out", out + "/p4"]) == 0
assert "concurrent.futures" in sys.modules
"""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    argv = [sys.executable, "-c", script, str(REPO / "demos" / "config_mock.json"), str(tmp_path)]
    result = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "p1" / "transcript.jsonl").read_bytes() == (tmp_path / "p4" / "transcript.jsonl").read_bytes()


def test_remote_run_header_timestamp_is_utc_now(tmp_path, stub_server):
    import re
    from datetime import datetime, timedelta, timezone

    config = write_config(tmp_path, _remote_doc(base_url=stub_server.base_url))
    assert run_cli("simulate", "--config", str(config), "--out", str(tmp_path / "run")) == EXIT_OK
    stamp = read_transcript(tmp_path / "run" / "transcript.jsonl").header["timestamp"]
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", stamp), stamp
    written = datetime.strptime(stamp, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=timezone.utc)
    assert abs(datetime.now(timezone.utc) - written) < timedelta(minutes=1)
