"""Metric operations against oracles, known values, and properties."""

import math
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hashnet import (
    ConfigError,
    EmbedderUnavailableError,
    HashtagDistribution,
    MetricError,
    OneHotEmbedder,
    RemoteEmbedder,
    Transcript,
    UnigramModel,
    align_hashtags,
    build_unigram_model,
    dominant_share,
    metric_series,
    perplexity,
    rank_abundance,
    read_transcript,
    round_distribution,
    run_metrics,
    run_simulation,
    shannon_entropy,
    write_transcript,
)
from hashnet.metrics import HashingEmbedder, _embedding_rows, round_responses, run_responses, tokenize
from hashnet.narrative import FocalNarrative, NarrativeEvent

from conftest import FIXTURES, make_mock_config
from oracles import (
    align_bruteforce, entropy_mp, normalize_reference, perplexity_mp, read_jsonl, responses, tally_all, tally_round,
)
from test_engine import hostile_transcripts, make_record


@pytest.fixture(scope="module")
def fixture_transcript():
    return read_transcript(FIXTURES / "fixture_transcript.jsonl")


class TestRoundDistribution:
    def test_counting_example(self):
        records = [
            make_record(1, 0, 1, "#x", "#x"),
            make_record(1, 2, 3, "#y", "#x"),
        ]
        dist = round_distribution(Transcript(header={}, records=records), 1)
        assert dist.counts == {"x": 3, "y": 1}
        assert dist.total == 4

    def test_all_same(self):
        records = [make_record(1, 0, 1, "#x", "#x"), make_record(1, 2, 3, "#x", "#x")]
        dist = round_distribution(Transcript(header={}, records=records), 1)
        assert dist.counts == {"x": 4}

    def test_ten_pair_fixture_matches_independent_tally(self, tmp_path):
        path = tmp_path / "t.jsonl"
        run_simulation(make_mock_config(n=20, rounds=3, seed=13), out_path=path)
        _, raw_records = read_jsonl(path)
        transcript = read_transcript(path)
        for round_index in (1, 2, 3):
            expected = tally_round(raw_records, round_index)
            dist = round_distribution(transcript, round_index)
            assert dist.counts == dict(expected)

    def test_missing_round_raises(self, fixture_transcript):
        with pytest.raises(MetricError):
            round_distribution(fixture_transcript, 9)

    def test_partial_round_is_left_out(self, tmp_path):
        # a file cut inside round 3: every per-round accessor stops at round 2, as metric_series does
        path = tmp_path / "t.jsonl"
        whole = run_simulation(make_mock_config(n=10, rounds=3, seed=17), out_path=path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(lines[:-1]), encoding="utf-8")
        transcript = read_transcript(path)
        assert transcript.partial and transcript.records[-1].round == 3
        assert transcript.rounds() == whole.rounds()[:2]
        assert transcript.records_for_round(3) == []
        for accessor in (round_responses, round_distribution):
            with pytest.raises(MetricError, match="^transcript has no records for round 3$"):
                accessor(transcript, 3)
        assert [r for r, _ in metric_series(transcript, "entropy").values] == [1, 2]

    def test_unique_dedup_policy(self):
        records = [make_record(1, 0, 1, "#x", "#x"), make_record(1, 2, 3, "#y", "#x")]
        dist = round_distribution(Transcript(header={}, records=records), 1, dedup="unique")
        assert dist.counts == {"x": 1, "y": 1}

    def test_exclude_fallbacks(self, fixture_transcript):
        included = round_distribution(fixture_transcript, 2)
        excluded = round_distribution(fixture_transcript, 2, include_fallbacks=False)
        assert included.counts == {"blackout": 2, "storm": 1, "grid": 1}
        assert excluded.counts == {"blackout": 2, "storm": 1}


class TestShannonEntropy:
    def test_single_hashtag_is_zero(self):
        assert shannon_entropy(HashtagDistribution({"x": 10})) == 0.0

    def test_uniform_four_is_two_bits(self):
        assert shannon_entropy(HashtagDistribution({"a": 4, "b": 4, "c": 4, "d": 4})) == 2.0

    def test_three_one_split(self):
        value = shannon_entropy(HashtagDistribution({"a": 3, "b": 1}))
        assert value == pytest.approx(0.8112781245, abs=1e-9)
        assert value == pytest.approx(float(entropy_mp({"a": 3, "b": 1})), rel=1e-12)

    def test_empty_distribution_rejected(self):
        with pytest.raises(MetricError):
            shannon_entropy(HashtagDistribution({}))

    def test_matches_oracle_on_random_distributions(self):
        rng = random.Random(99)
        for _ in range(200):
            counts = {f"t{i}": rng.randint(1, 40) for i in range(rng.randint(1, 30))}
            ours = shannon_entropy(HashtagDistribution(counts))
            assert ours == pytest.approx(float(entropy_mp(counts)), rel=1e-9, abs=1e-12)

    @given(st.dictionaries(st.text(min_size=1, max_size=6), st.integers(1, 50), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_bounds_and_zero_iff_dominant_one(self, counts):
        dist = HashtagDistribution(counts)
        h = shannon_entropy(dist)
        assert -1e-12 <= h <= math.log2(len(counts)) + 1e-12
        if h == 0.0:
            assert dominant_share(dist) == 1.0
        if dominant_share(dist) == 1.0:
            assert h == 0.0


class TestDominantShare:
    def test_unanimous(self):
        assert dominant_share(HashtagDistribution({"x": 4})) == 1.0

    def test_half(self):
        assert dominant_share(HashtagDistribution({"a": 2, "b": 1, "c": 1})) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            dominant_share(HashtagDistribution({}))


class TestUnigramModel:
    def test_worked_example(self):
        model = build_unigram_model(["f", "f", "t", "n"])
        assert model.probability("f") == pytest.approx(3 / 8, rel=0, abs=0)
        assert model.probability("t") == pytest.approx(2 / 8, rel=0, abs=0)
        assert model.probability("n") == pytest.approx(2 / 8, rel=0, abs=0)
        assert model.oov_probability == pytest.approx(1 / 8, rel=0, abs=0)

    def test_repeated_single_token(self):
        for k in (1, 2, 7, 50):
            model = build_unigram_model(["tok"] * k)
            assert model.probability("tok") == pytest.approx((k + 1) / (k + 2), rel=1e-15)
            assert model.oov_probability == pytest.approx(1 / (k + 2), rel=1e-15)

    def test_mass_sums_to_one_on_random_corpora(self):
        rng = random.Random(4)
        for _ in range(500):
            corpus = [f"t{rng.randint(0, 30)}" for _ in range(rng.randint(1, 80))]
            model = build_unigram_model(corpus)
            total = sum(model.probabilities.values()) + model.oov_probability
            assert total == pytest.approx(1.0, abs=1e-12)
            assert all(p > 0 for p in model.probabilities.values())
            assert model.oov_probability > 0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigError):
            build_unigram_model([])

    def test_word_tokenization(self):
        tokens = tokenize(["#Save Energy Now", "#save"], "words")
        assert tokens == ["save", "energy", "now", "save"]
        model = build_unigram_model(["#Save Energy Now", "#save"], tokenization="words")
        assert model.probability("save") == pytest.approx(3 / 8)


class TestPerplexity:
    def test_uniform_model_identity_exact(self):
        model = UnigramModel(probabilities={f"t{i}": 0.25 for i in range(4)}, oov_probability=0.0001)
        assert perplexity(model, ["t0", "t1", "t2"]) == 4.0

    def test_uniform_model_identity_general(self):
        for v in range(1, 65):
            model = UnigramModel(
                probabilities={f"t{i}": 1.0 / v for i in range(v)}, oov_probability=1e-9
            )
            responses = [f"t{i % v}" for i in range(7)]
            assert perplexity(model, responses) == pytest.approx(v, rel=1e-12)

    def test_worked_add_one_example(self):
        model = build_unigram_model(["f", "f", "t", "n"])
        value = perplexity(model, ["f", "s"])
        assert value == pytest.approx(4.6188, abs=1e-4)
        assert value == pytest.approx(math.exp(-(math.log(3 / 8) + math.log(1 / 8)) / 2), rel=1e-12)

    def test_mode_only_responses(self):
        model = build_unigram_model(["a", "a", "a", "b"])
        assert perplexity(model, ["a", "a"]) == pytest.approx(1 / model.probability("a"), rel=1e-12)

    def test_always_above_one_under_add_one(self):
        rng = random.Random(8)
        for _ in range(100):
            corpus = [f"t{rng.randint(0, 10)}" for _ in range(rng.randint(1, 40))]
            model = build_unigram_model(corpus)
            responses = [f"t{rng.randint(0, 14)}" for _ in range(rng.randint(1, 20))]
            assert perplexity(model, responses) > 1.0

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(21)
        for _ in range(200):
            corpus = [f"t{rng.randint(0, 20)}" for _ in range(rng.randint(1, 60))]
            responses = [f"t{rng.randint(0, 25)}" for _ in range(rng.randint(1, 20))]
            ours = perplexity(build_unigram_model(corpus), responses)
            theirs = float(perplexity_mp(corpus, responses))
            assert ours == pytest.approx(theirs, rel=1e-9)

    def test_empty_responses_rejected(self):
        model = build_unigram_model(["a"])
        with pytest.raises(MetricError):
            perplexity(model, [])


def synthetic_events(n):
    return tuple(NarrativeEvent(label=f"E{i}", description=f"event number {i}") for i in range(n))


class TestAlignment:
    def test_one_hot_identity(self):
        narrative = FocalNarrative(
            id="n", title="n", full_text="t",
            events=(NarrativeEvent("A", "#alpha"), NarrativeEvent("B", "#beta")),
        )
        result = align_hashtags(["#beta"], narrative, OneHotEmbedder())
        assert result.assignments["#beta"] == ("B", pytest.approx(1.0))
        assert result.counts == {"A": 0, "B": 1}

    def test_orthogonal_ties_go_to_earlier_event(self):
        narrative = FocalNarrative(
            id="n", title="n", full_text="t",
            events=(NarrativeEvent("A", "#alpha"), NarrativeEvent("B", "#beta")),
        )
        result = align_hashtags(["#gamma"], narrative, OneHotEmbedder())
        assert result.assignments["#gamma"][0] == "A"

    def test_zero_vectors_have_similarity_zero(self):
        # a zero event vector beats a negative cosine; a zero tag vector ties everywhere
        vectors = {"E0": [-1.0, 0.0], "E1": [0.0, 0.0], "#x": [1.0, 0.0], "#zero": np.zeros(2)}

        class PresetEmbedder:
            def embed(self, texts):
                return [vectors[text] for text in texts]

        narrative = FocalNarrative(
            id="n", title="n", full_text="t", events=(NarrativeEvent("A", "E0"), NarrativeEvent("B", "E1")),
        )
        result = align_hashtags(["#x", "#zero"], narrative, PresetEmbedder())
        assert result.assignments == {"#x": ("B", 0.0), "#zero": ("A", 0.0)}

    def test_vector_count_other_than_text_count_is_unavailable(self):
        class ShortEmbedder:
            def embed(self, texts):
                return [[1.0, 0.0]] * (len(texts) - 1)

        narrative = FocalNarrative(id="n", title="n", full_text="t", events=synthetic_events(2))
        with pytest.raises(EmbedderUnavailableError):
            align_hashtags(["#x", "#y"], narrative, ShortEmbedder())

    def test_ragged_embedding_reply_is_malformed(self):
        reply = {"data": [{"index": 1, "embedding": [1.0, 2.0]}, {"index": 0, "embedding": [1.0]}]}
        with pytest.raises(ValueError):
            _embedding_rows(reply)
        reply["data"][1]["embedding"].append(3.0)
        assert _embedding_rows(reply) == [[1.0, 3.0], [1.0, 2.0]]

    @pytest.mark.parametrize("indices", [(1, 1), (5, 7), (0, None), (0, 1.0), (0, True)],
                             ids=["repeated", "out-of-range", "missing", "float", "bool"])
    def test_embedding_reply_indices_must_be_each_row_once(self, indices):
        rows = [{"embedding": [float(i)]} if index is None else {"index": index, "embedding": [float(i)]}
                for i, index in enumerate(indices)]
        with pytest.raises(ValueError, match="indices"):
            _embedding_rows({"data": rows})

    def test_shuffled_embedding_reply_comes_back_in_input_order(self):
        order = [3, 0, 4, 1, 2]
        reply = {"data": [{"index": index, "embedding": [float(index), 1.0]} for index in order]}
        assert _embedding_rows(reply) == [[float(index), 1.0] for index in range(5)]

    def test_counts_weighted_by_frequency(self):
        narrative = FocalNarrative(
            id="n", title="n", full_text="t",
            events=(NarrativeEvent("A", "#alpha"), NarrativeEvent("B", "#beta")),
        )
        result = align_hashtags(["#alpha", "#alpha", "#beta"], narrative, OneHotEmbedder())
        assert result.counts == {"A": 2, "B": 1}
        assert sum(result.counts.values()) == 3

    def test_matches_bruteforce_on_random_vectors(self):
        rng = np.random.default_rng(5)
        events = synthetic_events(5)
        narrative = FocalNarrative(id="n", title="n", full_text="t", events=events)
        tags = [f"#tag{i}" for i in range(50)]
        vectors = {text: rng.normal(size=8) for text in [e.description for e in events] + tags}

        class PresetEmbedder:
            def embed(self, texts):
                return np.array([vectors[t] for t in texts])

        result = align_hashtags(tags, narrative, PresetEmbedder())
        expected = align_bruteforce(
            [vectors[t].tolist() for t in tags],
            [vectors[e.description].tolist() for e in events],
        )
        for tag, event_index in zip(tags, expected):
            assert result.assignments[tag][0] == events[event_index].label

    def test_matches_bruteforce_at_scale(self):
        # invariant holds up to 1e3 hashtags x 1e2 events
        rng = np.random.default_rng(11)
        events = synthetic_events(100)
        narrative = FocalNarrative(id="n", title="n", full_text="t", events=events)
        tags = [f"#tag{i}" for i in range(1000)]
        texts = [e.description for e in events] + tags
        vectors = {text: rng.normal(size=6) for text in texts}

        class PresetEmbedder:
            def embed(self, batch):
                return np.array([vectors[t] for t in batch])

        result = align_hashtags(tags, narrative, PresetEmbedder())
        expected = align_bruteforce(
            [vectors[t].tolist() for t in tags],
            [vectors[e.description].tolist() for e in events],
        )
        mismatches = sum(
            result.assignments[tag][0] != events[idx].label for tag, idx in zip(tags, expected)
        )
        assert mismatches == 0

    def test_no_events_rejected(self):
        narrative = FocalNarrative(id="n", title="n", full_text="t", events=())
        with pytest.raises(MetricError):
            align_hashtags(["#x"], narrative, OneHotEmbedder())

    def test_broken_embedder_is_explicit(self):
        class Broken:
            def embed(self, texts):
                raise RuntimeError("no server")

        narrative = FocalNarrative(id="n", title="n", full_text="t", events=synthetic_events(2))
        with pytest.raises(EmbedderUnavailableError):
            align_hashtags(["#x"], narrative, Broken())

    def test_remote_embedder_retries_what_the_chat_backend_retries(self, stub_server):
        embedder = RemoteEmbedder(stub_server.base_url, "m", backoff=0.01)
        stub_server.script.append(404)
        with pytest.raises(EmbedderUnavailableError):
            embedder.embed(["#x"])
        assert len(stub_server.requests) == 1
        stub_server.script.append(503)
        assert embedder.embed(["#xy"]) == [[3.0, 1.0]]
        assert len(stub_server.requests) == 3

    def test_remote_embedder_sends_the_api_key(self, stub_server, monkeypatch):
        monkeypatch.setenv("EMBED_KEY", "secret-token")
        RemoteEmbedder(stub_server.base_url, "m", api_key_env="EMBED_KEY").embed(["#x"])
        path, payload, headers = stub_server.requests[0]
        assert path.endswith("/embeddings")
        assert payload == {"model": "m", "input": ["#x"]}
        assert headers.get("Authorization") == "Bearer secret-token"

    def test_hashing_embedder_is_deterministic_and_normalized(self):
        embedder = HashingEmbedder(dim=64)
        sparse = embedder.embed(["#storm", "#storm", "#other"])
        assert all(0 <= axis < 64 for row in sparse for axis in row)
        a = [[row.get(axis, 0.0) for axis in range(64)] for row in sparse]
        assert np.allclose(a[0], a[1])
        assert not np.allclose(a[0], a[2])
        assert np.linalg.norm(a[0]) == pytest.approx(1.0)


class TestRankAbundance:
    def test_single_hashtag_run(self):
        records = [make_record(1, 0, 1, "#x", "#x"), make_record(2, 0, 1, "#x", "#x")]
        result = rank_abundance(Transcript(header={}, records=records))
        assert result.table == (("x", 4),)
        assert result.entropy == 0.0

    def test_tie_broken_lexicographically(self):
        records = []
        raws = ["#a"] * 5 + ["#b"] * 3 + ["#c"] * 3 + ["#a"]
        for i in range(0, len(raws) - 1, 2):
            records.append(make_record(i // 2 + 1, 0, 1, raws[i], raws[i + 1]))
        result = rank_abundance(Transcript(header={}, records=records))
        assert result.table == (("a", 6), ("b", 3), ("c", 3))
        assert result.table[1][0] == "b"  # before c

    def test_truncates_to_k(self, fixture_transcript):
        result = rank_abundance(fixture_transcript, k=2)
        assert len(result.table) == 2
        full = rank_abundance(fixture_transcript, k=10)
        assert result.entropy == full.entropy  # entropy over the full distribution


class TestMetricSeries:
    def test_constant_run_entropy_series(self):
        records = [make_record(t, 0, 1, "#x", "#x") for t in (1, 2, 3)]
        series = metric_series(Transcript(header={}, records=records), "entropy")
        assert series.values == ((1, 0.0), (2, 0.0), (3, 0.0))

    def test_fixture_series_equal_oracle_recompute(self, fixture_transcript):
        _, raw_records = read_jsonl(FIXTURES / "fixture_transcript.jsonl")
        series = metric_series(fixture_transcript, "entropy")
        for round_index, value in series.values:
            expected = float(entropy_mp(dict(tally_round(raw_records, round_index))))
            assert value == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_dominant_share_codomain(self):
        transcript = run_simulation(make_mock_config(n=10, rounds=8, seed=3))
        series = metric_series(transcript, "dominant_share")
        assert len(series.values) == 8
        for _, value in series.values:
            assert 0.0 < value <= 1.0

    def test_perplexity_requires_model(self, fixture_transcript):
        with pytest.raises(MetricError):
            metric_series(fixture_transcript, "perplexity")

    def test_error_annotated_with_round(self):
        records = [make_record(1, 0, 1, "#ok", "#ok"), make_record(2, 0, 1, "#!!!", "#???")]
        transcript = Transcript(header={}, records=records)
        model = build_unigram_model(["#ok"])
        # round 2 hashtags normalize to nothing: no usable tokens
        with pytest.raises(MetricError) as err:
            metric_series(transcript, "perplexity", model=model)
        assert "round 2" in str(err.value)

    def test_rounds_strictly_increasing(self, fixture_transcript):
        series = metric_series(fixture_transcript, "entropy")
        rounds = [r for r, _ in series.values]
        assert rounds == sorted(set(rounds))

    def test_round_without_records_raises(self):
        records = [make_record(1, 0, 1, "#x", "#x"), make_record(3, 0, 1, "#x", "#x")]
        transcript = Transcript(header={}, records=records)
        with pytest.raises(MetricError, match="no records for round 2"):
            metric_series(transcript, "entropy")
        with pytest.raises(MetricError, match="no records for round 2"):
            rank_abundance(transcript)


class TestPerplexitySeries:
    """``metric_series`` perplexity against ``perplexity`` of each round's raw
    hashtags, which tokenizes them itself."""

    @given(
        transcript=hostile_transcripts(),
        tokenization=st.sampled_from(("hashtag", "words")),
        include_fallbacks=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_perplexity_of_the_raw_hashtags(self, transcript, tokenization, include_fallbacks):
        model = build_unigram_model(["#a", "#A! b", "#福島", "#Straße 1", "#noresponse"], tokenization)
        expected, error = [], None
        for round_index in range(1, transcript.rounds_completed() + 1):
            raws = round_responses(transcript, round_index, include_fallbacks=include_fallbacks, form="raw")
            try:
                expected.append((round_index, perplexity(model, raws)))
            except MetricError as err:
                error = f"round {round_index}: {err}"
                break
        if error is None:
            series = metric_series(transcript, "perplexity", model=model, include_fallbacks=include_fallbacks)
            assert series.values == tuple(expected)  # exact: same tokens, summed in the same order
        else:
            with pytest.raises(MetricError) as caught:
                metric_series(transcript, "perplexity", model=model, include_fallbacks=include_fallbacks)
            assert str(caught.value) == error

    @pytest.mark.parametrize("tokenization", ["hashtag", "words"])
    def test_all_fallback_round_excluded(self, tokenization):
        records = [make_record(1, 0, 1, "#a", "#b"), make_record(2, 0, 1, "#a", "#b", fb_a=True, fb_b=True)]
        model = build_unigram_model(["#a"], tokenization)
        with pytest.raises(MetricError) as caught:
            metric_series(Transcript(header={}, records=records), "perplexity", model=model, include_fallbacks=False)
        assert str(caught.value) == "round 2: perplexity of an empty response list is undefined"

    @pytest.mark.parametrize("tokenization", ["hashtag", "words"])
    def test_round_of_empty_forms(self, tokenization):
        records = [make_record(1, 0, 1, "###", "!?"), make_record(2, 0, 1, "#a", "#b")]
        model = build_unigram_model(["#a"], tokenization)
        with pytest.raises(MetricError) as caught:
            metric_series(Transcript(header={}, records=records), "perplexity", model=model)
        assert str(caught.value) == "round 1: responses contain no usable tokens"


class CountingRecords(list):
    """A record list that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def _record_passes(rounds: int) -> int:
    records = CountingRecords(
        make_record(t, a, a + 1, f"#t{(t + a) % 3}", "#x") for t in range(1, rounds + 1) for a in (0, 2)
    )
    transcript = Transcript(header={}, records=records)
    model = build_unigram_model(["#x", "#t0"])
    for metric in ("entropy", "dominant_share", "perplexity"):
        assert len(metric_series(transcript, metric, model=model).values) == rounds
    rank_abundance(transcript)
    return records.iterations


def test_metrics_read_the_records_a_fixed_number_of_times():
    assert _record_passes(5) == _record_passes(50)


def test_metrics_pure_function_of_file(tmp_path):
    config = make_mock_config(n=10, rounds=5, seed=17)
    path = tmp_path / "t.jsonl"
    in_memory = run_simulation(config, out_path=path)
    from_disk = read_transcript(path)
    assert metric_series(in_memory, "entropy") == metric_series(from_disk, "entropy")
    assert metric_series(in_memory, "dominant_share") == metric_series(from_disk, "dominant_share")
    assert rank_abundance(in_memory) == rank_abundance(from_disk)


@given(transcript=hostile_transcripts())
@settings(max_examples=60, deadline=None)
def test_responses_equal_the_json_oracle(transcript):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "t.jsonl")
        write_transcript(transcript, path)
        reloaded = read_transcript(path)
        _, docs = read_jsonl(path)
    for form in ("raw", "normalized"):
        for include_fallbacks in (True, False):
            for round_index in range(1, reloaded.rounds_completed() + 1):
                assert round_responses(reloaded, round_index, include_fallbacks=include_fallbacks, form=form) == (
                    responses(docs, round_index, include_fallbacks=include_fallbacks, form=form))
            assert run_responses(reloaded, include_fallbacks=include_fallbacks, form=form) == (
                responses(docs, include_fallbacks=include_fallbacks, form=form))


def test_round_responses_raw_form(fixture_transcript):
    raw = round_responses(fixture_transcript, 1, form="raw")
    assert raw == ["#storm", "#Storm!", "#storm", "#storm"]


ORACLE_CORPUS = ["#a", "#A! b", "#福島", "#Straße 1", "#noresponse"]


def _oracle_tokens(texts, tokenization):
    """Tokens as the README defines them: each whole text, or each
    whitespace-split word, normalized; empty tokens dropped."""
    pieces = texts if tokenization == "hashtag" else [word for text in texts for word in text.split()]
    return [token for token in map(normalize_reference, pieces) if token]


def _oracle_run(docs, rounds, *, include_fallbacks, dedup, tokenization, base, k):
    """Series, rank table and raw hashtags of a run straight off its record
    objects, or the message of the first error: an entropy error in any
    round before a perplexity error in any round."""
    entropy, dominant, perplexities = [], [], []
    perplexity_error = None
    for round_index in range(1, rounds + 1):
        counts = tally_round(docs, round_index, include_fallbacks=include_fallbacks)
        if not counts:
            return f"round {round_index} has no responses after exclusions"
        if dedup == "unique":
            counts = {tag: 1 for tag in counts}
        entropy.append((round_index, float(entropy_mp(counts, base))))
        dominant.append((round_index, max(counts.values()) / sum(counts.values())))
        field = "normalized" if tokenization == "hashtag" else "raw"
        tokens = _oracle_tokens(
            responses(docs, round_index, include_fallbacks=include_fallbacks, form=field), tokenization)
        if not tokens:
            perplexity_error = perplexity_error or f"round {round_index}: responses contain no usable tokens"
        else:
            corpus_tokens = _oracle_tokens(ORACLE_CORPUS, tokenization)
            perplexities.append((round_index, float(perplexity_mp(corpus_tokens, tokens))))
    if perplexity_error:
        return perplexity_error
    totals = tally_all(docs, include_fallbacks=include_fallbacks)
    table = sorted(totals.items(), key=lambda item: (-item[1], item[0]))[:k]
    return (entropy, dominant, perplexities, table, float(entropy_mp(dict(totals))),
            responses(docs, include_fallbacks=include_fallbacks, form="raw"))


class TestRunMetrics:
    """``run_metrics``, the one walk ``hashnet metrics`` and ``report`` take,
    against the oracles and against the separate walks."""

    @given(
        transcript=hostile_transcripts(),
        include_fallbacks=st.booleans(),
        dedup=st.sampled_from(("per_response", "unique")),
        tokenization=st.sampled_from(("hashtag", "words")),
        base=st.sampled_from((2.0, math.e, 10.0, 1.5)),
        k=st.integers(1, 12),
    )
    # round 1's forms all normalize to nothing, and round 2 is all fallbacks: entropy's error must win
    @example(transcript=Transcript(header={"run_id": "x", "network_edges": [[0, 1]]}, records=[
        make_record(1, 0, 1, "###", "!?"), make_record(2, 0, 1, "#a", "#b", fb_a=True, fb_b=True)]),
        include_fallbacks=False, dedup="per_response", tokenization="hashtag", base=2.0, k=10)
    @settings(max_examples=200, deadline=None)
    def test_equals_the_oracles_and_the_separate_walks(self, transcript, include_fallbacks, dedup, tokenization,
                                                       base, k):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "t.jsonl")
            write_transcript(transcript, path)
            transcript = read_transcript(path)
            _, docs = read_jsonl(path)
        model = build_unigram_model(ORACLE_CORPUS, tokenization)
        options = {"base": base, "dedup": dedup, "include_fallbacks": include_fallbacks}
        expected = _oracle_run(docs, transcript.rounds_completed(), include_fallbacks=include_fallbacks, dedup=dedup,
                               tokenization=tokenization, base=base, k=k)

        # the separate walks, in the order the commands took them before
        separate, error = {}, None
        try:
            for name in ("entropy", "dominant_share", "perplexity"):
                separate[name] = metric_series(transcript, name, model=model, **options)
            separate["rank"] = rank_abundance(transcript, k, include_fallbacks=include_fallbacks)
        except MetricError as err:
            error = err

        if isinstance(expected, str):
            with pytest.raises(MetricError) as caught:
                run_metrics(transcript, model=model, k=k, **options)
            assert str(caught.value) == str(error) == expected
            return
        assert error is None
        run = run_metrics(transcript, model=model, k=k, **options)
        entropy, dominant, perplexities, table, full_entropy, raw = expected
        assert list(run.series) == ["entropy", "dominant_share", "perplexity"]
        for name, oracle in zip(run.series, (entropy, dominant, perplexities)):
            assert run.series[name] == separate[name]  # the same floats
            values = run.series[name].values
            assert [r for r, _ in values] == [r for r, _ in oracle]
            for (_, value), (_, want) in zip(values, oracle):
                assert value == pytest.approx(want, rel=1e-9, abs=1e-12), name
        assert run.rank_abundance == separate["rank"]
        assert list(run.rank_abundance.table) == table
        assert run.rank_abundance.entropy == pytest.approx(full_entropy, rel=1e-9, abs=1e-12)
        assert run.hashtags == raw == run_responses(transcript, include_fallbacks=include_fallbacks, form="raw")
        without_model = run._replace(series={name: run.series[name] for name in ("entropy", "dominant_share")})
        assert run_metrics(transcript, k=k, **options) == without_model

    def test_no_records(self):
        with pytest.raises(MetricError, match="^transcript has no records$"):
            run_metrics(Transcript(header={}, records=[]))
