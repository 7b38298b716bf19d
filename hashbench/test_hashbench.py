"""Quick test of the benchmark itself: every workload at its tiny size,
traced and untraced, against pinned digests and the metric names in
BENCHMARK.json.

    python3 -m pytest hashbench/test_hashbench.py -q
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 1


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "hashbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload(workload, trace):
    pins = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    assert str(SEED) in pins["tiny"][workload], "tiny digest must be pinned for the test seed"
    done = run_bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in expected]
    for entry in expected:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]


def test_metric_descriptions_match_benchmark():
    described = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
    assert list(described["per_layer"]) == [entry["name"] for entry in BENCH["per_layer"]]
    assert set(described["workloads"]) == {entry["name"] for entry in BENCH["workloads"]}
    assert {entry["name"] for entry in BENCH["end_to_end"]} <= set(described["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "hashbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "sim_mock", "--seed", str(SEED), "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_generated_transcript_is_one_the_engine_could_write(tmp_path):
    import hashnet

    path = tmp_path / "input.jsonl"
    generated = workloads.generate_metrics_transcript(hashnet, "tiny", SEED, path)
    transcript = hashnet.read_transcript(path)
    assert len(transcript.records) == generated["records"]
    edges = {tuple(edge) for edge in transcript.header["network_edges"]}
    fallbacks = 0
    for record in transcript.records:
        assert (record.agent_a, record.agent_b) in edges
        assert record.points_a == record.points_b == int(record.match)
        for raw, tag, fell_back in ((record.raw_a, record.hashtag_a, record.fallback_a),
                                    (record.raw_b, record.hashtag_b, record.fallback_b)):
            assert tag.normalized == hashnet.normalize_hashtag(tag.raw)
            assert hashnet.parse_response(raw) == tag
            fallbacks += fell_back
    assert fallbacks > 0


def test_metric_check_catches_a_wrong_value(tmp_path):
    import hashnet
    from hashnet.cli import main

    path = tmp_path / "input.jsonl"
    generated = workloads.generate_metrics_transcript(hashnet, "tiny", SEED, path)
    oracle = workloads.metric_oracle(generated["kept"], ROOT / workloads.CORPUS)
    out = tmp_path / "metrics"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workloads.config_doc("metrics_large", "tiny", SEED, ROOT)), encoding="utf-8")
    assert main(["metrics", str(path), "--config", str(config), "--out", str(out), "--exclude-fallbacks"]) == 0
    assert workloads.check_metrics(out, oracle) == []
    lines = (out / "entropy.csv").read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2].split(",")[0] + ",0.5"
    (out / "entropy.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert workloads.check_metrics(out, oracle)


@pytest.mark.parametrize("field, change, problem", [
    ("points_a", lambda doc: 1 - doc["points_a"], "scored wrongly"),
    ("hashtag_b", lambda doc: {"raw": "#Other", "normalized": "other"}, "imitate gives"),
])
def test_transcript_check_catches_a_wrong_record(tmp_path, field, change, problem):
    from hashnet import cli, run_simulation

    config = tmp_path / "config.json"
    config.write_text(json.dumps(workloads.config_doc("sim_mock", "tiny", SEED, ROOT)), encoding="utf-8")
    doc, base_dir = cli.load_config(config)
    loaded = cli.build_config(doc, base_dir, argparse.Namespace(seed=None, parallelism=None))
    path = tmp_path / "transcript.jsonl"
    run_simulation(loaded.run, out_path=path)

    def check(p):
        return workloads.check_transcript(p, "tiny", "sim_mock", lambda agent: None)

    assert check(path) == []
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[-1])
    record[field] = change(record)
    lines[-1] = json.dumps(record)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert any(problem in p for p in check(bad))
