"""hashnet benchmark.

    python3 hashbench/run.py --workload sim_mock --seed 1 --seconds 20 --trace 0
    python3 hashbench/run.py --workload all --seed 1

Workloads (see BENCHMARK.json and hashbench/metrics.json for why each
was chosen and which metric each layer should move):

- ``sim_mock``: ``run_simulation`` with mock imitate agents, n=100, k=6,
  p=0.1, 300 rounds, parallelism 1.
- ``sim_remote``: ``run_simulation`` with remote agents against the
  seeded-latency stub (hashbench/stub.py, its own process), n=20, k=4,
  p=0.1, 40 rounds, parallelism 2.
- ``metrics_large``: ``hashnet metrics --exclude-fallbacks`` through
  ``hashnet.cli.main`` over a generated transcript of about 18k records
  (n=200, k=6, 200 rounds).

Each sample runs in a fresh interpreter (hashbench/worker.py) and writes
into a fresh empty directory. With ``--trace 0`` as many samples run as
fit in ``--seconds`` (at least one) and the end-to-end metrics are
medians over them. With ``--trace 1`` untraced and traced samples
alternate for the same time; the per-layer metrics are medians over the
traced ones, and ``trace.overhead_s`` is the traced median wall time
minus the untraced one.

Every output is checked: against a pinned digest when hashbench/digests.json
has one for the seed, against the first sample's digest for every later
sample (traced ones included), and by checks that recompute the expected
result independently (hashbench/workloads.py). A human-readable table
comes first; the last line of output is the result as one JSON object.
Exit status: 0 correct, 1 a check failed, 2 the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stub as latency_stub  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

RUNS_DIR = ROOT / ".hashbench_runs"
DIGESTS = HERE / "digests.json"
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not run (as opposed to a wrong output)."""


def _on_sigterm(signum, frame):
    raise SystemExit(2)


# --- stub --------------------------------------------------------------------------


class StubProcess:
    """The latency stub in its own process, stopped and reaped on close."""

    def __init__(self, seed: int, log_path: Path):
        self._log = open(log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--seed", str(seed)],
            stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        line = self.proc.stdout.readline().strip()
        if not line.isdigit():
            self.close()
            raise BenchError(f"latency stub did not start; see {log_path}")
        self.control = f"http://127.0.0.1:{line}"
        self.base_url = f"{self.control}/v1"

    def _call(self, path: str, data: bytes | None = None) -> dict:
        with urllib.request.urlopen(urllib.request.Request(self.control + path, data=data), timeout=10) as reply:
            return json.loads(reply.read() or b"{}")

    def reset(self) -> None:
        self._call("/_reset", b"{}")

    def stats(self) -> dict:
        return self._call("/_stats")

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


# --- one workload --------------------------------------------------------------------


def _pinned(size: str, workload: str, seed: int) -> str | None:
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(size, {}).get(workload, {}).get(str(seed))


def _pin(size: str, workload: str, seed: int, digest: str) -> None:
    pins = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    pins.setdefault(size, {}).setdefault(workload, {})[str(seed)] = digest
    DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _output_digest(workload: str, out_dir: Path) -> str:
    if workload == "metrics_large":
        return workloads.metrics_digest(out_dir)
    # Remote runs stamp wall-clock time into the header, so only records count.
    return workloads.file_digest(out_dir / "transcript.jsonl", skip_header=workload == "sim_remote")


def _run_sample(run_dir: Path, index: int, spec: dict, stub: StubProcess | None) -> dict:
    sample_dir = run_dir / f"sample{index:03d}"
    out_dir = sample_dir / "out"
    out_dir.mkdir(parents=True)
    spec = dict(spec, out_dir=str(out_dir), result=str(sample_dir / "result.json"),
                spans=str(sample_dir / "spans.json"))
    (sample_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    if stub is not None:
        stub.reset()
    started = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(sample_dir / "spec.json")],
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"sample {index} took longer than {WORKER_TIMEOUT_S} s") from err
    if done.returncode != 0:
        raise BenchError(f"sample {index} failed (exit {done.returncode}):\n{done.stderr[-3000:]}")
    result = json.loads((sample_dir / "result.json").read_text(encoding="utf-8"))
    result["elapsed_s"] = time.perf_counter() - started
    result["stub"] = stub.stats() if stub is not None else None
    result["digest"] = _output_digest(spec["workload"], out_dir)
    result["out_dir"] = out_dir
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str, pin: bool) -> dict:
    """Measure one workload; returns the result object plus the table rows."""
    if not (ROOT / "src" / "hashnet" / "__init__.py").is_file():
        raise BenchError(f"no hashnet sources under {ROOT / 'src'}")
    if not (ROOT / workloads.CORPUS).is_file():
        raise BenchError(f"reference corpus {workloads.CORPUS} is missing")
    run_dir = RUNS_DIR / f"{workload}-{size}-{seed}-{trace:d}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    stub = None
    try:
        spec = {"workload": workload, "root": str(ROOT), "config": str(run_dir / "config.json")}
        oracle = None
        if workload == "metrics_large":
            sys.path.insert(0, str(ROOT / "src"))
            import hashnet

            generated = workloads.generate_metrics_transcript(hashnet, size, seed, run_dir / "input.jsonl")
            spec.update(transcript=str(run_dir / "input.jsonl"), records=generated["records"])
            oracle = workloads.metric_oracle(generated["kept"], ROOT / workloads.CORPUS)
        if workload == "sim_remote":
            stub = StubProcess(seed, run_dir / "stub.log")
        doc = workloads.config_doc(workload, size, seed, ROOT, stub.base_url if stub else None)
        (run_dir / "config.json").write_text(json.dumps(doc, indent=1), encoding="utf-8")

        plain: list[dict] = []
        traced: list[dict] = []
        deadline = time.perf_counter() + seconds
        while True:
            plain.append(_run_sample(run_dir, len(plain) + len(traced), dict(spec, trace=False), stub))
            if trace:
                traced.append(_run_sample(run_dir, len(plain) + len(traced), dict(spec, trace=True), stub))
            step = statistics.median(s["elapsed_s"] for s in plain) + (
                statistics.median(s["elapsed_s"] for s in traced) if trace else 0.0)
            if time.perf_counter() + step > deadline:
                break

        problems = _check(workload, size, seed, plain, traced, oracle, pin)
        samples = plain + traced
        attempted = sum(s["attempted"] for s in samples)
        failed = sum(s["failed"] for s in samples)
        walls = [s["wall_s"] for s in plain]
        wall = statistics.median(walls)
        samples_of = {
            "wall_s": walls,
            "records_per_s": [plain[0]["records"] / w for w in walls],
            "setup_s": [s["setup_s"] for s in plain],
            "peak_rss_mb": [s["peak_rss_mb"] for s in plain],
        }
        values = {name: statistics.median(v) for name, v in samples_of.items()}
        values["records_per_s"] = plain[0]["records"] / wall
        units = _units("end_to_end")
        metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
        table = [(name, value, units[name], f"n={len(samples_of[name])} "
                  f"range {min(samples_of[name]):.6g}..{max(samples_of[name]):.6g}")
                 for name, value in values.items()]
        table.append(("failed_share", failed / attempted, "share", f"{failed} of {attempted} failed"))
        warnings: list[str] = []
        if trace:
            layer_units = _units("per_layer")
            per_sample = [_layers(workload, size, s) for s in traced]
            layers = {name: statistics.median(p[name] for p in per_sample) for name in per_sample[0]}
            layers["trace.overhead_s"] = statistics.median(s["wall_s"] for s in traced) - wall
            problems += _check_layers(traced, per_sample)
            # A layer the program no longer exposes reads 0; say so without
            # calling the program's output wrong.
            warnings = [f"not traced: {name}" for name in sorted({n for s in traced for n in s["unwrapped"]})]
            metrics = {name: {"value": value, "unit": layer_units[name]} for name, value in layers.items()}
            table += [(name, value, layer_units[name], f"n={len(traced)}") for name, value in layers.items()]
        return {
            "table": table,
            "warnings": warnings,
            "problems": problems,
            "result": {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics},
        }
    finally:
        if stub is not None:
            stub.close()
        shutil.rmtree(run_dir, ignore_errors=True)


def _units(section: str) -> dict[str, str]:
    """Metric units of one BENCHMARK.json section, by name."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {entry["name"]: entry["unit"] for entry in bench[section]}


def _layers(workload: str, size: str, sample: dict) -> dict[str, float]:
    spans = json.loads(Path(sample["out_dir"]).parent.joinpath("spans.json").read_text(encoding="utf-8"))
    transcript = Path(sample["out_dir"]) / "transcript.jsonl"
    return tracing.summarise(
        spans,
        parallelism=SIZES[size][workload].get("parallelism", 1),
        max_retries=workloads.REMOTE_MAX_RETRIES,
        connections=(sample["stub"] or {}).get("connections", 0),
        transcript_bytes=transcript.stat().st_size if transcript.is_file() else 0,
    )


def _check(workload, size, seed, plain, traced, oracle, pin) -> list[str]:
    """Every problem with the outputs of one run."""
    first = plain[0]
    out_dir = Path(first["out_dir"])
    if workload == "metrics_large":
        problems = workloads.check_metrics(out_dir, oracle)
    else:
        if workload == "sim_remote":
            def pick(agent):
                return latency_stub.round1_pick(seed, f"agent-{agent}")
        else:
            def pick(agent):
                return None
        problems = workloads.check_transcript(out_dir / "transcript.jsonl", size, workload, pick)
    for i, sample in enumerate(plain + traced):
        if sample["digest"] != first["digest"]:
            kind = "traced" if i >= len(plain) else "untraced"
            problems.append(f"{kind} sample {i} digest {sample['digest'][:12]} differs from {first['digest'][:12]}")
        stats = sample["stub"]
        if stats is not None and stats["requests"] != sample["attempted"] + stats["injected_failures"]:
            problems.append(f"sample {i}: stub saw {stats['requests']} requests for {sample['attempted']} "
                            f"calls and {stats['injected_failures']} injected failures")
    pinned = _pinned(size, workload, seed)
    if pin:
        if not problems:
            _pin(size, workload, seed, first["digest"])
    elif pinned is not None and pinned != first["digest"]:
        problems.append(f"digest {first['digest']} differs from the pinned {pinned}")
    return problems


def _check_layers(traced, per_sample) -> list[str]:
    """Traced retries must be the failures the stub injected."""
    problems = []
    for sample, layers in zip(traced, per_sample):
        stats = sample["stub"]
        if stats is not None and layers["agents.remote_retries"] != stats["injected_failures"]:
            problems.append(f"traced {layers['agents.remote_retries']} retries, stub injected "
                            f"{stats['injected_failures']} failures")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--pin", action="store_true",
                        help="record (or replace) the pinned digest for this seed when every other check passes")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _on_sigterm)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            outcome = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size, args.pin)
            print(f"# {name} (seed {args.seed}, size {args.size}, trace {args.trace})")
            for metric, value, unit, detail in outcome["table"]:
                print(f"{name:14s} {metric:34s} {value:16.6f} {unit:6s} {detail}")
            for warning in outcome["warnings"]:
                print(f"WARNING: {warning}")
            for problem in outcome["problems"]:
                print(f"CHECK FAILED: {problem}")
            results[name] = outcome["result"]
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        if RUNS_DIR.is_dir() and not any(RUNS_DIR.iterdir()):
            RUNS_DIR.rmdir()

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
