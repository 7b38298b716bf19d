"""One benchmark sample in a fresh interpreter.

    python3 hashbench/worker.py SPEC.json

SPEC names the workload, the checkout root, the config file, a fresh
empty output directory, where to write the result, and whether to trace.
The worker times set-up (importing hashnet, then loading, validating and
building the config through hashnet.cli) and then the operation itself,
and reports its own peak resident memory. A fresh process per sample is
what lets set-up include the import and keeps one sample's memory out of
the next one's peak.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    root = Path(spec["root"])
    out_dir = Path(spec["out_dir"])
    sys.path.insert(0, str(root / "src"))
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracing

        tracer = tracing.Tracer()

    import hashnet
    from hashnet import cli

    if Path(hashnet.__file__).resolve().parent != (root / "src" / "hashnet").resolve():
        raise SystemExit(f"hashnet imported from {hashnet.__file__}, not from {root / 'src'}")
    if tracer is not None:
        tracing.install(tracer)
    config_path = Path(spec["config"])
    doc, base_dir = cli.load_config(config_path)
    violations = cli.validate_config(doc, base_dir)
    if violations:
        raise SystemExit(f"config rejected: {violations}")
    loaded = cli.build_config(doc, base_dir, argparse.Namespace(seed=None, parallelism=None))
    setup_s = time.perf_counter() - _START

    result = {"setup_s": setup_s}
    if spec["workload"] == "metrics_large":
        argv = ["metrics", spec["transcript"], "--config", str(config_path),
                "--out", str(out_dir), "--exclude-fallbacks"]
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = tracer.root_call("cli.main", cli.main, argv) if tracer else cli.main(argv)
            result["wall_s"] = time.perf_counter() - start
        statuses = json.loads((out_dir / "metadata.json").read_text(encoding="utf-8"))["statuses"]
        result["attempted"] = len(statuses)
        result["failed"] = len(statuses) if code != 0 else sum(s != "computed" for s in statuses.values())
        result["records"] = spec["records"]
    else:
        out_path = out_dir / "transcript.jsonl"
        start = time.perf_counter()
        if tracer:
            transcript = tracer.root_call("engine.run_simulation", hashnet.run_simulation,
                                          loaded.run, out_path=out_path)
        else:
            transcript = hashnet.run_simulation(loaded.run, out_path=out_path)
        result["wall_s"] = time.perf_counter() - start
        result["records"] = len(transcript.records)
        result["attempted"] = 2 * len(transcript.records)
        result["failed"] = transcript.fallback_count()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        result["unwrapped"] = tracer.missing
        Path(spec["spans"]).write_text(json.dumps(tracer.spans), encoding="utf-8")
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
