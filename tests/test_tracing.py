"""The benchmark's tracer finds every layer boundary it wraps."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "hashbench" / "tracing.py"


def test_every_wrap_point_exists():
    spec = importlib.util.spec_from_file_location("hashbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
