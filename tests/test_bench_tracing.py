"""The benchmark's layer tracer finds the package's functions by name.

A renamed or deleted function would only empty its per-layer metrics in a
benchmark run; here it fails the test run instead.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    assert tracing.Tracer().absent == []
