"""The benchmark's per-layer tracer resolves every function it traces."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_benchmark_tracer_resolves_every_traced_name():
    """`perfbench --trace 1` looks each traced name up with getattr; a deleted one fails here."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    assert tracer.names[1:] == [f"{module}.{name}" for module, name, _, _ in spans.TARGETS]
