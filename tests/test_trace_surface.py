"""The benchmark's per-layer tracer resolves every function it traces."""

import os
import subprocess
import sys
from pathlib import Path

import blocktri

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# Run in a fresh interpreter, so that the tracer sees only the modules that
# `import blocktri` loads, not those earlier tests in this process imported.
_CHILD = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
assert tracer.names[1:] == [f"{module}.{name}" for module, name, _, _ in spans.TARGETS]
"""


def test_benchmark_tracer_resolves_every_traced_name():
    """`perfbench --trace 1` looks each traced name up with getattr; a deleted one fails here."""
    src = str(Path(blocktri.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(SPANS)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
