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

import blocktri as bt
from blocktri import harness


def spans_of(call):
    # (name, parent name) of every span that one traced call records
    tracer = spans.Tracer()
    with tracer.active():
        call()
    names = [tracer.names[i] for i in tracer.name_id]
    return [(name, names[p] if p >= 0 else None) for name, p in zip(names, tracer.parent)]


# Each dense trial assembles one matrix and hands it to its kernel.
m = bt.sample_tridiagonal(4, 3, bt.AtomLaw("complex-gaussian"), 1)
for call, entry, kernel in (
    (lambda: bt.esd(m), "spectra.esd", "numerics.eigvals"),
    (lambda: bt.least_singular_value(m, 0.5), "spectra.least_singular_value", "numerics.svd_values"),
):
    seen = spans_of(call)
    assert seen.count(("model.to_dense", entry)) == 1, seen
    assert seen.count((kernel, entry)) == 1, seen
    assert sum(name in ("model.to_dense", kernel) for name, _ in seen) == 2, seen

# The dense side of a logdet-identity trial: its LU is the only one outside the transfer sweep.
config = harness.ExperimentConfig("logdet-identity", n=4, ell=3, z=0.5 + 0.5j, trials=1)
seen = spans_of(lambda: harness.run(config))
assert [name for name, _ in seen].count("model.to_dense") == 1, seen
assert seen.count(("numerics.lu_logdet", "harness.run")) == 1, seen
assert all(parent == "transfer.logdet_via_transfer" for name, parent in seen if name == "numerics.lu_logdet" and parent != "harness.run"), seen
"""


def test_benchmark_tracer_resolves_every_traced_name():
    """`perfbench --trace 1` looks each traced name up with getattr; a deleted one fails here.

    It also fails when a dense trial stops reaching `model.to_dense` or its
    kernel through the traced names, which would drop that layer from a
    traced run without an error.
    """
    src = str(Path(blocktri.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(SPANS)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
