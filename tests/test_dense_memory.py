"""A dense trial holds one N-by-N matrix: the kernels factor `to_dense`'s output in place.

`tracemalloc` does not see the copy that a LAPACK front end makes, so each
case runs in a fresh interpreter and reads how far one call raises the peak
resident set above the resident set before it. The peak is the ``VmHWM`` of
``/proc/self/status``, the high-water mark of the child's own address space:
on Linux `ru_maxrss` carries the parent's peak over ``exec``, so in a child
of the test process it would read the test process's peak.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import blocktri

# The child first runs the same call at half the size, so that OpenBLAS has
# touched its per-thread buffers before the measured call, then prints the
# growth of that call over the bytes of its dense matrix.
_CHILD = """
import sys
import blocktri as bt

def status_bytes(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith(key + ":"))

case = sys.argv[1]
if case == "least_singular_value":
    law, n, ell, itemsize = bt.AtomLaw("complex-gaussian"), 32, 32, 16
    call = lambda m: bt.least_singular_value(m, 0.5)
else:
    law, n, ell, itemsize = bt.AtomLaw("real-gaussian"), 50, 20, 8
    call = bt.esd
call(bt.sample_tridiagonal(n // 2, ell, law, 1))
m = bt.sample_tridiagonal(n, ell, law, 2)
before = status_bytes("VmRSS")
call(m)
print((status_bytes("VmHWM") - before) / (m.size * m.size * itemsize))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
@pytest.mark.parametrize("case", ["least_singular_value", "esd"])
def test_dense_trial_peak_stays_near_one_matrix(case):
    """Complex N = 1024 singular values and a real N = 1000 eigensolve; a second copy would read about 2."""
    src = str(Path(blocktri.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _CHILD, case], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    ratio = float(proc.stdout.split()[-1])
    assert ratio < 1.5, f"peak grew by {ratio:.2f} dense matrices"
