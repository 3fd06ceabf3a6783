"""`blocktri.numerics` loads scipy's compiled LAPACK and BLAS without scipy.linalg's front end.

Each import case runs in a fresh interpreter, so that it sees only the
modules its own imports load, not those earlier tests in this process did.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.linalg.blas
import scipy.linalg.lapack

import blocktri
from blocktri import numerics

_WORK = """
import json, sys, tempfile
from pathlib import Path
import numpy as np
import blocktri as bt
from blocktri import harness, numerics

law = bt.AtomLaw("complex-gaussian")
assert np.isfinite(bt.logdet_via_transfer(bt.LazyTridiagonal(6, 3, law, 1), 0.5))
m = bt.sample_tridiagonal(4, 3, law, 1)
bt.esd(m)
bt.least_singular_value(m, 0.5)
rng = np.random.default_rng(0)
b = rng.standard_normal((5, 5))
rhs = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
assert np.allclose(b @ numerics.solve_lu(b, rhs), rhs)
q, r = numerics.qr_thin(rhs)
assert np.allclose(q @ r, rhs)
with tempfile.TemporaryDirectory() as tmp:
    config = Path(tmp) / "config.json"
    config.write_text(json.dumps({"experiment": "logdet-identity", "n": 3, "ell": 2, "out": str(Path(tmp) / "rec")}))
    assert harness.main(["--config", str(config)]) == harness.EXIT_OK
loaded = [name for name in ("scipy.linalg", "numpy.f2py", "numpy.testing") if name in sys.modules]
assert not loaded, loaded
"""

# blocktri first: a later scipy.linalg import re-exports the routines numerics calls.
_BLOCKTRI_FIRST = """
import sys
import numpy as np
from blocktri import numerics
flapack = sys.modules["scipy.linalg._flapack"]
assert "scipy.linalg" not in sys.modules
import scipy.linalg.lapack, scipy.linalg.blas
assert sys.modules["scipy.linalg._flapack"] is flapack
(zgetrf,) = numerics.get_lapack_funcs(("getrf",), dtype=np.complex128)
assert scipy.linalg.lapack.zgetrf is zgetrf
(dgemm,) = numerics.get_lapack_funcs(("gemm",), dtype=np.float64)
assert scipy.linalg.blas.dgemm is dgemm
a = np.array([[2.0, 1.0], [0.0, 3.0]])
w = scipy.linalg.eig(a, right=False)
assert np.allclose(np.sort(w.real), [2.0, 3.0]) and np.array_equal(np.sort_complex(w), np.sort_complex(numerics.eigvals(a)))
"""

# scipy.linalg first: blocktri takes its modules from sys.modules and loads no second copy.
_SCIPY_FIRST = """
import sys
import scipy.linalg
flapack, fblas = sys.modules["scipy.linalg._flapack"], sys.modules["scipy.linalg._fblas"]
from blocktri import numerics
assert numerics._flapack is flapack and numerics._fblas is fblas
assert numerics.get_lapack_funcs(("getrf", "gemm")) == (scipy.linalg.lapack.dgetrf, scipy.linalg.blas.dgemm)
assert sys.modules["scipy.linalg._flapack"] is flapack and sys.modules["scipy.linalg._fblas"] is fblas
"""


# numpy.linalg's kernels refused: every dense kernel of the package runs in scipy's LAPACK and BLAS.
# The test oracles wedge_power_small and plucker_coordinates are left out; they call numpy's det.
_NO_NUMPY_LINALG = """
import numpy as np

def refuse(name):
    def stub(*args, **kwargs):
        raise AssertionError(f"numpy.linalg.{name} called")
    return stub

for name in ("qr", "eigh", "slogdet", "det", "norm", "svd", "eigvals", "inv", "solve"):
    setattr(np.linalg, name, refuse(name))

import blocktri as bt
from blocktri import harness

for experiment in harness.EXPERIMENTS:
    record = harness.run(harness.ExperimentConfig(experiment, n=4, ell=2, z=0.5, trials=2))
    assert all(t.status == "ok" for t in record.trials), (experiment, [t.error for t in record.trials])
m = bt.sample_tridiagonal(4, 2, bt.AtomLaw("complex-gaussian"), 1)
rng = np.random.default_rng(0)
pi = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
xi = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
assert np.isfinite(bt.projected_growth_log(bt.build_bordered(m, pi, xi), 0.5))
b = bt.build_bordered(m, bt.random_exit_frame(2, rng), bt.random_entry_frame(2, rng))
assert np.isfinite(bt.logdet_via_transfer(b, 0.5))
assert np.isfinite(bt.cocycle_trace(b, 0.5).total)
assert bt.least_singular_value(b, 0.5) > 0
"""


def _run_fresh(code: str) -> None:
    src = str(Path(blocktri.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_package_work_never_imports_scipy_linalg():
    """Import cost: a sweep, the dense kernels and the CLI run without scipy.linalg, numpy.f2py or numpy.testing."""
    _run_fresh(_WORK)


def test_package_work_never_calls_numpy_linalg():
    """All registry experiments, explicit and random frames, and a bordered sweep run with numpy.linalg's kernels refused."""
    _run_fresh(_NO_NUMPY_LINALG)


def test_blocktri_first_shares_the_modules_with_a_later_scipy_linalg():
    _run_fresh(_BLOCKTRI_FIRST)


def test_scipy_linalg_first_is_reused():
    _run_fresh(_SCIPY_FIRST)


def test_prefix_is_d_for_float64_and_z_for_complex():
    """The lookup returns the routines scipy's own lookups return for the same call."""
    real, cplx = np.eye(2), np.eye(2, dtype=np.complex128)
    for arrays, prefix in (((real,), "d"), ((cplx,), "z"), ((real, cplx), "z"), ((cplx, real), "z")):
        found = numerics.get_lapack_funcs(("getrf", "getrs"), arrays)
        assert found == tuple(scipy.linalg.lapack.get_lapack_funcs(("getrf", "getrs"), arrays))
        assert found == (getattr(scipy.linalg.lapack, prefix + "getrf"), getattr(scipy.linalg.lapack, prefix + "getrs"))
    for dtype, prefix in ((np.float64, "d"), (np.complex128, "z")):
        lapack = scipy.linalg.lapack.get_lapack_funcs(("getrf", "laswp"), dtype=dtype)
        blas = scipy.linalg.blas.get_blas_funcs(("trsm", "gemm"), dtype=dtype)
        assert numerics.get_lapack_funcs(("getrf", "laswp", "trsm", "gemm"), dtype=dtype) == (*lapack, *blas)
        assert blas[1] is getattr(scipy.linalg.blas, prefix + "gemm")
