"""Row streaming: the lazy ensemble, one transfer sweep, its memory and thread safety."""

import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from blocktri.entropy import ATOM_KINDS, AtomLaw, SeedScheme, fill_block
from blocktri.model import LazyTridiagonal, sample_periodic, sample_tridiagonal
from blocktri.transfer import cocycle_trace, logdet_via_transfer, projected_growth_log

SHIFTS = (0.0, 0.5 + 0.5j, 2.0)
SIZES = ((5, 1), (4, 3), (3, 48), (1, 1), (2, 1), (1, 3))


def _role_major_blocks(n, ell, law, scheme, trial):
    """The sampler as written before rows were streamed: all diag, then all upper, then all lower blocks."""
    return tuple(tuple(fill_block(ell, law, scheme.stream(trial, k, role)) for k in range(n)) for role in ("diag", "upper", "lower"))


@pytest.mark.parametrize("kind", ATOM_KINDS)
@pytest.mark.parametrize("n, ell", SIZES)
def test_sample_rows_yields_the_blocks_of_sample_tridiagonal(kind, n, ell):
    """The one row iterator, `LazyTridiagonal.rows`, yields the blocks that `sample_tridiagonal` keeps."""
    law = AtomLaw(kind)
    m = sample_tridiagonal(n, ell, law, SeedScheme(31), trial=2)
    diag, upper, lower = _role_major_blocks(n, ell, law, SeedScheme(31), 2)
    rows = list(LazyTridiagonal(n, ell, law, 31, trial=2).rows())
    assert len(rows) == n
    for k, (a, b, c) in enumerate(rows):
        for got, want, ref in ((a, m.diag[k], diag[k]), (b, m.upper[k], upper[k]), (c, m.lower[k], lower[k])):
            assert got.dtype == want.dtype == ref.dtype
            assert np.array_equal(got, want) and np.array_equal(got, ref)


@pytest.mark.parametrize("kind", ATOM_KINDS)
@pytest.mark.parametrize("n, ell", SIZES)
def test_streamed_sweep_equals_materialized_bitwise(kind, n, ell):
    law = AtomLaw(kind)
    m = sample_tridiagonal(n, ell, law, 32, trial=1)
    lazy = LazyTridiagonal(n, ell, law, 32, trial=1)
    assert (lazy.n, lazy.ell, lazy.size) == (m.n, m.ell, m.size)
    for z in SHIFTS:
        assert logdet_via_transfer(lazy, z) == logdet_via_transfer(m, z)
        assert projected_growth_log(lazy, z) == projected_growth_log(m, z)
        assert cocycle_trace(lazy, z) == cocycle_trace(m, z)


def test_lazy_ensemble_validates_its_coordinates():
    with pytest.raises(ValueError):
        LazyTridiagonal(0, 2, AtomLaw("real-gaussian"))
    with pytest.raises(ValueError):
        LazyTridiagonal(2, 0, AtomLaw("real-gaussian"))
    with pytest.raises(ValueError):
        LazyTridiagonal(2, 2, AtomLaw("real-gaussian"), master_seed=1 << 64)
    with pytest.raises(ValueError):
        sample_tridiagonal(0, 2, AtomLaw("real-gaussian"), 0)
    # a fractional seed used to draw the blocks of its integer part, a fractional trial to fail in struct.pack
    with pytest.raises(TypeError):
        sample_tridiagonal(3, 2, AtomLaw("real-gaussian"), 1.5)
    with pytest.raises(TypeError):
        LazyTridiagonal(3, 2, AtomLaw("real-gaussian"), 1.9).rows()
    with pytest.raises(TypeError):
        LazyTridiagonal(3, 2, AtomLaw("real-gaussian"), 1, trial=0.5)


def test_trials_outside_64_bits_are_refused():
    """trial=-1 used to alias trial=2**64-1; every sampler refuses both ends of the range."""
    law = AtomLaw("real-gaussian")
    for bad in (-1, 2**64):
        with pytest.raises(ValueError):
            sample_tridiagonal(2, 2, law, 0, trial=bad)
        with pytest.raises(ValueError):
            LazyTridiagonal(2, 2, law, 0, trial=bad)
        with pytest.raises(ValueError):
            sample_periodic(3, 2, law, 0, trial=bad)
    top = 2**64 - 1
    m = sample_tridiagonal(2, 2, law, 0, trial=top)
    assert all(np.array_equal(x, y) for r, s in zip(m.rows(), LazyTridiagonal(2, 2, law, 0, trial=top).rows()) for x, y in zip(r, s))
    assert sample_periodic(3, 2, law, 0, trial=top).corner_top.shape == (2, 2)


@pytest.mark.parametrize("kind", ATOM_KINDS)
def test_interleaved_row_iterators_draw_as_if_alone(kind):
    """Each row iterator owns its generator: stepping two of them in turn changes neither."""
    law = AtomLaw(kind)
    alone = [list(LazyTridiagonal(4, 3, law, 35, trial=t).rows()) for t in (0, 1)]
    first, second = (LazyTridiagonal(4, 3, law, 35, trial=t).rows() for t in (0, 1))
    for k, (r, s) in enumerate(zip(first, second)):
        assert all(np.array_equal(x, y) for x, y in zip(r, alone[0][k]))
        assert all(np.array_equal(x, y) for x, y in zip(s, alone[1][k]))
    assert not np.array_equal(alone[0][0][0], alone[1][0][0])


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_logdet_holds_one_row_at_a_time():
    n, ell, law = 5000, 4, AtomLaw("complex-gaussian")
    lazy = LazyTridiagonal(n, ell, law, 33)
    streamed = _peak_bytes(lambda: logdet_via_transfer(lazy, 0.5))
    # The whole instance is 3n blocks of ell x ell complex128 (1.9 MB of
    # entries); with an ndarray object per block it holds about 6 MB.
    materialized = _peak_bytes(lambda: sample_tridiagonal(n, ell, law, 33))
    assert materialized > 3_000_000
    assert streamed < 500_000


_THREADED = textwrap.dedent(
    """
    import sys, threading
    import blocktri as bt

    def in_threads(work, count=2):
        results = [None] * count
        def run(i):
            results[i] = work()
        threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads), "a thread did not finish"
        return results

    sys.setswitchinterval(1e-5)
    m = bt.sample_tridiagonal(200, 32, bt.AtomLaw("complex-gaussian"), 21)
    shifts = [complex(0.05 * k, 0.02 * k) for k in range(40)]
    serial = [bt.logdet_via_transfer(m, z) for z in shifts]
    for got in in_threads(lambda: [bt.logdet_via_transfer(m, z) for z in shifts]):
        assert got == serial, "threaded transfer values differ"
    """
)


def test_threads_sweeping_one_ensemble_match_serial(tmp_path):
    """Two threads sweeping one ensemble at 40 shifts each get the serial values.

    Runs in a subprocess, so heap corruption shows as a failed test instead of
    aborting the whole pytest run.
    """
    script = tmp_path / "threaded.py"
    script.write_text(_THREADED)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
