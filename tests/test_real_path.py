"""Real entry laws stay real from the draw to the dense kernels.

The dtype follows the data: float64 blocks for the three real laws, a float64
dense realization when the shift is real too, and the real LAPACK routines
underneath. These properties pin the dtypes and check every real result
against the same computation on the matrix cast to complex128.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blocktri import transfer
from blocktri.entropy import ATOM_KINDS, AtomLaw, SeedScheme, fill_block, sample_atoms
from blocktri.model import (
    BlockTridiagonal,
    LazyTridiagonal,
    PeriodicEnsemble,
    build_bordered,
    random_entry_frame,
    random_exit_frame,
    sample_periodic,
    sample_tridiagonal,
    to_dense,
)
from blocktri.numerics import lu_logdet, svd_values
from blocktri.spectra import esd, least_singular_value
from blocktri.transfer import cocycle_trace, logdet_via_transfer, projected_growth_log

REAL_KINDS = tuple(k for k in ATOM_KINDS if not AtomLaw(k).is_complex)
SHIFTS = (0.0, 2.0, -0.7, 0.5 + 0.5j, 1j)
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

kinds = st.sampled_from(ATOM_KINDS)
real_kinds = st.sampled_from(REAL_KINDS)
seeds = st.integers(0, 2**32 - 1)


def _rel_close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(b))


def _as_complex(m: BlockTridiagonal) -> BlockTridiagonal:
    diag, upper, lower = (tuple(b.astype(np.complex128) for b in g) for g in (m.diag, m.upper, m.lower))
    return replace(m, diag=diag, upper=upper, lower=lower)


@PROPERTY
@given(kind=kinds, n=st.integers(3, 5), ell=st.integers(1, 4), seed=seeds, z=st.sampled_from(SHIFTS))
def test_block_and_dense_dtypes_follow_law_and_shift(kind, n, ell, seed, z):
    law = AtomLaw(kind)
    block_dtype = np.complex128 if law.is_complex else np.float64
    dense_dtype = np.float64 if not law.is_complex and complex(z).imag == 0 else np.complex128

    stream = SeedScheme(seed).stream(0, 0, "atoms")
    assert sample_atoms(law, stream, (2, 3), ell=ell).dtype == block_dtype
    assert fill_block(ell, law, stream).dtype == block_dtype

    plain = sample_tridiagonal(n, ell, law, seed)
    periodic = sample_periodic(n, ell, law, seed)
    blocks = plain.diag + plain.upper + plain.lower + (periodic.corner_top, periodic.corner_bottom)
    assert all(b.dtype == block_dtype for b in blocks)

    rng = SeedScheme(seed).stream(0, 0, "frames")
    bordered = build_bordered(plain, random_exit_frame(ell, rng), random_entry_frame(ell, rng))
    assert to_dense(bordered, z).dtype == np.complex128

    # Same entries as the realization of the complex-cast blocks.
    complex_plain = _as_complex(plain)
    complex_periodic = PeriodicEnsemble(
        complex_plain, periodic.corner_top.astype(np.complex128), periodic.corner_bottom.astype(np.complex128)
    )
    for ens, reference in ((plain, complex_plain), (periodic, complex_periodic)):
        dense = to_dense(ens, z)
        assert dense.dtype == dense_dtype
        assert np.array_equal(dense, to_dense(reference, z))


@PROPERTY
@given(kind=real_kinds, n=st.integers(1, 6), ell=st.integers(1, 5), seed=seeds, z=st.sampled_from((0.0, 0.3, 2.0)))
def test_real_kernels_agree_with_complex_cast(kind, n, ell, seed, z):
    m = sample_tridiagonal(n, ell, AtomLaw(kind), seed)
    dense = to_dense(m, z)
    assert dense.dtype == np.float64
    cast = dense.astype(np.complex128)

    assert _rel_close(lu_logdet(dense), lu_logdet(cast), 1e-10)

    s_real, s_complex = svd_values(dense), svd_values(cast)
    assert s_real.dtype == np.float64
    assert np.max(np.abs(s_real - s_complex)) <= 1e-10 * s_complex[0]

    real_esd, complex_esd = esd(m), esd(_as_complex(m))
    assert real_esd.eigenvalues.dtype == np.complex128
    assert abs(real_esd.fraction_in_unit_disk - complex_esd.fraction_in_unit_disk) <= 1e-10
    assert _rel_close(real_esd.radial_cdf_distance, complex_esd.radial_cdf_distance, 1e-10)


@PROPERTY
@given(kind=kinds, n=st.integers(1, 6), ell=st.integers(1, 5), seed=seeds, streamed=st.booleans())
@example(kind="real-gaussian", n=1, ell=1, seed=0, streamed=False)
@example(kind="real-uniform", n=2, ell=1, seed=1, streamed=False)
@example(kind="smoothed-rademacher", n=1, ell=3, seed=2, streamed=False)
@example(kind="smoothed-rademacher", n=2, ell=2, seed=3, streamed=False)
@example(kind="complex-gaussian", n=1, ell=1, seed=4, streamed=True)
@example(kind="complex-gaussian", n=2, ell=1, seed=5, streamed=False)
@example(kind="real-gaussian", n=3, ell=2, seed=6, streamed=True)
def test_transfer_on_real_blocks_matches_dense(kind, n, ell, seed, streamed):
    """Also for the complex law and the streamed ensemble, at the smallest n and ell."""
    law = AtomLaw(kind)
    m = sample_tridiagonal(n, ell, law, seed)
    assert m.upper[0].dtype == (np.complex128 if law.is_complex else np.float64)
    ensemble = LazyTridiagonal(n, ell, law, seed) if streamed else m
    for z in (0.0, 0.5 + 0.5j, 2.0):
        assert _rel_close(logdet_via_transfer(ensemble, z), lu_logdet(to_dense(m, z)), 1e-8)


def test_dense_and_sweep_share_one_dtype_rule(monkeypatch):
    """An unplaced complex block (the plain matrix's C_0) makes both the dense matrix and the sweep complex."""
    swept = []

    def recording_lookup(names, *args, **kwargs):
        if "getrf" in names:
            swept.append(np.dtype(kwargs["dtype"]))
        return get_lapack_funcs(names, *args, **kwargs)

    get_lapack_funcs = transfer.get_lapack_funcs
    monkeypatch.setattr(transfer, "get_lapack_funcs", recording_lookup)
    real = sample_tridiagonal(4, 3, AtomLaw("real-gaussian"), 9)
    mixed = replace(real, lower=(real.lower[0] + 1j, *real.lower[1:]))
    for m, dtype in ((real, np.float64), (mixed, np.complex128)):
        del swept[:]
        value = logdet_via_transfer(m, 0.5)
        dense = to_dense(m, 0.5)
        assert swept == [dtype] and dense.dtype == dtype
        assert _rel_close(value, lu_logdet(dense), 1e-12)


@pytest.mark.parametrize("kind", REAL_KINDS)
@pytest.mark.parametrize(("n", "ell", "seed"), [(1, 1, 3), (4, 3, 4), (6, 5, 5)])
def test_real_frames_keep_a_bordered_matrix_real(kind, n, ell, seed):
    """Real frames, the default identity ones or random ones of any scale, border in float64 and agree with their complex cast."""
    m = sample_tridiagonal(n, ell, AtomLaw(kind), seed)
    rng = np.random.default_rng(seed)
    identity = np.eye(ell, 2 * ell), np.eye(2 * ell, ell)
    scattered = rng.standard_normal((ell, 2 * ell)), rng.standard_normal((2 * ell, ell))
    for bordered, frames in ((build_bordered(m), identity), (build_bordered(m, *scattered), scattered)):
        cast = build_bordered(m, *(f.astype(np.complex128) for f in frames))
        assert bordered.top_row.dtype == bordered.bottom_row.dtype == np.float64
        assert cast.top_row.dtype == cast.bottom_row.dtype == np.complex128
        for z in (0.0, 0.5, 2.0):
            assert to_dense(bordered, z).dtype == np.float64
            for kernel in (logdet_via_transfer, projected_growth_log, least_singular_value, lambda e, z: cocycle_trace(e, z).sum()):
                assert _rel_close(kernel(bordered, z), kernel(cast, z), 1e-12)

    complex_frames = build_bordered(m, random_exit_frame(ell, rng), random_entry_frame(ell, rng))
    assert complex_frames.top_row.dtype == complex_frames.bottom_row.dtype == np.complex128
    assert to_dense(complex_frames, 0.5).dtype == np.complex128
