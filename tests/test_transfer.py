import itertools
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from blocktri import model, numerics, transfer
from blocktri.entropy import ATOM_KINDS, AtomLaw, SeedScheme
from blocktri.harness import ExperimentConfig, run
from blocktri.model import (
    BlockTridiagonal,
    LazyTridiagonal,
    build_bordered,
    identity_entry_frame,
    identity_exit_frame,
    random_entry_frame,
    random_exit_frame,
    sample_periodic,
    sample_tridiagonal,
    to_dense,
)
from blocktri.numerics import RankDeficientError, SingularMatrixError, SizeCapError, eigvals, lu_logdet, qr_thin, svd_values
from blocktri.spectra import least_singular_value
from blocktri.transfer import (
    cocycle_trace,
    dense_transfer_matrix,
    logdet_via_transfer,
    plucker_coordinates,
    projected_growth_log,
    wedge_power_small,
)

LAW = AtomLaw("complex-gaussian")


def _rel_close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(b))


def _one_step(a, b, c, z, frame):
    """The un-normalized transfer of `frame` through one row, by the explicit operator."""
    return dense_transfer_matrix(a, b, c, z) @ np.asarray(frame)


def _one_row(a, b, c):
    """The one-row ensemble with scalar blocks a, b, c."""
    return BlockTridiagonal(1, 1, (np.array([[a]]),), (np.array([[b]]),), (np.array([[c]]),))


def test_apply_transfer_scalar_formula():
    a, b, c, z = 1.5 + 0.5j, 0.7 - 0.2j, -0.3j, 0.25
    out = _one_step([[a]], [[b]], [[c]], z, [[1.0], [0.0]])
    assert abs(out[0, 0] - (-(a - z) / b)) < 1e-14
    assert abs(out[1, 0] - 1.0) < 1e-14


def test_apply_transfer_shift_only():
    ell = 3
    rng = np.random.default_rng(0)
    frame = np.vstack([np.eye(ell), rng.standard_normal((ell, ell))]).astype(complex)
    zeros = np.zeros((ell, ell))
    out = _one_step(zeros, np.eye(ell), zeros, 0.0, frame)
    assert np.allclose(out[:ell], 0.0)
    assert np.allclose(out[ell:], frame[:ell])


def test_apply_transfer_matches_dense_operator():
    """The explicit operator against the step it encodes, and `cocycle_trace`'s one-row increment against it."""
    rng = np.random.default_rng(1)
    ell = 3
    a = rng.standard_normal((ell, ell)) + 1j * rng.standard_normal((ell, ell))
    b = rng.standard_normal((ell, ell)) + 1j * rng.standard_normal((ell, ell))
    c = rng.standard_normal((ell, ell)) + 1j * rng.standard_normal((ell, ell))
    frame = random_entry_frame(ell, rng)
    z = 0.3 - 0.8j
    dense = dense_transfer_matrix(a, b, c, z) @ frame
    u, v = frame[:ell], frame[ell:]
    assert np.linalg.norm(dense[:ell] - np.linalg.solve(b, -((a - z * np.eye(ell)) @ u + c @ v))) < 1e-10
    assert np.linalg.norm(dense[ell:] - u) < 1e-14
    trace = cocycle_trace(build_bordered(BlockTridiagonal(1, ell, (a,), (b,), (c,)), entry_frame=frame), z)
    assert abs(trace.increments[0] - 0.5 * np.log(abs(np.linalg.det(dense.conj().T @ dense)))) < 1e-10


def test_cocycle_step_isometry_has_zero_increment():
    z = 0.4 + 0.1j
    c = np.exp(0.3j)
    m = _one_row(z, -np.conj(c), c)
    trace = cocycle_trace(m, z)
    assert len(trace.increments) == 1
    assert abs(trace.increments[0]) < 1e-12
    assert abs(trace.total) < 1e-12


def test_cocycle_step_scalar_increment():
    a, b, c, z = 1.1 - 0.3j, 0.8j, 0.5, -0.2
    expected = 0.5 * np.log(abs((a - z) / b) ** 2 + 1.0)
    assert abs(cocycle_trace(_one_row(a, b, c), z).total - expected) < 1e-12


def test_cocycle_step_gram_oracle_and_orthonormality():
    rng = np.random.default_rng(2)
    ell, n, z = 2, 5, 0.1
    xi = random_entry_frame(ell, rng)
    rows = [tuple(rng.standard_normal((ell, ell)) + 1j * rng.standard_normal((ell, ell)) for _ in range(3)) for _ in range(n)]
    diag, upper, lower = zip(*rows)
    trace = cocycle_trace(build_bordered(BlockTridiagonal(n, ell, diag, upper, lower), entry_frame=xi), z)
    assert len(trace.increments) == n
    frame = xi
    for k in range(n):
        y = _one_step(diag[k], upper[k], lower[k], z, frame)
        gram = 0.5 * np.log(np.abs(np.linalg.det(y.conj().T @ y)))
        assert abs(trace.increments[k] - gram) < 1e-9
        frame, _ = qr_thin(y)
        assert np.linalg.norm(frame.conj().T @ frame - np.eye(ell)) < 1e-10


def test_cocycle_trace_total_matches_increment_sum():
    m = sample_tridiagonal(6, 3, LAW, 3)
    trace = cocycle_trace(m, 0.5)
    assert len(trace.increments) == 6
    assert abs(trace.total - sum(trace.increments)) < 1e-9


def test_one_factorization_per_row(monkeypatch):
    """`logdet_via_transfer` factors one 2ell x ell panel per row after the first, then the last pending block.

    A panel stacks the pending diagonal block over the incoming row's C_k. No
    B_k is factored; `projected_growth_log` adds one LU of each B_k, taken
    before its row is eliminated, and eliminates the same panels. A bordered
    ensemble adds the panel of its bottom boundary row.
    """
    factored = []

    def counting_getrf(getrf):
        def factor(a, **kwargs):
            factored.append(a.copy())
            return getrf(a, **kwargs)

        return factor

    def counting_lookup(names, *args, **kwargs):
        funcs = get_lapack_funcs(names, *args, **kwargs)
        return tuple(counting_getrf(f) if name == "getrf" else f for name, f in zip(names, funcs))

    get_lapack_funcs = transfer.get_lapack_funcs
    monkeypatch.setattr(transfer, "get_lapack_funcs", counting_lookup)
    n, ell = 5, 3
    m = sample_tridiagonal(n, ell, LAW, 8)
    stored = [b.copy() for b in m.upper]
    lazy = LazyTridiagonal(n, ell, LAW, 8)
    bordered = build_bordered(m, random_exit_frame(ell, np.random.default_rng(3)), random_entry_frame(ell, np.random.default_rng(4)))
    for z in (0.0, 0.5 + 0.5j, 2.0):
        del factored[:]
        value = logdet_via_transfer(m, z)
        assert _rel_close(value, lu_logdet(to_dense(m, z)), 1e-12)
        assert [a.shape for a in factored] == [(2 * ell, ell)] * (n - 1) + [(ell, ell)]
        assert all(np.array_equal(panel[ell:], c) for panel, c in zip(factored, m.lower[1:]))
        assert not any(np.array_equal(a, b) for a in factored for b in m.upper)
        assert all(np.array_equal(b, s) for b, s in zip(m.upper, stored))
        panels = factored[:]
        del factored[:]
        assert logdet_via_transfer(lazy, z) == value
        assert len(factored) == n and all(np.array_equal(got, want) for got, want in zip(factored, panels))
        del factored[:]
        growth = projected_growth_log(m, z)
        log_b = sum(lu_logdet(b) for b in m.upper)
        assert _rel_close(growth + log_b, value, 1e-12)
        # B_0; then B_k and row k's panel for k = 1, ..., n-1; then the last pending block
        assert len(factored) == 2 * n
        assert all(np.array_equal(got, b) for got, b in zip([factored[0], *factored[1:-1:2]], m.upper, strict=True))
        assert all(np.array_equal(got, want) for got, want in zip(factored[2:-1:2] + factored[-1:], panels, strict=True))
        del factored[:]
        assert _rel_close(logdet_via_transfer(bordered, z), lu_logdet(to_dense(bordered, z)), 1e-12)
        assert [a.shape for a in factored] == [(2 * ell, ell)] * (n + 1) + [(ell, ell)]


def test_bordered_growth_reads_its_stored_gram_sum(monkeypatch):
    """A bordered ensemble's `projected_growth_log` runs no frame QR: `build_bordered` stored the Gram sum."""
    qrs = []

    def counting_lookup(names, *args, **kwargs):
        qrs.extend(name for name in names if name == "geqrf")
        return get_lapack_funcs(names, *args, **kwargs)

    get_lapack_funcs = numerics.get_lapack_funcs
    rng = np.random.default_rng(5)
    m = sample_tridiagonal(4, 3, LAW, 10)
    bordered = build_bordered(m, random_exit_frame(3, rng), random_entry_frame(3, rng))
    monkeypatch.setattr(numerics, "get_lapack_funcs", counting_lookup)
    for z in (0.0, 0.5 + 0.5j):
        projected_growth_log(bordered, z)
        assert qrs == []


def test_logdet_scalar_case():
    m = sample_tridiagonal(1, 1, LAW, 4)
    a = m.diag[0][0, 0]
    for z in (0.0, 0.5 + 0.5j, 2.0):
        assert abs(logdet_via_transfer(m, z) - np.log(abs(a - z))) < 1e-12


def test_logdet_identity_small_sweep():
    count = 0
    for seed in range(12):
        n = 2 + seed % 7
        ell = 1 + seed % 6
        m = sample_tridiagonal(n, ell, LAW, 100 + seed)
        for z in (0.0, 0.5 + 0.5j, 2.0):
            lhs = logdet_via_transfer(m, z)
            rhs = lu_logdet(to_dense(m, z))
            assert _rel_close(lhs, rhs, 1e-8)
            count += 1
    assert count == 36


def test_logdet_bordered_small_sweep(unit_gram_frame):
    rng = np.random.default_rng(5)
    for seed in range(10):
        n = 1 + seed % 6
        ell = 1 + seed % 4
        m = sample_tridiagonal(n, ell, LAW, 200 + seed)
        frame = random_entry_frame if seed % 2 == 0 else unit_gram_frame
        b = build_bordered(m, frame(ell, rng).conj().T, frame(ell, rng))
        for z in (0.0, 0.5 + 0.5j, 2.0):
            lhs = logdet_via_transfer(b, z)
            rhs = lu_logdet(to_dense(b, z))
            assert _rel_close(lhs, rhs, 1e-8)


def test_logdet_matches_dense_at_full_block_width():
    """n = 16, ell = 48: the block LU against one dense LU of the 768 x 768 matrix."""
    m = sample_tridiagonal(16, 48, LAW, 12)
    for z in (0.0, 2.0):
        assert _rel_close(logdet_via_transfer(m, z), lu_logdet(to_dense(m, z)), 1e-12)


def test_near_singular_slice_is_within_tolerance():
    """Smoothed Rademacher at C = 20 makes each B a sign matrix plus a 3**-20 perturbation.

    Trial 4 is the hard case: a QR-renormalized sweep read a relative error of 0.27 there, and the
    unpivoted block LU with its frame-path fallback 4.7e-7 in the worst trial.
    """
    record = run(ExperimentConfig("logdet-identity", n=6, ell=3, law_kind="smoothed-rademacher", smoothing_exponent=20.0, trials=10, master_seed=0))
    errors = [t.values["rel_error"] for t in record.trials]
    assert len(errors) == 10 and all(t.status == "ok" for t in record.trials)
    assert max(errors) <= 1e-7, errors


# ROADMAP item 2's near-singular-B table: (C, ell, n) at z = 0.5 + 0.1i, master seed 11.
NEAR_SINGULAR_B = ((20.0, 3, 6), (20.0, 4, 16), (40.0, 2, 32), (40.0, 3, 6), (60.0, 4, 16))


@pytest.mark.parametrize("exponent, ell, n", NEAR_SINGULAR_B)
def test_near_singular_b_matches_dense(exponent, ell, n):
    """Smoothed Rademacher B blocks are sign matrices plus ell**-C noise: singular in double precision at C >= 40.

    The block LU never factors B, so it matches the dense LU and raises nothing.
    """
    law, z = AtomLaw("smoothed-rademacher", exponent), 0.5 + 0.1j
    for trial in range(40):
        m = sample_tridiagonal(n, ell, law, 11, trial)
        assert _rel_close(logdet_via_transfer(m, z), lu_logdet(to_dense(m, z)), 1e-8), trial


def test_singular_schur_complement_instance_matches_dense():
    """Smoothed Rademacher C = 60, ell = 8, n = 64, z = 0.5, master seed 11, trial 3.

    Its entries are exactly +-1 / sqrt(24) and its second Schur complement of
    the unpivoted block LU is exactly singular, while s_min(T - z) = 2.0e-4.
    A sweep without pivoting across rows had to fall back there, to a path that
    raised at a singular B_k; the pivoted block LU returns the dense value.
    """
    law = AtomLaw("smoothed-rademacher", 60.0)
    m = sample_tridiagonal(64, 8, law, 11, 3)
    dense = lu_logdet(to_dense(m, 0.5))
    assert abs(dense + 208.868) < 1e-3
    assert _rel_close(logdet_via_transfer(m, 0.5), dense, 1e-8)
    config = ExperimentConfig("logdet-limit", n=64, ell=8, z=0.5, law_kind=law.kind, smoothing_exponent=60.0, trials=10, master_seed=11)
    assert [t.status for t in run(config).trials] == ["ok"] * 10


def _with_blocks(m, k, **blocks):
    """`m` with row k's `diag`, `upper` or `lower` block replaced."""
    rows = {role: list(getattr(m, role)) for role in ("diag", "upper", "lower")}
    for role, block in blocks.items():
        rows[role][k] = np.asarray(block)
    return BlockTridiagonal(m.n, m.ell, *(tuple(rows[role]) for role in ("diag", "upper", "lower")))


def test_exactly_singular_shift_reads_minus_inf_without_a_warning():
    """Row 1 of T - z is zero in its first scalar row, so det(T - z) = 0 exactly; its B_1 is singular too."""
    z = 0.5
    m = sample_tridiagonal(4, 3, AtomLaw("real-gaussian"), 21)
    a, b, c = (blk.copy() for blk in (m.diag[1], m.upper[1], m.lower[1]))
    a[0], b[0], c[0] = 0.0, 0.0, 0.0
    a[0, 0] = z
    singular = _with_blocks(m, 1, diag=a, upper=b, lower=c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for shift in (z, complex(z)):
            assert logdet_via_transfer(singular, shift) == -np.inf
            assert logdet_via_transfer(build_bordered(singular, identity_exit_frame(3), identity_entry_frame(3)), shift) == -np.inf
    with pytest.raises(SingularMatrixError):
        projected_growth_log(singular, z)


def test_nan_block_raises():
    m = sample_tridiagonal(4, 3, LAW, 22)
    a = m.diag[2].copy()
    a[1, 1] = np.nan
    for bad in (_with_blocks(m, 2, diag=a), _with_blocks(m, 3, lower=a)):
        with pytest.raises(SingularMatrixError):
            logdet_via_transfer(bad, 0.5)
        with pytest.raises(SingularMatrixError):
            projected_growth_log(bad, 0.5)


@pytest.mark.parametrize("kind", ("real-gaussian", "complex-gaussian"))
@pytest.mark.parametrize("ell", (1, 2, 3))
def test_block_lu_across_pivot_chunk_flushes(kind, ell):
    """n = 130 pivot rows flush the gathered magnitudes twice, at 64 and 128 (`_PIVOT_CHUNK`); block row 100 is in the second chunk."""
    n, row = 130, 100
    assert 2 * transfer._PIVOT_CHUNK < n
    m = sample_tridiagonal(n, ell, AtomLaw(kind), 31)
    lazy = LazyTridiagonal(n, ell, AtomLaw(kind), 31)
    zero = np.zeros((ell, ell))
    nan = m.diag[row].copy()
    nan[0, 0] = np.nan
    for z in (0.0, 0.5 + 0.5j, 2.0):
        value = logdet_via_transfer(m, z)
        assert _rel_close(value, lu_logdet(to_dense(m, z)), 1e-12)
        assert logdet_via_transfer(lazy, z) == value
        # Row 100 of T - z is zero: its diagonal block is z I.
        zeroed = _with_blocks(m, row, diag=z * np.eye(ell), upper=zero, lower=zero)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert logdet_via_transfer(zeroed, z) == -np.inf
        with pytest.raises(SingularMatrixError):
            logdet_via_transfer(_with_blocks(m, row, diag=nan), z)


def test_singular_b_raises_only_in_projected_growth():
    """B_2 = 0 leaves T - z regular: its log-determinant is finite, and the sum of log|det B_k| is not."""
    m = _with_blocks(sample_tridiagonal(5, 3, LAW, 23), 2, upper=np.zeros((3, 3)))
    for z in (0.0, 0.5 + 0.5j):
        assert _rel_close(logdet_via_transfer(m, z), lu_logdet(to_dense(m, z)), 1e-12)
        with pytest.raises(SingularMatrixError):
            projected_growth_log(m, z)


def _is_singular(block) -> bool:
    try:
        lu_logdet(block)
    except SingularMatrixError:
        return True
    return False


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@seed(2008)
@given(
    exponent=st.sampled_from((1.0, 20.0, 60.0)),
    ell=st.integers(1, 3),
    n=st.sampled_from((1, 2, 3, 5)),
    master_seed=st.integers(0, 2**32 - 1),
    z=st.one_of(st.floats(-2.0, 2.0), st.complex_numbers(max_magnitude=2.0)),
)
def test_smoothed_rademacher_corners(exponent, ell, n, master_seed, z):
    """Sign matrices plus ell**-C noise, exactly +-1 at C = 60: `projected_growth_log` raises exactly when a B_k is singular."""
    m = sample_tridiagonal(n, ell, AtomLaw("smoothed-rademacher", exponent), master_seed)
    value = logdet_via_transfer(m, z)
    assert _rel_close(value, lu_logdet(to_dense(m, z)), 1e-8)
    if any(_is_singular(b) for b in m.upper):
        with pytest.raises(SingularMatrixError):
            projected_growth_log(m, z)
    else:
        log_b = sum(lu_logdet(b) for b in m.upper)
        assert _rel_close(projected_growth_log(m, z) + log_b, value, 1e-12)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@seed(2008)
@given(
    ell=st.integers(1, 3),
    n=st.sampled_from((1, 2, 3, 5)),
    master_seed=st.integers(0, 2**32 - 1),
    z=st.one_of(st.floats(-2.0, 2.0), st.complex_numbers(max_magnitude=2.0)),
)
def test_unnormalized_frames_shift_by_their_determinants_and_match_the_wedge_pairing(ell, n, master_seed, z):
    """Frames xi c and d pi add log|det c| + log|det d|; the value is log|<wedge(d pi), wedge(product) wedge(xi c)>|."""
    m = sample_tridiagonal(n, ell, LAW, master_seed)
    rng = np.random.default_rng(master_seed)
    pi, xi = random_exit_frame(ell, rng), random_entry_frame(ell, rng)
    c, d = (rng.standard_normal((ell, ell)) + 1j * rng.standard_normal((ell, ell)) for _ in range(2))
    base = projected_growth_log(build_bordered(m, pi, xi), z)
    scaled = projected_growth_log(build_bordered(m, d @ pi, xi @ c), z)
    shift = np.log(abs(np.linalg.det(c))) + np.log(abs(np.linalg.det(d)))
    assert _rel_close(scaled, base + shift, 1e-8)
    product = np.eye(2 * ell, dtype=complex)
    for k in range(n):
        product = dense_transfer_matrix(m.diag[k], m.upper[k], m.lower[k], z) @ product
    pairing = plucker_coordinates((d @ pi).T) @ wedge_power_small(product, ell) @ plucker_coordinates(xi @ c)
    assert _rel_close(scaled, np.log(abs(pairing)), 1e-8)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@seed(2008)
@given(
    ell=st.integers(1, 3),
    n=st.sampled_from((1, 2, 3, 5)),
    master_seed=st.integers(0, 2**32 - 1),
    z=st.one_of(st.floats(-2.0, 2.0), st.complex_numbers(max_magnitude=2.0)),
)
def test_bordered_matrix_does_not_depend_on_the_frame_scale(ell, n, master_seed, z):
    """Frames d pi and xi c border by the same spans as pi and xi: the bordered log|det| and least singular value agree."""
    m = sample_tridiagonal(n, ell, LAW, master_seed)
    rng = np.random.default_rng(master_seed)
    pi, xi = random_exit_frame(ell, rng), random_entry_frame(ell, rng)
    c, d = (rng.standard_normal((ell, ell)) + 1j * rng.standard_normal((ell, ell)) for _ in range(2))
    base, scaled = build_bordered(m, pi, xi), build_bordered(m, d @ pi, xi @ c)
    assert _rel_close(logdet_via_transfer(scaled, z), logdet_via_transfer(base, z), 1e-12)
    lsv = least_singular_value(base, z)
    assert abs(least_singular_value(scaled, z) - lsv) <= 1e-12 * lsv


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@seed(2008)
@given(
    kind=st.sampled_from(ATOM_KINDS),
    ell=st.integers(1, 3),
    n=st.sampled_from((1, 2, 3, 5)),
    master_seed=st.integers(0, 2**32 - 1),
    z=st.one_of(st.floats(-2.0, 2.0), st.complex_numbers(max_magnitude=2.0)),
)
def test_block_lu_matches_dense_lu(kind, ell, n, master_seed, z):
    """Both determinant paths against the dense LU, for every law at the smallest n and ell, real and non-real z."""
    m = sample_tridiagonal(n, ell, AtomLaw(kind), master_seed)
    dense = lu_logdet(to_dense(m, z))
    assert _rel_close(logdet_via_transfer(m, z), dense, 1e-8)
    log_b = sum(lu_logdet(b) for b in m.upper)
    assert _rel_close(projected_growth_log(m, z) + log_b, dense, 1e-8)


@pytest.mark.parametrize("kind", ATOM_KINDS)
def test_shift_near_an_eigenvalue_matches_dense_lu_and_eigenvalues(kind):
    """z at distance delta in {1e-8, 1e-10} from an eigenvalue of T, real and imaginary offsets, ell <= 3, n <= 5.

    A backward-stable value is the exact log|det| of T - z + E with ||E|| <= N eps ||T - z||.
    To first order, log|det(T - z)| = sum_i log|lambda_i - z| moves by at most
    ||E|| * sum_i kappa_i / |lambda_i - z|, with kappa_i the condition number of lambda_i;
    the near eigenvalue's term is about eps ||T|| kappa / delta. Two such values differ by at
    most twice that bound.
    """
    law, eps = AtomLaw(kind), np.finfo(np.float64).eps
    for ell, n in itertools.product((1, 2, 3), (1, 2, 3, 5)):
        m = sample_tridiagonal(n, ell, law, 17, trial=10 * ell + n)
        t = to_dense(m, 0.0)
        lam = eigvals(t)
        _, left, right = scipy.linalg.eig(t, left=True, right=True)
        kappa = np.max(1.0 / np.abs(np.sum(left.conj() * right, axis=0)))  # unit-norm eigenvectors
        near = lam[(n + ell) % lam.size]
        for delta, direction in itertools.product((1e-8, 1e-10), (1.0, 1j)):
            z = near + direction * delta
            z = z.real if z.imag == 0 else z
            shifted = to_dense(m, z)
            tol = 2 * shifted.shape[0] * eps * np.linalg.norm(shifted, 2) * kappa * np.sum(1.0 / np.abs(lam - z))
            value = logdet_via_transfer(m, z)
            assert abs(value - lu_logdet(shifted)) <= tol, (ell, n, delta, z)
            assert abs(value - np.sum(np.log(np.abs(lam - z)))) <= tol, (ell, n, delta, z)


def test_a_rank_deficient_entry_frame_raises_rank_deficient_error_on_every_path():
    """One cause, one type: the boundary QR of `build_bordered` reports it, for a materialized and a lazy ensemble."""
    xi = np.zeros((4, 2), dtype=complex)
    xi[0, 0] = 1.0
    for m in (sample_tridiagonal(3, 2, LAW, 6), LazyTridiagonal(3, 2, LAW, 6)):
        with pytest.raises(RankDeficientError) as raised:
            build_bordered(m, entry_frame=xi)
        assert isinstance(raised.value, SingularMatrixError)


def test_sweeps_refuse_a_periodic_ensemble():
    periodic = sample_periodic(4, 3, LAW, 1)
    for sweep in (
        lambda: logdet_via_transfer(periodic, 0.5),
        lambda: projected_growth_log(periodic, 0.5),
        lambda: build_bordered(periodic, identity_exit_frame(3)),
        lambda: cocycle_trace(periodic, 0.5),
    ):
        with pytest.raises(TypeError, match="PeriodicEnsemble"):
            sweep()


def test_explicit_frames_of_another_ell_raise_before_any_block_is_drawn(monkeypatch):
    drawn = []

    def counting_fill_block(*args, **kwargs):
        drawn.append(args)
        return fill_block(*args, **kwargs)

    fill_block = model.fill_block
    monkeypatch.setattr(model, "fill_block", counting_fill_block)
    lazy = LazyTridiagonal(4, 3, LAW, 1)
    for frames in ({"exit_frame": identity_exit_frame(2)}, {"entry_frame": identity_entry_frame(2)}, {"exit_frame": identity_exit_frame(2), "entry_frame": identity_entry_frame(2)}):
        with pytest.raises(ValueError, match="frame shapes"):
            build_bordered(lazy, **frames)
        assert drawn == []
    projected_growth_log(build_bordered(lazy, identity_exit_frame(3)), 0.5)
    assert len(drawn) == 3 * 4


def test_frame_representative_invariance():
    rng = np.random.default_rng(8)
    m = sample_tridiagonal(6, 4, LAW, 9)
    xi = random_entry_frame(4, rng)
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    b1, b2 = build_bordered(m, entry_frame=xi), build_bordered(m, entry_frame=xi @ u)
    v1 = projected_growth_log(b1, 0.3)
    v2 = projected_growth_log(b2, 0.3)
    assert abs(v1 - v2) < 1e-9
    w1 = cocycle_trace(b1, 0.3).total
    w2 = cocycle_trace(b2, 0.3).total
    assert abs(w1 - w2) < 1e-9


def test_wedge_power_small_basics():
    assert np.allclose(wedge_power_small(np.eye(4), 2), np.eye(6))
    g = np.diag([2.0, 3.0])
    assert np.allclose(wedge_power_small(g, 1), g)
    w = wedge_power_small(np.diag([1.0, 2.0, 3.0, 4.0]), 2)
    assert np.allclose(sorted(svd_values(w)), [2, 3, 4, 6, 8, 12])
    with pytest.raises(SizeCapError):
        wedge_power_small(np.eye(10), 5)


def test_wedge_singular_values_are_products():
    rng = np.random.default_rng(10)
    for ell in (2, 3):
        g = rng.standard_normal((2 * ell, 2 * ell)) + 1j * rng.standard_normal((2 * ell, 2 * ell))
        s = svd_values(g)
        from itertools import combinations

        products = sorted(np.prod(s[list(ix)]) for ix in combinations(range(2 * ell), ell))
        wedge_s = sorted(svd_values(wedge_power_small(g, ell)))
        assert np.allclose(wedge_s, products, rtol=1e-8)


def test_plucker_cauchy_binet():
    rng = np.random.default_rng(11)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    f = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    lhs = plucker_coordinates(g @ f)
    rhs = wedge_power_small(g, 2) @ plucker_coordinates(f)
    assert np.linalg.norm(lhs - rhs) < 1e-10


def test_frame_cocycle_matches_wedge_norm():
    rng = np.random.default_rng(12)
    ell = 2
    for seed in range(5):
        m = sample_tridiagonal(4, ell, LAW, 300 + seed)
        xi = random_entry_frame(ell, rng)
        total = cocycle_trace(build_bordered(m, entry_frame=xi), 0.5).total
        product = np.eye(2 * ell, dtype=complex)
        for k in range(m.n):
            product = dense_transfer_matrix(m.diag[k], m.upper[k], m.lower[k], 0.5) @ product
        wedge_vec = wedge_power_small(product, ell) @ plucker_coordinates(xi)
        assert abs(total - np.log(np.linalg.norm(wedge_vec))) < 1e-8


def test_bordered_cocycle_matches_wedge_norm(unit_gram_frame):
    rng = np.random.default_rng(14)
    for n in range(1, 6):
        for ell in range(1, 4):
            m = sample_tridiagonal(n, ell, LAW, 400 + 3 * n + ell)
            for frame in (random_entry_frame, unit_gram_frame):
                b = build_bordered(m, frame(ell, rng).conj().T, frame(ell, rng))
                for z in (0.0, 0.5 + 0.5j, 2.0):
                    product = np.eye(2 * ell, dtype=complex)
                    for k in range(n):
                        product = dense_transfer_matrix(m.diag[k], m.upper[k], m.lower[k], z) @ product
                    wedge_vec = wedge_power_small(product, ell) @ plucker_coordinates(b.entry_frame)
                    assert abs(cocycle_trace(b, z).total - np.log(np.linalg.norm(wedge_vec))) < 1e-8


def test_concentration_identical_streams_zero_variance():
    a = sample_tridiagonal(8, 2, LAW, 13, trial=5)
    b = sample_tridiagonal(8, 2, LAW, 13, trial=5)
    v1 = projected_growth_log(a, 0.5)
    v2 = projected_growth_log(b, 0.5)
    assert v1 == v2
    assert np.var([v1, v2]) == 0.0


def test_concentration_no_extreme_outliers():
    cfg = ExperimentConfig("concentration", n=64, ell=8, z=0.5, law_kind=LAW.kind, trials=500, master_seed=15)
    record = run(cfg)
    assert record.aggregates["normalized_projected_growth"]["count"] == 500
    vals = np.array([t.values["normalized_projected_growth"] for t in record.trials])
    spread = np.abs(vals - vals.mean()) / vals.std(ddof=1)
    assert spread.max() < 6.0
