import numpy as np
import pytest

from blocktri.numerics import (
    EIGVALS_CAP,
    EigenConvergenceError,
    RankDeficientError,
    SingularMatrixError,
    SizeCapError,
    eigvals,
    lu_logdet,
    qr_thin,
    solve_lu,
    svd_values,
)


def _crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _cofactor_det(m):
    """Recursive minor expansion, usable only at tiny sizes."""
    n = m.shape[0]
    if n == 1:
        return m[0, 0]
    total = 0.0 + 0.0j
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * m[0, j] * _cofactor_det(minor)
    return total


def test_lu_logdet_identity_and_diagonal():
    assert lu_logdet(np.eye(5)) == pytest.approx(0.0, abs=1e-14)
    assert lu_logdet(np.diag([2.0, 3.0])) == pytest.approx(np.log(6.0), abs=1e-14)


def test_lu_logdet_against_cofactor_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = _crandn(rng, 6, 6)
        expected = abs(_cofactor_det(m))
        assert np.exp(lu_logdet(m)) == pytest.approx(expected, rel=1e-8)


def test_lu_logdet_singular_raises():
    with pytest.raises(SingularMatrixError):
        lu_logdet(np.zeros((3, 3)))
    m = np.eye(4, dtype=complex)
    m[2, 2] = 0.0
    with pytest.raises(SingularMatrixError):
        lu_logdet(m)


def test_solve_lu_trivial_and_residual():
    rng = np.random.default_rng(1)
    rhs = _crandn(rng, 4, 2)
    assert np.allclose(solve_lu(np.eye(4), rhs), rhs)
    d = np.diag([1.0, 2.0, 4.0, 8.0])
    assert np.allclose(solve_lu(d, rhs), rhs / np.diag(d)[:, None])
    b = _crandn(rng, 8, 8)
    x = solve_lu(b, _crandn(rng, 8, 3))
    rhs8 = b @ x
    assert np.linalg.norm(b @ x - rhs8) < 1e-10
    x2 = solve_lu(b, rhs8)
    assert np.linalg.norm(b @ x2 - rhs8) < 1e-10 * np.linalg.norm(b) * np.linalg.norm(x2)
    with pytest.raises(SingularMatrixError):
        solve_lu(np.zeros((3, 3)), np.ones(3))


def test_solve_lu_shapes_and_dtypes():
    rng = np.random.default_rng(2)
    b = rng.standard_normal((6, 6))
    with pytest.raises(ValueError):
        solve_lu(b, np.ones((5, 2)))
    for rhs in (np.zeros((6, 0)), np.zeros((6, 0), dtype=complex)):
        x = solve_lu(b, rhs)
        assert x.shape == (6, 0) and x.dtype == rhs.dtype
    for rhs in (np.zeros(0), np.zeros((0, 3), dtype=complex)):
        x = solve_lu(np.zeros((0, 0)), rhs)
        assert x.shape == rhs.shape and x.dtype == rhs.dtype
    x = solve_lu(b, rng.standard_normal((6, 2)))
    assert x.dtype == np.float64
    # A real B with a complex right-hand side: dgetrf, then zgetrs on the promoted factors.
    rhs = _crandn(rng, 6, 2)
    x = solve_lu(b, rhs)
    assert x.dtype == np.complex128
    assert np.linalg.norm(b @ x - rhs) < 1e-12 * np.linalg.norm(b) * np.linalg.norm(x)


def test_qr_thin_contracts():
    rng = np.random.default_rng(2)
    q0, _ = np.linalg.qr(_crandn(rng, 8, 4))
    q, r = qr_thin(q0)
    assert np.allclose(r, np.eye(4), atol=1e-12)
    q, r = qr_thin(2.0 * q0)
    assert np.allclose(r, 2.0 * np.eye(4), atol=1e-12)
    m = _crandn(rng, 8, 4)
    q, r = qr_thin(m)
    assert np.linalg.norm(q.conj().T @ q - np.eye(4)) < 1e-12
    assert np.linalg.norm(q @ r - m) < 1e-10 * np.linalg.norm(m)
    d = np.diagonal(r)
    assert np.all(d.imag == 0) and np.all(d.real > 0)
    assert np.all(np.abs(np.tril(r, -1)) < 1e-14)


def test_qr_thin_deterministic_bitwise():
    rng = np.random.default_rng(3)
    m = _crandn(rng, 10, 5)
    q1, r1 = qr_thin(m)
    q2, r2 = qr_thin(m.copy())
    assert np.array_equal(q1, q2) and np.array_equal(r1, r2)


def test_qr_thin_rank_deficient():
    m = np.zeros((6, 3), dtype=complex)
    m[:, 0] = 1.0
    with pytest.raises(RankDeficientError):
        qr_thin(m)


def test_svd_values_basic():
    assert np.allclose(svd_values(np.eye(4)), 1.0)
    assert np.allclose(svd_values(np.diag([3.0, 1.0, 0.0])), [3.0, 1.0, 0.0])


def test_svd_logdet_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(10):
        m = _crandn(rng, 6, 6)
        ld = lu_logdet(m)
        assert abs(np.sum(np.log(svd_values(m))) - ld) <= 1e-8 * max(1.0, abs(ld))


def test_eigvals_contracts():
    assert np.allclose(sorted(eigvals(np.diag([1.0, 5.0, -2.0])).real), [-2.0, 1.0, 5.0])
    companion = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(sorted(eigvals(companion).real), [-1.0, 1.0], atol=1e-12)
    rng = np.random.default_rng(5)
    m = _crandn(rng, 50, 50)
    ev = eigvals(m)
    assert abs(ev.sum() - np.trace(m)) <= 1e-6 * 50
    ld = lu_logdet(m)
    assert abs(np.sum(np.log(np.abs(ev))) - ld) <= 1e-4 * max(1.0, abs(ld))
    with pytest.raises(SizeCapError):
        eigvals(np.eye(EIGVALS_CAP + 1))


def test_eigvals_complex_for_real_spectrum():
    for m in (np.diag([3.0, -1.0, 0.5]), np.array([[2.0]])):
        ev = eigvals(m)
        assert ev.dtype == np.complex128
        assert np.array_equal(np.sort(ev.real), np.sort(np.diag(m))) and np.all(ev.imag == 0)


def test_eigvals_requires_square():
    with pytest.raises(ValueError):
        eigvals(np.ones((2, 3)))
    assert isinstance(EigenConvergenceError(), Exception)


def _inputs(rng, rows, cols):
    """Real and complex matrices, each in C and in Fortran order."""
    out = []
    for m in (rng.standard_normal((rows, cols)), _crandn(rng, rows, cols)):
        out += [np.ascontiguousarray(m), np.asfortranarray(m)]
    return out


# The dense kernels with an in-place mode.
_KERNELS = (eigvals, svd_values, lu_logdet)


def test_dense_kernels_leave_their_input_untouched_by_default():
    rng = np.random.default_rng(11)
    for m in _inputs(rng, 40, 40):
        before = m.copy(order="K")
        for kernel in _KERNELS:
            kernel(m)
            assert m.flags.f_contiguous == before.flags.f_contiguous, kernel.__name__
            assert m.tobytes(order="A") == before.tobytes(order="A"), (kernel.__name__, m.dtype)


def test_overwrite_a_gives_the_default_values_bit_for_bit():
    rng = np.random.default_rng(12)
    for m in _inputs(rng, 60, 60):
        for kernel in _KERNELS:
            want = kernel(m)
            got = kernel(m.copy(order="K"), overwrite_a=True)
            assert np.array_equal(got, want), (kernel.__name__, m.dtype)


def test_overwrite_a_factors_a_fortran_matrix_in_place():
    rng = np.random.default_rng(13)
    for m in _inputs(rng, 30, 30)[1::2]:
        for kernel in _KERNELS:
            a = m.copy(order="F")
            kernel(a, overwrite_a=True)
            assert not np.array_equal(a, m), kernel.__name__


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan), complex(0.0, np.inf)])
@pytest.mark.parametrize("shape", [(4, 4), (5, 3), (3, 5), (300, 300)])
def test_nonfinite_entries_raise_typed_errors(bad, shape):
    """LAPACK does not reject NaN or inf: dgeev returns eigenvalues, dgesdd zeros."""
    rng = np.random.default_rng(14)
    dtypes = (np.complex128,) if isinstance(bad, complex) else (np.float64, np.complex128)
    for dtype in dtypes:
        for row, col in ((0, 0), (shape[0] - 1, shape[1] - 1), (shape[0] // 2, shape[1] - 2)):
            m = np.eye(*shape, dtype=dtype) + 0.1 * rng.standard_normal(shape)
            m[row, col] = bad
            for overwrite_a in (False, True):
                with pytest.raises(np.linalg.LinAlgError):
                    svd_values(np.asfortranarray(m), overwrite_a=overwrite_a)
                if shape[0] == shape[1]:
                    with pytest.raises(EigenConvergenceError):
                        eigvals(np.asfortranarray(m), overwrite_a=overwrite_a)


def test_empty_and_non_square_shapes():
    rng = np.random.default_rng(15)
    for dtype in (np.float64, np.complex128):
        ev = eigvals(np.zeros((0, 0), dtype=dtype))
        assert ev.shape == (0,) and ev.dtype == np.complex128
        for shape in ((0, 0), (3, 0), (0, 3)):
            s = svd_values(np.zeros(shape, dtype=dtype))
            assert s.shape == (0,) and s.dtype == np.float64
    for m in (rng.standard_normal((7, 3)), _crandn(rng, 3, 7), _crandn(rng, 1, 5)):
        s = svd_values(m)
        assert s.dtype == np.float64 and s.shape == (min(m.shape),)
        assert np.all(np.diff(s) <= 0)
        assert np.allclose(s, np.linalg.svd(m, compute_uv=False), rtol=1e-13, atol=0)
    with pytest.raises(ValueError):
        svd_values(np.ones(3))
