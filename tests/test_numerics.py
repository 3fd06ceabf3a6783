import numpy as np
import pytest

from blocktri.numerics import (
    EIGVALS_CAP,
    EigenConvergenceError,
    RankDeficientError,
    SingularMatrixError,
    SizeCapError,
    eigvals,
    inv_sqrt_hermitian,
    lu_logdet,
    qr_thin,
    solve_lu,
    svd_values,
    unitary_complement,
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
    assert lu_logdet(np.eye(5)).log_magnitude == pytest.approx(0.0, abs=1e-14)
    assert lu_logdet(np.diag([2.0, 3.0])).log_magnitude == pytest.approx(np.log(6.0), abs=1e-14)


def test_lu_logdet_against_cofactor_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = _crandn(rng, 6, 6)
        expected = abs(_cofactor_det(m))
        result = lu_logdet(m)
        assert np.exp(result.log_magnitude) == pytest.approx(expected, rel=1e-8)


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


def test_lu_logdet_factors_solve_like_solve_lu():
    rng = np.random.default_rng(2)
    for b in (_crandn(rng, 6, 6), rng.standard_normal((6, 6))):
        rhs = _crandn(rng, 6, 2)
        assert np.array_equal(lu_logdet(b).solve(rhs), solve_lu(b, rhs))
    assert lu_logdet(np.zeros((0, 0))).solve(np.zeros(0)).shape == (0,)


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
        ld = lu_logdet(m).log_magnitude
        assert abs(np.sum(np.log(svd_values(m))) - ld) <= 1e-8 * max(1.0, abs(ld))


def test_eigvals_contracts():
    assert np.allclose(sorted(eigvals(np.diag([1.0, 5.0, -2.0])).real), [-2.0, 1.0, 5.0])
    companion = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(sorted(eigvals(companion).real), [-1.0, 1.0], atol=1e-12)
    rng = np.random.default_rng(5)
    m = _crandn(rng, 50, 50)
    ev = eigvals(m)
    assert abs(ev.sum() - np.trace(m)) <= 1e-6 * 50
    ld = lu_logdet(m).log_magnitude
    assert abs(np.sum(np.log(np.abs(ev))) - ld) <= 1e-4 * max(1.0, abs(ld))
    with pytest.raises(SizeCapError):
        eigvals(np.eye(EIGVALS_CAP + 1))


def test_eigvals_complex_for_real_spectrum():
    for m in (np.diag([3.0, -1.0, 0.5]), np.array([[2.0]])):
        ev = eigvals(m)
        assert ev.dtype == np.complex128
        assert np.array_equal(np.sort(ev.real), np.sort(np.diag(m))) and np.all(ev.imag == 0)


def test_unitary_complement():
    ell = 3
    q_minus = np.vstack([np.zeros((ell, ell)), np.eye(ell)]).astype(complex)
    comp = unitary_complement(q_minus)
    assert np.linalg.norm(comp[ell:]) < 1e-12  # spans the first ell coordinates
    v = np.array([[1.0], [1.0]]) / np.sqrt(2)
    comp1 = unitary_complement(v)
    target = np.array([1.0, -1.0]) / np.sqrt(2)
    overlap = abs(np.vdot(comp1[:, 0], target))
    assert overlap == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(6)
    q, _ = np.linalg.qr(_crandn(rng, 8, 4))
    comp = unitary_complement(q)
    full = np.hstack([comp, q])
    assert np.linalg.norm(full.conj().T @ full - np.eye(8)) < 1e-10
    with pytest.raises(ValueError):
        unitary_complement(2.0 * q)


def test_inv_sqrt_hermitian():
    rng = np.random.default_rng(7)
    g = _crandn(rng, 5, 5)
    h = g.conj().T @ g + np.eye(5)
    s = inv_sqrt_hermitian(h)
    assert np.linalg.norm(s @ h @ s - np.eye(5)) < 1e-10
    with pytest.raises(SingularMatrixError):
        inv_sqrt_hermitian(np.diag([1.0, 0.0]))


def test_eigvals_requires_square():
    with pytest.raises(ValueError):
        eigvals(np.ones((2, 3)))
    assert isinstance(EigenConvergenceError(), Exception)
