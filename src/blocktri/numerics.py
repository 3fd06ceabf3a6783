"""Dense kernels with pinned contracts.

All determinant work happens in log space: the product scales reached by the
transfer recursion underflow double precision long before the individual
factors do. A pivot magnitude below ``PIVOT_FLOOR`` is what "singular" means
throughout the package.

Real input stays real: a float64 matrix goes to the real LAPACK routines
(``dgetrf``, ``dgeev``, ``dgesdd``, ...), anything complex to the complex ones.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

PIVOT_FLOOR = 1e-300
EIGVALS_CAP = 4096


class NumericsError(Exception):
    """Base class for kernel contract violations."""


class SingularMatrixError(NumericsError):
    pass


class RankDeficientError(NumericsError):
    pass


class SizeCapError(NumericsError):
    pass


class EigenConvergenceError(NumericsError):
    pass


def _as_array(m) -> np.ndarray:
    """float64 when the entries are real, complex128 otherwise."""
    a = np.asarray(m)
    return a.astype(np.complex128 if np.iscomplexobj(a) else np.float64, copy=False)


@dataclass(frozen=True)
class LogDetResult:
    """Natural log of |det| plus an optional unit-modulus phase.

    `lu_logdet` also keeps the LU factors it computed, so `solve` can reuse
    them for systems with the same matrix.
    """

    log_magnitude: float
    sign_phase: complex | None = None
    factors: tuple | None = field(default=None, repr=False, compare=False)

    def solve(self, rhs) -> np.ndarray:
        """Solve M X = RHS with the kept LU factors of M."""
        if self.factors is None:
            raise ValueError("no LU factors kept")
        return lu_solve(self.factors, _as_array(rhs), check_finite=False)


def _as_square(m) -> np.ndarray:
    a = _as_array(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    return a


def _checked_lu(a: np.ndarray):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lu, piv = lu_factor(a, check_finite=False)
    pivots = np.abs(np.diagonal(lu))
    if not np.all(np.isfinite(pivots)) or np.any(pivots < PIVOT_FLOOR):
        raise SingularMatrixError("pivot magnitude below floor")
    return lu, piv


def lu_logdet(m) -> LogDetResult:
    """log|det M| from LU pivot magnitudes, never forming the determinant."""
    a = _as_square(m)
    if a.shape[0] == 0:
        return LogDetResult(0.0, 1.0 + 0.0j)
    lu, piv = _checked_lu(a)
    d = np.diagonal(lu)
    mags = np.abs(d)
    log_magnitude = float(np.sum(np.log(mags)))
    swaps = int(np.count_nonzero(piv != np.arange(len(piv))))
    phase = complex(np.prod(d / mags)) * (-1.0) ** swaps
    return LogDetResult(log_magnitude, phase, (lu, piv))


def solve_lu(b, rhs) -> np.ndarray:
    """Solve B X = RHS through one LU factorization of B."""
    a = _as_square(b)
    r = _as_array(rhs)
    lu, piv = _checked_lu(a)
    return lu_solve((lu, piv), r, check_finite=False)


def qr_thin(m) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR with the R diagonal made real positive.

    The phase convention removes the unitary ambiguity so repeated frame
    trajectories are bit-reproducible.
    """
    a = _as_array(m)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    q, r = np.linalg.qr(a, mode="reduced")
    d = np.diagonal(r)
    mags = np.abs(d)
    if np.any(mags < PIVOT_FLOOR) or not np.all(np.isfinite(mags)):
        raise RankDeficientError("R diagonal magnitude below floor")
    phases = d / mags
    q = q * phases
    r = r * np.conj(phases)[:, None]
    k = min(r.shape)
    r[np.arange(k), np.arange(k)] = mags
    return q, r


def svd_values(m) -> np.ndarray:
    """Singular values in descending order."""
    return np.linalg.svd(_as_array(m), compute_uv=False)


def eigvals(m, cap: int = EIGVALS_CAP) -> np.ndarray:
    """Eigenvalue multiset of a square matrix, dense solve, size-capped.

    Always complex128, also for a real matrix whose eigenvalues are all real.
    """
    a = _as_square(m)
    if a.shape[0] > cap:
        raise SizeCapError(f"matrix size {a.shape[0]} exceeds eigvals cap {cap}")
    try:
        ev = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc
    return ev.astype(np.complex128, copy=False)


def unitary_complement(q_minus) -> np.ndarray:
    """Orthonormal complement columns: [complement, q_minus] is unitary.

    Deterministic through the Householder QR completion of the input frame.
    """
    q = np.asarray(q_minus, dtype=np.complex128)
    if q.ndim != 2 or q.shape[0] < q.shape[1]:
        raise ValueError("expected a tall frame")
    k = q.shape[1]
    gram_err = np.linalg.norm(q.conj().T @ q - np.eye(k))
    if gram_err > 1e-10:
        raise ValueError("input columns are not orthonormal")
    full, _ = np.linalg.qr(q, mode="complete")
    return full[:, k:]


def inv_sqrt_hermitian(h, floor: float = PIVOT_FLOOR) -> np.ndarray:
    """H**(-1/2) for Hermitian positive definite H, eigenvalue-floored."""
    a = _as_square(h)
    a = (a + a.conj().T) / 2
    w, v = np.linalg.eigh(a)
    if np.any(w < floor):
        raise SingularMatrixError("eigenvalue below floor in inverse square root")
    return (v / np.sqrt(w)) @ v.conj().T
