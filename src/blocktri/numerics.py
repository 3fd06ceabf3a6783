"""Dense kernels with pinned contracts.

All determinant work happens in log space: the product scales reached by the
transfer recursion underflow double precision long before the individual
factors do. A pivot magnitude below ``PIVOT_FLOOR`` is what "singular" means
throughout the package.

Real input stays real: a float64 matrix goes to the real LAPACK routines
(``dgetrf``, ``dgeev``, ``dgesdd``, ...), anything complex to the complex ones.
LU and QR call ``getrf``/``getrs`` and ``geqrf`` with ``orgqr``/``ungqr``
directly, without the per-call checks of the ``scipy.linalg`` front ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

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
    """Natural log of |det| plus the LU factors it came from.

    `solve` reuses the kept factors for systems with the same matrix.
    """

    log_magnitude: float
    factors: tuple = field(repr=False, compare=False)

    def solve(self, rhs) -> np.ndarray:
        """Solve M X = RHS with the kept LU factors of M."""
        lu, piv = self.factors
        r = _as_array(rhs)
        if lu.shape[0] != r.shape[0]:
            raise ValueError("shapes of the LU factors and the right-hand side do not match")
        if r.size == 0:
            return np.empty_like(r, dtype=np.result_type(lu, r))
        (getrs,) = get_lapack_funcs(("getrs",), (lu, r))
        # The getrs wrapper shifts the pivots to 1-based in place with the GIL
        # released, so every call gets its own copy: factors shared by several
        # threads would be corrupted otherwise.
        x, info = getrs(lu, piv.copy(), r)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of getrs")
        return x


def _as_square(m) -> np.ndarray:
    a = _as_array(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    return a


def lu_logdet(m) -> LogDetResult:
    """log|det M| from LU pivot magnitudes, never forming the determinant."""
    a = _as_square(m)
    if a.shape[0] == 0:
        return LogDetResult(0.0, (np.empty_like(a), np.zeros(0, dtype=np.int32)))
    (getrf,) = get_lapack_funcs(("getrf",), (a,))
    lu, piv, info = getrf(a)
    return LogDetResult(pivot_log_magnitude(lu, info), (lu, piv))


def pivot_log_magnitude(lu, info: int, error: type = SingularMatrixError, what: str = "pivot") -> float:
    """Sum of log|U_ii| over the pivots of a ``getrf`` result.

    Raises `error` when a pivot magnitude is not finite or below the floor,
    and `ValueError` when ``getrf`` reported an illegal argument.
    """
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf")
    # info > 0 flags an exact zero pivot, which the floor below also catches.
    mags = np.abs(lu.diagonal())
    # A NaN fails the first test; an infinite pivot makes the sum infinite.
    if not mags.min() >= PIVOT_FLOOR:
        raise error(f"{what} magnitude below floor")
    total = float(np.log(mags).sum())
    if not math.isfinite(total):
        raise error(f"{what} magnitude below floor")
    return total


def solve_lu(b, rhs) -> np.ndarray:
    """Solve B X = RHS through one LU factorization of B."""
    return lu_logdet(b).solve(rhs)


def qr_thin(m) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR with the R diagonal made real positive.

    The phase convention removes the unitary ambiguity so repeated frame
    trajectories are bit-reproducible.
    """
    a = _as_array(m)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    rows, cols = a.shape
    k = min(rows, cols)
    if k == 0:
        return np.zeros((rows, 0), dtype=a.dtype), np.zeros((0, cols), dtype=a.dtype)
    geqrf, gqr = get_lapack_funcs(("geqrf", "ungqr" if np.iscomplexobj(a) else "orgqr"), (a,))
    qr, tau, _, info = geqrf(a)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of geqrf")
    r = np.triu(qr[:k])
    q, _, info = gqr(qr[:, :k], tau, overwrite_a=True)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of orgqr/ungqr")
    d = np.diagonal(r)
    mags = np.abs(d)
    if np.any(mags < PIVOT_FLOOR) or not np.all(np.isfinite(mags)):
        raise RankDeficientError("R diagonal magnitude below floor")
    phases = d / mags
    q *= phases
    r *= np.conj(phases)[:, None]
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


def inv_sqrt_hermitian(h) -> np.ndarray:
    """H**(-1/2) for Hermitian positive definite H, eigenvalue-floored."""
    a = _as_square(h)
    a = (a + a.conj().T) / 2
    w, v = np.linalg.eigh(a)
    if np.any(w < PIVOT_FLOOR):
        raise SingularMatrixError("eigenvalue below floor in inverse square root")
    return (v / np.sqrt(w)) @ v.conj().T
