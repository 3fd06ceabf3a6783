"""Dense kernels with pinned contracts.

All determinant work happens in log space: the product scales reached by the
transfer recursion underflow double precision long before the individual
factors do. A pivot magnitude below ``PIVOT_FLOOR`` is what "singular" means
throughout the package, and `_log_magnitude` is the one reduction of LU pivots
and QR diagonals to a log: -inf below the floor, `SingularMatrixError` for a
NaN or infinite magnitude. Every trial failure is a `NumericsError` subclass.

Real input stays real: a float64 matrix goes to the real LAPACK routines
(``dgetrf``, ``dgeev``, ``dgesdd``, ...), anything complex to the complex ones.
LU, QR, eigenvalues and singular values call ``getrf``/``getrs``, ``geqrf``
with ``orgqr``/``ungqr``, ``geev`` and ``gesdd`` of scipy's LAPACK directly,
without the per-call checks of the ``scipy.linalg`` front ends, so every dense
factorization runs in one OpenBLAS and its thread pool. ``geev`` and
``gesdd`` get the optimal workspace from their ``*_lwork`` queries. One
phase-fixed Householder QR (`_phase_fixed_qr`) serves `qr_thin` and the
boundary frames of `model._boundary`: its full Q holds a frame's
orthonormal basis and orthogonal complement, and log det R is half the log
Gram determinant.

The routines come from ``scipy.linalg._flapack`` and ``scipy.linalg._fblas``,
the compiled modules that ``scipy.linalg.lapack`` and ``scipy.linalg.blas``
re-export, loaded without running ``scipy.linalg``'s package ``__init__``;
`get_lapack_funcs` picks the ``d`` or ``z`` routine by name. That
``__init__`` imports scipy's array-API layer and through it ``numpy.f2py``,
``numpy.testing``, ``unittest`` and ``email``, about 300 modules, which cost
each short run more than its numeric work: without them `import blocktri`
loads 256 modules instead of 552, peaks at 37.7 MB of resident memory
instead of 56.9 MB, and takes 0.14 s instead of 0.37 s (medians of 12
fresh processes on 2 cores, BENCH_2026-10-20-imports.json). An ``import
scipy.linalg`` before or after this one shares the same module objects.

`lu_logdet`, `eigvals` and `svd_values` copy their input into the Fortran
order LAPACK works in, unless called with ``overwrite_a=True``: then a
Fortran-ordered float64 or complex128 input (such as `model.to_dense` returns)
is factored in place and its contents are destroyed, so a dense trial holds
one N-by-N matrix, not two. Because LAPACK does not reject NaN or inf (``geev``
returns plausible eigenvalues for them), `eigvals` and `svd_values` check that
every entry is finite first, a block of columns at a time.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np
import scipy

PIVOT_FLOOR = 1e-300
EIGVALS_CAP = 4096


def _scipy_linalg_module(name: str):
    """scipy.linalg's compiled module `name`, loaded without running scipy.linalg's ``__init__``.

    It is registered in ``sys.modules`` under its own name, and an entry
    already there is reused, so an ``import scipy.linalg`` before or after
    this one shares the module object.
    """
    qualname = f"scipy.linalg.{name}"
    if qualname not in sys.modules:
        spec = importlib.machinery.PathFinder.find_spec(qualname, [os.path.join(scipy.__path__[0], "linalg")])
        module = importlib.util.module_from_spec(spec)
        sys.modules[qualname] = module
        spec.loader.exec_module(module)
    return sys.modules[qualname]


_flapack = _scipy_linalg_module("_flapack")
_fblas = _scipy_linalg_module("_fblas")


def get_lapack_funcs(names, arrays=(), dtype=None) -> tuple:
    """The LAPACK or BLAS routines `names`, called as scipy's ``get_lapack_funcs`` is.

    The prefix is ``z`` when the result type of `arrays` (or `dtype`) is
    complex and ``d`` otherwise: a float64 factor with a complex128 right-hand
    side takes ``zgetrs``. Inputs are float64 or complex128 here, so this
    picks the routine scipy's lookup picks.
    """
    prefix = "z" if np.result_type(*arrays, dtype).kind == "c" else "d"
    return tuple(getattr(_flapack, prefix + name, None) or getattr(_fblas, prefix + name) for name in names)


class NumericsError(Exception):
    """Base class of every failure a trial records: one subclass per cause."""


class SingularMatrixError(NumericsError):
    """A pivot magnitude below the floor, or one that is NaN or infinite."""


class RankDeficientError(SingularMatrixError):
    """A QR diagonal magnitude below the floor: a rank-deficient matrix or boundary frame."""


class SizeCapError(NumericsError):
    """An input larger than a kernel's size cap."""


class EigenConvergenceError(NumericsError, np.linalg.LinAlgError):
    """A non-finite entry, or ``geev`` or ``gesdd`` not converging."""


def _check_info(info: int, routine: str) -> None:
    """`ValueError` when a LAPACK `routine` reported an illegal argument (``info < 0``), a bug rather than a failure."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")


def _as_array(m) -> np.ndarray:
    """float64 when the entries are real, complex128 otherwise."""
    a = np.asarray(m)
    return a.astype(np.complex128 if np.iscomplexobj(a) else np.float64, copy=False)


def _as_square(m) -> np.ndarray:
    a = _as_array(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    return a


def lu_logdet(m, overwrite_a: bool = False) -> float:
    """log|det M| from LU pivot magnitudes, never forming the determinant.

    With `overwrite_a`, a Fortran-ordered M may be factored in place.
    """
    a = _as_square(m)
    if a.shape[0] == 0:
        return 0.0
    (getrf,) = get_lapack_funcs(("getrf",), (a,))
    lu, _, info = getrf(a, overwrite_a=overwrite_a)
    return pivot_log_magnitude(lu, info)


def _log_magnitude(mags) -> float:
    """Sum of log over magnitudes: -inf when one is below `PIVOT_FLOOR`, `SingularMatrixError` when one is NaN or infinite."""
    if mags.min() < PIVOT_FLOOR:
        return -math.inf
    total = float(np.log(mags).sum())
    if not math.isfinite(total):
        raise SingularMatrixError("magnitude is not finite")
    return total


def pivot_log_magnitude(lu, info: int) -> float:
    """Sum of log|U_ii| over the pivots of a ``getrf`` result.

    Raises `SingularMatrixError` when a pivot magnitude is not finite or below
    the floor, and `ValueError` when ``getrf`` reported an illegal argument.
    """
    _check_info(info, "getrf")
    # info > 0 flags an exact zero pivot, which the floor also catches.
    total = _log_magnitude(np.abs(lu.diagonal()))
    if total == -math.inf:
        raise SingularMatrixError("pivot magnitude below floor")
    return total


def solve_lu(b, rhs) -> np.ndarray:
    """Solve B X = RHS through one LU factorization of B.

    B is factored in its own dtype and the solve runs in the promoted one, so
    a real B with a complex right-hand side goes through ``dgetrf`` and then
    ``zgetrs``. Raises `SingularMatrixError` when a pivot of B is below the
    floor.
    """
    a = _as_square(b)
    r = _as_array(rhs)
    if a.shape[0] != r.shape[0]:
        raise ValueError("shapes of B and the right-hand side do not match")
    if r.size == 0:
        return np.empty_like(r, dtype=np.result_type(a, r))
    (getrf,) = get_lapack_funcs(("getrf",), (a,))
    lu, piv, info = getrf(a)
    pivot_log_magnitude(lu, info)
    (getrs,) = get_lapack_funcs(("getrs",), (lu, r))
    x, info = getrs(lu, piv, r)
    _check_info(info, "getrs")
    return x


def _phase_fixed_qr(m, columns: int | None = None) -> tuple[np.ndarray, np.ndarray, float]:
    """(Q, R, log det R) of the Householder QR of M, with R's diagonal made real positive.

    ``geqrf`` then ``orgqr``/``ungqr``. Q is the thin factor, or with
    `columns` up to M's row count, the first `columns` columns of the full
    unitary; past min(M.shape) they span the orthogonal complement of M's
    columns. log det R, the `_log_magnitude` of R's diagonal, is
    1/2 log det(M* M) for a tall M; it is -inf when M is rank deficient, and
    Q and R are then not phase-fixed.
    """
    a = _as_array(m)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    rows, cols = a.shape
    k = min(rows, cols)
    if k == 0:
        return np.zeros((rows, 0), dtype=a.dtype), np.zeros((0, cols), dtype=a.dtype), 0.0
    columns = k if columns is None else columns
    geqrf, gqr = get_lapack_funcs(("geqrf", "ungqr" if np.iscomplexobj(a) else "orgqr"), (a,))
    qr, tau, _, info = geqrf(a)
    _check_info(info, "geqrf")
    r = np.triu(qr[:k])
    reflectors = qr[:, :k] if columns == k else np.hstack([qr[:, :k], np.zeros((rows, columns - k), dtype=qr.dtype)])
    q, _, info = gqr(reflectors, tau, overwrite_a=True)
    _check_info(info, "orgqr/ungqr")
    d = np.diagonal(r)
    mags = np.abs(d)
    log_det_r = _log_magnitude(mags)
    if log_det_r > -math.inf:
        phases = d / mags
        q[:, :k] *= phases
        r *= np.conj(phases)[:, None]
        r[np.arange(k), np.arange(k)] = mags
    return q, r, log_det_r


def qr_thin(m) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR with the R diagonal made real positive.

    The phase convention removes the unitary ambiguity so repeated frame
    trajectories are bit-reproducible. Raises `RankDeficientError` when a
    diagonal magnitude of R is below the floor.
    """
    q, r, log_det_r = _phase_fixed_qr(m)
    if log_det_r == -math.inf:
        raise RankDeficientError("R diagonal magnitude below floor")
    return q, r


# Entries per finiteness check: the mask of one block of columns, not of the matrix.
_FINITE_CHUNK = 1 << 16


def _check_finite(a: np.ndarray) -> None:
    """`EigenConvergenceError` unless every entry of a nonempty matrix is finite, checked a block of columns at a time."""
    step = max(1, _FINITE_CHUNK // a.shape[0])
    if not all(np.isfinite(a[:, j : j + step]).all() for j in range(0, a.shape[1], step)):
        raise EigenConvergenceError("matrix has a non-finite entry")


def svd_values(m, overwrite_a: bool = False) -> np.ndarray:
    """Singular values in descending order.

    Raises `EigenConvergenceError` (a `LinAlgError`) for a non-finite entry
    or when ``gesdd`` fails. With `overwrite_a`, a Fortran-ordered M may be destroyed.
    """
    a = _as_array(m)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    if a.size == 0:
        return np.empty(0, dtype=np.float64)
    _check_finite(a)
    gesdd, gesdd_lwork = get_lapack_funcs(("gesdd", "gesdd_lwork"), (a,))
    lwork = int(gesdd_lwork(*a.shape, compute_uv=0, full_matrices=0)[0].real)
    _, s, _, info = gesdd(a, compute_uv=0, full_matrices=0, lwork=lwork, overwrite_a=overwrite_a)
    if info != 0:
        raise EigenConvergenceError(f"gesdd did not converge (info {info})")
    return s


def eigvals(m, cap: int = EIGVALS_CAP, overwrite_a: bool = False) -> np.ndarray:
    """Eigenvalue multiset of a square matrix, dense solve, size-capped.

    Always complex128, also for a real matrix whose eigenvalues are all real.
    Raises `EigenConvergenceError` for a non-finite entry or when ``geev``
    fails. With `overwrite_a`, a Fortran-ordered M may be destroyed.
    """
    a = _as_square(m)
    n = a.shape[0]
    if n > cap:
        raise SizeCapError(f"matrix size {n} exceeds eigvals cap {cap}")
    if n == 0:
        return np.empty(0, dtype=np.complex128)
    _check_finite(a)
    geev, geev_lwork = get_lapack_funcs(("geev", "geev_lwork"), (a,))
    lwork = int(geev_lwork(n, compute_vl=0, compute_vr=0)[0].real)
    # dgeev returns the real and imaginary parts apart, zgeev the eigenvalues.
    *w, _, _, info = geev(a, compute_vl=0, compute_vr=0, lwork=lwork, overwrite_a=overwrite_a)
    if info != 0:
        raise EigenConvergenceError(f"geev did not converge (info {info})")
    if len(w) == 1:
        return w[0]
    wr, wi = w
    ev = wr.astype(np.complex128)
    # As numpy does: an all-real spectrum gets +0 imaginary parts.
    if wi.any():
        ev.imag = wi
    return ev
