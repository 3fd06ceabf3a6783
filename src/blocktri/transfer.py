"""Transfer-operator cocycle over the block rows.

One step maps a 2ell-by-ell frame through the block companion operator
``[[-B^{-1}(A - z), -B^{-1}C], [I, 0]]`` without ever forming ``B^{-1}``.
Renormalization replaces the frame by another basis of its span, F = F' R,
and accumulates log|det R|, the log volume growth. The determinant identity
holds for any such R, so the determinant paths (`logdet_via_transfer`,
`projected_growth_log`) renormalize by partial-pivoting LU (`lu_thin`: the
frame becomes P L, L unit lower trapezoidal), in about a third of the time
of a QR that forms Q. `cocycle_trace` reports the per-step growth
increments, which are wedge-norm increments only for orthonormal frames, so
it renormalizes by the phase-fixed QR (`qr_thin`). The wedge space is never
materialized at production sizes; frames carry decomposable elements
exactly and wedge norms are Gram log-determinants.

Every evaluation is one sweep over the block rows that factors each B_k once,
for both log|det B_k| and the solves. Over a `LazyTridiagonal` the rows are
drawn as the sweep reaches them, from one Philox generator per row iterator
rekeyed to each block's (trial, row, role) stream, so memory stays at one
row, its B factors and the frame, whatever n is.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import get_blas_funcs

from .model import BorderedEnsemble, identity_entry_frame, identity_exit_frame
from .numerics import SingularMatrixError, SizeCapError, lu_logdet, lu_thin, qr_thin, solve_lu


@dataclass(frozen=True)
class CocycleTrace:
    increments: tuple
    total: float


def _step(a, b, c, z: complex, frame, out) -> np.ndarray:
    """Un-normalized transfer of `frame` through one row into `out`; `b` is `lu_logdet(B)`."""
    ell = a.shape[0]
    u, v = frame[:ell], frame[ell:]
    shifted = np.array(a, dtype=np.result_type(a, z))
    shifted[np.arange(ell), np.arange(ell)] -= z
    # -((A - z) u + C v) through scipy's BLAS, the library of the solve and
    # the renormalization: with numpy's matmul the sweep alternates between
    # two OpenBLAS thread pools, which at the default thread count made it 6x
    # slower.
    (gemm,) = get_blas_funcs(("gemm",), (shifted, u, c))
    w = gemm(-1.0, shifted, u)
    w = gemm(-1.0, c, v, beta=1.0, c=w, overwrite_c=True)
    x = b.solve(w)
    # u may be a view of out (no renormalization since the last step), so it
    # moves down before x overwrites it.
    out[ell:] = u
    out[:ell] = x
    return out


def _qr_frame(frame) -> tuple[np.ndarray, float]:
    """Orthonormal frame of the same span, and the log volume that QR removed."""
    q, r = qr_thin(frame)
    return q, float(np.sum(np.log(np.diagonal(r).real)))


def _lu_frame(frame) -> tuple[np.ndarray, float]:
    """Pivoted unit lower frame P L of the same span, and the log volume that LU removed."""
    pl, u = lu_thin(frame)
    return pl, float(np.sum(np.log(np.abs(np.diagonal(u)))))


def _frame_buffer(ell: int) -> np.ndarray:
    # Fortran order is the layout LAPACK's LU and QR read.
    return np.empty((2 * ell, ell), dtype=np.complex128, order="F")


def dense_transfer_matrix(diag_block, upper_block, lower_block, z: complex) -> np.ndarray:
    """Explicit 2ell-by-2ell one-step operator, used as a small-size oracle."""
    a = np.asarray(diag_block, dtype=np.complex128)
    ell = a.shape[0]
    top = solve_lu(upper_block, -np.hstack([a - z * np.eye(ell), np.asarray(lower_block, dtype=np.complex128)]))
    bottom = np.hstack([np.eye(ell), np.zeros((ell, ell))])
    return np.vstack([top, bottom])


def _sweep(model, z: complex, entry_frame, renormalize, renorm_every: int = 1):
    """Run the frame through all rows, renormalizing by `renormalize` (`_qr_frame` or `_lu_frame`).

    Returns (final frame, increments, start log, sum of log|det B_k|).
    """
    if renorm_every < 1:
        raise ValueError("renorm_every must be >= 1")
    frame, log_start = renormalize(np.asarray(entry_frame, dtype=np.complex128))
    buf = _frame_buffer(model.ell)
    increments = []
    log_b = 0.0
    for k, (a, upper, c) in enumerate(model.rows()):
        b = lu_logdet(upper)
        log_b += b.log_magnitude
        frame = _step(a, b, c, z, frame, buf)
        if (k + 1) % renorm_every == 0 or k == model.n - 1:
            frame, inc = renormalize(frame)
            increments.append(inc)
    return frame, increments, log_start, log_b


def cocycle_trace(model, z: complex, entry_frame=None) -> CocycleTrace:
    """Per-step growth increments for a normalized entry frame (a bordered ensemble's own).

    `total` is the log wedge norm of the full product applied to the entry frame.
    """
    inner, _, xi = _resolve_frames(model, None, entry_frame)
    _, increments, log_start, _ = _sweep(inner, z, xi, _qr_frame)
    return CocycleTrace(tuple(increments), log_start + float(np.sum(increments)))


def _resolve_frames(model, exit_frame, entry_frame):
    if isinstance(model, BorderedEnsemble):
        if exit_frame is not None or entry_frame is not None:
            raise ValueError("bordered ensembles carry their own frames")
        return model.inner, model.exit_frame, model.entry_frame
    if exit_frame is None:
        exit_frame = identity_exit_frame(model.ell)
    if entry_frame is None:
        entry_frame = identity_entry_frame(model.ell)
    return model, exit_frame, entry_frame


def _logdet_parts(model, z, exit_frame, entry_frame, renorm_every) -> tuple[float, float]:
    """(sum of log|det B_k|, projected growth) from one sweep."""
    inner, pi, xi = _resolve_frames(model, exit_frame, entry_frame)
    frame, increments, log_start, log_b = _sweep(inner, z, xi, _lu_frame, renorm_every)
    try:
        pairing = lu_logdet(np.asarray(pi, dtype=np.complex128) @ frame).log_magnitude
    except SingularMatrixError:
        return log_b, -math.inf
    return log_b, log_start + float(np.sum(increments)) + pairing


def projected_growth_log(model, z: complex, exit_frame=None, entry_frame=None) -> float:
    """log|det(exit . product of transfer operators . entry)|.

    Returns -inf when the final pairing underflows the pivot floor; that is a
    legitimate outcome at near-singular shifts, not an error.
    """
    return _logdet_parts(model, z, exit_frame, entry_frame, 1)[1]


def logdet_via_transfer(model, z: complex, renorm_every: int = 1) -> float:
    """log|det| of the shifted matrix through the transfer recursion.

    For a plain ensemble (materialized or lazy) with identity frames this
    equals log|det(T - zI)|; for a bordered ensemble it equals log|det| of the
    bordered matrix under its middle-rows shift convention. The super-diagonal
    bookkeeping term enters with a positive sign and cancels the inverses
    inside the product; it comes from the same LU factors of B_k as the
    recursion's solves.
    """
    log_b, growth = _logdet_parts(model, z, None, None, renorm_every)
    return log_b + growth


def wedge_power_small(g, ell: int) -> np.ndarray:
    """Explicit ell-fold wedge power in the lexicographic minor basis."""
    if ell > 4:
        raise SizeCapError("wedge power capped at ell <= 4")
    if ell < 1:
        raise ValueError("ell must be positive")
    a = np.asarray(g, dtype=np.complex128)
    m = a.shape[0]
    if a.shape != (m, m) or m < ell:
        raise ValueError("expected a square matrix of size >= ell")
    combos = list(itertools.combinations(range(m), ell))
    dim = len(combos)
    out = np.empty((dim, dim), dtype=np.complex128)
    for i, rows in enumerate(combos):
        sub = a[np.ix_(rows, range(m))]
        for j, cols in enumerate(combos):
            out[i, j] = np.linalg.det(sub[:, cols])
    return out


def plucker_coordinates(frame) -> np.ndarray:
    """Minor coordinates of a tall frame in the same lexicographic basis."""
    f = np.asarray(frame, dtype=np.complex128)
    m, ell = f.shape
    combos = itertools.combinations(range(m), ell)
    return np.array([np.linalg.det(f[list(rows), :]) for rows in combos])

