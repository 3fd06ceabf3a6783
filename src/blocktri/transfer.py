"""Transfer-operator cocycle over the block rows.

One step maps a 2ell-by-ell frame through the block companion operator
``[[-B^{-1}(A - z), -B^{-1}C], [I, 0]]``. Renormalization replaces the frame
by another basis of its span, F = F' R, and accumulates log|det R|, the log
volume growth. The determinant identity holds for any such R (Molinari,
*LAA* 2008): log|det(exit . product . entry)| + sum of log|det B_k| is
log|det| of the matrix bordered by one boundary block row at each end
(`model._bordered`, which `build_bordered` checks and explicit frames use
unchecked). A periodic ensemble has no sweep: it raises `TypeError`.

The determinant paths (`logdet_via_transfer`, `projected_growth_log`)
therefore never form a frame: they run one block LU with partial pivoting
over the block rows of that matrix (LAPACK's ``gbtrf`` taken one block row
at a time), streamed through one 2ell-by-3ell Fortran buffer. Its rows and
dtype are `model.to_dense`'s (`model._block_rows`, `model._real_blocks`),
boundary rows included. The buffer's top block row is the pending row, the
Schur complement left by the rows eliminated so far, on block columns k,
k+1, k+2; the next row is drawn or copied into its bottom block row. Per
row, ``getrf`` factors the 2ell-by-ell panel [pending diagonal block;
incoming C], ``laswp`` applies the row swaps to the 2ell-by-2ell trailing
block, one right-side unit-lower ``trsm`` forms X = L21 L11^{-1}, and one
``gemm`` leaves the next pending row, incoming - X . pending; a final
``getrf`` factors the last pending diagonal block. log|det| is the sum of
log|U_ii| over all pivots: -inf when one is below ``PIVOT_FLOOR``, and
`SingularMatrixError` when one is NaN or infinite. No B is factored or
inverted, so a singular B does not disturb `logdet_via_transfer`;
`projected_growth_log` factors each B once, for the sum of log|det B_k| it
subtracts, and raises `SingularMatrixError` at a singular one, where that
sum is infinite.

`cocycle_trace` reports the per-step growth increments, which are wedge-norm
increments only for orthonormal frames, so it carries the bordered entry
frame row by row, solving against each B through `solve_lu` and
renormalizing by the phase-fixed QR (`qr_thin`); like the block LU, it
multiplies with scipy's ``gemm`` (see `_block_lu`). The wedge space is never
materialized at production sizes; frames carry decomposable elements exactly
and wedge norms are Gram log-determinants.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .model import _block_rows, _bordered, _plain, _real_blocks
from .numerics import SizeCapError, _check_info, _log_magnitude, get_lapack_funcs, pivot_log_magnitude, qr_thin, solve_lu

# Rows whose pivot magnitudes are gathered before their logs are summed: at
# small ell the per-row reductions would cost more than the row's LU.
_PIVOT_CHUNK = 64


@dataclass(frozen=True)
class CocycleTrace:
    increments: tuple
    total: float


def _block_lu(ensemble, z: complex, factor_b: bool = False) -> tuple[float, float]:
    """(log|det M|, sum of log|det B_k|) by one block LU with partial pivoting over M's block rows.

    M is `to_dense(ensemble, z)` of a plain or bordered ensemble, whose rows
    `_block_rows` yields. The sum reads 0.0 unless `factor_b`; then the B_k of
    each shifted row is factored, before the row is eliminated, and a
    singular one raises `SingularMatrixError`.
    """
    ell = _plain(ensemble).ell
    real = complex(z).imag == 0 and _real_blocks(ensemble)
    dtype = np.float64 if real else np.complex128
    shift = complex(z).real if real else complex(z)
    buf = np.zeros((2 * ell, 3 * ell), dtype=dtype, order="F")
    pending, incoming = buf[:ell], buf[ell:]
    panel, trailing = buf[:, :ell], buf[:, ell:]
    # Each row's (diag, upper, lower) = (A, B, C) is written on block columns (k, k+1, k-1).
    row = (incoming[:, ell : 2 * ell], incoming[:, 2 * ell :], incoming[:, :ell])
    start = 2 * ell * ell + ell  # A's first diagonal entry in the flat buffer
    a_diagonal = buf.reshape(-1, order="F")[start : start + ell * (2 * ell + 1) : 2 * ell + 1]
    # trsm and gemm are scipy's BLAS, the library of the factorizations: products
    # through numpy's matmul would alternate between two OpenBLAS thread pools,
    # which at the default thread count made an earlier sweep 6x slower.
    getrf, laswp, trsm, gemm = get_lapack_funcs(("getrf", "laswp", "trsm", "gemm"), dtype=dtype)
    mags = np.empty((_PIVOT_CHUNK, ell))
    log_det, log_b, filled = 0.0, 0.0, 0

    def record(lu, info):
        nonlocal log_det, filled
        _check_info(info, "getrf")
        if filled == _PIVOT_CHUNK:
            log_det += _log_magnitude(mags)
            filled = 0
        np.abs(lu.diagonal(), out=mags[filled])
        filled += 1

    for k, (_, inner) in enumerate(_block_rows(ensemble, out=row)):
        if inner:
            if factor_b:
                lu_b, _, info = getrf(row[1])
                log_b += pivot_log_magnitude(lu_b, info)
            a_diagonal -= shift
        if not k:  # M has no block column -1: its first row is already pending.
            pending[:, : 2 * ell] = incoming[:, ell:]
            continue
        lu, piv, info = getrf(panel, overwrite_a=True)
        record(lu, info)
        laswp(trailing, piv, overwrite_a=True)
        x = trsm(1.0, lu[:ell], lu[ell:], side=1, lower=1, diag=1)
        pending[:, : 2 * ell] = gemm(-1.0, x, pending[:, ell:], beta=1.0, c=incoming[:, ell:])
        pending[:, 2 * ell :] = 0
    lu, _, info = getrf(pending[:, :ell])
    record(lu, info)
    return log_det + _log_magnitude(mags[:filled]), log_b


def dense_transfer_matrix(diag_block, upper_block, lower_block, z: complex) -> np.ndarray:
    """Explicit 2ell-by-2ell one-step operator, used as a small-size oracle."""
    a = np.asarray(diag_block, dtype=np.complex128)
    ell = a.shape[0]
    top = solve_lu(upper_block, -np.hstack([a - z * np.eye(ell), np.asarray(lower_block, dtype=np.complex128)]))
    bottom = np.hstack([np.eye(ell), np.zeros((ell, ell))])
    return np.vstack([top, bottom])


def _log_r(r) -> float:
    return float(np.sum(np.log(np.diagonal(r).real)))


def cocycle_trace(model, z: complex, entry_frame=None) -> CocycleTrace:
    """Per-step growth increments for a normalized entry frame (a bordered ensemble's own).

    `total` is the log wedge norm of the full product applied to the entry frame, which
    `model._bordered` checks, as in `projected_growth_log`, before any row is drawn.
    """
    if entry_frame is not None or _plain(model) is model:
        model = _bordered(model, entry_frame=entry_frame)[0]
    ell = model.inner.ell
    frame, r = qr_thin(model.entry_frame)
    (gemm,) = get_lapack_funcs(("gemm",), dtype=np.complex128)
    increments = []
    for a, b, c in model.inner.rows():
        u, v = frame[:ell], frame[ell:]
        top = solve_lu(b, gemm(-1.0, a - z * np.eye(ell), u, beta=-1.0, c=gemm(1.0, c, v)))
        frame, r_k = qr_thin(np.vstack([top, u]))
        increments.append(_log_r(r_k))
    return CocycleTrace(tuple(increments), _log_r(r) + float(np.sum(increments)))


def projected_growth_log(model, z: complex, exit_frame=None, entry_frame=None) -> float:
    """log|det(exit . product of transfer operators . entry)|.

    The block LU's log|det| of the bordered matrix, minus the sum of
    log|det B_k| (each B_k factored once), plus 1/2 log det(xi* xi) and
    1/2 log det(pi pi*) for frames that are not normalized. Returns -inf when
    a pivot falls below the floor, a legitimate outcome at near-singular
    shifts; raises `SingularMatrixError` when a B_k is singular.

    A plain ensemble is bordered only when a frame is given, the other
    defaulting to the identity; a bordered ensemble brings its own frames.
    """
    if exit_frame is not None or entry_frame is not None:
        model = _bordered(model, exit_frame, entry_frame)[0]  # unchecked: explicit frames need not be normalized
    log_det, log_b = _block_lu(model, z, factor_b=True)
    return log_det - log_b + getattr(model, "half_log_grams", 0.0)


def logdet_via_transfer(model, z: complex) -> float:
    """log|det| of `to_dense(model, z)` for a plain (materialized or lazy) or bordered ensemble.

    One block LU with partial pivoting over the block rows, which never
    factors or inverts a B_k.
    """
    return _block_lu(model, z)[0]


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
