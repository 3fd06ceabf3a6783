"""Transfer-operator cocycle over the block rows.

One step maps a 2ell-by-ell frame through the block companion operator
``[[-B^{-1}(A - z), -B^{-1}C], [I, 0]]``. Renormalization replaces the frame
by another basis of its span, F = F' R, and accumulates log|det R|, the log
volume growth. The determinant identity holds for any such R (Molinari,
*LAA* 2008).

The determinant paths (`logdet_via_transfer`, `projected_growth_log`) run
the chart: R is the frame's top block, so the frame stays ``[I; -W_k]``.
Each row forms the Schur complement S = (A - z) - C W in place, factors it
once by ``getrf`` and solves W = S^{-1} B; log|det B| + log|det R| collapses
to log|det S|. This is block LU without pivoting across rows
(Demmel-Higham-Schreiber, *NLAA* 1995): no B is factored or inverted, so a
singular or near-singular B does not disturb `logdet_via_transfer`.
`projected_growth_log` also factors each B once, for the sum of
log|det B_k| it subtracts, and raises `SingularMatrixError` at a singular B,
where that sum is infinite. The chart runs in float64 when the blocks, z and
both frames are real, and in complex128 otherwise.

The chart's gate: when a row's S has LU pivot magnitudes more than
``1 / CHART_PIVOT_SPREAD`` apart (a zero or NaN pivot counts), or so has the
entry frame's top block, the sweep restarts from the first row on the frame
path and returns exactly its value. So does `logdet_via_transfer` with
``renorm_every > 1``. The frame path solves against each B through one LU
of it and renormalizes the frame by partial-pivoting LU (the frame becomes
P L, L unit lower trapezoidal), a third of the work of a QR that forms Q.
`cocycle_trace` reports the per-step growth increments, which are
wedge-norm increments only for orthonormal frames, so it runs the frame path
with the phase-fixed QR (`qr_thin`). The wedge space is never materialized at
production sizes; frames carry decomposable elements exactly and wedge norms
are Gram log-determinants.

A sweep owns one `_Workspace`: the row's blocks, W, and the frame path's
factors, product and two frames, all in the Fortran order that LAPACK and
BLAS read, and the routines, looked up once. Each row is written into it,
drawn there by `fill_block` over a `LazyTridiagonal` or copied from a
materialized ensemble, whose stored blocks are never written; every
factorization runs in place. Over a `LazyTridiagonal` the rows come from one
Philox generator per row iterator, rekeyed to each block's (trial, row,
role) stream, so memory stays at one workspace whatever n is.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import get_blas_funcs
from scipy.linalg.lapack import get_lapack_funcs

from .model import BorderedEnsemble, LazyTridiagonal, identity_entry_frame, identity_exit_frame
from .numerics import PIVOT_FLOOR, RankDeficientError, SingularMatrixError, SizeCapError, lu_logdet, pivot_log_magnitude, qr_thin, solve_lu

# The chart factors each row's S only while the smallest LU pivot magnitude
# is at least this fraction of the largest; past it the sweep restarts on the
# frame path.
CHART_PIVOT_SPREAD = 1e-6


@dataclass(frozen=True)
class CocycleTrace:
    increments: tuple
    total: float


class _Workspace:
    """The buffers and routines of one sweep over rows of block size ell.

    `row` is the (A, B, C) slots a row is written into: A and C are the two
    halves of ``[A - z | C]`` in `dtype`, and B has `b_dtype`, so a real B is
    factored by ``dgetrf`` as `lu_logdet` would. The chart (`chart_step`)
    carries W in `w`; the frame path (`step`, `lu`, `qr`) runs in complex128
    and carries the current 2ell-by-ell frame in `frame`, writing each next
    one into the other buffer.
    """

    def __init__(self, ell: int, b_dtype, dtype=np.complex128):
        self.ell = ell
        az_c = np.empty((ell, 2 * ell), dtype=dtype, order="F")
        self.b = np.empty((ell, ell), dtype=b_dtype, order="F")
        self.row = (az_c[:, :ell], self.b, az_c[:, ell:])
        # A's diagonal, as a view, for the shift.
        self.a_diagonal = az_c.ravel(order="F")[: ell * ell : ell + 1]
        self.w = np.empty((ell, ell), dtype=dtype, order="F")
        # The frame path's zgetrs solves against complex factors; a real B's are cast into here.
        self.b_lu = self.b if self.b.dtype == dtype else np.empty((ell, ell), dtype=dtype, order="F")
        self.product = np.empty((ell, ell), dtype=dtype, order="F")
        self.frame, self.spare = (np.empty((2 * ell, ell), dtype=dtype, order="F") for _ in range(2))
        self.strict_upper = np.triu(np.ones((ell, ell), dtype=bool), 1)
        (self.getrf_b,) = get_lapack_funcs(("getrf",), dtype=self.b.dtype)
        self.getrf, self.getrs, self.laswp = get_lapack_funcs(("getrf", "getrs", "laswp"), dtype=dtype)
        # The products go through scipy's BLAS, the library of the solves and
        # the factorizations: with numpy's matmul the sweep alternates between
        # two OpenBLAS thread pools, which at the default thread count made it
        # 6x slower.
        (self.gemm,) = get_blas_funcs(("gemm",), dtype=dtype)

    def chart_step(self, z, factor_b: bool) -> tuple[float, float] | None:
        """Carry W through the row in `row`: S = (A - z) - C W, then W = S^{-1} B.

        S is formed in A's slot and factored there. Returns (log|det S|,
        log|det B|), the latter 0.0 unless `factor_b`, which factors B in its
        slot after the solve; returns None, leaving W stale, when S's pivots
        fail `_chart_log_magnitude`.
        """
        a, b, c = self.row
        self.a_diagonal -= z
        self.gemm(-1.0, c, self.w, beta=1.0, c=a, overwrite_c=True)
        lu, piv, info = self.getrf(a, overwrite_a=True)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of getrf")
        log_s = _chart_log_magnitude(lu)
        if log_s is None:
            return None
        np.copyto(self.w, b)
        _, info = self.getrs(lu, piv, self.w, overwrite_b=True)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of getrs")
        if not factor_b:
            return log_s, 0.0
        lu_b, _, info = self.getrf_b(b, overwrite_a=True)
        return log_s, pivot_log_magnitude(lu_b, info)

    def step(self, z: complex) -> float:
        """Un-normalized transfer of the frame through the row in `row`; returns log|det B|."""
        ell = self.ell
        self.a_diagonal -= z
        lu, piv, info = self.getrf_b(self.b, overwrite_a=True)
        log_b = pivot_log_magnitude(lu, info)
        if lu is not self.b_lu:
            np.copyto(self.b_lu, lu)
        u, v = self.frame[:ell], self.frame[ell:]
        w = self.gemm(-1.0, self.row[0], u, c=self.product, overwrite_c=True)
        w = self.gemm(-1.0, self.row[2], v, beta=1.0, c=w, overwrite_c=True)
        x, info = self.getrs(self.b_lu, piv, w, overwrite_b=True)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of getrs")
        self.spare[ell:] = u
        self.spare[:ell] = x
        self.frame, self.spare = self.spare, self.frame
        return log_b

    def lu(self) -> float:
        """Replace the frame by P L of its pivoted LU, in place; returns log|det U|, the log volume removed."""
        lu, piv, info = self.getrf(self.frame, overwrite_a=True)
        growth = pivot_log_magnitude(lu, info, RankDeficientError, "U diagonal")
        # top - triu(top) leaves L's strictly lower part: U's entries cancel to zero.
        top = lu[: self.ell]
        np.subtract(top, top, out=top, where=self.strict_upper)
        np.fill_diagonal(top, 1)
        # getrf swapped rows 0, 1, ..., ell-1 in turn; undoing the swaps in
        # reverse order turns L into P L.
        self.frame = self.laswp(lu, piv, inc=-1, overwrite_a=True)
        return growth

    def qr(self) -> float:
        """Replace the frame by the Q of its phase-fixed QR; returns log|det R|, the log volume removed."""
        q, r = qr_thin(self.frame)
        self.frame = q
        return float(np.sum(np.log(np.diagonal(r).real)))


def _b_dtype(model):
    """The dtype in which `lu_logdet` would factor the model's B_k."""
    complex_b = model.law.is_complex if isinstance(model, LazyTridiagonal) else any(np.iscomplexobj(b) for b in model.upper)
    return np.complex128 if complex_b else np.float64


def _real_blocks(model) -> bool:
    """Whether every block of a plain ensemble is real."""
    if isinstance(model, LazyTridiagonal):
        return not model.law.is_complex
    return not any(np.iscomplexobj(b) for b in itertools.chain(model.diag, model.upper, model.lower))


def _chart_log_magnitude(lu) -> float | None:
    """Sum of log|u_ii| over a ``getrf`` result, or None when its pivots spread too far for the chart.

    The pivots spread too far when the smallest magnitude is below
    `CHART_PIVOT_SPREAD` times the largest or below `PIVOT_FLOOR`; a zero, NaN
    or infinite pivot counts as a spread.
    """
    mags = np.abs(lu.diagonal())
    hi = mags.max()
    if not (mags.min() >= max(PIVOT_FLOOR, CHART_PIVOT_SPREAD * hi) and hi < math.inf):
        return None
    return float(np.log(mags).sum())


def dense_transfer_matrix(diag_block, upper_block, lower_block, z: complex) -> np.ndarray:
    """Explicit 2ell-by-2ell one-step operator, used as a small-size oracle."""
    a = np.asarray(diag_block, dtype=np.complex128)
    ell = a.shape[0]
    top = solve_lu(upper_block, -np.hstack([a - z * np.eye(ell), np.asarray(lower_block, dtype=np.complex128)]))
    bottom = np.hstack([np.eye(ell), np.zeros((ell, ell))])
    return np.vstack([top, bottom])


def _sweep(model, z: complex, entry_frame, renormalize, renorm_every: int = 1):
    """Run the frame through all rows, renormalizing by `renormalize` (`_Workspace.lu` or `_Workspace.qr`).

    Returns (final frame, increments, start log, sum of log|det B_k|).
    """
    if renorm_every < 1:
        raise ValueError("renorm_every must be >= 1")
    ws = _Workspace(model.ell, _b_dtype(model))
    if np.shape(entry_frame) != ws.frame.shape:
        raise ValueError("the entry frame must be 2ell-by-ell")
    ws.frame[...] = entry_frame
    log_start = renormalize(ws)
    increments = []
    log_b = 0.0
    for k, _ in enumerate(model.rows(out=ws.row)):
        log_b += ws.step(z)
        if (k + 1) % renorm_every == 0 or k == model.n - 1:
            increments.append(renormalize(ws))
    return ws.frame, increments, log_start, log_b


def cocycle_trace(model, z: complex, entry_frame=None) -> CocycleTrace:
    """Per-step growth increments for a normalized entry frame (a bordered ensemble's own).

    `total` is the log wedge norm of the full product applied to the entry frame.
    """
    inner, _, xi = _resolve_frames(model, None, entry_frame)
    _, increments, log_start, _ = _sweep(inner, z, xi, _Workspace.qr)
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


def _chart_sweep(inner, z: complex, exit_frame, entry_frame, factor_b: bool) -> tuple[float, float] | None:
    """(sum of log|det B_k|, log|det(exit . product . entry)|) by the chart, or None when its gate trips.

    The frame is kept as ``[I; -W] R``: W_0 = -xi_bot xi_top^{-1} and R_0 =
    xi_top, and each row replaces W by S^{-1} B (`_Workspace.chart_step`). The
    log volume of the product is then log|det xi_top| + sum of (log|det S_k|
    - log|det B_k|), and the pairing is log|det(pi_left - pi_right W_n)|.
    Only with `factor_b` are the B_k factored for their sum; without it the
    sum reads 0.0 and the second value is log|det| of the whole matrix.
    """
    ell = inner.ell
    pi, xi = np.asarray(exit_frame), np.asarray(entry_frame)
    if xi.shape != (2 * ell, ell):
        raise ValueError("the entry frame must be 2ell-by-ell")
    real = _real_blocks(inner) and complex(z).imag == 0 and not (np.iscomplex(pi).any() or np.iscomplex(xi).any())
    dtype = np.float64 if real else np.complex128
    pi, xi = (f.real if real else f for f in (pi, xi))
    ws = _Workspace(ell, _b_dtype(inner), dtype)
    # W_0 xi_top = -xi_bot, solved as xi_top^T W_0^T = -xi_bot^T.
    top, piv, _ = ws.getrf(xi[:ell])
    log_total = _chart_log_magnitude(top)
    if log_total is None:
        return None
    w0, _ = ws.getrs(top, piv, -xi[ell:].T, trans=1)
    ws.w[...] = w0.T
    shift = complex(z).real if real else complex(z)
    log_b = 0.0
    for _ in inner.rows(out=ws.row):
        logs = ws.chart_step(shift, factor_b)
        if logs is None:
            return None
        log_total += logs[0]
        log_b += logs[1]
    try:
        pairing = lu_logdet(pi[:, :ell] - pi[:, ell:] @ ws.w).log_magnitude
    except SingularMatrixError:
        return log_b, -math.inf
    return log_b, log_total + pairing - log_b


def _frame_parts(inner, z: complex, exit_frame, entry_frame, renorm_every: int) -> tuple[float, float]:
    """(sum of log|det B_k|, projected growth) by the pivoted-LU frame path."""
    frame, increments, log_start, log_b = _sweep(inner, z, entry_frame, _Workspace.lu, renorm_every)
    try:
        pairing = lu_logdet(np.asarray(exit_frame, dtype=np.complex128) @ frame).log_magnitude
    except SingularMatrixError:
        return log_b, -math.inf
    return log_b, log_start + float(np.sum(increments)) + pairing


def _logdet_parts(model, z, exit_frame, entry_frame, renorm_every, factor_b) -> tuple[float, float]:
    """(sum of log|det B_k|, projected growth), whose sum is the log-determinant.

    Runs the chart (`_chart_sweep`), which without `factor_b` reads the sum as
    0.0 and puts the whole log-determinant in the second value. The frame path
    runs instead when `renorm_every` > 1, and from the first row again when
    the chart's gate trips, so those calls return what the frame path alone
    returns.
    """
    inner, pi, xi = _resolve_frames(model, exit_frame, entry_frame)
    parts = _chart_sweep(inner, z, pi, xi, factor_b) if renorm_every == 1 else None
    return _frame_parts(inner, z, pi, xi, renorm_every) if parts is None else parts


def projected_growth_log(model, z: complex, exit_frame=None, entry_frame=None) -> float:
    """log|det(exit . product of transfer operators . entry)|.

    Returns -inf when the final pairing underflows the pivot floor; that is a
    legitimate outcome at near-singular shifts, not an error. The chart
    factors each B_k once, for the sum of log|det B_k| it subtracts.
    """
    return _logdet_parts(model, z, exit_frame, entry_frame, 1, True)[1]


def logdet_via_transfer(model, z: complex, renorm_every: int = 1) -> float:
    """log|det| of the shifted matrix through the transfer recursion.

    For a plain ensemble (materialized or lazy) with identity frames this
    equals log|det(T - zI)|; for a bordered ensemble it equals log|det| of the
    bordered matrix under its middle-rows shift convention. The chart sums
    log|det S_k| of the block LU's Schur complements and never factors or
    inverts a B_k; on the frame path the super-diagonal bookkeeping term
    sum of log|det B_k| cancels the inverses inside the product and comes
    from the same LU factors of B_k as the recursion's solves.
    """
    log_b, growth = _logdet_parts(model, z, None, None, renorm_every, False)
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

