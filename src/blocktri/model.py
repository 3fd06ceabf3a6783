"""Block tridiagonal ensembles: plain, boundary-framed, and periodic variants.

The plain ensemble stores a full triple of blocks per block row. The dense
plain realization ignores the first sub-diagonal block and the last
super-diagonal block; both participate in the boundary-framed matrix and in
the transfer recursion, which is why they are sampled up front.

Each block comes from its own (trial, row, role) stream, so the rows can also
be drawn one at a time (`sample_rows`): `LazyTridiagonal` names a plain
ensemble without holding its blocks, and the transfer recursion over it keeps
one row in memory at a time. `_block_rows` and `_real_blocks` are the one
block layout and dtype rule of every realized matrix: `to_dense` places the
rows that the transfer sweep eliminates. `_plain` is the one rule of which
ensembles have those rows, and `_bordered` the one constructor of a bordered
ensemble, which `build_bordered` checks and explicit frames use unchecked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import AtomLaw, SeedScheme, fill_block
from .numerics import RankDeficientError, SizeCapError, _phase_fixed_qr, qr_thin, svd_values

DEFAULT_DENSE_CAP = 8192
FRAME_DET_TOL = 1e-10


class FrameNormalizationError(ValueError):
    """A boundary frame does not satisfy det(F F*) = 1 within tolerance."""


@dataclass(frozen=True)
class BlockTridiagonal:
    """Sampled blocks of the plain ensemble, one (lower, diag, upper) triple per row."""

    n: int
    ell: int
    diag: tuple
    upper: tuple
    lower: tuple

    @property
    def size(self) -> int:
        return self.n * self.ell

    def rows(self, out=None):
        """Iterator over the (diag, upper, lower) blocks of rows 0, ..., n-1.

        With `out`, a triple of ell-by-ell arrays, each row is copied into
        `out`, which is yielded; the stored blocks are never written.
        """
        rows = zip(self.diag, self.upper, self.lower)
        return rows if out is None else _copied_rows(rows, out)


@dataclass(frozen=True)
class LazyTridiagonal:
    """A plain ensemble by its sampling coordinates; its blocks are drawn on demand.

    `rows()` yields the same blocks as `sample_tridiagonal` with the same
    arguments, one block row at a time, and nothing is kept between calls.
    """

    n: int
    ell: int
    law: AtomLaw
    master_seed: int = 0
    trial: int = 0

    def __post_init__(self):
        self.rows()  # checks n, ell and the seed; draws nothing until iterated

    @property
    def size(self) -> int:
        return self.n * self.ell

    def rows(self, out=None):
        """Iterator over the (diag, upper, lower) blocks of rows 0, ..., n-1; `out` as in `sample_rows`."""
        return sample_rows(self.n, self.ell, self.law, self.master_seed, self.trial, out)


@dataclass(frozen=True)
class BorderedEnsemble:
    """A plain ensemble, the orthonormal boundary rows of a frame pair and the frames' 1/2 log-Gram sum (`build_bordered`)."""

    inner: BlockTridiagonal | LazyTridiagonal
    top_row: np.ndarray
    bottom_row: np.ndarray
    half_log_grams: float
    entry_frame: np.ndarray

    @property
    def size(self) -> int:
        return (self.inner.n + 2) * self.inner.ell


@dataclass(frozen=True)
class PeriodicEnsemble:
    """Plain ensemble closed up by two independent corner blocks."""

    inner: BlockTridiagonal
    corner_top: np.ndarray
    corner_bottom: np.ndarray

    @property
    def size(self) -> int:
        return self.inner.size


def _as_scheme(seed) -> SeedScheme:
    return seed if isinstance(seed, SeedScheme) else SeedScheme(int(seed))


def _copied_rows(rows, out):
    for row in rows:
        for slot, block in zip(out, row, strict=True):
            np.copyto(slot, block)
        yield out


def _rows(n: int, ell: int, law: AtomLaw, scheme: SeedScheme, trial: int, out):
    # One generator per iterator, rekeyed to each block's stream: the draws of
    # a new generator per block, for a sixth of the cost. Iterators share none.
    stream = scheme.stream(trial, 0, "diag")
    roles = tuple(zip(("diag", "upper", "lower"), (None, None, None) if out is None else out, strict=True))
    for k in range(n):
        yield tuple(fill_block(ell, law, scheme.rekey(stream, trial, k, role), slot) for role, slot in roles)


def sample_rows(n: int, ell: int, law: AtomLaw, seed, trial: int = 0, out=None):
    """Iterator over the (diag, upper, lower) blocks of block rows 0, ..., n-1.

    Each block is drawn from its own (trial, row, role) stream when its row is
    reached, so only the current row is held. With `out`, a triple of
    ell-by-ell arrays, each row is drawn straight into those arrays (see
    `fill_block`), and every step yields them.
    """
    if n < 1 or ell < 1:
        raise ValueError("need n >= 1 and ell >= 1")
    scheme = _as_scheme(seed)
    scheme.stream_key(trial)  # refuses a trial outside 64 bits before any row is drawn
    return _rows(n, ell, law, scheme, trial, out)


def sample_tridiagonal(n: int, ell: int, law: AtomLaw, seed, trial: int = 0) -> BlockTridiagonal:
    """Sample all 3n blocks through disjoint (trial, block, role) streams."""
    diag, upper, lower = zip(*sample_rows(n, ell, law, seed, trial))
    return BlockTridiagonal(n, ell, diag, upper, lower)


def sample_periodic(n: int, ell: int, law: AtomLaw, seed, trial: int = 0) -> PeriodicEnsemble:
    if n < 3:
        raise ValueError("periodic ensemble needs n >= 3 so the corners are distinct")
    scheme = _as_scheme(seed)
    inner = sample_tridiagonal(n, ell, law, scheme, trial)
    corner_top = fill_block(ell, law, scheme.stream(trial, 0, "corner-top"))
    corner_bottom = fill_block(ell, law, scheme.stream(trial, 0, "corner-bottom"))
    return PeriodicEnsemble(inner, corner_top, corner_bottom)


def identity_entry_frame(ell: int) -> np.ndarray:
    """The 2ell-by-ell frame stacking the identity over zeros."""
    return np.vstack([np.eye(ell), np.zeros((ell, ell))]).astype(np.complex128)


def identity_exit_frame(ell: int) -> np.ndarray:
    """The ell-by-2ell frame [I, 0]."""
    return np.hstack([np.eye(ell), np.zeros((ell, ell))]).astype(np.complex128)


def random_entry_frame(ell: int, rng: np.random.Generator) -> np.ndarray:
    """Random 2ell-by-ell frame with orthonormal columns."""
    return qr_thin(rng.standard_normal((2 * ell, ell)) + 1j * rng.standard_normal((2 * ell, ell)))[0]


def random_exit_frame(ell: int, rng: np.random.Generator) -> np.ndarray:
    """Random ell-by-2ell frame with orthonormal rows."""
    return random_entry_frame(ell, rng).conj().T


def _plain(ensemble) -> BlockTridiagonal | LazyTridiagonal:
    """The plain ensemble of a plain or bordered ensemble; `TypeError` naming any other type."""
    plain = ensemble.inner if isinstance(ensemble, BorderedEnsemble) else ensemble
    if not isinstance(plain, (BlockTridiagonal, LazyTridiagonal)):
        raise TypeError(f"unsupported ensemble type {type(plain).__name__}")
    return plain


def _boundary(pi: np.ndarray, xi: np.ndarray) -> tuple[tuple, tuple]:
    """((top, bottom) boundary rows, (1/2 log det(pi pi*), 1/2 log det(xi* xi))) of complex frames.

    With the phase-fixed QRs xi = Q R and pi* = Q' R', and its halves swapped
    back, the top row is the adjoint of Q's last ell columns, which annihilates
    xi, and the bottom row is R'^{-*} pi: orthonormal rows at any frame scale.
    """
    ell = pi.shape[0]
    q_in, _, log_in = _phase_fixed_qr(xi, 2 * ell)
    q_out, _, log_out = _phase_fixed_qr(pi.conj().T)
    if -math.inf in (log_in, log_out):
        raise RankDeficientError("boundary frame is rank deficient")
    # Rolling a column block by ell swaps its halves.
    rows = tuple(np.roll(q, ell, axis=0).conj().T for q in (q_in[:, ell:], q_out))
    return rows, (log_out, log_in)


def _bordered(inner, exit_frame=None, entry_frame=None) -> tuple[BorderedEnsemble, tuple]:
    """(unchecked bordered ensemble, the frames' two 1/2 log-Grams); a missing frame is the identity."""
    if _plain(inner) is not inner:
        raise ValueError("bordered ensembles carry their own frames")
    ell = inner.ell
    pi = np.asarray(identity_exit_frame(ell) if exit_frame is None else exit_frame, dtype=np.complex128)
    xi = np.asarray(identity_entry_frame(ell) if entry_frame is None else entry_frame, dtype=np.complex128)
    if pi.shape != (ell, 2 * ell) or xi.shape != (2 * ell, ell):
        raise ValueError("frame shapes must be (ell, 2ell) and (2ell, ell)")
    rows, half_log_grams = _boundary(pi, xi)
    return BorderedEnsemble(inner, *rows, sum(half_log_grams), xi), half_log_grams


def build_bordered(inner: BlockTridiagonal | LazyTridiagonal, exit_frame, entry_frame) -> BorderedEnsemble:
    """Border a plain ensemble by the boundary rows (`_boundary`) of frames, each with det(F F*) = 1.

    A bordered `inner` or a frame of another ell raises `ValueError`, any other ensemble `TypeError`.
    """
    bordered, half_log_grams = _bordered(inner, exit_frame, entry_frame)
    # det(F F*) = exp(2 log det R), checked in log space, where no scale overflows.
    if not all(math.log1p(-FRAME_DET_TOL) <= 2 * h <= math.log1p(FRAME_DET_TOL) for h in half_log_grams):
        raise FrameNormalizationError("frame Gram determinant is not 1")
    return bordered


def _real_blocks(ensemble) -> bool:
    """Whether every block, placed or not, is real: then the dense matrix and the sweep are float64 at a real z."""
    if isinstance(ensemble, LazyTridiagonal):
        return not ensemble.law.is_complex
    if isinstance(ensemble, BlockTridiagonal):
        return not any(np.iscomplexobj(b) for b in (*ensemble.diag, *ensemble.upper, *ensemble.lower))
    bordered = isinstance(ensemble, BorderedEnsemble)
    own = (ensemble.top_row, ensemble.bottom_row) if bordered else (ensemble.corner_top, ensemble.corner_bottom)
    return not any(np.iscomplexobj(b) for b in own) and _real_blocks(ensemble.inner)


def _block_rows(ensemble, out=None):
    """((diag, upper, lower), inner) for each block row of a plain or bordered ensemble's matrix, top to bottom.

    Row r's blocks sit on block columns r, r+1 and r-1; one whose column falls
    outside the matrix is not placed. `inner` marks the plain ensemble's own
    rows, which carry the shift and a B; a bordered ensemble adds an unshifted
    boundary row at each end. `out` is as in `sample_rows`.
    """
    plain = _plain(ensemble)
    top = bottom = ()
    if plain is not ensemble:
        l, t, b = plain.ell, ensemble.top_row, ensemble.bottom_row
        top, bottom = [(t[:, :l], t[:, l:], 0)], [(b[:, l:], 0, b[:, :l])]
        if out is not None:
            top, bottom = _copied_rows(top, out), _copied_rows(bottom, out)
    yield from ((row, False) for row in top)
    yield from ((row, True) for row in plain.rows(out))
    yield from ((row, False) for row in bottom)


def to_dense(ensemble, z: complex, max_dense: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    """Dense realization of the shifted matrix.

    Plain ensembles, materialized or lazy, and periodic ones subtract z on the
    whole diagonal; the bordered ensemble subtracts z only on the middle n
    block rows. The matrix is float64 when z and every block are real, and
    complex128 otherwise (`_real_blocks`). It is in Fortran order, so the
    dense kernels can factor it in place (``overwrite_a=True``).
    """
    z = complex(z)
    periodic = isinstance(ensemble, PeriodicEnsemble)
    unclosed = ensemble.inner if periodic else ensemble
    l = _plain(unclosed).ell
    if ensemble.size > max_dense:
        raise SizeCapError(f"dense size {ensemble.size} exceeds cap {max_dense}")
    real = z.imag == 0 and _real_blocks(ensemble)
    nb = ensemble.size // l
    out = np.zeros((ensemble.size, ensemble.size), dtype=np.float64 if real else np.complex128, order="F")
    blocks = out.reshape(l, nb, l, nb, order="F")  # a view: [:, r, :, c] is block (r, c)
    for r, (row, inner) in enumerate(_block_rows(unclosed)):
        for c, b in zip((r, r + 1, r - 1), row):
            if 0 <= c < nb:
                blocks[:, r, :, c] = b
        if inner:
            blocks[:, r, :, r][np.diag_indices(l)] -= z.real if real else z
    if periodic:
        blocks[:, 0, :, nb - 1] = ensemble.corner_top
        blocks[:, nb - 1, :, 0] = ensemble.corner_bottom
    return out


def operator_norm_check(ensemble) -> bool:
    """Whether the unshifted operator norm stays below the deterministic block bound."""
    op = float(svd_values(to_dense(ensemble, 0.0), overwrite_a=True)[0])
    plain = _plain(ensemble.inner if isinstance(ensemble, PeriodicEnsemble) else ensemble)
    norms = [[float(svd_values(b)[0]) for b in row] for row in plain.rows()]
    return op <= 2.0 + 10.0 * sum(map(max, zip(*norms)))
