"""Block tridiagonal ensembles: plain, boundary-framed, and periodic variants.

The plain ensemble stores a full triple of blocks per block row. The dense
plain realization ignores the first sub-diagonal block and the last
super-diagonal block; both participate in the boundary-framed matrix and in
the transfer recursion, which is why they are sampled up front.

Each block comes from its own (trial, row, role) stream, so the rows can also
be drawn one at a time by the one row iterator, `LazyTridiagonal.rows`:
`sample_tridiagonal` keeps its rows, and the transfer recursion holds one at
a time. `_block_rows` and `_realization` are the one block layout and
dtype-and-shift rule of every realized matrix: `to_dense` places the rows
that the transfer sweep eliminates. `_plain` is the one rule of which
ensembles have those rows, and `build_bordered` the one constructor of a
bordered ensemble: it takes full-rank frames of any scale and stores their
1/2 log-Gram sum, so no value depends on how a frame is normalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import AtomLaw, SeedScheme, fill_block
from .numerics import RankDeficientError, SizeCapError, _phase_fixed_qr, qr_thin, svd_values

DEFAULT_DENSE_CAP = 8192


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
        if self.n < 1 or self.ell < 1:
            raise ValueError("need n >= 1 and ell >= 1")
        _as_scheme(self.master_seed).stream_key(self.trial)  # refuses a seed or a trial that is not a uint64

    @property
    def size(self) -> int:
        return self.n * self.ell

    def rows(self, out=None):
        """Iterator over the (diag, upper, lower) blocks of rows 0, ..., n-1, each drawn when its row is reached.

        With `out`, a triple of ell-by-ell arrays, each row is drawn straight
        into them (see `fill_block`), and every step yields them.
        """
        # One generator per iterator, rekeyed to each block's stream: the draws of
        # a new generator per block, for a sixth of the cost. Iterators share none.
        scheme = _as_scheme(self.master_seed)
        stream = scheme.stream(self.trial, 0, "diag")
        roles = tuple(zip(("diag", "upper", "lower"), (None, None, None) if out is None else out, strict=True))
        for k in range(self.n):
            yield tuple(fill_block(self.ell, self.law, scheme.rekey(stream, self.trial, k, role), slot) for role, slot in roles)


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
    """Plain ensemble closed up by two independent corner blocks; n >= 3, so no corner lands on another block."""

    inner: BlockTridiagonal
    corner_top: np.ndarray
    corner_bottom: np.ndarray

    def __post_init__(self):
        if self.inner.n < 3:
            raise ValueError("periodic ensemble needs n >= 3 so the corners are distinct")

    @property
    def size(self) -> int:
        return self.inner.size


def _as_scheme(seed) -> SeedScheme:
    return seed if isinstance(seed, SeedScheme) else SeedScheme(seed)


def _copied_rows(rows, out):
    for row in rows:
        for slot, block in zip(out, row, strict=True):
            np.copyto(slot, block)
        yield out


def sample_tridiagonal(n: int, ell: int, law: AtomLaw, seed, trial: int = 0) -> BlockTridiagonal:
    """Sample all 3n blocks through disjoint (trial, block, role) streams: the rows of `LazyTridiagonal`, kept."""
    diag, upper, lower = zip(*LazyTridiagonal(n, ell, law, _as_scheme(seed).master_seed, trial).rows())
    return BlockTridiagonal(n, ell, diag, upper, lower)


def sample_periodic(n: int, ell: int, law: AtomLaw, seed, trial: int = 0) -> PeriodicEnsemble:
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


def _boundary(pi: np.ndarray, xi: np.ndarray) -> tuple[tuple, float]:
    """((top, bottom) boundary rows, 1/2 log det(pi pi*) + 1/2 log det(xi* xi)) of complex frames.

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
    return rows, log_out + log_in


def build_bordered(inner: BlockTridiagonal | LazyTridiagonal, exit_frame=None, entry_frame=None) -> BorderedEnsemble:
    """Border a plain ensemble by the boundary rows (`_boundary`) of full-rank frames of any scale.

    A missing frame is the identity, and the frames' 1/2 log-Gram sum is
    stored for `projected_growth_log`. A bordered `inner` or a frame of another
    ell raises `ValueError`, any other ensemble `TypeError`, a rank-deficient
    frame `RankDeficientError` and a NaN one `SingularMatrixError`.
    """
    if _plain(inner) is not inner:
        raise ValueError("bordered ensembles carry their own frames")
    ell = inner.ell
    pi = np.asarray(identity_exit_frame(ell) if exit_frame is None else exit_frame, dtype=np.complex128)
    xi = np.asarray(identity_entry_frame(ell) if entry_frame is None else entry_frame, dtype=np.complex128)
    if pi.shape != (ell, 2 * ell) or xi.shape != (2 * ell, ell):
        raise ValueError("frame shapes must be (ell, 2ell) and (2ell, ell)")
    rows, half_log_grams = _boundary(pi, xi)
    return BorderedEnsemble(inner, *rows, half_log_grams, xi)


def _real_blocks(ensemble) -> bool:
    """Whether every block, placed or not, is real (read by `_realization` alone)."""
    if isinstance(ensemble, LazyTridiagonal):
        return not ensemble.law.is_complex
    if isinstance(ensemble, BlockTridiagonal):
        return not any(np.iscomplexobj(b) for b in (*ensemble.diag, *ensemble.upper, *ensemble.lower))
    bordered = isinstance(ensemble, BorderedEnsemble)
    own = (ensemble.top_row, ensemble.bottom_row) if bordered else (ensemble.corner_top, ensemble.corner_bottom)
    return not any(np.iscomplexobj(b) for b in own) and _real_blocks(ensemble.inner)


def _realization(ensemble, z: complex) -> tuple[type, complex]:
    """(dtype, shift) of the matrix at z: float64 and z.real when z and every block are real, else complex128 and z."""
    z = complex(z)
    return (np.float64, z.real) if z.imag == 0 and _real_blocks(ensemble) else (np.complex128, z)


def _block_rows(ensemble, out=None):
    """((diag, upper, lower), inner) for each block row of a plain or bordered ensemble's matrix, top to bottom.

    Row r's blocks sit on block columns r, r+1 and r-1; one whose column falls
    outside the matrix is not placed. `inner` marks the plain ensemble's own
    rows, which carry the shift and a B; a bordered ensemble adds an unshifted
    boundary row at each end. `out` is as in `LazyTridiagonal.rows`.
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
    block rows. Its dtype, float64 or complex128, is `_realization`'s. It is in
    Fortran order, so the dense kernels can factor it in place
    (``overwrite_a=True``).
    """
    periodic = isinstance(ensemble, PeriodicEnsemble)
    unclosed = ensemble.inner if periodic else ensemble
    l = _plain(unclosed).ell
    if ensemble.size > max_dense:
        raise SizeCapError(f"dense size {ensemble.size} exceeds cap {max_dense}")
    dtype, shift = _realization(ensemble, z)
    nb = ensemble.size // l
    out = np.zeros((ensemble.size, ensemble.size), dtype=dtype, order="F")
    blocks = out.reshape(l, nb, l, nb, order="F")  # a view: [:, r, :, c] is block (r, c)
    for r, (row, inner) in enumerate(_block_rows(unclosed)):
        for c, b in zip((r, r + 1, r - 1), row):
            if 0 <= c < nb:
                blocks[:, r, :, c] = b
        if inner:
            blocks[:, r, :, r][np.diag_indices(l)] -= shift
    if periodic:
        blocks[:, 0, :, nb - 1] = ensemble.corner_top
        blocks[:, nb - 1, :, 0] = ensemble.corner_bottom
    return out


def operator_norm_check(ensemble) -> bool:
    """Whether the unshifted operator norm stays below 2 plus 10 times the deterministic block bound.

    That bound sums, over the diagonal and the two cyclic off-diagonals of blocks, the largest norm
    of a block that `to_dense` places there: boundary rows and periodic corners count.
    """
    dense = to_dense(ensemble, 0.0)
    l = getattr(ensemble, "inner", ensemble).ell
    nb = ensemble.size // l
    blocks = dense.reshape(l, nb, l, nb, order="F")  # a view: [:, r, :, c] is block (r, c)
    bound = sum(max(float(svd_values(blocks[:, r, :, (r + d) % nb])[0]) for r in range(nb)) for d in {0, 1 % nb, -1 % nb})
    return float(svd_values(dense, overwrite_a=True)[0]) <= 2.0 + 10.0 * bound
