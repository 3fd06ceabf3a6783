"""Block tridiagonal ensembles: plain, boundary-framed, and periodic variants.

The plain ensemble stores a full triple of blocks per block row. The dense
plain realization ignores the first sub-diagonal block and the last
super-diagonal block; both participate in the boundary-framed matrix and in
the transfer recursion, which is why they are sampled up front.

Each block comes from its own (trial, row, role) stream, so the rows can also
be drawn one at a time (`sample_rows`): `LazyTridiagonal` names a plain
ensemble without holding its blocks, and the transfer recursion over it keeps
one row in memory at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .entropy import AtomLaw, SeedScheme, fill_block
from .numerics import SizeCapError, inv_sqrt_hermitian, lu_logdet, svd_values, unitary_complement

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
    law: AtomLaw
    master_seed: int = 0
    trial: int = 0

    @property
    def size(self) -> int:
        return self.n * self.ell

    @cached_property
    def upper_factors(self) -> tuple:
        """`lu_logdet` of each super-diagonal block, computed on first use.

        Neither log|det B_k| nor the LU factors of B_k depend on the shift, so
        every transfer evaluation of this ensemble shares one factorization per
        block. The blocks must not be changed in place after that.
        """
        return tuple(lu_logdet(b) for b in self.upper)


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

    def rows(self):
        """Iterator over the (diag, upper, lower) blocks of rows 0, ..., n-1."""
        return sample_rows(self.n, self.ell, self.law, self.master_seed, self.trial)


@dataclass(frozen=True)
class BorderedEnsemble:
    """Inner blocks plus orthonormal boundary rows produced by `build_bordered`."""

    inner: BlockTridiagonal
    top_row: np.ndarray
    bottom_row: np.ndarray
    exit_frame: np.ndarray
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


def _sample_row(ell: int, law: AtomLaw, scheme: SeedScheme, trial: int, k: int) -> tuple:
    return tuple(fill_block(ell, law, scheme.stream(trial, k, role)) for role in ("diag", "upper", "lower"))


def sample_rows(n: int, ell: int, law: AtomLaw, seed, trial: int = 0):
    """Iterator over the (diag, upper, lower) blocks of block rows 0, ..., n-1.

    Each block is drawn from its own (trial, row, role) stream when its row is
    reached, so only the current row is held.
    """
    if n < 1 or ell < 1:
        raise ValueError("need n >= 1 and ell >= 1")
    scheme = _as_scheme(seed)
    return (_sample_row(ell, law, scheme, trial, k) for k in range(n))


def sample_tridiagonal(n: int, ell: int, law: AtomLaw, seed, trial: int = 0) -> BlockTridiagonal:
    """Sample all 3n blocks through disjoint (trial, block, role) streams."""
    scheme = _as_scheme(seed)
    diag, upper, lower = zip(*sample_rows(n, ell, law, scheme, trial))
    return BlockTridiagonal(n, ell, diag, upper, lower, law, scheme.master_seed, trial)


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


def random_entry_frame(ell: int, rng: np.random.Generator, orthonormal: bool = True) -> np.ndarray:
    """Random 2ell-by-ell frame with det(F* F) = 1."""
    g = rng.standard_normal((2 * ell, ell)) + 1j * rng.standard_normal((2 * ell, ell))
    if orthonormal:
        q, _ = np.linalg.qr(g)
        return q
    d = np.linalg.det(g.conj().T @ g).real
    return g / d ** (1.0 / (2 * ell))


def random_exit_frame(ell: int, rng: np.random.Generator, orthonormal: bool = True) -> np.ndarray:
    """Random ell-by-2ell frame with det(F F*) = 1."""
    return random_entry_frame(ell, rng, orthonormal=orthonormal).conj().T


def build_bordered(inner: BlockTridiagonal, exit_frame, entry_frame) -> BorderedEnsemble:
    """Attach the boundary rows determined by the exit and entry frames.

    Both boundary rows have orthonormal rows. Each is stored with its two
    halves swapped relative to the canonical pair: swapping the top row's
    halves recovers the rows annihilating the orthonormalized entry frame,
    and swapping the bottom row's halves recovers the normalized exit frame.
    """
    ell = inner.ell
    pi = np.asarray(exit_frame, dtype=np.complex128)
    xi = np.asarray(entry_frame, dtype=np.complex128)
    if pi.shape != (ell, 2 * ell) or xi.shape != (2 * ell, ell):
        raise ValueError("frame shapes must be (ell, 2ell) and (2ell, ell)")
    det_out = np.linalg.det(pi @ pi.conj().T)
    det_in = np.linalg.det(xi.conj().T @ xi)
    if abs(det_out - 1.0) > FRAME_DET_TOL or abs(det_in - 1.0) > FRAME_DET_TOL:
        raise FrameNormalizationError("frame Gram determinant is not 1")

    q_in = xi @ inv_sqrt_hermitian(xi.conj().T @ xi)
    comp = unitary_complement(q_in).conj().T
    top_row = np.hstack([comp[:, ell:], comp[:, :ell]])

    q_out = inv_sqrt_hermitian(pi @ pi.conj().T) @ pi
    bottom_row = np.hstack([q_out[:, ell:], q_out[:, :ell]])
    return BorderedEnsemble(inner, top_row, bottom_row, pi, xi)


def _check_cap(size: int, max_dense: int):
    if size > max_dense:
        raise SizeCapError(f"dense size {size} exceeds cap {max_dense}")


def _dense_zeros(size: int, z: complex, *blocks) -> np.ndarray:
    """Zero matrix of float64 when z and every block are real, complex128 otherwise."""
    real = z.imag == 0 and not any(np.iscomplexobj(b) for b in blocks)
    return np.zeros((size, size), dtype=np.float64 if real else np.complex128)


def _subtract_diagonal(out: np.ndarray, z: complex):
    i = np.arange(out.shape[0])
    out[i, i] -= z if np.iscomplexobj(out) else z.real


def to_dense(ensemble, z: complex, max_dense: int = DEFAULT_DENSE_CAP) -> np.ndarray:
    """Dense realization of the shifted matrix.

    Plain and periodic ensembles subtract z on the whole diagonal; the
    bordered ensemble subtracts z only on the middle n block rows. A plain or
    periodic matrix is float64 when z and every block are real, and complex128
    otherwise; the bordered matrix, whose frame rows are complex, is complex128.
    """
    z = complex(z)
    if isinstance(ensemble, BlockTridiagonal):
        m = ensemble
        _check_cap(m.size, max_dense)
        out = _dense_zeros(m.size, z, *m.diag, *m.upper, *m.lower)
        _place_plain(out, m)
        _subtract_diagonal(out, z)
        return out
    if isinstance(ensemble, PeriodicEnsemble):
        m = ensemble.inner
        _check_cap(m.size, max_dense)
        out = _dense_zeros(m.size, z, *m.diag, *m.upper, *m.lower, ensemble.corner_top, ensemble.corner_bottom)
        _place_plain(out, m)
        l = m.ell
        out[0:l, (m.n - 1) * l : m.n * l] = ensemble.corner_top
        out[(m.n - 1) * l : m.n * l, 0:l] = ensemble.corner_bottom
        _subtract_diagonal(out, z)
        return out
    if isinstance(ensemble, BorderedEnsemble):
        m = ensemble.inner
        size = ensemble.size
        _check_cap(size, max_dense)
        l = m.ell
        out = np.zeros((size, size), dtype=np.complex128)
        out[0:l, 0 : 2 * l] = ensemble.top_row
        for k in range(m.n):
            r = (k + 1) * l
            out[r : r + l, k * l : (k + 1) * l] = m.lower[k]
            out[r : r + l, (k + 1) * l : (k + 2) * l] = m.diag[k] - z * np.eye(l)
            out[r : r + l, (k + 2) * l : (k + 3) * l] = m.upper[k]
        out[size - l :, size - 2 * l :] = ensemble.bottom_row
        return out
    raise TypeError(f"unsupported ensemble type {type(ensemble).__name__}")


def _place_plain(out: np.ndarray, m: BlockTridiagonal):
    l = m.ell
    for k in range(m.n):
        r = k * l
        out[r : r + l, r : r + l] = m.diag[k]
        if k + 1 < m.n:
            out[r : r + l, r + l : r + 2 * l] = m.upper[k]
            out[r + l : r + 2 * l, r : r + l] = m.lower[k + 1]


def operator_norm_check(ensemble) -> bool:
    """Whether the unshifted operator norm stays below the deterministic block bound."""
    inner = ensemble.inner if not isinstance(ensemble, BlockTridiagonal) else ensemble
    dense = to_dense(ensemble, 0.0)
    op = float(svd_values(dense)[0])
    max_a = max(float(svd_values(b)[0]) for b in inner.diag)
    max_b = max(float(svd_values(b)[0]) for b in inner.upper)
    max_c = max(float(svd_values(b)[0]) for b in inner.lower)
    return op <= 2.0 + 10.0 * (max_a + max_b + max_c)

