"""Seeded entropy: counter-based random streams and the admissible entry laws.

Every random draw in the package flows through a stream obtained from a
:class:`SeedScheme`, so results are a pure function of the master seed and
the (trial, block, role) coordinates of the draw.
"""

from __future__ import annotations

import hashlib
import operator
import struct
from dataclasses import dataclass

import numpy as np

ATOM_KINDS = (
    "real-gaussian",
    "complex-gaussian",
    "real-uniform",
    "smoothed-rademacher",
)

_U64 = (1 << 64) - 1
_SQRT3 = np.sqrt(3.0)
_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class AtomLaw:
    """Scalar entry distribution with mean 0 and variance 1.

    ``smoothed-rademacher`` draws ``sqrt(1 - ell**(-2C)) * sign + ell**(-C) * g``
    with an independent standard Gaussian ``g``; ``C`` is `smoothing_exponent`
    and the block size ``ell`` is supplied at sampling time.
    """

    kind: str
    smoothing_exponent: float = 1.0

    def __post_init__(self):
        if self.kind not in ATOM_KINDS:
            raise ValueError(f"unknown atom law kind {self.kind!r}")
        if not self.smoothing_exponent >= 0:
            raise ValueError("smoothing exponent must be nonnegative")

    @property
    def is_complex(self) -> bool:
        return self.kind == "complex-gaussian"


@dataclass(frozen=True)
class SeedScheme:
    """Counter-based stream derivation from a 64-bit master seed.

    Distinct (trial, block, role) tuples hash to distinct Philox keys, so the
    streams are statistically independent and reproducible under any
    execution order. The master seed, `trial` and `block` are unsigned 64-bit integers: a float raises
    `TypeError` instead of being truncated, an integer outside the range `ValueError` instead of aliasing.
    """

    master_seed: int

    def __post_init__(self):
        if not (0 <= operator.index(self.master_seed) <= _U64):
            raise ValueError("master seed must be an unsigned 64-bit integer")

    def _digest(self, trial: int, block: int, role: str) -> bytes:
        if not (0 <= operator.index(trial) <= _U64 and 0 <= operator.index(block) <= _U64):
            raise ValueError("trial and block must be unsigned 64-bit integers")
        h = hashlib.blake2b(digest_size=16)
        h.update(struct.pack("<QQQ", self.master_seed, trial, block))
        h.update(role.encode("utf-8"))
        return h.digest()

    def stream_key(self, trial: int = 0, block: int = 0, role: str = "") -> np.ndarray:
        return np.frombuffer(self._digest(trial, block, role), dtype=np.uint64)

    def stream(self, trial: int = 0, block: int = 0, role: str = "") -> np.random.Generator:
        """A new generator at the start of the (trial, block, role) stream: `rekey` of a fresh Philox."""
        return self.rekey(np.random.Generator(np.random.Philox(0)), trial, block, role)

    def rekey(self, stream: np.random.Generator, trial: int = 0, block: int = 0, role: str = "") -> np.random.Generator:
        """Reset `stream`, a Philox generator, to the start of the (trial, block, role) stream: the one keying rule.

        It then draws what a new ``self.stream(trial, block, role)`` draws, in about 1.7 us against 11 us.
        """
        key = struct.unpack("=QQ", self._digest(trial, block, role))
        stream.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": key},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return stream

    def trial_seed(self, trial: int) -> int:
        """Scalar label for a trial, used in result records."""
        return int(self.stream_key(trial, 0, "trial-label")[0])


def sample_atoms(law: AtomLaw, stream: np.random.Generator, size, ell: int | None = None) -> np.ndarray:
    """Draw i.i.d. atoms of the given law.

    complex128 for ``complex-gaussian``, float64 for the three real kinds.
    """
    if law.kind == "real-gaussian":
        return stream.standard_normal(size)
    if law.kind == "complex-gaussian":
        shape = (size,) if np.isscalar(size) else tuple(size)
        out = np.empty(shape, dtype=np.complex128)
        out.real, out.imag = _complex_gaussian_parts(stream, shape)
        return out
    if law.kind == "real-uniform":
        return stream.uniform(-_SQRT3, _SQRT3, size)
    # smoothed-rademacher
    if ell is None:
        raise ValueError("smoothed-rademacher sampling needs the block size ell")
    if ell < 1:
        raise ValueError("block size must be positive")
    t = float(ell) ** (-law.smoothing_exponent)
    s = np.sqrt(max(0.0, 1.0 - t * t))
    signs = 2.0 * stream.integers(0, 2, size) - 1.0
    g = stream.standard_normal(size)
    return s * signs + t * g


def _complex_gaussian_parts(stream: np.random.Generator, shape: tuple) -> np.ndarray:
    """Real parts, then imaginary parts, of standard complex Gaussians: float64 of shape (2, *shape)."""
    # One draw of the real parts followed by the imaginary parts: the same
    # stream positions as two separate draws, without the temporaries.
    parts = stream.standard_normal((2, *shape))
    # numpy divides a complex number by a real c as each part times 1/c,
    # so this is (re + 1j * im) / sqrt(2) without the complex division.
    parts *= 1.0 / _SQRT2
    return parts


def fill_block(ell: int, law: AtomLaw, stream: np.random.Generator, out: np.ndarray | None = None) -> np.ndarray:
    """ell-by-ell block with i.i.d. entries of law scaled by (3*ell)**(-1/2).

    The dtype is that of `sample_atoms`: float64 for a real law. With `out`,
    an ell-by-ell array of any memory layout that can hold that dtype, the
    block is written into it and `out` is returned; the values are the same.
    """
    if ell < 1:
        raise ValueError("block size must be positive")
    scale = np.sqrt(3.0 * ell)
    if law.is_complex:
        # The values of the complex block / scale, as in `sample_atoms`,
        # scaled as float64 parts before they are assembled.
        parts = _complex_gaussian_parts(stream, (ell, ell))
        parts *= 1.0 / scale
        if out is None:
            out = np.empty((ell, ell), dtype=np.complex128)
        out.real, out.imag = parts
        return out
    block = sample_atoms(law, stream, (ell, ell), ell=ell)
    # Divided in float64 also when `out` is complex.
    return np.divide(block, scale, out=block if out is None else out, dtype=np.float64)
