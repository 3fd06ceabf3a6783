import numpy as np
import pytest


def _unit_gram_frame(ell, rng):
    """A random 2ell-by-ell frame with det(F* F) = 1 and columns that are not orthonormal."""
    g = rng.standard_normal((2 * ell, ell)) + 1j * rng.standard_normal((2 * ell, ell))
    return g / np.linalg.det(g.conj().T @ g).real ** (1.0 / (2 * ell))


@pytest.fixture
def unit_gram_frame():
    """`_unit_gram_frame(ell, rng)`: bordering frames that `build_bordered` must normalize itself."""
    return _unit_gram_frame
