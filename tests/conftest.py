import numpy as np
import pytest


def _unit_gram_frame(ell, rng):
    """A random 2ell-by-ell frame with det(F* F) = 1 and columns that are not orthonormal."""
    g = rng.standard_normal((2 * ell, ell)) + 1j * rng.standard_normal((2 * ell, ell))
    return g / np.linalg.det(g.conj().T @ g).real ** (1.0 / (2 * ell))


@pytest.fixture
def unit_gram_frame():
    """`_unit_gram_frame(ell, rng)`: bordering frames of unit Gram determinant whose columns are not orthonormal.

    `build_bordered` takes frames of any scale, so these test that its
    boundary rows depend only on the frames' spans, with a 1/2 log-Gram sum of 0.
    """
    return _unit_gram_frame
