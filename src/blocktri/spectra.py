"""Spectral diagnostics: singular value measures, eigenvalue clouds, and the
scalar statistics used to compare them against their large-size limits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DEFAULT_DENSE_CAP, to_dense
from .numerics import EIGVALS_CAP, eigvals, svd_values


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Equal-weight atoms, a nonempty 1-D array sorted ascending; +inf atoms are kept, NaN ones refused."""

    atoms: np.ndarray

    def __post_init__(self):
        a = self.atoms
        if not (isinstance(a, np.ndarray) and a.ndim == 1 and a.size) or np.isnan(a).any() or (a[1:] < a[:-1]).any():
            raise ValueError("empirical measure needs a nonempty, 1-D, ascending array of atoms, and no NaN one")

    @classmethod
    def from_values(cls, values) -> "EmpiricalMeasure":
        return cls(np.sort(np.asarray(values, dtype=np.float64).ravel()))

    @property
    def count(self) -> int:
        return int(self.atoms.size)

    def cdf(self, x) -> np.ndarray:
        return np.searchsorted(self.atoms, np.asarray(x, dtype=np.float64), side="right") / self.count


@dataclass(frozen=True)
class EsdSummary:
    eigenvalues: np.ndarray
    fraction_in_unit_disk: float
    radial_cdf_distance: float


def singular_values(ensemble, z: complex, max_dense: int = DEFAULT_DENSE_CAP) -> EmpiricalMeasure:
    """Squared singular values of the shifted dense realization; one past the float range is +inf."""
    s = svd_values(to_dense(ensemble, z, max_dense), overwrite_a=True)
    with np.errstate(over="ignore"):
        return EmpiricalMeasure.from_values(s**2)


def least_singular_value(ensemble, z: complex, max_dense: int = DEFAULT_DENSE_CAP) -> float:
    s = svd_values(to_dense(ensemble, z, max_dense), overwrite_a=True)
    return float(s[-1])


def rigidity_count(measure: EmpiricalMeasure, threshold: float) -> int:
    """Number of atoms at or below the threshold."""
    if not threshold >= 0:
        raise ValueError("threshold must be nonnegative")
    return int(np.searchsorted(measure.atoms, threshold, side="right"))


def empirical_stieltjes(measure: EmpiricalMeasure, xi: complex) -> complex:
    """Mean of (atom - xi)^{-1}, defined for finite xi with Im xi > 0."""
    xi = complex(xi)
    if not (xi.imag > 0 and np.isfinite(xi)):
        raise ValueError("spectral parameter must be finite and lie in the upper half plane")
    return complex(np.mean(1.0 / (measure.atoms - xi)))


def kolmogorov_distance(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    """Sup-norm distance between the two step CDFs, attained at an atom."""
    pts = np.concatenate([mu.atoms, nu.atoms])
    return float(np.max(np.abs(mu.cdf(pts) - nu.cdf(pts))))


def radial_cdf_distance(eigenvalues) -> float:
    """sup over r in [0, 1] of |radial CDF - r^2|; no eigenvalue, or a NaN one, raises `ValueError`.

    The sup is attained at a radius, on either side of its jump, or at r = 1:
    radii clipped at 1 cover the last case.
    """
    radii = np.minimum(np.sort(np.abs(np.asarray(eigenvalues))), 1.0)
    n = radii.size
    if n == 0 or np.isnan(radii[-1]):  # sorting puts NaN last
        raise ValueError("radial CDF distance needs at least one eigenvalue, and no NaN one")
    i = np.arange(1, n + 1)
    return float(max(np.max(np.abs(i / n - radii**2)), np.max(np.abs((i - 1) / n - radii**2))))


def esd(ensemble, max_dense: int = DEFAULT_DENSE_CAP) -> EsdSummary:
    """Eigenvalues of the unshifted dense realization plus circular-law statistics.

    The dense size is capped at the smaller of `max_dense` and `EIGVALS_CAP`.
    """
    ev = eigvals(to_dense(ensemble, 0.0, min(max_dense, EIGVALS_CAP)), overwrite_a=True)
    fraction = float(np.mean(np.abs(ev) <= 1.0))
    return EsdSummary(ev, fraction, radial_cdf_distance(ev))


def ginibre_potential(z: complex) -> float:
    """Log potential of the circular law: (|z|^2 - 1)/2 inside the disk, log|z| outside."""
    r = abs(complex(z))
    if r <= 1.0:
        return (r * r - 1.0) / 2.0
    return float(np.log(r))


def logint_bound_check(mu: EmpiricalMeasure, nu: EmpiricalMeasure, a: float, b: float, beta: float) -> bool:
    """Check the windowed log-moment difference against the CDF-distance bound."""
    if not (0 < a < b < np.inf):
        raise ValueError("need 0 < a < b < inf")
    if not 1 <= beta < np.inf:
        raise ValueError("need finite beta >= 1")

    def integral(m: EmpiricalMeasure) -> float:
        sel = m.atoms[(m.atoms >= a) & (m.atoms <= b)]
        if sel.size == 0:
            return 0.0
        return float(np.sum(np.abs(np.log(sel)) ** beta) / m.count)

    lhs = abs(integral(mu) - integral(nu))
    rhs = 2.0 * (abs(np.log(a)) ** beta + abs(np.log(b)) ** beta) * kolmogorov_distance(mu, nu)
    return lhs <= rhs + 1e-12
