"""Self-consistent equation solvers for the limiting singular value law.

The bulk value `m_c` solves ``1/m = -w(1 + m) + |z|^2 (1 + m)^{-1}`` in the
upper half plane. The n-site chain couples neighbors through the three-site
average with zero boundary values; its solution bends near the ends and
relaxes to the bulk value in the middle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import NumericsError

DAMPING_FLOOR = 2.0**-10
MC_RESIDUAL_TOL = 1e-12


class MdeConvergenceError(NumericsError, RuntimeError):
    """No admissible solution of the bulk or chain equation: a trial failure like any `NumericsError`."""


def _cubic_coeffs(w: complex, z: complex):
    # clearing denominators in the defining equation gives
    # w m^3 + 2w m^2 + (w + 1 - |z|^2) m + 1 = 0
    az2 = abs(z) ** 2
    return w, 2 * w, w + 1 - az2, 1.0


def _residual(m, a, w: complex, z: complex) -> float:
    """max |1/m + w(1 + a) - |z|^2/(1 + a)|: the bulk equation at a = m, the chain's at a = `_three_site_average(m)`."""
    az2 = abs(z) ** 2
    return float(np.max(np.abs(1.0 / m + w * (1.0 + a) - az2 / (1.0 + a))))


def _newton_root(m: complex, w: complex, z: complex) -> complex:
    c3, c2, c1, c0 = _cubic_coeffs(w, z)
    for _ in range(80):
        f = ((c3 * m + c2) * m + c1) * m + c0
        fp = (3 * c3 * m + 2 * c2) * m + c1
        if fp == 0:
            break
        step = f / fp
        m = m - step
        if abs(step) <= 1e-16 * max(1.0, abs(m)):
            break
    return m


def solve_mc(w: complex, z: complex) -> complex:
    """Upper-half-plane solution of the bulk self-consistency equation.

    Tracked from the large-|w| asymptote -1/w by continuation in the
    imaginary part, so the admissible root is followed continuously even
    when the cubic has several roots near the spectral edge.
    """
    w = complex(w)
    z = complex(z)
    if w.imag <= 0:
        raise ValueError("spectral parameter must lie in the upper half plane")
    eta_start = max(8.0, 2.0 * abs(w), 2.0 * abs(z) ** 2)
    m = -1.0 / complex(w.real, eta_start)
    for eta in np.geomspace(eta_start, w.imag, 60):
        m = _newton_root(m, complex(w.real, eta), z)
    m = _newton_root(m, w, z)
    # A root off the upper half plane gets no residual, which divides by zero at the cubic's root m = -1.
    res = _residual(m, m, w, z) if m.imag > 0 else np.inf
    if not np.isfinite(res) or res > MC_RESIDUAL_TOL:
        raise MdeConvergenceError(f"no admissible root at w={w}, z={z} (residual {res:.3e})")
    return m


@dataclass(frozen=True)
class MdeChain:
    """Converged (or best-effort) site values of the boundary chain."""

    n: int
    w: complex
    z: complex
    m: np.ndarray
    residual: float
    converged: bool


def _three_site_average(m: np.ndarray) -> np.ndarray:
    padded = np.concatenate([[0.0 + 0.0j], m, [0.0 + 0.0j]])
    return (padded[:-2] + padded[1:-1] + padded[2:]) / 3.0


def solve_chain(n: int, w: complex, z: complex, tol: float = 1e-10, max_iter: int = 100_000) -> MdeChain:
    """Damped fixed-point solve of the n-site chain with zero boundary.

    Starts from the bulk value everywhere with damping 1/2; the damping is
    halved whenever a step loses the positive imaginary part or increases
    the residual, and the solve aborts below the damping floor.
    """
    w = complex(w)
    z = complex(z)
    if w.imag <= 0:
        raise ValueError("spectral parameter must lie in the upper half plane")
    if n < 1:
        raise ValueError("chain needs n >= 1 sites")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    az2 = abs(z) ** 2
    m = np.full(n, solve_mc(w, z), dtype=np.complex128)
    damping = 0.5
    residual = _residual(m, _three_site_average(m), w, z)
    for _ in range(max_iter):
        if residual <= tol:
            return MdeChain(n, w, z, m, residual, True)
        avg = _three_site_average(m)
        target = 1.0 / (-w * (1.0 + avg) + az2 / (1.0 + avg))
        candidate = (1.0 - damping) * m + damping * target
        cand_residual = _residual(candidate, _three_site_average(candidate), w, z) if np.all(candidate.imag > 0) else np.inf
        if not np.isfinite(cand_residual) or cand_residual > residual:
            damping /= 2.0
            if damping < DAMPING_FLOOR:
                raise MdeConvergenceError("damping floor reached without progress")
            continue
        m = candidate
        residual = cand_residual
    return MdeChain(n, w, z, m, residual, False)


def chain_imag_bound(z: complex, eta: float) -> float:
    """Uniform bound on |Im m_i| for the chain at purely imaginary w = i eta."""
    return max(2.0 * abs(complex(z)), np.sqrt(6.0)) / np.sqrt(eta)

