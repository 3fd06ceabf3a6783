import numpy as np
import pytest

from blocktri import mde
from blocktri.entropy import AtomLaw, SeedScheme, fill_block
from blocktri.harness import ConfigError, ExperimentConfig, run
from blocktri.mde import (
    MdeConvergenceError,
    chain_imag_bound,
    solve_chain,
    solve_mc,
)
from blocktri.model import (
    BlockTridiagonal,
    PeriodicEnsemble,
    build_bordered,
    random_entry_frame,
    random_exit_frame,
    sample_tridiagonal,
)
from blocktri.numerics import NumericsError
from blocktri.spectra import empirical_stieltjes, singular_values

LAW = AtomLaw("complex-gaussian")


def _mc_residual(m, w, z):
    return abs(1.0 / m + w * (1.0 + m) - abs(z) ** 2 / (1.0 + m))


def test_solve_mc_quadratic_oracle_at_z_zero():
    w = 1j
    roots = np.roots([w, w, 1.0])
    admissible = [r for r in roots if r.imag > 0]
    assert len(admissible) == 1
    assert solve_mc(w, 0.0) == pytest.approx(admissible[0], abs=1e-12)


def test_solve_mc_z_zero_reduction_on_grid():
    for eta in (0.05, 0.3, 1.0, 4.0):
        for re in (-1.0, 0.0, 2.0):
            w = complex(re, eta)
            m = solve_mc(w, 0.0)
            roots = [r for r in np.roots([w, w, 1.0]) if r.imag > 0]
            assert min(abs(m - r) for r in roots) < 1e-10
            assert _mc_residual(m, w, 0.0) <= 1e-12


def test_solve_mc_residual_grid():
    for eta in np.geomspace(1e-2, 10, 10):
        for zmod in np.linspace(0.0, 3.0, 10):
            m = solve_mc(1j * eta, zmod)
            assert m.imag > 0
            assert _mc_residual(m, 1j * eta, zmod) <= 1e-12


def test_solve_mc_refuses_the_spurious_root_m_minus_one():
    """At z = 0 the cubic is (1 + m)(w m^2 + w m + 1); from w = -1.05 + 1e-300i Newton lands on m = -1.

    The residual divides by 1 + m, so it must not be computed for a root off the upper half plane.
    """
    with pytest.raises(MdeConvergenceError, match="no admissible root"):
        solve_mc(complex(-1.05, 1e-300), 0)


def test_solve_chain_stops_at_the_damping_floor():
    with pytest.raises(MdeConvergenceError, match="damping floor reached"):
        solve_chain(2, 5 + 0.01j, 1.0)


def test_solve_chain_converges_after_one_damping_halving(monkeypatch):
    """Damping 1/2 overshoots once: the solve converges with a floor of 1/4 and needs the halving to reach it."""
    monkeypatch.setattr(mde, "DAMPING_FLOOR", 0.25)
    chain = solve_chain(2, 4 + 0.01j, 3.0)
    assert chain.converged and chain.residual <= 1e-10
    monkeypatch.setattr(mde, "DAMPING_FLOOR", 0.5)
    with pytest.raises(MdeConvergenceError, match="damping floor reached"):
        solve_chain(2, 4 + 0.01j, 3.0)


def test_solve_mc_schwarz_reflection():
    # conj(m) satisfies the defining equation at conj(w): the reflection to
    # the lower half plane is the complex conjugate solution
    for w in (1j, 0.7 + 0.2j, -1.5 + 0.05j):
        for z in (0.0, 0.5, 2.5):
            m = solve_mc(w, z)
            mc_bar, w_bar = np.conj(m), np.conj(w)
            res = abs(1.0 / mc_bar + w_bar * (1.0 + mc_bar) - abs(z) ** 2 / (1.0 + mc_bar))
            assert res <= 1e-11


def test_solve_mc_depends_only_on_z_modulus():
    w = 0.3 + 0.8j
    base = solve_mc(w, 1.3)
    for phase in (1j, np.exp(0.7j), -1.0):
        assert solve_mc(w, 1.3 * phase) == pytest.approx(base, abs=1e-13)


def test_solve_mc_asymptote():
    w = 1e3j
    assert abs(solve_mc(w, 0.7) + 1.0 / w) < 1e-5


def test_solve_mc_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        solve_mc(1.0 - 0.1j, 0.0)


def test_solve_chain_single_site_quadratic_oracle():
    w = 0.4j
    chain = solve_chain(1, w, 0.0, tol=1e-12)
    roots = [r for r in np.roots([w / 3.0, w, 1.0]) if r.imag > 0]
    assert len(roots) == 1
    assert chain.m[0] == pytest.approx(roots[0], abs=1e-10)


def test_solve_chain_converged_properties():
    chain = solve_chain(64, 0.1j, 0.5)
    assert chain.converged and chain.residual <= 1e-10
    assert np.all(chain.m.imag > 0)
    assert np.max(np.abs(chain.m - chain.m[::-1])) <= 1e-8
    assert np.max(np.abs(chain.m.imag)) <= chain_imag_bound(0.5, 0.1)
    mc = solve_mc(0.1j, 0.5)
    assert abs(chain.m[32] - mc) < 1e-2
    # the boundary sites genuinely bend away from the bulk value
    assert abs(chain.m[0] - mc) > 1e-3


def test_solve_chain_bulk_consistency_improves_with_n():
    w, z = 0.2j, 0.5
    mc = solve_mc(w, z)
    errs = []
    for n in (16, 32, 64):
        chain = solve_chain(n, w, z)
        window = chain.m[n // 4 : 3 * n // 4]
        errs.append(np.max(np.abs(window - mc)))
    assert errs[0] > errs[1] > errs[2]


def test_solve_chain_validates_input():
    with pytest.raises(ValueError):
        solve_chain(4, 1.0, 0.0)
    with pytest.raises(ValueError):
        solve_chain(4, 1j, 0.0, tol=0.0)
    with pytest.raises(ValueError, match="n >= 1"):
        solve_chain(0, 0.1j, 0.5)


def test_solve_chain_unconverged_flag():
    chain = solve_chain(16, 0.05j, 0.5, tol=1e-13, max_iter=3)
    assert not chain.converged
    assert chain.residual > 1e-13


def test_mde_compare_far_field():
    for ell in (6, 8):
        record = run(ExperimentConfig("mde-compare", n=4, ell=ell, z=0.5, xi=1e3j, trials=3, master_seed=1))
        assert record.aggregates["deviation"]["count"] == 3
        assert record.aggregates["deviation"]["max"] <= 1e-4
    with pytest.raises(ConfigError, match="trials"):
        run(ExperimentConfig("mde-compare", n=4, ell=6, xi=1e3j, trials=0))


def test_bordered_vs_periodic_rank_perturbation():
    """Sharing the middle blocks, the two transforms differ by at most the
    deterministic low-rank resolvent bound 24*pi/((n+2) Im xi)."""
    n, ell, z, xi = 6, 8, 0.5, 1.0 + 0.5j
    scheme = SeedScheme(2)
    inner = sample_tridiagonal(n, ell, LAW, scheme, trial=0)
    rng = scheme.stream(0, 0, "frames")
    bordered = build_bordered(inner, random_exit_frame(ell, rng), random_entry_frame(ell, rng))

    first = tuple(fill_block(ell, LAW, scheme.stream(1, k, role)) for k, role in ((0, "diag"), (0, "upper"), (0, "lower")))
    last = tuple(fill_block(ell, LAW, scheme.stream(2, k, role)) for k, role in ((0, "diag"), (0, "upper"), (0, "lower")))
    wide = BlockTridiagonal(
        n + 2,
        ell,
        (first[0],) + inner.diag + (last[0],),
        (first[1],) + inner.upper + (last[1],),
        (first[2],) + inner.lower + (last[2],),
    )
    periodic = PeriodicEnsemble(
        wide,
        fill_block(ell, LAW, scheme.stream(3, 0, "corner-top")),
        fill_block(ell, LAW, scheme.stream(3, 0, "corner-bottom")),
    )
    m_bord = empirical_stieltjes(singular_values(bordered, z), xi)
    m_per = empirical_stieltjes(singular_values(periodic, z), xi)
    gap = abs(m_per - m_bord)
    assert gap <= 24 * np.pi / ((n + 2) * xi.imag)


def _density(z, grid, eta):
    """Stieltjes inversion of the bulk solution at height eta, clipped at 0."""
    return np.array([max(solve_mc(complex(e, eta), z).imag, 0.0) / np.pi for e in grid])


def test_density_integrates_to_one():
    z = 0.5
    grid = np.linspace(-0.5, (2 + z) ** 2 + 1.5, 6001)
    dens = _density(z, grid, 1e-3)
    total = np.trapezoid(dens, grid)
    assert abs(total - 1.0) < 0.02


def test_density_support_window():
    z = 0.5
    edge = (2 + abs(z)) ** 2 + 1
    grid = np.linspace(edge, edge + 3.0, 61)
    dens = _density(z, grid, 1e-3)
    assert np.max(dens) < 1e-3


def test_mde_convergence_error_is_exception():
    assert issubclass(MdeConvergenceError, RuntimeError)
    assert issubclass(MdeConvergenceError, NumericsError)
