import numpy as np
import pytest

from blocktri.entropy import AtomLaw, SeedScheme
from blocktri.harness import ConfigError, ExperimentConfig, run
from blocktri.model import (
    BlockTridiagonal,
    build_bordered,
    sample_tridiagonal,
    to_dense,
)
from blocktri.numerics import lu_logdet, svd_values
from blocktri.spectra import (
    EmpiricalMeasure,
    empirical_stieltjes,
    esd,
    ginibre_potential,
    kolmogorov_distance,
    least_singular_value,
    logint_bound_check,
    radial_cdf_distance,
    rigidity_count,
    singular_values,
)

LAW = AtomLaw("complex-gaussian")


def _measure(values):
    return EmpiricalMeasure.from_values(values)


def _zero_model(n, ell):
    z = tuple(np.zeros((ell, ell), dtype=complex) for _ in range(n))
    return BlockTridiagonal(n, ell, z, z, z)


def test_singular_values_trivial_cases():
    zero = _zero_model(2, 2)
    m = singular_values(zero, 0.0)
    assert np.allclose(m.atoms, 0.0)
    # a unitary realization: zero blocks shifted by z = -1 gives the identity
    m = singular_values(zero, -1.0)
    assert np.allclose(m.atoms, 1.0)


def test_singular_values_tie_to_logdet():
    model = sample_tridiagonal(4, 3, LAW, 1)
    measure = singular_values(model, 0.4 + 0.1j)
    ld = lu_logdet(to_dense(model, 0.4 + 0.1j))
    assert abs(np.sum(np.log(measure.atoms)) - 2.0 * ld) < 1e-6


def test_least_singular_value():
    zero = _zero_model(3, 2)
    b = build_bordered(zero, np.eye(2, 4), np.eye(4, 2))
    assert least_singular_value(b, 0.0) >= 0.0
    model = sample_tridiagonal(3, 2, LAW, 2)
    direct = svd_values(to_dense(model, 0.3))[-1]
    assert least_singular_value(model, 0.3) == pytest.approx(direct, rel=1e-12)


def test_rigidity_count():
    m = _measure([0.1, 0.2, 0.5, 0.9])
    assert rigidity_count(m, 0.05) == 0
    assert rigidity_count(m, 0.9) == 4
    assert rigidity_count(m, 0.2) == 2
    rng = np.random.default_rng(3)
    atoms = rng.uniform(0, 1, 200)
    measure = _measure(atoms)
    prev = -1
    for thr in np.linspace(0, 1, 23):
        cnt = rigidity_count(measure, thr)
        brute = int(np.sum(atoms <= thr))
        assert cnt == brute
        assert cnt >= prev
        prev = cnt
    for bad in (-0.1, float("nan")):  # NaN used to count every atom
        with pytest.raises(ValueError):
            rigidity_count(measure, bad)


def test_empirical_stieltjes_point_masses():
    delta0 = _measure([0.0])
    assert empirical_stieltjes(delta0, 1j) == pytest.approx(1j)
    delta1 = _measure([1.0])
    assert empirical_stieltjes(delta1, 1.0 + 1.0j) == pytest.approx(1j)
    for bad in (1.0 - 0.5j, complex(1.0, float("nan")), complex(float("nan"), 1.0)):  # NaN used to return nan+nanj
        with pytest.raises(ValueError):
            empirical_stieltjes(delta0, bad)


def test_stieltjes_herglotz_and_tail():
    rng = np.random.default_rng(4)
    measure = _measure(rng.uniform(0, 50, 300))
    for xi in (1j, 0.5 + 0.2j, -3.0 + 5.0j):
        assert empirical_stieltjes(measure, xi).imag > 0
    xi = 1e6j
    assert abs(empirical_stieltjes(measure, xi) * xi + 1.0) <= 1e-4


def test_kolmogorov_distance_trivial_and_bruteforce():
    mu = _measure([0.0])
    nu = _measure([1.0])
    assert kolmogorov_distance(mu, mu) == 0.0
    assert kolmogorov_distance(mu, nu) == 1.0
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = _measure(rng.standard_normal(rng.integers(1, 50)))
        b = _measure(rng.standard_normal(rng.integers(1, 50)))
        pts = np.concatenate([a.atoms, b.atoms])
        brute = max(
            abs(np.mean(a.atoms <= x) - np.mean(b.atoms <= x)) for x in pts
        )
        assert kolmogorov_distance(a, b) == pytest.approx(brute, abs=1e-15)


def test_kolmogorov_metric_axioms():
    rng = np.random.default_rng(6)
    for _ in range(10):
        a = _measure(rng.standard_normal(30))
        b = _measure(rng.standard_normal(40))
        c = _measure(rng.standard_normal(50))
        dab = kolmogorov_distance(a, b)
        dba = kolmogorov_distance(b, a)
        assert dab >= 0.0
        assert dab == pytest.approx(dba, abs=1e-15)
        assert dab <= kolmogorov_distance(a, c) + kolmogorov_distance(c, b) + 1e-15


def test_kolmogorov_same_law_samples():
    rng = np.random.default_rng(5)
    mu = _measure(rng.standard_normal(1000))
    nu = _measure(rng.standard_normal(1000))
    d = kolmogorov_distance(mu, nu)
    assert 0.0 <= d <= 0.1


def test_radial_cdf_distance_single_atom():
    # one eigenvalue at radius 1/2: the jump leaves a 0.75 gap against r^2
    assert radial_cdf_distance(np.array([0.5])) == pytest.approx(0.75)
    with pytest.raises(ValueError, match="NaN"):
        radial_cdf_distance([np.nan, 0.5])
    with pytest.raises(ValueError, match="at least one eigenvalue"):
        radial_cdf_distance([])


def test_radial_cdf_distance_atoms_at_zero_inside_on_and_outside_the_circle():
    # The sup is 0.6 - 0.2^2 at the sixth radius; atoms on and outside the circle count at r = 1.
    cloud = np.array([0, 0, 0, 0, 0.1, 0.2j, 1, -1j, 1.5, 3 - 4j])
    assert radial_cdf_distance(cloud) == 0.5599999999999999
    assert radial_cdf_distance(np.zeros(5)) == 1.0


def test_esd_block_diagonal_degenerate():
    model = sample_tridiagonal(3, 2, LAW, 7)
    diag_only = BlockTridiagonal(
        3,
        2,
        model.diag,
        tuple(np.zeros((2, 2), dtype=complex) for _ in range(3)),
        tuple(np.zeros((2, 2), dtype=complex) for _ in range(3)),
    )
    summary = esd(diag_only)
    expected = np.concatenate([np.linalg.eigvals(b) for b in model.diag])
    assert np.allclose(
        np.sort_complex(summary.eigenvalues), np.sort_complex(expected), atol=1e-8
    )
    assert 0.0 <= summary.fraction_in_unit_disk <= 1.0


def test_esd_scalar_blocks_report_only():
    summary = esd(sample_tridiagonal(500, 1, AtomLaw("real-uniform"), 8))
    assert 0.0 <= summary.fraction_in_unit_disk <= 1.0
    assert summary.radial_cdf_distance >= 0.0


def test_ginibre_potential_values():
    assert ginibre_potential(0.0) == pytest.approx(-0.5)
    assert ginibre_potential(1.0) == pytest.approx(0.0)
    assert ginibre_potential(1j) == pytest.approx(0.0)
    assert ginibre_potential(2.0) == pytest.approx(np.log(2.0))


def _ginibre_mean(n, trials, master_seed):
    agg = run(ExperimentConfig("ginibre", n=n, trials=trials, master_seed=master_seed)).aggregates["normalized_logdet"]
    assert agg["count"] == trials
    return agg["mean"]


def test_ginibre_logdet_small_size():
    # finite second moment sanity at n = 2, then a mid-size mean check
    val2 = _ginibre_mean(2, 50, master_seed=10)
    assert np.isfinite(val2)
    val = _ginibre_mean(200, 10, master_seed=11)
    assert abs(val - (-0.5 * np.log(3.0) - 0.5)) < 0.03
    with pytest.raises(ConfigError, match="trials"):
        run(ExperimentConfig("ginibre", n=4, trials=0))


def test_logint_bound_check():
    mu = _measure([0.5])
    nu = _measure([0.25])
    assert logint_bound_check(mu, mu, 0.1, 1.0, 1.0)
    assert logint_bound_check(mu, nu, 0.1, 1.0, 1.0)
    rng = np.random.default_rng(12)
    for beta in (1.0, 2.0):
        for _ in range(20):
            a = _measure(rng.uniform(0.01, 3.0, 100))
            b = _measure(rng.uniform(0.01, 3.0, 100))
            assert logint_bound_check(a, b, 0.05, 2.5, beta)
    with pytest.raises(ValueError):
        logint_bound_check(mu, nu, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        logint_bound_check(mu, nu, 0.1, 1.0, 0.5)
    for beta in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite beta"):
            logint_bound_check(mu, nu, 0.1, 1.0, beta)
    # an infinite window end made the bound nan, so identical measures failed it
    with pytest.raises(ValueError, match="b < inf"):
        logint_bound_check(mu, mu, 0.1, np.inf, 1.0)


def test_empirical_measure_requires_atoms():
    with pytest.raises(ValueError):
        EmpiricalMeasure.from_values([])
    for values in ([1.0, np.nan], [np.nan]):
        with pytest.raises(ValueError, match="NaN"):
            EmpiricalMeasure.from_values(values)
    for atoms in (np.array([3.0, 1.0, 2.0]), np.array([]), np.array([[1.0, 2.0]]), np.array([1.0, np.nan]), [1.0, 2.0]):
        with pytest.raises(ValueError, match="ascending"):
            EmpiricalMeasure(atoms)
    # an unsorted measure used to count 3 atoms at or below 2.0
    assert rigidity_count(EmpiricalMeasure(np.array([1.0, 2.0, 3.0])), 2.0) == 2
    # an overflowed squared singular value is +inf, an atom past every finite point
    inf_atom = EmpiricalMeasure.from_values([np.inf, 1.0])
    assert np.array_equal(inf_atom.atoms, [1.0, np.inf])
    assert kolmogorov_distance(inf_atom, _measure([1.0, 2.0])) == 0.5


def test_empirical_measure_sorts_atoms():
    m = EmpiricalMeasure.from_values([3.0, 1.0, 2.0])
    assert np.array_equal(m.atoms, [1.0, 2.0, 3.0])
    assert m.cdf(2.0) == pytest.approx(2.0 / 3.0)


def _real_entry_frame(ell, rng):
    q, _ = np.linalg.qr(rng.standard_normal((2 * ell, ell)))
    return q.astype(np.complex128)


@pytest.fixture(scope="module")
def lsv_samples():
    """400 bordered least singular values at ell=24, n=4, z=0.5.

    Real entries and real orthonormal boundary frames keep the small-ball
    behavior one-dimensional, which is the regime where the lower tail of
    the distribution is close to linear.
    """
    law = AtomLaw("real-gaussian")
    scheme = SeedScheme(11)
    vals = []
    for t in range(400):
        model = sample_tridiagonal(4, 24, law, scheme, trial=t)
        rng = scheme.stream(t, 0, "frames")
        frame = _real_entry_frame(24, rng)
        bordered = build_bordered(model, frame.T.copy(), _real_entry_frame(24, rng))
        vals.append(least_singular_value(bordered, 0.5))
    return np.array(vals)


def test_lsv_tail_approximately_linear(lsv_samples):
    vals = lsv_samples
    cdf = lambda t: np.mean(vals <= t)
    t5 = np.quantile(vals, 0.05)
    probe = t5 * 10.0 ** np.linspace(-0.5, 0.5, 5)
    assert all(cdf(a) <= cdf(b) for a, b in zip(probe, probe[1:]))
    ratios = np.array([cdf(t) / t for t in probe])
    assert ratios.max() / ratios.min() < 3.0


def test_lsv_log_moment_bound(lsv_samples):
    moment = np.mean(np.abs(np.log(lsv_samples)) ** 4)
    assert np.isfinite(moment)
    # C = 1 calibrated from data; the sample sits near 0.7% of this bound
    bound = (1.0 * 4 * (np.log(24) + np.log(4))) ** 4
    assert moment <= bound
