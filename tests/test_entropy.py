import numpy as np
import pytest

from blocktri.entropy import ATOM_KINDS, AtomLaw, SeedScheme, fill_block, sample_atoms

# Frozen from an independent Monte Carlo of the smoothing formula
# (2e6 draws, numpy default_rng(987654321)); analytic value 1.00039998.
SMOOTHED_FOURTH_MOMENT_ORACLE = 1.0003622724835295


def _stream(seed=0, trial=0, block=0, role="test"):
    return SeedScheme(seed).stream(trial, block, role)


def test_law_validation():
    with pytest.raises(ValueError):
        AtomLaw("cauchy")
    with pytest.raises(ValueError):
        AtomLaw("smoothed-rademacher", smoothing_exponent=-1.0)
    with pytest.raises(ValueError):
        AtomLaw("smoothed-rademacher", smoothing_exponent=float("nan"))
    assert AtomLaw("complex-gaussian").is_complex
    assert not AtomLaw("real-uniform").is_complex


def test_real_gaussian_mean_zero():
    draws = sample_atoms(AtomLaw("real-gaussian"), _stream(), 1_000_000)
    assert np.all(draws.imag == 0)
    assert abs(draws.real.mean()) < 0.005


def test_complex_gaussian_unit_second_moment():
    draws = sample_atoms(AtomLaw("complex-gaussian"), _stream(1), 1_000_000)
    assert abs(np.mean(np.abs(draws) ** 2) - 1.0) < 0.005


def test_complex_gaussian_part_variances():
    draws = sample_atoms(AtomLaw("complex-gaussian"), _stream(8), 500_000)
    assert abs(draws.real.var() - 0.5) < 0.005
    assert abs(draws.imag.var() - 0.5) < 0.005
    corr = np.corrcoef(draws.real, draws.imag)[0, 1]
    assert abs(corr) < 0.01


@pytest.mark.parametrize("shape", [(), (6, 6), (48, 48), (3,), 5])
def test_complex_gaussian_equals_two_draw_form(shape):
    """The one-call complex draw is bit for bit `(re + 1j * im) / sqrt(2)` from two draws."""
    law = AtomLaw("complex-gaussian")
    for block in range(50):
        stream = _stream(9, block=block)
        re = stream.standard_normal(shape)
        im = stream.standard_normal(shape)
        reference = (re + 1j * im) / np.sqrt(2.0)
        draws = sample_atoms(law, _stream(9, block=block), shape)
        assert draws.dtype == np.complex128 and draws.shape == np.shape(reference)
        assert np.array_equal(draws, reference)


def test_smoothed_rademacher_draw_form():
    law = AtomLaw("smoothed-rademacher", smoothing_exponent=1.0)
    draws = sample_atoms(law, _stream(2), 10_000, ell=100).real
    s = np.sqrt(1 - 1e-4)
    residual = np.minimum(np.abs(draws - s), np.abs(draws + s)) / 1e-2
    assert np.all(residual < 8.0)  # residual is |g| for a standard gaussian g


def test_smoothed_rademacher_fourth_moment():
    law = AtomLaw("smoothed-rademacher", smoothing_exponent=1.0)
    draws = sample_atoms(law, _stream(3), 1_000_000, ell=100).real
    m4 = np.mean(draws**4)
    assert abs(m4 - SMOOTHED_FOURTH_MOMENT_ORACLE) < 0.02 * SMOOTHED_FOURTH_MOMENT_ORACLE


def test_smoothed_rademacher_needs_ell():
    law = AtomLaw("smoothed-rademacher")
    with pytest.raises(ValueError):
        sample_atoms(law, _stream(), ())
    # A block size below 1 is fill_block's ValueError on both samplers, not 0.0 ** -C's ZeroDivisionError.
    for ell in (0, -1):
        for draw in (lambda: sample_atoms(law, _stream(), 4, ell=ell), lambda: fill_block(ell, law, _stream())):
            with pytest.raises(ValueError, match="block size must be positive"):
                draw()


@pytest.mark.parametrize("kind", ATOM_KINDS)
def test_moments_within_five_standard_errors(kind):
    n = 400_000
    law = AtomLaw(kind)
    draws = sample_atoms(law, _stream(4, role=kind), n, ell=64)
    mean = draws.mean()
    assert abs(mean) < 5.0 / np.sqrt(n)
    sq = np.abs(draws) ** 2
    se_var = sq.std(ddof=1) / np.sqrt(n)
    assert abs(sq.mean() - 1.0) < 5.0 * max(se_var, 1e-12)


def test_stream_reproducible_bit_exact():
    a = SeedScheme(123).stream(7, 3, "diag").standard_normal(100)
    b = SeedScheme(123).stream(7, 3, "diag").standard_normal(100)
    assert np.array_equal(a, b)


def test_distinct_tuples_give_distinct_streams():
    base = SeedScheme(123).stream(0, 0, "diag").standard_normal(8)
    for trial, block, role in [(1, 0, "diag"), (0, 1, "diag"), (0, 0, "upper")]:
        other = SeedScheme(123).stream(trial, block, role).standard_normal(8)
        assert not np.array_equal(base, other)
    assert not np.array_equal(base, SeedScheme(124).stream(0, 0, "diag").standard_normal(8))


def test_seed_scheme_range_check():
    SeedScheme(2**63)  # unsigned upper half is allowed
    for bad in (2**64, -1):  # a negative seed would alias 2**64 + seed
        with pytest.raises(ValueError):
            SeedScheme(bad)
    for fraction in (1.5, 1.0):  # refused before struct.pack sees a float, integral or not
        with pytest.raises(TypeError):
            SeedScheme(fraction)


def test_stream_coordinates_outside_64_bits_are_refused():
    """A negative trial or block would alias 2**64 + value; both ends of the range are refused."""
    scheme = SeedScheme(0)
    for bad in (-1, 2**64):
        with pytest.raises(ValueError):
            scheme.stream_key(trial=bad)
        with pytest.raises(ValueError):
            scheme.stream_key(block=bad)
    for coordinates in ({"trial": 1.5}, {"block": 1.5}):  # struct.pack would see the float
        with pytest.raises(TypeError):
            scheme.stream(**coordinates)
    assert not np.array_equal(scheme.stream_key(trial=2**64 - 1), scheme.stream_key(block=2**64 - 1))


@pytest.mark.parametrize("kind", ATOM_KINDS)
def test_rekeyed_stream_draws_like_a_fresh_one(kind):
    """`rekey` resets every part of the generator state, also a half-used 32-bit word."""
    law = AtomLaw(kind, smoothing_exponent=2.0)
    scheme = SeedScheme(41)
    stream = scheme.stream(3, 0, "diag")
    stream.integers(0, 2, 7)  # leaves a buffered half word behind
    stream.random(3)
    for block, role in ((0, "diag"), (5, "upper"), (5, "diag"), (2**64 - 1, "lower")):
        fresh = fill_block(6, law, scheme.stream(3, block, role))
        again = fill_block(6, law, scheme.rekey(stream, 3, block, role))
        assert fresh.dtype == again.dtype and np.array_equal(fresh, again)
        assert np.array_equal(scheme.stream(3, block, role).integers(0, 2, 9), scheme.rekey(stream, 3, block, role).integers(0, 2, 9))


def test_fill_block_scalar_variance():
    law = AtomLaw("complex-gaussian")
    stream = _stream(5)
    draws = np.array([fill_block(1, law, stream)[0, 0] for _ in range(250_000)])
    assert abs(np.mean(np.abs(draws) ** 2) - 1.0 / 3.0) < 0.01 / 3.0


def test_fill_block_entry_variance_ell50():
    law = AtomLaw("real-gaussian")
    stream = _stream(6)
    entries = np.concatenate([fill_block(50, law, stream).ravel() for _ in range(400)])
    target = 1.0 / 150.0
    assert abs(np.mean(np.abs(entries) ** 2) - target) < 0.02 * target


def test_fill_block_norm_bound():
    law = AtomLaw("real-gaussian")
    stream = _stream(7)
    bound = 10.0 * np.sqrt(50) / np.sqrt(150)
    hits = sum(np.linalg.norm(fill_block(50, law, stream), 2) <= bound for _ in range(100))
    assert hits >= 99
