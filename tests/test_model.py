import numpy as np
import pytest

from blocktri.entropy import AtomLaw, SeedScheme
from blocktri.model import (
    BlockTridiagonal,
    BorderedEnsemble,
    LazyTridiagonal,
    PeriodicEnsemble,
    build_bordered,
    operator_norm_check,
    random_entry_frame,
    random_exit_frame,
    sample_periodic,
    sample_tridiagonal,
    to_dense,
)
from blocktri.numerics import RankDeficientError, SingularMatrixError, SizeCapError, svd_values

LAW = AtomLaw("complex-gaussian")


def _zero_model(n, ell):
    z = tuple(np.zeros((ell, ell), dtype=complex) for _ in range(n))
    return BlockTridiagonal(n, ell, z, z, z)


def test_sample_shapes_and_size():
    m = sample_tridiagonal(4, 3, LAW, 1)
    assert m.size == 12
    assert len(m.diag) == len(m.upper) == len(m.lower) == 4
    assert all(b.shape == (3, 3) for b in m.diag)
    one = sample_tridiagonal(1, 1, LAW, 1)
    assert to_dense(one, 0.0).shape == (1, 1)


def test_block_tridiagonal_refuses_blocks_that_do_not_fit_n_and_ell():
    """Too few or too many rows, a block of another size, or n or ell below 1 raise `ValueError` instead of a sweep over what is there."""
    m = sample_tridiagonal(3, 2, LAW, 1)
    full = m.diag, m.upper, m.lower
    short = tuple(g[:2] for g in full)
    wide = (m.diag, (*m.upper[:2], np.zeros((2, 3))), m.lower)
    empty = ((np.zeros((0, 0)),),) * 3
    for n, ell, blocks in ((3, 2, short), (2, 2, full), (3, 1, full), (3, 2, wide), (0, 2, ((), (), ())), (1, 0, empty)):
        with pytest.raises(ValueError, match="n ell-by-ell blocks"):
            BlockTridiagonal(n, ell, *blocks)


def test_dense_sparsity_pattern():
    m = sample_tridiagonal(3, 2, LAW, 2)
    dense = to_dense(m, 0.0)
    assert dense.shape == (6, 6)
    assert np.all(dense[0:2, 4:6] == 0)
    assert np.all(dense[4:6, 0:2] == 0)
    nonzero = np.count_nonzero(dense)
    assert nonzero <= (3 * 3 - 2) * 4


def test_dense_zero_shift_equals_assembly():
    m = sample_tridiagonal(3, 2, LAW, 3)
    dense = to_dense(m, 0.0)
    assert np.array_equal(dense[0:2, 0:2], m.diag[0])
    assert np.array_equal(dense[0:2, 2:4], m.upper[0])
    assert np.array_equal(dense[2:4, 0:2], m.lower[1])


def test_frobenius_normalization():
    vals = []
    for t in range(20):
        m = sample_tridiagonal(100, 20, LAW, 4, trial=t)
        vals.append(np.linalg.norm(to_dense(m, 0.0)) ** 2 / m.size)
    assert abs(np.mean(vals) - 1.0) < 0.05


def test_bordered_shift_convention():
    m = sample_tridiagonal(1, 1, LAW, 5)
    b = build_bordered(m, np.eye(1, 2), np.eye(2, 1))
    d0 = to_dense(b, 0.0)
    d1 = to_dense(b, 1.0)
    diff = d1 - d0
    assert diff[0, 0] == 0 and diff[2, 2] == 0
    assert diff[1, 1] == -1.0


def test_periodic_differs_from_plain_in_corners_only():
    scheme = SeedScheme(6)
    per = sample_periodic(5, 3, LAW, scheme)
    plain = to_dense(per.inner, 0.7)
    dense = to_dense(per, 0.7)
    diff_positions = np.argwhere(dense != plain)
    assert len(diff_positions) == 2 * 9
    assert np.array_equal(dense[0:3, 12:15], per.corner_top)
    assert np.array_equal(dense[12:15, 0:3], per.corner_bottom)


def test_periodic_needs_three_rows():
    with pytest.raises(ValueError):
        sample_periodic(2, 3, LAW, 0)
    # Built by hand, n = 1 would put both corners on the diagonal block and
    # n = 2 on the off-diagonal blocks; the ensemble itself refuses both.
    corner = np.eye(3, dtype=complex)
    for n in (1, 2):
        with pytest.raises(ValueError):
            PeriodicEnsemble(sample_tridiagonal(n, 3, LAW, 0), corner, corner)


def test_build_bordered_row_unitarity_and_frames(unit_gram_frame):
    rng = np.random.default_rng(7)
    for ell in (1, 2, 4):
        m = sample_tridiagonal(3, ell, LAW, 8)
        pi = unit_gram_frame(ell, rng).conj().T
        xi = unit_gram_frame(ell, rng)
        b = build_bordered(m, pi, xi)
        eye = np.eye(ell)
        assert np.linalg.norm(b.top_row @ b.top_row.conj().T - eye) < 1e-12
        assert np.linalg.norm(b.bottom_row @ b.bottom_row.conj().T - eye) < 1e-12
        assert abs(np.linalg.det(pi @ pi.conj().T) - 1) < 1e-10
        assert abs(np.linalg.det(xi.conj().T @ xi) - 1) < 1e-10


def test_build_bordered_identity_frames():
    ell = 3
    m = sample_tridiagonal(2, ell, LAW, 9)
    b = build_bordered(m, np.eye(ell, 2 * ell), np.eye(2 * ell, ell))
    # bottom row becomes [0, I]; the top row is supported on its first half,
    # with a unitary factor standing in for the sign convention
    assert np.linalg.norm(b.bottom_row[:, :ell]) < 1e-12
    assert np.linalg.norm(b.bottom_row[:, ell:] - np.eye(ell)) < 1e-12
    assert np.linalg.norm(b.top_row[:, ell:]) < 1e-12
    w = b.top_row[:, :ell]
    assert np.linalg.norm(w @ w.conj().T - np.eye(ell)) < 1e-12


def test_build_bordered_half_swapped_orthogonality():
    # swapping the halves of either boundary row recovers the row pair that
    # annihilates the matching orthonormalized frame
    rng = np.random.default_rng(10)
    ell = 2
    m = sample_tridiagonal(2, ell, LAW, 11)
    xi = random_entry_frame(ell, rng)
    b = build_bordered(m, random_exit_frame(ell, rng), xi)
    swapped = np.hstack([b.top_row[:, ell:], b.top_row[:, :ell]])
    assert np.linalg.norm(swapped @ xi) < 1e-10


def test_build_bordered_scalar_entry_frame():
    m = sample_tridiagonal(1, 1, LAW, 12)
    xi = np.array([[0.0], [1.0]], dtype=complex)
    pi = np.array([[1.0, 0.0]], dtype=complex)
    b = build_bordered(m, pi, xi)
    # the half-swapped top row annihilates (0, 1), so the row itself is
    # supported on its second coordinate
    assert abs(b.top_row[0, 0]) < 1e-14
    assert abs(abs(b.top_row[0, 1]) - 1.0) < 1e-14


def test_build_bordered_rejects_bad_frames():
    """Rank-deficient and NaN frames are refused; a frame of any scale is taken, its 1/2 log-Gram stored."""
    m = sample_tridiagonal(2, 2, LAW, 13)
    # det(pi pi*) = 16: 1/2 log of it is log 4.
    assert build_bordered(m, 2.0 * np.eye(2, 4), np.eye(4, 2)).half_log_grams == pytest.approx(np.log(4.0))
    xi_singular = np.zeros((4, 2), dtype=complex)
    xi_singular[0, 0] = 1.0
    xi_singular[1, 1] = 0.0
    # The cause qr_thin reports, also a SingularMatrixError.
    with pytest.raises(RankDeficientError) as raised:
        build_bordered(m, np.eye(2, 4), xi_singular)
    assert isinstance(raised.value, SingularMatrixError)
    # det(pi pi*) = 2 and det(xi* xi) = 1/2: the two halves cancel.
    scaled = build_bordered(m, 2.0 ** (1 / 4) * np.eye(2, 4), 2.0 ** (-1 / 4) * np.eye(4, 2))
    assert scaled.half_log_grams == pytest.approx(0.0, abs=1e-15)
    # A Gram determinant that overflows is summed in log space; a NaN frame is refused.
    huge = build_bordered(m, 1e200 * np.eye(2, 4), np.eye(4, 2))
    assert huge.half_log_grams == pytest.approx(2 * np.log(1e200))
    with pytest.raises(SingularMatrixError):
        build_bordered(m, np.eye(2, 4), np.full((4, 2), np.nan, dtype=complex))


def test_build_bordered_refuses_ensembles_that_are_not_plain():
    frames = np.eye(3, 6), np.eye(6, 3)
    with pytest.raises(TypeError, match="PeriodicEnsemble"):
        build_bordered(sample_periodic(4, 3, LAW, 1), *frames)
    with pytest.raises(ValueError, match="carry their own frames"):
        build_bordered(build_bordered(sample_tridiagonal(4, 3, LAW, 1), *frames), *frames)


def test_operator_norm_check():
    rng = np.random.default_rng(14)
    m = sample_tridiagonal(6, 4, LAW, 15)
    b = build_bordered(m, random_exit_frame(4, rng), random_entry_frame(4, rng))
    assert operator_norm_check(b)

    zero = _zero_model(4, 2)
    bz = build_bordered(zero, np.eye(2, 4), np.eye(4, 2))
    assert operator_norm_check(bz)
    assert svd_values(to_dense(bz, 0.0))[0] <= 2.0

    for t in range(50):
        m = sample_tridiagonal(8, 8, LAW, 16, trial=t)
        b = build_bordered(m, random_exit_frame(8, rng), random_entry_frame(8, rng))
        assert operator_norm_check(b)

    # A lazy ensemble, plain or bordered, reads its block norms from its rows.
    pi, xi = random_exit_frame(3, rng), random_entry_frame(3, rng)
    for law in (LAW, AtomLaw("real-uniform")):
        m, lazy = sample_tridiagonal(5, 3, law, 17), LazyTridiagonal(5, 3, law, 17)
        assert operator_norm_check(lazy) == operator_norm_check(m)
        assert operator_norm_check(build_bordered(lazy, pi, xi)) == operator_norm_check(build_bordered(m, pi, xi))

    # The bound reads the blocks that the periodic matrix places: its corners,
    # not the unplaced lower[0] and upper[n-1] of its inner ensemble.
    per = sample_periodic(4, 2, AtomLaw("real-gaussian"), 1)
    loud = PeriodicEnsemble(per.inner, 100.0 * np.eye(2), per.corner_bottom)
    assert svd_values(to_dense(loud, 0.0))[0] >= 100.0
    assert operator_norm_check(loud)
    assert operator_norm_check(per)


def test_dense_size_cap():
    m = sample_tridiagonal(4, 4, LAW, 18)
    with pytest.raises(SizeCapError):
        to_dense(m, 0.0, max_dense=8)


def _expected_blocks(ens):
    """Nonzero blocks of the unshifted dense matrix by (block row, block column), and the shifted rows."""
    m = getattr(ens, "inner", ens)
    n, l = m.n, m.ell
    if isinstance(ens, BorderedEnsemble):
        blocks = {(0, 0): ens.top_row[:, :l], (0, 1): ens.top_row[:, l:]}
        blocks |= {(n + 1, n): ens.bottom_row[:, :l], (n + 1, n + 1): ens.bottom_row[:, l:]}
        for k in range(n):
            blocks |= {(k + 1, k): m.lower[k], (k + 1, k + 1): m.diag[k], (k + 1, k + 2): m.upper[k]}
        return blocks, range(1, n + 1)
    blocks = {(k, k): m.diag[k] for k in range(n)}
    blocks |= {(k, k + 1): m.upper[k] for k in range(n - 1)}
    blocks |= {(k + 1, k): m.lower[k + 1] for k in range(n - 1)}
    if isinstance(ens, PeriodicEnsemble):
        blocks |= {(0, n - 1): ens.corner_top, (n - 1, 0): ens.corner_bottom}
    return blocks, range(n)


@pytest.mark.parametrize(
    "kind, n, ell",
    [(kind, n, ell) for kind in ("plain", "bordered") for n, ell in ((1, 1), (2, 3), (4, 2))]
    + [("periodic", 3, 2), ("periodic", 4, 2)],
)
def test_dense_places_every_block_and_shifts_the_named_rows(kind, n, ell):
    """Slice by slice against the blocks, for a real and a complex law and real and non-real shifts.

    The matrix is Fortran-ordered, and its block view, which `to_dense`
    fills, is a view of it. A plain or bordered ensemble over a
    `LazyTridiagonal` gives the same bytes as over the materialized blocks.
    """
    for law in (AtomLaw("real-gaussian"), LAW):
        if kind == "periodic":
            ens = sample_periodic(n, ell, law, 19)
            lazy = ens
        else:
            ens = sample_tridiagonal(n, ell, law, 19)
            lazy = LazyTridiagonal(n, ell, law, 19)
        if kind == "bordered":
            rng = np.random.default_rng(20)
            pi, xi = random_exit_frame(ell, rng), random_entry_frame(ell, rng)
            ens, lazy = build_bordered(ens, pi, xi), build_bordered(lazy, pi, xi)
        blocks, shifted = _expected_blocks(ens)
        for z in (0.0, 0.7, 0.5 - 0.25j):
            dense = to_dense(ens, z)
            streamed = to_dense(lazy, z)
            assert streamed.dtype == dense.dtype and streamed.flags.f_contiguous
            assert np.array_equal(streamed, dense)
            assert dense.shape == (ens.size, ens.size)
            assert dense.flags.f_contiguous
            nb = ens.size // ell
            view = dense.reshape(ell, nb, ell, nb, order="F")
            assert np.shares_memory(view, dense)
            for i in range(nb):
                for j in range(nb):
                    want = blocks.get((i, j), np.zeros((ell, ell)))
                    if i == j and i in shifted:
                        want = want - z * np.eye(ell)
                    assert np.array_equal(dense[i * ell : (i + 1) * ell, j * ell : (j + 1) * ell], want), (i, j)
                    assert np.array_equal(view[:, i, :, j], want), (i, j)
    if kind == "bordered":
        with pytest.raises(SizeCapError):
            to_dense(ens, z, max_dense=n * ell)
    else:
        assert to_dense(ens, z, max_dense=n * ell).shape == dense.shape
