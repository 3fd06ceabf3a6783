"""Numerical laboratory for non-Hermitian random block tridiagonal matrices."""

__version__ = "0.1.0"

from .entropy import ATOM_KINDS, AtomLaw, SeedScheme, fill_block, sample_atoms
from .model import (
    BlockTridiagonal,
    BorderedEnsemble,
    FrameNormalizationError,
    LazyTridiagonal,
    PeriodicEnsemble,
    build_bordered,
    identity_entry_frame,
    identity_exit_frame,
    operator_norm_check,
    random_entry_frame,
    random_exit_frame,
    sample_periodic,
    sample_rows,
    sample_tridiagonal,
    to_dense,
)
from .numerics import (
    EIGVALS_CAP,
    PIVOT_FLOOR,
    EigenConvergenceError,
    NumericsError,
    RankDeficientError,
    SingularMatrixError,
    SizeCapError,
    eigvals,
    lu_logdet,
    qr_thin,
    solve_lu,
    svd_values,
)
from .transfer import (
    CocycleTrace,
    cocycle_trace,
    dense_transfer_matrix,
    logdet_via_transfer,
    plucker_coordinates,
    projected_growth_log,
    wedge_power_small,
)
from .spectra import (
    EmpiricalMeasure,
    EsdSummary,
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
from .mde import (
    MdeChain,
    MdeConvergenceError,
    chain_imag_bound,
    solve_chain,
    solve_mc,
)
from . import harness
