"""Perturbative expansion and Monte-Carlo validation for a discretized
random Schrödinger operator at weak disorder.

The package computes the deterministic coefficients of the disorder
expansion of averaged resolvent matrix elements, validates them against
direct Monte-Carlo sampling of the random Hamiltonian, expands the
smoothed density of states, and certifies the quantitative bounds that
control both expansions.
"""

from .bounds import (
    c_tilde,
    check_arctan_bound,
    check_log_integral_bound,
    check_resolvent_sum_bound,
    check_weighted_resolvent_sum,
    const_C,
    const_C1,
    main_error_bound_rhs,
    measured_cB,
    scaling_exponent,
)
from .coefficients import (
    CoefficientResult,
    bhat_star_norms,
    coefficient_T,
    coefficient_T_oracle,
    conj_symmetry_check,
    truncation_tail_bound,
)
from .dos import (
    ChiBump,
    dos_coefficient_D,
    dos_density_order0,
    dos_eta_grid_check,
    dos_expansion,
    dos_mc,
    trace_class_bound_check,
)
from .errors import BudgetError, CheckFailure, ConfigError
from .lattice import (
    MomentumLattice,
    ProfileSpec,
    Wavepacket,
    build_lattice,
    dist_to_spectrum,
    fourier_decay_check,
    nu,
    profile_fourier_periodized,
    profile_periodized_value,
    wavepacket_fourier_periodized,
)
from .montecarlo import (
    EstimatorResult,
    PoissonConfig,
    assemble_hamiltonian,
    estimate_expectation,
    estimate_partial_term,
    neumann_identity_check,
    potential_matrix,
    rng_for,
    sample_config,
)
from .partitions import (
    SetPartition,
    WeightDistribution,
    apply_MA,
    bell_number,
    chi_tilde,
    enumerate_partitions,
    moment_weight,
    partition_maps,
    permutation_count_check,
    poisson_factorial_moment,
)
from .report import BoundReport

# every public name imported above, listed once
__all__ = sorted(name for name, value in globals().items()
                 if getattr(value, "__module__", "").startswith(__name__ + "."))
