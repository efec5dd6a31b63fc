"""Monte Carlo reference model: explicit random Hamiltonians.

Samples Poisson scatterer configurations, assembles the dense truncated
momentum-space Hamiltonian, and estimates resolvent expectations directly.
This is the probabilistic side of the bridge tested against the
combinatorial expansion coefficients.

Reproducibility contract: every sample index owns a counter-based RNG
stream keyed by (seed, index), and reductions run in index order with
exact accumulation, so results are bit-identical for any worker count.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from ._accum import chunk_ranges, fsum_c, fsum_r, run_ordered
from .coefficients import bhat_difference_table, psi_hat_vector, _diff_index
from .errors import BudgetError, ConfigError
from .lattice import (
    MomentumLattice,
    ProfileSpec,
    Wavepacket,
    dist_to_spectrum,
    int_box,
)
from .partitions import WeightDistribution
from .report import BoundReport

MAX_MATRIX_DIM = 8192
_POISSON_INVERSION_CUTOFF = 30.0


@dataclass
class PoissonConfig:
    """One disorder realization: scatterer count, positions, weights."""

    M: int
    positions: np.ndarray  # (M, d), inside [-L/2, L/2)^d
    weights: np.ndarray  # (M,)

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if self.M == 0:
            self.positions = self.positions.reshape(0, max(1, self.positions.shape[-1]))
        self.weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if self.positions.shape[0] != self.M or self.weights.shape[0] != self.M:
            raise ConfigError("scatterer count does not match positions/weights")


@dataclass
class HamiltonianMatrix:
    """Dense Hermitian Hamiltonian in the lattice index basis."""

    dim: int
    entries: np.ndarray
    lattice: MomentumLattice

    def hermiticity_residual(self) -> float:
        scale = max(1.0, float(np.abs(self.entries).max()))
        return float(np.abs(self.entries - self.entries.conj().T).max()) / scale


@dataclass
class EstimatorResult:
    mean: complex
    std_error: float
    n_samples: int
    seed: int


# ---------------------------------------------------------------------------
# sampling


def rng_for(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for one sample: independent of draw order."""
    return np.random.Generator(np.random.Philox(key=[seed, index]))


def _draw_poisson(rng, mean: float) -> int:
    if mean < 0:
        raise ConfigError("Poisson mean must be nonnegative")
    if mean <= _POISSON_INVERSION_CUTOFF:
        # plain inversion: exact and cheap at small means
        u = rng.random()
        p = math.exp(-mean)
        cum = p
        k = 0
        while u > cum:
            k += 1
            p *= mean / k
            cum += p
        return k
    return int(rng.poisson(mean))


def sample_config(lattice: MomentumLattice, dist: WeightDistribution,
                  rng: np.random.Generator) -> PoissonConfig:
    """Draw one Poisson configuration: count ~ Poisson(volume), uniform
    positions, i.i.d. weights.  Draw order is fixed (count, positions,
    weights) so streams replay identically."""
    mean = lattice.L ** lattice.d
    M = _draw_poisson(rng, mean)
    positions = rng.random((M, lattice.d)) * lattice.L - lattice.L / 2
    weights = dist.sample(rng, M)
    return PoissonConfig(M=M, positions=positions, weights=weights)


# ---------------------------------------------------------------------------
# assembly


def potential_fourier(config: PoissonConfig, profile: ProfileSpec,
                      lattice: MomentumLattice, p):
    """Transform of the realized potential at momentum p (difference range)."""
    from .lattice import profile_fourier_periodized

    p_arr = np.asarray(p, dtype=float)
    scalar = p_arr.ndim == 1
    pts = np.atleast_2d(p_arr)
    bhat = profile_fourier_periodized(profile, pts, lattice.L)
    if config.M == 0:
        out = np.zeros(pts.shape[0], dtype=complex)
    else:
        phases = np.exp(-2j * np.pi * (pts @ config.positions.T))
        out = bhat * (phases @ config.weights)
    return complex(out[0]) if scalar else out


def _phase_sums(config: PoissonConfig, lattice: MomentumLattice) -> np.ndarray:
    """sum_gamma v_gamma exp(-2 pi i k . y_gamma) on the flattened
    difference window (same layout as the profile table)."""
    pts = int_box(lattice.d, 2 * lattice.K) / lattice.L
    if config.M == 0:
        return np.zeros(pts.shape[0], dtype=complex)
    return np.exp(-2j * np.pi * (pts @ config.positions.T)) @ config.weights


def potential_matrix(config: PoissonConfig, lattice: MomentumLattice,
                     profile: ProfileSpec) -> np.ndarray:
    """Coupling-free potential matrix V_{pq} = V_hat(p-q) / L^d."""
    N = lattice.size
    btab = bhat_difference_table(profile, lattice)
    S = _phase_sums(config, lattice)
    vdiff = (btab * S) / lattice.volume
    ints = lattice.ints
    didx = _diff_index(ints[:, None, :] - ints[None, :, :], lattice.K, lattice.d)
    return vdiff[didx]


def assemble_hamiltonian(config: PoissonConfig, lam: float,
                         lattice: MomentumLattice,
                         profile: ProfileSpec) -> HamiltonianMatrix:
    """H = diag(nu) + lam * V_hat(p-q)/L^d on the truncated window."""
    if lam < 0:
        raise ConfigError("coupling must be nonnegative")
    N = lattice.size
    if N > MAX_MATRIX_DIM:
        raise BudgetError(f"matrix dimension {N} over budget {MAX_MATRIX_DIM}")
    H = np.diag(lattice.nu_values.astype(complex))
    if lam != 0.0 and config.M:
        H = H + lam * potential_matrix(config, lattice, profile)
    return HamiltonianMatrix(dim=N, entries=H, lattice=lattice)


# ---------------------------------------------------------------------------
# resolvent solves


def _as_hat(psi, lattice):
    if isinstance(psi, Wavepacket):
        return psi_hat_vector(psi, lattice)
    vec = np.asarray(psi, dtype=complex)
    if vec.shape != (lattice.size,):
        raise ConfigError("test-function vector has wrong length")
    return vec


def resolvent_matrix_element(H: HamiltonianMatrix, z, psi1, psi2) -> complex:
    """<psi1, (H - z)^(-1) psi2> via one dense solve and the discrete
    Parseval pairing."""
    dist_to_spectrum(z)
    lattice = H.lattice
    p1 = _as_hat(psi1, lattice)
    p2 = _as_hat(psi2, lattice)
    A = H.entries - z * np.eye(H.dim)
    lu = lu_factor(A)
    x = lu_solve(lu, p2)
    resid = np.linalg.norm(A @ x - p2)
    if resid > 1e-10 * max(np.linalg.norm(p2), 1e-300):
        raise RuntimeError(
            f"resolvent solve residual {resid:.3e}; "
            f"condition estimate {np.linalg.cond(A):.3e}"
        )
    return fsum_c(np.conj(p1) * x) / lattice.volume


def _free_resolvent_diag(lattice, z):
    return 1.0 / (lattice.nu_values - z)


def _partial_term_value(Vmat, lattice, z, p1, p2, n) -> complex:
    """<psi1, R0 (V R0)^n psi2> for one realization (free resolvents only)."""
    r0 = _free_resolvent_diag(lattice, z)
    x = r0 * p2
    for _ in range(n):
        x = r0 * (Vmat @ x)
    return fsum_c(np.conj(p1) * x) / lattice.volume


def neumann_identity_check(config, lam, z, n, lattice, profile, psi2,
                           tol=1e-9) -> BoundReport:
    """Finite-matrix resolvent expansion identity on one realization:

        (H-z)^{-1} psi = sum_{j<=n} R0 (-lam V R0)^j psi
                         + [R0 (-lam V)]^{n+1} (H-z)^{-1} psi

    The report carries the remainder norm and its a-priori operator bound
    (lam ||V|| / eta)^{n+1} * ||psi|| / eta.
    """
    dist_to_spectrum(z)
    H = assemble_hamiltonian(config, lam, lattice, profile)
    Vmat = potential_matrix(config, lattice, profile) if config.M else np.zeros(
        (lattice.size, lattice.size), dtype=complex)
    p2 = _as_hat(psi2, lattice)
    r0 = _free_resolvent_diag(lattice, z)

    full = np.linalg.solve(H.entries - z * np.eye(H.dim), p2)

    term = r0 * p2
    partial = term.copy()
    for _ in range(n):
        term = r0 * (-lam * (Vmat @ term))
        partial += term

    rem = full.copy()
    for _ in range(n + 1):
        rem = r0 * (-lam * (Vmat @ rem))

    scale = max(np.linalg.norm(p2), 1e-300)
    residual = np.linalg.norm(full - partial - rem) / scale
    eta = dist_to_spectrum(z)
    vnorm = np.linalg.norm(Vmat, 2) if config.M else 0.0
    rem_bound = (lam * vnorm / eta) ** (n + 1) / eta * np.linalg.norm(p2)
    return BoundReport(
        name="neumann_identity",
        lhs=residual,
        rhs=tol,
        context={
            "n": n,
            "lam": lam,
            "z": (complex(z).real, complex(z).imag),
            "remainder_norm": float(np.linalg.norm(rem)),
            "remainder_bound": float(rem_bound),
            "remainder_bound_ok": bool(
                np.linalg.norm(rem) <= rem_bound * (1 + 1e-12) + 1e-300),
        },
    )


# ---------------------------------------------------------------------------
# estimators


def _se_complex(units, mean):
    n = len(units)
    if n < 2:
        return 0.0
    var = fsum_r(np.abs(np.asarray(units) - mean) ** 2) / (n - 1)
    return math.sqrt(var / n)


def _run_indexed(n_units, worker, threads):
    """Evaluate worker(i) for i in range(n_units) into a list, index order,
    optionally thread-chunked with disjoint writes."""
    out = [None] * n_units
    ranges = chunk_ranges(n_units, max(1, -(-n_units // max(1, threads * 4))))

    def work(lo, hi):
        for i in range(lo, hi):
            out[i] = worker(i)

    run_ordered([lambda lo=lo, hi=hi: work(lo, hi) for lo, hi in ranges], threads)
    return out


def estimate_partial_term(n, n_samples, z, psi1, psi2, seed, lattice, profile,
                          dist, *, threads=1) -> EstimatorResult:
    """MC estimate of the order-n expansion term: per sample, apply the
    explicit operator string R0 (V R0)^n with that sample's potential."""
    if n > 4:
        raise ConfigError("partial-term order capped at 4")
    if n_samples < 1:
        raise ConfigError("need at least one sample")
    dist_to_spectrum(z)
    p1 = _as_hat(psi1, lattice)
    p2 = _as_hat(psi2, lattice)

    if n == 0:
        # no randomness in the string: exact, zero variance
        val = _partial_term_value(None, lattice, z, p1, p2, 0)
        return EstimatorResult(mean=val, std_error=0.0, n_samples=n_samples,
                               seed=seed)

    def one(i):
        cfg = sample_config(lattice, dist, rng_for(seed, i))
        Vmat = potential_matrix(cfg, lattice, profile) if cfg.M else None
        if Vmat is None:
            return 0.0 + 0.0j
        return _partial_term_value(Vmat, lattice, z, p1, p2, n)

    units = _run_indexed(n_samples, one, threads)
    mean = fsum_c(units) / n_samples
    return EstimatorResult(mean=mean, std_error=_se_complex(units, mean),
                           n_samples=n_samples, seed=seed)


def estimate_expectation(n_samples, lam, z, psi1, psi2, seed, lattice, profile,
                         dist, *, threads=1, antithetic=False,
                         control_values=None) -> EstimatorResult:
    """MC estimate of E <psi1, (H - z)^(-1) psi2>.

    Default: sample mean over i.i.d. configurations.  Two optional,
    bias-free variance reductions used by the scaling studies:

    - antithetic: each stream also contributes the weight-flipped
      realization (v -> -v); the i.i.d. unit is the pair mean, so
      n_samples must be even and stream i covers samples 2i, 2i+1.
    - control_values {order: coefficient}: subtracts the known-mean
      single-realization expansion terms, i.e. (-lam)^j (t_j - T_j); the
      expectation is unchanged because E t_j equals the coefficient
      exactly on the truncated model.
    """
    if n_samples < 2:
        raise ConfigError("need at least two samples")
    dist_to_spectrum(z)
    controls = dict(control_values or {})
    for j in controls:
        if not (isinstance(j, int) and 1 <= j <= 4):
            raise ConfigError("control orders must be integers in 1..4")
    p1 = _as_hat(psi1, lattice)
    p2 = _as_hat(psi2, lattice)
    eye = np.eye(lattice.size)
    nu_c = lattice.nu_values.astype(complex)

    def member_value(Vmat, sign):
        """One realization's controlled value; sign flips the weights."""
        H = np.diag(nu_c)
        if Vmat is not None:
            H = H + (sign * lam) * Vmat
        A = H - z * eye
        x = lu_solve(lu_factor(A), p2)
        val = fsum_c(np.conj(p1) * x) / lattice.volume
        for j in sorted(controls):
            if Vmat is None:
                tj = 0.0
            else:
                tj = sign**j * _partial_term_value(Vmat, lattice, z, p1, p2, j)
            val -= (-lam) ** j * (tj - controls[j])
        return val

    if antithetic:
        if n_samples % 2:
            raise ConfigError("antithetic pairing needs an even sample count")
        n_units = n_samples // 2

        def one(i):
            cfg = sample_config(lattice, dist, rng_for(seed, i))
            Vmat = potential_matrix(cfg, lattice, profile) if cfg.M else None
            return 0.5 * (member_value(Vmat, 1) + member_value(Vmat, -1))
    else:
        n_units = n_samples

        def one(i):
            cfg = sample_config(lattice, dist, rng_for(seed, i))
            Vmat = potential_matrix(cfg, lattice, profile) if cfg.M else None
            return member_value(Vmat, 1)

    units = _run_indexed(n_units, one, threads)
    mean = fsum_c(units) / n_units
    return EstimatorResult(mean=mean, std_error=_se_complex(units, mean),
                           n_samples=n_samples, seed=seed)


# ---------------------------------------------------------------------------
# smoothed traces


def _chi_support(chi, support):
    if support is not None:
        return float(support[0]), float(support[1])
    sup = getattr(chi, "support", None)
    if sup is None:
        raise ConfigError("chi needs a .support attribute or explicit support")
    return float(sup[0]), float(sup[1])


def _gl_nodes(a, b, panels, order=16):
    """Composite Gauss-Legendre nodes/weights on [a, b]."""
    x0, w0 = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    w = (half[:, None] * w0[None, :]).ravel()
    return x, w


def _conv_chi_cauchy(chi, eta, mu, a, b, rtol=1e-10, max_panels=1024):
    """(chi * gamma_eta)(mu) for an array of points, adaptive composite GL."""
    mu = np.asarray(mu, dtype=float)
    prev = None
    panels = 8
    while panels <= max_panels:
        x, w = _gl_nodes(a, b, panels)
        kern = (eta / np.pi) / ((mu[:, None] - x[None, :]) ** 2 + eta**2)
        cur = kern @ (w * chi(x))
        if prev is not None and np.max(np.abs(cur - prev)) <= rtol * max(
                1.0, float(np.max(np.abs(cur)))):
            return cur
        prev = cur
        panels *= 2
    raise RuntimeError("smoothing convolution did not converge")


def _trace_from_eigs(mu, chi, eta, volume, a, b, rtol=1e-10) -> float:
    return fsum_r(_conv_chi_cauchy(chi, eta, mu, a, b, rtol)) / volume


def _stone_from_eigs(mu, chi, eta, volume, a, b, n_nodes=2000) -> float:
    order = 16
    x, w = _gl_nodes(a, b, max(1, n_nodes // order), order)
    dens = np.sum((eta / np.pi) / ((mu[:, None] - x[None, :]) ** 2 + eta**2),
                  axis=0)
    return fsum_r(w * chi(x) * dens) / volume


def smoothed_trace_sample(config, lam, chi, eta, lattice, profile, *,
                          support=None, rtol=1e-10) -> float:
    """(1/L^d) tr (chi * gamma_eta)(H) for one realization, by full
    Hermitian eigendecomposition and adaptive convolution."""
    if eta <= 0:
        raise ConfigError("smoothing width must be positive")
    a, b = _chi_support(chi, support)
    H = assemble_hamiltonian(config, lam, lattice, profile)
    mu = np.linalg.eigvalsh(H.entries)
    return _trace_from_eigs(mu, chi, eta, lattice.volume, a, b, rtol)


def smoothed_trace_stone(config, lam, chi, eta, lattice, profile, *,
                         support=None, n_nodes=2000) -> float:
    """Same trace through the boundary-value route: chi integrated against
    the imaginary part of the resolvent trace on a fixed 2000-node grid."""
    if eta <= 0:
        raise ConfigError("smoothing width must be positive")
    a, b = _chi_support(chi, support)
    H = assemble_hamiltonian(config, lam, lattice, profile)
    mu = np.linalg.eigvalsh(H.entries)
    return _stone_from_eigs(mu, chi, eta, lattice.volume, a, b, n_nodes)
