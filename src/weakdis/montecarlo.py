"""Monte Carlo reference model: explicit random Hamiltonians.

Samples Poisson scatterer configurations, assembles the dense truncated
momentum-space Hamiltonian, and estimates resolvent expectations directly.
This is the probabilistic side of the bridge tested against the
combinatorial expansion coefficients.

Reproducibility contract: every sample index owns a counter-based RNG
stream keyed by (seed, index), and reductions run in index order with
exact accumulation, so results are bit-identical for any worker count.
Every sampler (here and in ``dos``) draws through ``map_realizations``.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from ._accum import chunk_ranges, fsum_c, fsum_r, run_ordered
from .coefficients import bhat_difference_table, psi_hat_vector, _pair_index
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


@lru_cache(maxsize=None)
def _difference_layout(lattice: MomentumLattice):
    """(phase points int_box(d, 2K) / L of the flattened difference window,
    the pair index shared with the chain sums); cached, read-only."""
    pts = int_box(lattice.d, 2 * lattice.K) / lattice.L
    pts.setflags(write=False)
    return pts, _pair_index(lattice)


def potential_matrix(config: PoissonConfig, lattice: MomentumLattice,
                     profile: ProfileSpec) -> np.ndarray:
    """Coupling-free potential matrix V_{pq} = V_hat(p-q) / L^d."""
    btab = bhat_difference_table(profile, lattice)
    pts, didx = _difference_layout(lattice)
    # sum_gamma v_gamma exp(-2 pi i k . y_gamma) on the difference window
    if config.M == 0:
        S = np.zeros(pts.shape[0], dtype=complex)
    else:
        S = np.exp(-2j * np.pi * (pts @ config.positions.T)) @ config.weights
    vdiff = (btab * S) / lattice.volume
    return vdiff[didx]


def _check_matrix(lattice: MomentumLattice, lam: float = 0.0):
    """The coupling sign and the dimension budget of a dense Hamiltonian."""
    if lam < 0:
        raise ConfigError("coupling must be nonnegative")
    if lattice.size > MAX_MATRIX_DIM:
        raise BudgetError(
            f"matrix dimension {lattice.size} over budget {MAX_MATRIX_DIM}")


def _hamiltonian(nu_c: np.ndarray, lam: float, V) -> np.ndarray:
    """diag(nu) + lam * V from an already-built potential matrix; V is None
    for a realization without scatterers, and lam == 0 adds nothing."""
    H = np.diag(nu_c)
    if V is not None and lam != 0.0:
        H = H + lam * V
    return H


def assemble_hamiltonian(config: PoissonConfig, lam: float,
                         lattice: MomentumLattice,
                         profile: ProfileSpec) -> HamiltonianMatrix:
    """H = diag(nu) + lam * V_hat(p-q)/L^d on the truncated window."""
    _check_matrix(lattice, lam)
    V = (potential_matrix(config, lattice, profile)
         if lam != 0.0 and config.M else None)
    return HamiltonianMatrix(
        dim=lattice.size, lattice=lattice,
        entries=_hamiltonian(lattice.nu_values.astype(complex), lam, V))


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


def _chain_terms(V, r0, p1, p2, top, volume) -> list:
    """t_j = <psi1, R0 (V R0)^j psi2> for j = 0..top on one realization, in
    one pass: each order extends the operator string of the one before.
    r0 is the free resolvent diagonal 1/(nu - z)."""
    x = r0 * p2
    t = [fsum_c(np.conj(p1) * x) / volume]
    for _ in range(top):
        x = r0 * (V @ x)
        t.append(fsum_c(np.conj(p1) * x) / volume)
    return t


def neumann_identity_check(config, lam, z, n, lattice, profile, psi2,
                           tol=1e-9) -> BoundReport:
    """Finite-matrix resolvent expansion identity on one realization:

        (H-z)^{-1} psi = sum_{j<=n} R0 (-lam V R0)^j psi
                         + [R0 (-lam V)]^{n+1} (H-z)^{-1} psi

    The report carries the remainder norm and its a-priori operator bound
    (lam ||V|| / eta)^{n+1} * ||psi|| / eta.
    """
    dist_to_spectrum(z)
    _check_matrix(lattice, lam)
    nu = lattice.nu_values
    Vmat = potential_matrix(config, lattice, profile) if config.M else np.zeros(
        (lattice.size, lattice.size), dtype=complex)
    H = _hamiltonian(nu.astype(complex), lam, Vmat)
    p2 = _as_hat(psi2, lattice)
    r0 = 1.0 / (nu - z)

    full = np.linalg.solve(H - z * np.eye(lattice.size), p2)

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


def map_realizations(n_units, seed, lattice, profile, dist, fn, threads=1):
    """[fn(V_i) for i in range(n_units)], the Monte-Carlo realization
    pipeline.  Realization i is drawn from the stream (seed, i) and V_i is
    its coupling-free potential matrix (None without scatterers), built once
    however many couplings and signs fn evaluates on it.  Results are in
    index order; chunks run on threads with disjoint writes."""
    _check_matrix(lattice)
    out = [None] * n_units
    ranges = chunk_ranges(n_units, max(1, -(-n_units // max(1, threads * 4))))

    def work(lo, hi):
        for i in range(lo, hi):
            cfg = sample_config(lattice, dist, rng_for(seed, i))
            out[i] = fn(potential_matrix(cfg, lattice, profile)
                        if cfg.M else None)

    run_ordered([lambda lo=lo, hi=hi: work(lo, hi) for lo, hi in ranges], threads)
    return out


def _result(units, n_samples, seed) -> EstimatorResult:
    mean = fsum_c(units) / len(units)
    return EstimatorResult(mean=mean, std_error=_se_complex(units, mean),
                           n_samples=n_samples, seed=seed)


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
    r0 = 1.0 / (lattice.nu_values - z)
    volume = lattice.volume

    if n == 0:
        # no randomness in the string: exact, zero variance
        val = _chain_terms(None, r0, p1, p2, 0, volume)[0]
        return EstimatorResult(mean=val, std_error=0.0, n_samples=n_samples,
                               seed=seed)

    def one(V):
        if V is None:
            return 0.0 + 0.0j
        return _chain_terms(V, r0, p1, p2, n, volume)[n]

    units = map_realizations(n_samples, seed, lattice, profile, dist, one,
                             threads)
    return _result(units, n_samples, seed)


def estimate_expectation(n_samples, lams, z, psi1, psi2, seed, lattice,
                         profile, dist, *, threads=1, antithetic=False,
                         control_values=None) -> list:
    """MC estimates of E <psi1, (H - z)^(-1) psi2>, one EstimatorResult per
    coupling in lams.  Every coupling sees the same realizations (common
    random numbers): each is drawn once for the whole sweep.

    Default: sample mean over i.i.d. configurations.  Two optional,
    bias-free variance reductions used by the scaling studies:

    - antithetic: each stream also contributes the weight-flipped
      realization (v -> -v); the i.i.d. unit is the pair mean, so
      n_samples must be even and stream i covers samples 2i, 2i+1.
    - control_values {order: coefficient}: subtracts the known-mean
      single-realization expansion terms, i.e. (-lam)^j (t_j - T_j); the
      expectation is unchanged because E t_j equals the coefficient
      exactly on the truncated model.  The strings t_j depend on neither
      the coupling nor the sign (the flip enters as sign^j t_j), so they
      come from one chain pass per realization.
    """
    if n_samples < 2:
        raise ConfigError("need at least two samples")
    dist_to_spectrum(z)
    controls = dict(control_values or {})
    for j in controls:
        if not (isinstance(j, int) and 1 <= j <= 4):
            raise ConfigError("control orders must be integers in 1..4")
    if antithetic and n_samples % 2:
        raise ConfigError("antithetic pairing needs an even sample count")
    lams = tuple(lams)
    orders = sorted(controls)
    p1 = _as_hat(psi1, lattice)
    p2 = _as_hat(psi2, lattice)
    nu = lattice.nu_values
    nu_c = nu.astype(complex)
    r0 = 1.0 / (nu - z)
    z_eye = z * np.eye(lattice.size)
    volume = lattice.volume

    def member(V, t, lam, sign):
        """One realization's controlled value; sign flips the weights."""
        x = lu_solve(lu_factor(_hamiltonian(nu_c, sign * lam, V) - z_eye), p2)
        val = fsum_c(np.conj(p1) * x) / volume
        for j in orders:
            tj = 0.0 if V is None else sign**j * t[j]
            val -= (-lam) ** j * (tj - controls[j])
        return val

    def one(V):
        t = None
        if V is not None and orders:
            t = _chain_terms(V, r0, p1, p2, orders[-1], volume)
        if antithetic:
            return [0.5 * (member(V, t, lam, 1) + member(V, t, lam, -1))
                    for lam in lams]
        return [member(V, t, lam, 1) for lam in lams]

    n_units = n_samples // 2 if antithetic else n_samples
    units = map_realizations(n_units, seed, lattice, profile, dist, one,
                             threads)
    return [_result([u[k] for u in units], n_samples, seed)
            for k in range(len(lams))]


# ---------------------------------------------------------------------------
# smoothed traces


@lru_cache(maxsize=None)
def _gl_nodes(a, b, panels, order=16):
    """Composite Gauss-Legendre nodes/weights on [a, b]; cached, read-only."""
    x0, w0 = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    w = (half[:, None] * w0[None, :]).ravel()
    x.setflags(write=False)
    w.setflags(write=False)
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
