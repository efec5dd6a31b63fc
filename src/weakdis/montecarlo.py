"""Monte Carlo reference model: explicit random Hamiltonians.

Samples Poisson scatterer configurations, assembles the dense truncated
momentum-space Hamiltonian, and estimates resolvent expectations directly.
This is the probabilistic side of the bridge tested against the
combinatorial expansion coefficients.

Reproducibility contract: every sample index owns a counter-based RNG
stream keyed by (seed, index), and reductions run in index order with
exact accumulation, so results are bit-identical for any worker count.
Every sampler (here and in ``dos``) draws through ``map_realizations``, in
chunks of arrays that keep the bits of one realization at a time.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._accum import (chunk_ranges, fsum_c, fsum_r, fsum_rows, gl_integrate,
                     gl_nodes, run_ordered)
from .coefficients import (_difference_points, _pair_index,
                           bhat_difference_table, psi_hat_vector)
from .errors import BudgetError, ConfigError
from .lattice import MomentumLattice, ProfileSpec, Wavepacket, dist_to_spectrum
from .partitions import WeightDistribution
from .report import BoundReport

MAX_MATRIX_DIM = 8192
# bytes of one chunk's stacked (realizations, systems, N, N) complex array
CHUNK_BYTES = 2 << 20
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


def _rekey(rng, seed: int, index: int) -> np.random.Generator:
    """rng (Philox) reset to draw what rng_for(seed, index) draws, with no
    new generator and its OS entropy draw."""
    zeros = np.zeros(4, np.uint64)
    rng.bit_generator.state = {"bit_generator": "Philox", "state": {
        "counter": zeros, "key": np.array([seed, index], np.uint64)},
        "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


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


def potential_matrix(config, lattice: MomentumLattice,
                     profile: ProfileSpec) -> np.ndarray:
    """Coupling-free potential matrix V_{pq} = V_hat(p-q) / L^d; for a list of
    configurations, their C-contiguous stack (one exp, a k . y matmul each)."""
    configs = config if isinstance(config, list) else [config]
    btab = bhat_difference_table(profile, lattice)
    pts = _difference_points(lattice)
    # sum_gamma v_gamma exp(-2 pi i k . y_gamma) on the difference window
    S = np.zeros((len(configs), pts.shape[0]), dtype=complex)
    live = [(k, c) for k, c in enumerate(configs) if c.M]
    if live:
        phase = np.exp(-2j * np.pi * np.concatenate(
            [pts @ c.positions.T for _, c in live], axis=1))
        end = 0
        for k, c in live:
            end += c.M
            S[k] = np.ascontiguousarray(phase[:, end - c.M:end]) @ c.weights
    W = np.take((btab * S) / lattice.volume, _pair_index(lattice), axis=1)
    return W if isinstance(config, list) else W[0]


def _check_matrix(lattice: MomentumLattice, lam: float = 0.0):
    """The coupling sign and the dimension budget of a dense Hamiltonian."""
    if lam < 0:
        raise ConfigError("coupling must be nonnegative")
    if lattice.size > MAX_MATRIX_DIM:
        raise BudgetError(
            f"matrix dimension {lattice.size} over budget {MAX_MATRIX_DIM}")


def assemble_hamiltonian(config: PoissonConfig, lam: float,
                         lattice: MomentumLattice,
                         profile: ProfileSpec) -> np.ndarray:
    """The dense Hermitian H = diag(nu) + lam * V_hat(p-q)/L^d on the
    truncated window, in the lattice index basis."""
    _check_matrix(lattice, lam)
    return (np.diag(lattice.nu_values.astype(complex))
            + lam * potential_matrix(config, lattice, profile))


# ---------------------------------------------------------------------------
# resolvent solves


def _as_hat(psi, lattice):
    if isinstance(psi, Wavepacket):
        return psi_hat_vector(psi, lattice)
    vec = np.asarray(psi, dtype=complex)
    if vec.shape != (lattice.size,):
        raise ConfigError("test-function vector has wrong length")
    return vec


def _chain_terms(V, r0, p1, p2, top, volume) -> np.ndarray:
    """t_j = <psi1, R0 (V R0)^j psi2> for j = 0..top on the last axis, for
    one potential matrix V or a C-contiguous stack (..., N, N) of them, in
    one pass: each order extends the operator string of the one before.
    r0 is the free resolvent diagonal 1/(nu - z)."""
    xs = [r0 * p2]
    for _ in range(top):
        xs.append(r0 * np.matmul(V, xs[-1][..., None])[..., 0])
    return fsum_rows(np.conj(p1) * np.stack(np.broadcast_arrays(*xs), -2),
                     volume)


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
    Vmat = potential_matrix(config, lattice, profile)
    H = np.diag(nu.astype(complex)) + lam * Vmat
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
    vnorm = np.linalg.norm(Vmat, 2)
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


def map_realizations(n_units, seed, lattice, profile, dist, fn, free,
                     threads=1, systems=1) -> np.ndarray:
    """The Monte-Carlo realization pipeline: one result row per realization,
    in index order, as one array.  Realization i is drawn from the stream
    (seed, i), by one generator per chunk re-keyed to each (seed, i).  A
    realization without scatterers gets the row free; fn(W) maps the
    C-contiguous (live, N, N) potential stack of a chunk's realizations
    with scatterers, when it has any, to their rows.  A chunk's
    (count, systems, N, N) stack stays near CHUNK_BYTES whatever the thread
    count; threads run whole chunks."""
    _check_matrix(lattice)
    size = max(1, CHUNK_BYTES // (16 * systems * lattice.size**2))

    def work(lo, hi):
        rng = rng_for(seed, lo)
        cfgs = [sample_config(lattice, dist, _rekey(rng, seed, i))
                for i in range(lo, hi)]
        live = [k for k, cfg in enumerate(cfgs) if cfg.M]
        rows = np.full((hi - lo,) + np.shape(free), free)
        if live:
            rows[live] = fn(potential_matrix([cfgs[k] for k in live],
                                             lattice, profile))
        return rows

    return np.concatenate(run_ordered(
        [lambda lo=lo, hi=hi: work(lo, hi)
         for lo, hi in chunk_ranges(n_units, size)], threads))


def _result(units, n_samples, seed) -> EstimatorResult:
    mean = (fsum_c if np.iscomplexobj(units) else fsum_r)(units) / len(units)
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
        val = complex(_chain_terms(None, r0, p1, p2, 0, volume)[0])
        return EstimatorResult(mean=val, std_error=0.0, n_samples=n_samples,
                               seed=seed)

    units = map_realizations(
        n_samples, seed, lattice, profile, dist,
        lambda W: _chain_terms(W, r0, p1, p2, n, volume)[:, n], 0j, threads)
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
    for lam in lams:
        _check_matrix(lattice, lam)
    orders = sorted(controls)
    p1 = _as_hat(psi1, lattice)
    p2 = _as_hat(psi2, lattice)
    nu = lattice.nu_values
    D = np.diag(nu.astype(complex))
    r0 = 1.0 / (nu - z)
    z_eye = z * np.eye(lattice.size)
    volume = lattice.volume
    signs = (1, -1) if antithetic else (1,)
    members = [(lam, sign) for lam in lams for sign in signs]
    coefs = np.array([sign * lam for lam, sign in members])[:, None, None]
    # per control order: every member's sign^j (the flip) and (-lam)^j
    powers = {j: np.array([(sign**j, (-lam) ** j) for lam, sign in members]).T
              for j in orders}

    def chunk(W):
        """Every coupling and sign of a potential stack in one stacked
        solve, then the controls and the pair mean in scalar order."""
        A = coefs * W[:, None]  # c V + diag(nu) == diag(nu) + c V, exactly
        A += D
        A -= z_eye
        if not (np.isfinite(A).all() and np.isfinite(p2).all()):
            raise ValueError("array must not contain infs or NaNs")
        vals = fsum_rows(
            np.conj(p1) * np.linalg.solve(A, p2[:, None])[..., 0], volume)
        t = _chain_terms(W, r0, p1, p2, orders[-1], volume) if orders else None
        for j in orders:
            vals -= powers[j][1] * (t[:, j, None] * powers[j][0] - controls[j])
        return 0.5 * (vals[:, ::2] + vals[:, 1::2]) if antithetic else vals

    # every realization without scatterers has V = 0: its row, once here
    free = chunk(np.zeros((1,) + D.shape, dtype=complex))[0]
    n_units = n_samples // 2 if antithetic else n_samples
    units = map_realizations(n_units, seed, lattice, profile, dist, chunk,
                             free, threads, len(coefs))
    return [_result(units[:, k], n_samples, seed) for k in range(len(lams))]


# ---------------------------------------------------------------------------
# smoothed traces


def _trace_from_eigs(mu, chi, eta, volume, a, b) -> float:
    """The sum over mu of (chi * gamma_eta)(mu), by ``gl_integrate``, / volume."""
    return fsum_r(gl_integrate(
        lambda x: (eta / np.pi) / ((mu[:, None] - x) ** 2 + eta**2) * chi(x),
        np.linspace(a, b, 9), 1e-10)) / volume


def _stone_from_eigs(mu, chi, eta, volume, a, b) -> float:
    # a fixed rule of 125 panels (2000 nodes), independent of the route above
    x, w = gl_nodes(tuple(np.linspace(a, b, 126).tolist()))
    dens = np.sum((eta / np.pi) / ((mu[:, None] - x[None, :]) ** 2 + eta**2),
                  axis=0)
    return fsum_r(w * chi(x) * dens) / volume
