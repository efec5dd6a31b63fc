"""Density-of-states expansion and its Monte Carlo comparison.

The order-n DOS coefficient combines the expansion coefficient at E + i eta
and E - i eta, with plane-wave test functions whose normalization collapses
the outer momentum sum.  The combination is real by conjugation symmetry;
the imaginary residual is tracked as a diagnostic.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import partitions as pt
from ._accum import fsum_c, fsum_r
from .coefficients import (
    DEFAULT_TERM_BUDGET,
    _chain_sum,
    _free_escape_sums,
    _prefactor,
    bhat_difference_table,
    bhat_star_norms,
)
from .errors import BudgetError, ConfigError
from .lattice import int_box, profile_periodized_value
from .montecarlo import (
    EstimatorResult,
    _check_matrix,
    _hamiltonian,
    _se_complex,
    _stone_from_eigs,
    _trace_from_eigs,
    assemble_hamiltonian,
    map_realizations,
)
# unused here, but perfbench/tracer.py wraps these bindings
from .lattice import profile_axis_envelope  # noqa: F401
from .montecarlo import sample_config  # noqa: F401
from .report import BoundReport


@dataclass(frozen=True)
class ChiBump:
    """Smooth bump test function exp(1 - 1/(1 - t^2)), t = (E-center)/width,
    supported on (center-width, center+width) which must lie in (0, inf)."""

    center: float
    width: float

    def __post_init__(self):
        if self.width <= 0:
            raise ConfigError("bump width must be positive")
        if self.center - self.width <= 0:
            raise ConfigError("bump support must stay inside (0, inf)")

    @property
    def support(self):
        return (self.center - self.width, self.center + self.width)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        t = (x - self.center) / self.width
        out = np.zeros_like(t)
        inside = np.abs(t) < 1.0
        ti = t[inside]
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
        return out if out.ndim else float(out)


@dataclass
class DosCoefficient:
    n: int
    E: float
    eta: float
    value: float
    tail_bound: float
    imag_residual: float = 0.0


def _order_cap(d: int) -> int:
    return 3 if d == 1 else 2


def _dos_value(n, rows, E, eta, lattice, btab, *, threads, budget) -> complex:
    """Sum over the live rows of the order-n coefficient's (1/2i) difference
    of the two boundary values at E +- i eta."""
    zp = complex(E, eta)
    zm = complex(E, -eta)
    vals = []
    for row in rows:
        rp, _ = _chain_sum(row.partition, lattice, btab, (zp,) * (n + 1),
                           threads=threads, budget=budget)
        rm, _ = _chain_sum(row.partition, lattice, btab, (zm,) * (n + 1),
                           threads=threads, budget=budget)
        vals.append(_prefactor(row, lattice) * fsum_c((rp - rm) / 2j))
    return fsum_c(vals)


def dos_coefficient_D(n, E, eta, lattice, profile, dist, *, threads=1,
                      budget=DEFAULT_TERM_BUDGET) -> DosCoefficient:
    """DOS expansion coefficient at order n.

    Per partition, the plane-wave collapse leaves the chain sum itself per
    outer momentum; the (1/2i) difference of the two boundary values is
    accumulated over the window.
    """
    if eta <= 0:
        raise ConfigError("eta must be positive")
    if n > _order_cap(lattice.d):
        raise BudgetError(
            f"DOS order {n} over the d={lattice.d} cap {_order_cap(lattice.d)}")
    total = _dos_value(n, pt.live_partitions(n, dist), E, eta, lattice,
                       bhat_difference_table(profile, lattice),
                       threads=threads, budget=budget)
    return DosCoefficient(
        n=n, E=float(E), eta=float(eta), value=float(total.real),
        tail_bound=_dos_tail(n, lattice, profile, dist, E, eta),
        imag_residual=abs(total.imag),
    )


def dos_density_order0(E, eta, lattice) -> float:
    """Closed form of the order-0 coefficient: the smoothed free counting
    density (1/L^d) sum of eta/((nu-E)^2 + eta^2)."""
    nuv = lattice.nu_values
    return fsum_r(eta / ((nuv - E) ** 2 + eta**2)) / lattice.volume


# ---------------------------------------------------------------------------
# truncation tails for the DOS coefficient


def _outer_resolvent_tail(lattice, E, eta, smoothed: bool) -> float:
    """(1/L^d) * sum over window-escaping outer momenta of
    ((nu-E)^2+eta^2)^{-1}, times eta if smoothed (order-0 form)."""
    d, K, L = lattice.d, lattice.K, lattice.L
    X = {1: 4096, 2: 512, 3: 64}[d]
    X = max(X, 4 * K, int(2 * L * math.sqrt(max(E, 1.0))) + 1)
    ints = int_box(d, X)
    outside = np.max(np.abs(ints), axis=-1) > K
    nuv = 0.5 * np.sum((ints[outside] / L) ** 2, axis=-1)
    w = 1.0 / ((nuv - E) ** 2 + eta**2)
    exact = fsum_r(w)
    # beyond X: nu >= (s/L)^2/2 >= 2E, so (nu-E)^2 >= (s/L)^4/16, and the
    # shell |m|_inf = s has at most 2d(3s)^(d-1) points
    rem = 32.0 * d * 3 ** (d - 1) * L**4 * X ** (d - 4) / (4 - d)
    total = (exact + rem) / lattice.volume
    return eta * total if smoothed else total


def _window_resolvent_sums(lattice, E, eta):
    """((nu-E)^2+eta^2)^{-1} summed over the inner half-window and over the
    outer ring of the window, both 1/L^d-normalized."""
    K = lattice.K
    ints = lattice.ints
    nuv = lattice.nu_values
    w = 1.0 / ((nuv - E) ** 2 + eta**2)
    half = np.max(np.abs(ints), axis=-1) <= K // 2
    return fsum_r(w[half]) / lattice.volume, fsum_r(w[~half]) / lattice.volume


def _dos_tail(n, lattice, profile, dist, E, eta) -> float:
    """Bound on the window-truncation error of the order-n DOS coefficient.

    Escapes are charged to the outer momentum (beyond the window), to a
    free momentum exceeding K/(2m) while the outer momentum sits in the
    half-window, or to the outer ring of the window at full weight; the
    two outer-momentum resolvent factors are kept in each case.
    """
    if n == 0:
        return _outer_resolvent_tail(lattice, E, eta, smoothed=True)
    d, K, L = lattice.d, lattice.K, lattice.L
    r2_out = _outer_resolvent_tail(lattice, E, eta, smoothed=False)
    r2_half, r2_ring = _window_resolvent_sums(lattice, E, eta)
    s1, _ = bhat_star_norms(profile, L, K, d)
    normB1 = profile.norm_l1(d)

    total = 0.0
    for _, w, m, blocks in pt.live_partitions(n, dist):
        outer = s1**m * r2_out
        if m:
            SB_all, SB_thr = _free_escape_sums(profile, lattice, m)
            free_esc = r2_half * m * max(0.0, SB_all - SB_thr) * SB_all ** (m - 1)
            ring = r2_ring * SB_all**m
        else:
            free_esc = 0.0
            ring = r2_ring
        total += abs(w) * normB1**blocks * (outer + free_esc + ring)
    return total * eta ** (-(n - 1)) if n > 1 else total


# ---------------------------------------------------------------------------
# expansion and MC comparison


def dos_expansion(chi, lam, eps, N_target, lattice, profile, dist, *,
                  eta=None, threads=1, quad_rtol=1e-8,
                  budget=DEFAULT_TERM_BUDGET):
    """Partial DOS expansion integrated against chi.

    Returns (total, rows, meta).  Each row integrates one order over the
    support of chi by adaptive quadrature; the signed coupling power
    (-lam)^n matches the resolvent expansion.  eta defaults to lam^(2-eps).
    Orders beyond the dimension cap are not computed; the cap is recorded.
    """
    if not 0 < eps < 2:
        raise ConfigError("eps must lie in (0, 2)")
    if N_target < 0:
        raise ConfigError("N_target must be nonnegative")
    if eta is None:
        if lam <= 0:
            raise ConfigError("eta must be given explicitly when lam == 0")
        eta = lam ** (2.0 - eps)
    if eta <= 0:
        raise ConfigError("eta must be positive")
    a, b = chi.support
    cap = _order_cap(lattice.d)
    top = min(N_target, cap)
    chi_mass, _ = quad(chi, a, b, epsabs=1e-14, epsrel=1e-10, limit=200)
    btab = bhat_difference_table(profile, lattice)

    rows = []
    for n in range(top + 1):
        live = pt.live_partitions(n, dist)
        if not live:
            rows.append({"n": n, "E": "integrated", "eta": eta, "value": 0.0,
                         "tail_bound": 0.0, "quad_error": 0.0})
            continue

        # the quadrature nodes need only the value; the tail bound is
        # evaluated where it is reported
        def integrand(E):
            return chi(E) * float(_dos_value(n, live, E, eta, lattice, btab,
                                             threads=threads,
                                             budget=budget).real)

        val, abserr = quad(integrand, a, b, epsrel=quad_rtol, epsabs=1e-14,
                           limit=200)
        term = ((-lam) ** n / math.pi) * val
        tmax = max(_dos_tail(n, lattice, profile, dist, Ept, eta)
                   for Ept in np.linspace(a + 1e-9, b - 1e-9, 5))
        rows.append({
            "n": n, "E": "integrated", "eta": eta, "value": term,
            "tail_bound": (lam**n / math.pi) * tmax * chi_mass,
            "quad_error": (lam**n / math.pi) * abserr,
        })
    total = math.fsum(row["value"] for row in rows)
    meta = {"eta": eta, "order_cap": cap, "requested_order": N_target,
            "capped": N_target > cap}
    return total, rows, meta


def dos_mc(chi, lam, eta, n_samples, seed, lattice, profile, dist, *,
           threads=1, check_routes=False, rtol=1e-10):
    """MC mean of the smoothed trace over disorder realizations.

    With check_routes, also returns the worst per-sample difference between
    the eigendecomposition route and the boundary-value quadrature route.
    """
    if lattice.d > 3:
        raise ConfigError("smoothed traces are restricted to d <= 3")
    if eta <= 0:
        raise ConfigError("eta must be positive")
    _check_matrix(lattice, lam)
    a, b = chi.support
    nu_c = lattice.nu_values.astype(complex)
    volume = lattice.volume

    def traces(V):
        mu = np.linalg.eigvalsh(_hamiltonian(nu_c, lam, V))
        val = _trace_from_eigs(mu, chi, eta, volume, a, b, rtol)
        if not check_routes:
            return val, None
        return val, _stone_from_eigs(mu, chi, eta, volume, a, b)

    pairs = map_realizations(n_samples, seed, lattice, profile, dist, traces,
                             threads)
    units = [val for val, _ in pairs]
    mean = fsum_r(units) / n_samples
    result = EstimatorResult(mean=mean, std_error=_se_complex(units, mean),
                             n_samples=n_samples, seed=seed)
    if not check_routes:
        return result
    route_diff = 0.0
    for val, stone in pairs:
        # np.maximum keeps a NaN difference instead of dropping it
        route_diff = float(np.maximum(route_diff, abs(val - stone)))
    return result, route_diff


# ---------------------------------------------------------------------------
# trace-class and eta-scaling checks


def potential_sup(config, lam, lattice, profile, pts_per_axis=None) -> float:
    """Sup of the realized potential on a dense spatial grid."""
    d, L = lattice.d, lattice.L
    pts_per_axis = pts_per_axis or {1: 4001, 2: 201, 3: 41}[d]
    axes = [np.linspace(-L / 2, L / 2, pts_per_axis, endpoint=False)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    x = np.stack([g.ravel() for g in mesh], axis=-1)
    vals = np.zeros(x.shape[0])
    for gamma in range(config.M):
        vals += config.weights[gamma] * profile_periodized_value(
            profile, x - config.positions[gamma], L)
    return lam * float(np.max(np.abs(vals))) if config.M else 0.0


def trace_class_bound_check(config, lam, f, C_f, lattice, profile, *,
                            pts_per_axis=None) -> BoundReport:
    """tr|f(H)| <= C_f (2||V||_inf^2 + 2) tr((kinetic)^2 + 1)^{-1} on the
    truncated model, for |f| <= C_f <.>^{-2}."""
    if lattice.d > 3:
        raise ConfigError("trace-class check is restricted to d <= 3")
    H = assemble_hamiltonian(config, lam, lattice, profile)
    mu = np.linalg.eigvalsh(H.entries)
    lhs = fsum_r(np.abs(f(mu)))
    vsup = potential_sup(config, lam, lattice, profile, pts_per_axis)
    rhs = C_f * (2.0 * vsup**2 + 2.0) * fsum_r(1.0 / (lattice.nu_values**2 + 1.0))
    return BoundReport(
        name="trace_class",
        lhs=lhs,
        rhs=rhs,
        context={"lam": lam, "M": config.M, "V_sup": vsup},
    )


def dos_eta_grid_check(E, lattice, *, eta_grid=None, slack=10.0) -> BoundReport:
    """Shape check of the smoothed free density in eta: a single constant
    calibrated at eta=1 must cover the whole grid under the (eta + 1/eta)
    envelope, up to the stated slack."""
    if eta_grid is None:
        eta_grid = np.geomspace(1e-3, 1.0, 13)
    c_meas = dos_density_order0(E, 1.0, lattice) / 2.0
    worst = 0.0
    worst_eta = None
    for eta in eta_grid:
        ratio = dos_density_order0(E, float(eta), lattice) / (
            c_meas * (eta + 1.0 / eta))
        if ratio > worst:
            worst = ratio
            worst_eta = float(eta)
    return BoundReport(
        name="dos_eta_scaling",
        lhs=worst,
        rhs=slack,
        context={"E": E, "calibration_constant": c_meas,
                 "worst_eta": worst_eta},
    )
