"""Density-of-states expansion and its Monte Carlo comparison.

The order-n DOS coefficient combines the expansion coefficient at E + i eta
and E - i eta, with plane-wave test functions whose normalization collapses
the outer momentum sum.  The combination is real by conjugation symmetry.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import partitions as pt
from ._accum import fsum_c, fsum_r, gl_integrate
from .coefficients import (
    _chain_sum,
    _escape_bound,
    _prefactor,
    bhat_difference_table,
    bhat_star_norms,
)
from .errors import BudgetError, ConfigError
from .lattice import int_box, profile_periodized_value
from .montecarlo import (
    EstimatorResult,
    _check_matrix,
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

    @property
    def mass(self):  # the bump's integral; K1(1/2) - K0(1/2) as a literal
        return self.width * math.sqrt(math.e) * 0.732022048775635

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


def _dos_value(n, rows, E, eta, lattice, btab) -> complex:
    """Sum over the live rows of the order-n coefficient's (1/2i) difference
    of the two boundary values at E +- i eta.  btab is real, so the chain
    sum at E - i eta is the exact conjugate of the one at E + i eta."""
    zp = complex(E, eta)
    vals = []
    for row in rows:
        rp, _ = _chain_sum(row.partition, lattice, btab, (zp,) * (n + 1))
        vals.append(_prefactor(row, lattice) * fsum_c((rp - np.conj(rp)) / 2j))
    return fsum_c(vals)


def dos_coefficient_D(n, E, eta, lattice, profile, dist) -> DosCoefficient:
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
                       bhat_difference_table(profile, lattice))
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


def _outer_resolvent_tail(lattice, E, eta) -> float:
    """(1/L^d) * sum over window-escaping outer momenta of
    ((nu-E)^2+eta^2)^{-1}."""
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
    return (exact + rem) / lattice.volume


def _dos_tail(n, lattice, profile, dist, E, eta) -> float:
    """Bound on the window-truncation error of the order-n DOS coefficient:
    at order 0 the smoothed outer sum past the window; from order 1 on,
    ``_escape_bound`` on ((nu-E)^2+eta^2)^{-1} summed past the window (the
    outer momentum leaves), in the half-window (a free one escapes) and on
    the ring between (at full weight)."""
    r2_out = _outer_resolvent_tail(lattice, E, eta)
    if n == 0:
        return eta * r2_out
    w = 1.0 / ((lattice.nu_values - E) ** 2 + eta**2)
    half = np.max(np.abs(lattice.ints), axis=-1) <= lattice.K // 2
    s1, _ = bhat_star_norms(profile, lattice.L, lattice.K, lattice.d)
    total = _escape_bound(n, lattice, profile, dist, r2_out,
                          fsum_r(w[half]) / lattice.volume,
                          fsum_r(w[~half]) / lattice.volume, s1)
    return total * eta ** (-(n - 1))


# ---------------------------------------------------------------------------
# expansion and MC comparison


def _dos_edges(a, b, eta, nu):
    """Panels on [a, b], half as wide as their left edge is far from the
    nearest lattice energy nu, clipped to [eta, (b - a)/8]."""
    h = (b - a) / 8.0
    near = np.unique(nu[(nu > a - h) & (nu < b + h)])
    edges = [a]
    while edges[-1] < b:
        dist = float(np.min(np.abs(near - edges[-1]))) if near.size else h
        step = min(h, max(eta, 0.5 * dist))
        edges.append(edges[-1] + step if b - edges[-1] > 1.5 * step else b)
    return edges


def dos_expansion(chi, lam, eps, N_target, lattice, profile, dist, *,
                  eta=None):
    """Partial DOS expansion integrated against chi.

    Returns (total, rows, meta).  Each row integrates one order over the
    support of chi by ``gl_integrate`` on ``_dos_edges``, whose panels
    shrink toward the order integrands' width-eta peaks; the signed
    coupling power (-lam)^n matches the resolvent expansion.  eta defaults
    to lam^(2-eps).  Orders beyond the dimension cap are not computed.
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
    edges = _dos_edges(a, b, eta, lattice.nu_values)
    btab = bhat_difference_table(profile, lattice)

    rows = []
    for n in range(top + 1):
        live = pt.live_partitions(n, dist)
        if not live:
            rows.append({"n": n, "E": "integrated", "eta": eta, "value": 0.0,
                         "tail_bound": 0.0})
            continue

        # the quadrature nodes need only the value; the tail bound is
        # evaluated where it is reported
        def integrand(Es):
            return chi(Es) * np.array([_dos_value(
                n, live, E, eta, lattice, btab).real for E in Es.tolist()])

        val = float(gl_integrate(integrand, edges, 1e-11))
        term = ((-lam) ** n / math.pi) * val
        tmax = max(_dos_tail(n, lattice, profile, dist, Ept, eta)
                   for Ept in np.linspace(a + 1e-9, b - 1e-9, 5))
        rows.append({
            "n": n, "E": "integrated", "eta": eta, "value": term,
            "tail_bound": (lam**n / math.pi) * tmax * chi.mass,
        })
    total = math.fsum(row["value"] for row in rows)
    meta = {"eta": eta, "order_cap": cap, "requested_order": N_target,
            "capped": N_target > cap}
    return total, rows, meta


def dos_mc(chi, lam, eta, n_samples, seed, lattice, profile, dist, *,
           threads=1, check_routes=False):
    """MC mean of the smoothed trace over disorder realizations.

    With check_routes, also returns the worst per-sample difference between
    the eigendecomposition route and the boundary-value quadrature route.
    """
    if eta <= 0:
        raise ConfigError("eta must be positive")
    if n_samples < 2:
        raise ConfigError("need at least two samples")
    _check_matrix(lattice, lam)
    a, b = chi.support
    D = np.diag(lattice.nu_values.astype(complex))
    volume = lattice.volume

    def row(mu):
        return (_trace_from_eigs(mu, chi, eta, volume, a, b),
                _stone_from_eigs(mu, chi, eta, volume, a, b)
                if check_routes else 0.0)

    # every realization without scatterers has the spectrum of diag(nu):
    # its row is computed once here
    free = row(np.linalg.eigvalsh(D))

    def traces(count, live, W):
        rows = np.full((count, 2), free)
        if live:
            rows[live] = [row(mu) for mu in np.linalg.eigvalsh(D + lam * W)]
        return rows

    units, stone = map_realizations(n_samples, seed, lattice, profile, dist,
                                    traces, threads).T
    mean = fsum_r(units) / n_samples
    result = EstimatorResult(mean=mean, std_error=_se_complex(units, mean),
                             n_samples=n_samples, seed=seed)
    if not check_routes:
        return result
    # np.max keeps a NaN difference instead of dropping it
    return result, float(np.max(np.abs(units - stone)))


# ---------------------------------------------------------------------------
# trace-class and eta-scaling checks


MAX_SUP_POINTS = 1_000_000_000  # scatterer x grid point pairs, ~25 ns each


def potential_sup(config, lam, lattice, profile) -> float:
    """Sup of the realized potential on a dense spatial grid."""
    d, L = lattice.d, lattice.L
    pts_per_axis = {1: 4001, 2: 201, 3: 41}[d]
    if config.M * pts_per_axis**d > MAX_SUP_POINTS:
        raise BudgetError(f"potential sup: {config.M} scatterers x "
                          f"{pts_per_axis**d} points over {MAX_SUP_POINTS}")
    axes = [np.linspace(-L / 2, L / 2, pts_per_axis, endpoint=False)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    x = np.stack([g.ravel() for g in mesh], axis=-1)
    vals = np.zeros(x.shape[0])
    for gamma in range(config.M):
        vals += config.weights[gamma] * profile_periodized_value(
            profile, x - config.positions[gamma], L)
    return lam * float(np.max(np.abs(vals))) if config.M else 0.0


def trace_class_bound_check(config, lam, f, C_f, lattice,
                            profile) -> BoundReport:
    """tr|f(H)| <= C_f (2||V||_inf^2 + 2) tr((kinetic)^2 + 1)^{-1} on the
    truncated model, for |f| <= C_f <.>^{-2}."""
    vsup = potential_sup(config, lam, lattice, profile)  # budget first
    H = assemble_hamiltonian(config, lam, lattice, profile)
    mu = np.linalg.eigvalsh(H.entries)
    lhs = fsum_r(np.abs(f(mu)))
    rhs = C_f * (2.0 * vsup**2 + 2.0) * fsum_r(1.0 / (lattice.nu_values**2 + 1.0))
    return BoundReport(
        name="trace_class",
        lhs=lhs,
        rhs=rhs,
        context={"lam": lam, "M": config.M, "V_sup": vsup},
    )


def dos_eta_grid_check(E, lattice) -> BoundReport:
    """Shape check of the smoothed free density in eta: a single constant
    calibrated at eta=1 must cover 13 etas from 1e-3 to 1 under the
    (eta + 1/eta) envelope, up to a slack of 10."""
    c_meas = dos_density_order0(E, 1.0, lattice) / 2.0
    worst = 0.0
    worst_eta = None
    for eta in np.geomspace(1e-3, 1.0, 13):
        ratio = dos_density_order0(E, float(eta), lattice) / (
            c_meas * (eta + 1.0 / eta))
        if ratio > worst:
            worst = ratio
            worst_eta = float(eta)
    return BoundReport(
        name="dos_eta_scaling",
        lhs=worst,
        rhs=10.0,
        context={"E": E, "calibration_constant": c_meas,
                 "worst_eta": worst_eta},
    )
