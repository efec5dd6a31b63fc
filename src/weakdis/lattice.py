"""Box geometry, truncated momentum lattice, dispersion, and periodized
Fourier transforms of profile and test functions.

Conventions
-----------
The box is ``[-L/2, L/2)^d`` with volume ``L^d``.  Momenta live on the dual
lattice ``(Z/L)^d``, truncated to integer coordinates with max-norm at most
``K``.  The discrete integral of a lattice function is ``(1/L^d) * sum``.
The dispersion is ``nu(p) = |p|^2 / 2``.  The periodized Fourier transform
of a function ``f`` is the box-truncated integral

    f_hat(k) = integral over [-L/2, L/2)^d of f(x) exp(-2 pi i k.x) dx,

evaluated in closed form (with complementary-error-function boundary
corrections for Gaussians) via the Faddeeva function (Weideman's series).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# unused here, but perfbench/tracer.py wraps these bindings
from ._accum import fsum_c, fsum_r  # noqa: F401
from .errors import BudgetError, ConfigError

DEFAULT_MAX_POINTS = 500_000


# ---------------------------------------------------------------------------
# lattice


@dataclass(frozen=True)
class MomentumLattice:
    """Truncated dual lattice of the periodic box.

    Points are ``m / L`` for integer vectors ``m`` with ``max_j |m_j| <= K``,
    enumerated in lexicographic order of ``m`` (first coordinate slowest).
    """

    d: int
    L: float
    K: int

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ConfigError(f"dimension must be 1, 2 or 3, got {self.d}")
        if self.L < 1:
            raise ConfigError(f"box side must be >= 1, got {self.L}")
        if self.K < 1:
            raise ConfigError(f"cutoff must be >= 1, got {self.K}")

    @property
    def volume(self) -> float:
        return float(self.L) ** self.d

    @property
    def size(self) -> int:
        return (2 * self.K + 1) ** self.d

    @property
    def ints(self) -> np.ndarray:
        """Integer coordinates, shape (size, d), lexicographic order."""
        return _int_grid(self.d, self.K)

    @property
    def points(self) -> np.ndarray:
        """Momentum points m/L, shape (size, d)."""
        return self.ints / self.L

    @property
    def nu_values(self) -> np.ndarray:
        return nu(self.points)


def int_box(d, X) -> np.ndarray:
    """Integer points m of Z^d with max_j |m_j| <= X, shape ((2X+1)^d, d), in
    lexicographic order (first coordinate slowest); one empty point at d = 0.
    Built fresh on every call."""
    if d == 0:
        return np.zeros((1, 0), dtype=np.int64)
    mesh = np.meshgrid(*([np.arange(-X, X + 1)] * d), indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


@lru_cache(maxsize=None)
def _int_grid(d, K):
    """Cached, read-only int_box(d, K): the lattice window."""
    grid = int_box(d, K)
    grid.setflags(write=False)
    return grid


def build_lattice(d, L, K, max_points=DEFAULT_MAX_POINTS) -> MomentumLattice:
    """Construct the truncated momentum lattice, enforcing the size budget."""
    if d not in (1, 2, 3):
        raise ConfigError(f"dimension must be 1, 2 or 3, got {d}")
    if (2 * int(K) + 1) ** d > max_points:
        raise BudgetError(
            f"(2K+1)^d = {(2 * int(K) + 1) ** d} exceeds the budget {max_points}"
        )
    return MomentumLattice(d=int(d), L=float(L), K=int(K))


def nu(p) -> np.ndarray:
    """Dispersion nu(p) = |p|^2 / 2, vectorized over the last axis."""
    p = np.asarray(p, dtype=float)
    return 0.5 * np.sum(p * p, axis=-1)


def dist_to_spectrum(z: complex) -> float:
    """Distance of the spectral parameter to [0, infinity)."""
    z = complex(z)
    if z.imag == 0:
        raise ConfigError("spectral parameter must have nonzero imaginary part")
    if z.real >= 0:
        return abs(z.imag)
    return abs(z)


# ---------------------------------------------------------------------------
# profiles and wavepackets


@dataclass(frozen=True)
class ProfileSpec:
    """Single-site potential profile, a product of identical 1-D factors.

    kind "gaussian": B(x) = b0 * prod_j exp(-pi * sigma * x_j^2).
    kind "cosine-bump": B(x) = b0 * prod_j cos^2(pi x_j / (2 r)) on |x_j| <= r,
    zero outside (compact support; requires r < L/2 wherever a box enters).
    Both kinds are reflection-symmetric in every coordinate.
    """

    kind: str
    b0: float = 1.0
    sigma: float = 1.0
    r: float = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "cosine-bump"):
            raise ConfigError(f"unknown profile kind {self.kind!r}")
        if self.kind == "gaussian" and not self.sigma > 0:
            raise ConfigError("gaussian profile needs sigma > 0")
        if self.kind == "cosine-bump" and (self.r is None or not self.r > 0):
            raise ConfigError("cosine-bump profile needs a support radius r > 0")

    # -- position space -----------------------------------------------------

    def axis_value(self, t):
        """One-dimensional factor of the profile (without b0)."""
        t = np.asarray(t, dtype=float)
        if self.kind == "gaussian":
            return np.exp(-np.pi * self.sigma * t * t)
        inside = np.abs(t) <= self.r
        out = np.zeros_like(t)
        out[inside] = np.cos(np.pi * t[inside] / (2 * self.r)) ** 2
        return out

    def axis_derivative(self, t, order):
        """Derivative of the 1-D factor, orders 0..2 (used by decay checks)."""
        t = np.asarray(t, dtype=float)
        if self.kind == "gaussian":
            s = np.pi * self.sigma
            g = np.exp(-s * t * t)
            if order == 0:
                return g
            if order == 1:
                return -2.0 * s * t * g
            if order == 2:
                return (4.0 * s * s * t * t - 2.0 * s) * g
        else:
            w = np.pi / self.r
            inside = np.abs(t) <= self.r
            out = np.zeros_like(t)
            if order == 0:
                out[inside] = np.cos(w * t[inside] / 2) ** 2
            elif order == 1:
                out[inside] = -(w / 2) * np.sin(w * t[inside])
            elif order == 2:
                out[inside] = -(w * w / 2) * np.cos(w * t[inside])
            return out
        raise ConfigError("derivative order must be 0, 1 or 2")

    def value(self, x):
        """Profile value at positions x of shape (..., d)."""
        x = np.asarray(x, dtype=float)
        vals = self.b0 * np.ones(x.shape[:-1])
        for j in range(x.shape[-1]):
            vals = vals * self.axis_value(x[..., j])
        return vals

    def norm_l1(self, d) -> float:
        """Full-space integral of |B| over R^d."""
        if self.kind == "gaussian":
            per_axis = self.sigma ** (-0.5)
        else:
            per_axis = self.r  # integral of cos^2 over one period of support
        return abs(self.b0) * per_axis**d

    def support_radius(self) -> float:
        """Radius beyond which the 1-D factor is negligible (exact for bumps)."""
        if self.kind == "cosine-bump":
            return self.r
        # exp(-pi sigma t^2) < 1e-18 suffices for double precision sums
        return math.sqrt(18 * math.log(10) / (math.pi * self.sigma))


@dataclass(frozen=True)
class Wavepacket:
    """Normalized Gaussian test function c * exp(-pi s |x-x0|^2 + 2 pi i a.x).

    The constant is chosen so the full-space L^2 norm is one.
    """

    x0: tuple
    a: tuple
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ConfigError("wavepacket width must be positive")
        object.__setattr__(self, "x0", tuple(float(v) for v in np.atleast_1d(self.x0)))
        object.__setattr__(self, "a", tuple(float(v) for v in np.atleast_1d(self.a)))
        if len(self.x0) != len(self.a):
            raise ConfigError("x0 and a must have the same dimension")

    @property
    def d(self) -> int:
        return len(self.x0)

    @property
    def normalization(self) -> float:
        return (2.0 * self.sigma) ** (self.d / 4.0)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        x0 = np.asarray(self.x0)
        a = np.asarray(self.a)
        quad = np.sum((x - x0) ** 2, axis=-1)
        phase = np.sum(x * a, axis=-1)
        return self.normalization * np.exp(
            -np.pi * self.sigma * quad + 2j * np.pi * phase
        )


# ---------------------------------------------------------------------------
# periodized Fourier transforms (box-truncated integrals, closed forms)

# Weideman's rational series for w(z) (SIAM J. Numer. Anal. 31 (1994) 1497),
# N = 64 terms: within 5e-14 relative of scipy's wofz (see the lattice tests)
_W_N = 64
_W_ELL = math.sqrt(_W_N / math.sqrt(2.0))
_W_T = _W_ELL * np.tan(np.arange(1 - 2 * _W_N, 2 * _W_N) * np.pi / (4 * _W_N))
_W_COEFS = (np.fft.fft(np.fft.fftshift(np.r_[0.0, np.exp(-_W_T**2) * (
    _W_ELL**2 + _W_T**2)])).real / (4 * _W_N))[_W_N:0:-1]  # Horner order


def _faddeeva(z):
    """w(z) = exp(-z^2) erfc(-iz) on the closed upper half plane."""
    lz = _W_ELL - 1j * z
    Z, p = (_W_ELL + 1j * z) / lz, 0.0
    for c in _W_COEFS:
        p = p * Z + c
    return 2.0 * p / lz**2 + (1.0 / math.sqrt(math.pi)) / lz


def _gauss_box_ft_axis(sigma, L, q, x0=0.0):
    """Box-truncated Fourier integral of exp(-pi sigma (x-x0)^2) at frequency q.

    Evaluates int_{-L/2}^{L/2} exp(-pi sigma (x-x0)^2 - 2 pi i q x) dx through
    the scaled Faddeeva function, which stays finite where the textbook
    erf-difference form overflows.
    """
    q = np.asarray(q, dtype=float)
    rs = math.sqrt(sigma)
    beta = math.sqrt(math.pi / sigma) * q
    alpha_hi = math.sqrt(math.pi * sigma) * (L / 2 - x0)
    alpha_lo = math.sqrt(math.pi * sigma) * (L / 2 + x0)
    if alpha_hi <= 0 or alpha_lo <= 0:
        raise ConfigError("wavepacket center must lie strictly inside the box")
    full = np.exp(-beta * beta)
    tail_hi = 0.5 * math.exp(-alpha_hi**2) * np.exp(-2j * alpha_hi * beta) * (
        _faddeeva(-beta + 1j * alpha_hi))
    tail_lo = 0.5 * math.exp(-alpha_lo**2) * np.exp(2j * alpha_lo * beta) * (
        _faddeeva(beta + 1j * alpha_lo))
    phase = np.exp(-2j * np.pi * q * x0)
    return phase * (full - tail_hi - tail_lo) / rs


def _bump_ft_axis(r, q):
    """Exact Fourier integral of cos^2(pi x / 2r) on [-r, r] at frequency q.

    Equals r * sinc(2 q r) / (1 - (2 q r)^2) with the removable singularity
    at |2 q r| = 1 filled in by the stable local form.
    """
    q = np.asarray(q, dtype=float)
    w = 2.0 * q * r
    aw = np.abs(w)
    near = np.abs(aw - 1.0) < 0.5
    out = np.empty_like(w)
    safe = ~near
    with np.errstate(divide="ignore", invalid="ignore"):
        out[safe] = r * np.sinc(w[safe]) / (1.0 - w[safe] ** 2)
    out[near] = r * np.sinc(aw[near] - 1.0) / (aw[near] * (1.0 + aw[near]))
    return out


def profile_fourier_periodized(profile: ProfileSpec, p, L):
    """Periodized Fourier transform B_hat(p) of the profile, in closed form
    (exact to rounding).

    Parameters
    ----------
    p : array_like, shape (..., d) or (d,)
        Momentum points (ordinarily on the dual lattice).
    L : float
        Box side.

    Returns
    -------
    Real values (the shipped profiles are centered and symmetric), one per
    input point.
    """
    if profile.kind == "cosine-bump" and not profile.r < L / 2:
        raise ConfigError("cosine-bump support radius must satisfy r < L/2")
    p = np.asarray(p, dtype=float)
    scalar = p.ndim == 1
    pts = np.atleast_2d(p)
    vals = np.full(pts.shape[0], profile.b0, dtype=float)
    for j in range(pts.shape[1]):
        if profile.kind == "gaussian":
            axis = _gauss_box_ft_axis(profile.sigma, L, pts[:, j]).real
        else:
            axis = _bump_ft_axis(profile.r, pts[:, j])
        vals = vals * axis
    return vals[0] if scalar else vals


def wavepacket_fourier_periodized(psi: Wavepacket, p, L):
    """Periodized Fourier transform psi_hat(p) of a wavepacket.

    Same box-truncated integral as for profiles; complex in general because
    a nonzero wavevector or off-center position breaks the symmetry.
    """
    p = np.asarray(p, dtype=float)
    scalar = p.ndim == 1
    pts = np.atleast_2d(p)
    if pts.shape[1] != psi.d:
        raise ConfigError("momentum dimension does not match the wavepacket")
    vals = np.full(pts.shape[0], psi.normalization, dtype=complex)
    for j in range(pts.shape[1]):
        q = pts[:, j] - psi.a[j]
        vals = vals * _gauss_box_ft_axis(psi.sigma, L, q, x0=psi.x0[j])
    return vals[0] if scalar else vals


def profile_periodized_value(profile: ProfileSpec, x, L):
    """Position-space box profile B_#(x): the profile restricted to the box
    and extended periodically, i.e. B evaluated at x wrapped into
    [-L/2, L/2)^d.  Its Fourier coefficients are exactly the truncated
    transform computed by profile_fourier_periodized."""
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    wrapped = (pts + L / 2) % L - L / 2
    vals = np.full(pts.shape[0], profile.b0, dtype=float)
    for j in range(pts.shape[1]):
        vals = vals * profile.axis_value(wrapped[:, j])
    return vals[0] if x.ndim == 1 else vals


# ---------------------------------------------------------------------------
# decay envelopes (used for truncation tail bounds and norm tails)

# |z w(z)| is bounded on the closed upper half plane; 1/sqrt(pi) is the
# asymptotic value and 0.7 a verified safe ceiling (see the lattice tests).
_WOFZ_CEIL = 0.7


def profile_axis_envelope(profile: ProfileSpec, L):
    """Callable upper bound e(k) >= |axis transform at k| on lattice momenta.

    For Gaussians the bound is the full-space transform plus the boundary
    term of the box truncation, which at lattice momenta decays like k^-2
    because the oscillatory factor cancels.  For bumps the exact transform
    magnitude is its own envelope.
    """
    if profile.kind == "cosine-bump":
        r = profile.r

        def env(k):
            return np.abs(_bump_ft_axis(r, np.asarray(k, dtype=float)))

        return env

    sigma = profile.sigma
    alpha = math.sqrt(math.pi * sigma) * L / 2
    rs = math.sqrt(sigma)

    def env(k):
        k = np.asarray(k, dtype=float)
        beta = math.sqrt(math.pi / sigma) * k
        main = np.exp(-np.pi * k * k / sigma)
        # lattice momenta: the leading boundary term is alpha/(sqrt(pi)(a^2+b^2));
        # doubled for safety and verified against direct values in the tests
        boundary = math.exp(-(alpha**2)) * 2.0 * alpha / (
            math.sqrt(math.pi) * (alpha**2 + beta**2)
        )
        return (main + boundary) / rs

    return env


def wavepacket_axis_envelope(psi: Wavepacket, j, L):
    """Upper bound on the j-th axis factor magnitude of psi_hat at momentum k.

    Off-center or modulated wavepackets lose the lattice cancellation, so the
    boundary piece decays only like 1/k; it always appears squared in the
    sums this feeds (both test functions sit at the same momentum).
    """
    sigma = psi.sigma
    x0 = psi.x0[j]
    a = psi.a[j]
    alpha_hi = math.sqrt(math.pi * sigma) * (L / 2 - x0)
    alpha_lo = math.sqrt(math.pi * sigma) * (L / 2 + x0)
    rs = math.sqrt(sigma)
    amp = (2.0 * sigma) ** 0.25

    def env(k):
        k = np.asarray(k, dtype=float)
        beta = math.sqrt(math.pi / sigma) * (k - a)
        main = np.exp(-np.pi * (k - a) ** 2 / sigma)
        b_hi = 0.5 * math.exp(-(alpha_hi**2)) * np.minimum(
            1.0, _WOFZ_CEIL / np.sqrt(alpha_hi**2 + beta**2)
        ) * 2.0
        b_lo = 0.5 * math.exp(-(alpha_lo**2)) * np.minimum(
            1.0, _WOFZ_CEIL / np.sqrt(alpha_lo**2 + beta**2)
        ) * 2.0
        return amp * (main + b_hi + b_lo) / rs

    return env


# ---------------------------------------------------------------------------
# Fourier decay check

# one-dimensional constant from the integration-by-parts argument
DECAY_C1 = 1.0 / math.pi**2 + 1.0 / (2.0 * math.pi) + 2.0 * math.pi


def _weighted_sup(profile: ProfileSpec, alpha, d):
    """sup over x of (1+|x|^2)^d * |prod_j d^(alpha_j) B_j(x_j)|: the maximum
    on a grid over the window, then on 30 zoom grids of 9 points per axis,
    each 4x finer than the last and centred on the best point so far."""
    # a bump's window is its support [-r, r], edges included; a Gaussian's
    # weight grows polynomially and the profile decays faster: pad it
    half = {1: 2000, 2: 100, 3: 20}[d]  # grid points on each side
    width = (profile.r if profile.kind == "cosine-bump"
             else profile.support_radius() + 2.0 * d)
    step, x = width / half, [0.0] * d
    for _ in range(31):
        axes = [c + step * np.arange(-half, half + 1) for c in x]
        mesh = np.meshgrid(*axes, indexing="ij")
        vals = abs(profile.b0) * (1.0 + sum(m * m for m in mesh)) ** d
        for j in range(d):
            vals = vals * np.abs(profile.axis_derivative(mesh[j], alpha[j]))
        idx = np.unravel_index(np.argmax(vals), vals.shape)
        x = [axes[j][idx[j]] for j in range(d)]
        step, half = step / 4.0, 4
    return float(vals[idx])


def fourier_decay_check(profile: ProfileSpec, lattice: MomentumLattice):
    """Verify <k_1>^2 ... <k_d>^2 |B_hat(k)| <= C_1^d * sum of weighted sups.

    The right-hand side sums sup |<x>^(2d) d^alpha B| over all multi-indices
    with entries at most 2; sups are located by grid search plus local
    refinement.
    """
    from .report import BoundReport
    from itertools import product as iproduct

    d = lattice.d
    bhat = profile_fourier_periodized(profile, lattice.points, lattice.L)
    weights = np.prod(1.0 + lattice.points**2, axis=-1)
    lhs_all = weights * np.abs(bhat)
    worst = int(np.argmax(lhs_all))
    lhs = float(lhs_all[worst])

    sup_sum = 0.0
    for alpha in iproduct(range(3), repeat=d):
        sup_sum += _weighted_sup(profile, alpha, d)
    rhs = (DECAY_C1**d) * sup_sum

    return BoundReport(
        name="fourier_decay",
        lhs=lhs,
        rhs=rhs,
        context={
            "d": d,
            "L": lattice.L,
            "K": lattice.K,
            "kind": profile.kind,
            "worst_point": tuple(lattice.points[worst]),
            "min_margin_point_value": lhs,
        },
    )
