"""Independent references the tests check the engine against.

Each one computes its quantity another way than the engine does: a dense
per-matrix LU solve, direct quadrature of a box-truncated Fourier integral,
the realized potential's transform as an explicit sum over scatterers, the
closed-form box norm of a wavepacket, a partition's chain sum by
enumerating the box of its free steps, a DOS coefficient as a direct sum
over chain tuples with explicit conservation deltas, and a weighted sup
refined by Nelder-Mead.
"""

import math

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.special import erf

from weakdis._accum import fsum_c
from weakdis.coefficients import _diff_index
from weakdis.lattice import (
    MomentumLattice,
    ProfileSpec,
    Wavepacket,
    dist_to_spectrum,
    int_box,
    profile_fourier_periodized,
)
from weakdis.montecarlo import PoissonConfig, _as_hat
from weakdis.partitions import SetPartition, all_partitions, apply_MA


def resolvent_matrix_element(H: np.ndarray, z, psi1, psi2,
                             lattice: MomentumLattice) -> complex:
    """<psi1, (H - z)^(-1) psi2> for the dense Hamiltonian H on lattice, via
    one dense solve and the discrete Parseval pairing."""
    dist_to_spectrum(z)
    p1 = _as_hat(psi1, lattice)
    p2 = _as_hat(psi2, lattice)
    A = H - z * np.eye(lattice.size)
    lu = lu_factor(A)
    x = lu_solve(lu, p2)
    resid = np.linalg.norm(A @ x - p2)
    if resid > 1e-10 * max(np.linalg.norm(p2), 1e-300):
        raise RuntimeError(
            f"resolvent solve residual {resid:.3e}; "
            f"condition estimate {np.linalg.cond(A):.3e}"
        )
    return fsum_c(np.conj(p1) * x) / lattice.volume


def fourier_quad_axis(func, L, q, tol=1e-12, max_doublings=14):
    """Quadrature oracle for one-axis box-truncated transforms.

    Composite Gauss-Legendre with panel doubling until two successive levels
    agree within tol (a Richardson-style verification).
    """
    q = float(q)
    nodes, weights = np.polynomial.legendre.leggauss(16)
    prev = None
    panels = 4
    for _ in range(max_doublings):
        edges = np.linspace(-L / 2, L / 2, panels + 1)
        half = np.diff(edges) / 2
        mid = (edges[:-1] + edges[1:]) / 2
        x = mid[:, None] + half[:, None] * nodes[None, :]
        w = half[:, None] * weights[None, :]
        fx = np.asarray(func(x.ravel()), dtype=complex).reshape(x.shape)
        total = np.sum(w * fx * np.exp(-2j * np.pi * q * x.ravel()).reshape(x.shape))
        if prev is not None and abs(total - prev) <= tol:
            return total
        prev = total
        panels *= 2
    raise RuntimeError(f"fourier quadrature did not reach tol={tol}")


def potential_fourier(config: PoissonConfig, profile: ProfileSpec,
                      lattice: MomentumLattice, p):
    """Transform of the realized potential at momentum p (difference range)."""
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


def profile_value(profile: ProfileSpec, x):
    """Profile value at positions x of shape (..., d): b0 times the product
    of the axis factors."""
    x = np.asarray(x, dtype=float)
    vals = profile.b0 * np.ones(x.shape[:-1])
    for j in range(x.shape[-1]):
        vals = vals * profile.axis_value(x[..., j])
    return vals


def wavepacket_value(psi: Wavepacket, x):
    """Wavepacket value at positions x of shape (..., d)."""
    x = np.asarray(x, dtype=float)
    quad = np.sum((x - np.asarray(psi.x0)) ** 2, axis=-1)
    phase = np.sum(x * np.asarray(psi.a), axis=-1)
    return psi.normalization * np.exp(-np.pi * psi.sigma * quad
                                      + 2j * np.pi * phase)


def box_norm_sq(psi: Wavepacket, L) -> float:
    """Integral of |psi|^2 over the box (erf closed form per axis)."""
    s = 2.0 * psi.sigma  # |psi|^2 has Gaussian rate 2 sigma
    total = psi.normalization**2
    for x0j in psi.x0:
        c = math.sqrt(math.pi * s)
        # int exp(-pi s u^2) du over [x0-L/2, x0+L/2] shifted to the box
        total *= (erf(c * (L / 2 - x0j)) + erf(c * (L / 2 + x0j))) / (2 * math.sqrt(s))
    return total


def nelder_mead_weighted_sup(profile: ProfileSpec, alpha, d) -> float:
    """sup over x of (1+|x|^2)^d * |prod_j d^(alpha_j) B_j(x_j)|: the grid
    maximum of ``lattice._weighted_sup``, refined by Nelder-Mead."""
    from scipy.optimize import minimize

    W = (profile.r if profile.kind == "cosine-bump"
         else profile.support_radius() + 2.0 * d)
    axes = [np.linspace(-W, W, {1: 4001, 2: 201, 3: 41}[d])] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    vals = abs(profile.b0) * (1.0 + sum(m * m for m in mesh)) ** d
    for j in range(d):
        vals = vals * np.abs(profile.axis_derivative(mesh[j], alpha[j]))
    idx = np.unravel_index(np.argmax(vals), vals.shape)
    x0 = np.array([axes[j][idx[j]] for j in range(d)])

    # a bump vanishes off [-r, r]^d, so its sup is that of f(clip(x)), which
    # has no cliff at the support edge for the simplex to stall on
    edge = W if profile.kind == "cosine-bump" else np.inf

    def neg(x):
        x = np.clip(x, -edge, edge)
        v = abs(profile.b0) * (1.0 + float(np.dot(x, x))) ** d
        for j in range(d):
            v *= abs(float(profile.axis_derivative(np.array([x[j]]),
                                                   alpha[j])[0]))
        return -v

    res = minimize(neg, x0, method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 400})
    return max(float(vals.max()), -res.fun)


def is_crossing(A: SetPartition) -> bool:
    """True when two blocks interleave: one has an element between two
    consecutive members of the other and one outside them."""
    block_of = {j: b for b in A.blocks for j in b}
    return any(block_of[j][0] < p or block_of[j][-1] > q
               for b in A.blocks for p, q in zip(b, b[1:])
               for j in range(p + 1, q))


def box_chain_sum(A, lattice, btab, zs):
    """Per-u0 chain sum of one partition over the box of N (4K+1)^{md} free
    step tuples, with every chain momentum masked to the window; returns
    (per-u0 array, term count) like ``coefficients._chain_sum``."""
    d, K, L = lattice.d, lattice.K, lattice.L
    n = A.n
    m = n - len(A.blocks)
    Nv = (4 * K + 1) ** (m * d)
    N = lattice.size

    # every point of the free-momentum box, substituted into the n steps
    free = int_box(m * d, 2 * K).reshape(Nv, m, d).transpose(1, 0, 2)
    steps = apply_MA(A, free)

    prefix = np.zeros((n + 1, Nv, d), dtype=np.int64)
    if n:
        np.cumsum(steps, axis=0, out=prefix[1:])

    # step factors of the profile transform (independent of the outer momentum)
    bprod = np.ones(Nv)
    for j in range(n):
        bprod *= btab[_diff_index(-steps[j], K, d)]
        # steps beyond the difference window are killed by the chain mask below
        out_of_window = np.any(np.abs(steps[j]) > 2 * K, axis=-1)
        if out_of_window.any():
            bprod[out_of_window] = 0.0

    u = lattice.ints
    acc = np.ones((N, Nv), dtype=complex)
    ok = np.ones((N, Nv), dtype=bool)
    for slot in range(n + 1):
        kj = u[:, None, :] + prefix[slot][None, :, :]
        if slot not in (0, n):
            ok &= np.all(np.abs(kj) <= K, axis=-1)
        nuv = 0.5 * np.sum((kj * (1.0 / L)) ** 2, axis=-1)
        acc *= 1.0 / (nuv - zs[slot])
    acc *= bprod[None, :]
    acc[~ok] = 0.0
    return np.sum(acc, axis=1), N * Nv


def dos_trace_oracle(n, E, eta, lattice, profile, dist) -> float:
    """The order-n DOS coefficient D_n = L^-d sum_u Im G_n(u, u; E + i eta)
    by direct summation over the chain tuples k_0 = u, k_1, ..., k_{n-1},
    k_n = u of the window: G_n(u, u) is L^{-dn} times the sum over the
    tuples and over every partition A of {1..n} of
    prod_b m_|b| L^{d|A|} [sum_{l in b} p_l = 0] prod_l B_hat(p_l / L)
    prod_j 1/(nu(k_j) - z), with integer steps p_l = k_{l-1} - k_l.  The
    profile transform is evaluated at each step, not read from a table."""
    d, L, N = lattice.d, lattice.L, lattice.size
    z = complex(E, eta)
    grids = np.meshgrid(*([np.arange(N)] * max(n, 1)), indexing="ij")
    k = [lattice.ints[g.ravel()] for g in grids]  # k_0 .. k_{n-1}
    if n:
        k.append(k[0])
    steps = [k[l - 1] - k[l] for l in range(1, n + 1)]
    bvals = [profile_fourier_periodized(profile, p / L, L) for p in steps]
    resolvents = np.ones(len(k[0]), dtype=complex)
    for kj in k:
        resolvents /= 0.5 * np.sum((kj / L) ** 2, axis=-1) - z
    weights = np.zeros(len(k[0]))
    for A in all_partitions(n):
        ok = np.ones(len(k[0]), dtype=bool)
        term = np.full(len(k[0]), L ** (d * len(A.blocks)))
        for b in A.blocks:
            term *= dist.moment(len(b))
            ok &= np.all(sum(steps[l - 1] for l in b) == 0, axis=-1)
            for l in b:
                term *= bvals[l - 1]
        weights[ok] += term[ok]
    total = math.fsum((weights * resolvents).imag.tolist())
    return total / L ** (d * (n + 1))
