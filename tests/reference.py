"""Independent references the tests check the engine against.

Each one computes its quantity another way than the engine does: a dense
per-matrix LU solve, direct quadrature of a box-truncated Fourier integral,
the realized potential's transform as an explicit sum over scatterers, the
closed-form box norm of a wavepacket, a partition's chain sum by
enumerating the box of its free steps, and a weighted sup refined by
Nelder-Mead.
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
from weakdis.montecarlo import HamiltonianMatrix, PoissonConfig, _as_hat
from weakdis.partitions import SetPartition, apply_MA


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
