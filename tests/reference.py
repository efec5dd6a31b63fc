"""Independent references the tests check the engine against.

Each one computes its quantity another way than the engine does: a dense
per-matrix LU solve, direct quadrature of a box-truncated Fourier integral,
the realized potential's transform as an explicit sum over scatterers, and
the closed-form box norm of a wavepacket.
"""

import math

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.special import erf

from weakdis._accum import fsum_c
from weakdis.lattice import (
    MomentumLattice,
    ProfileSpec,
    Wavepacket,
    dist_to_spectrum,
    profile_fourier_periodized,
)
from weakdis.montecarlo import HamiltonianMatrix, PoissonConfig, _as_hat


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
