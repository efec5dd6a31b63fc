"""Per-matrix reference for the Monte-Carlo resolvent solves.

One LU factorization and solve per Hamiltonian, independent of the stacked
solves the estimators run on.
"""

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from weakdis._accum import fsum_c
from weakdis.lattice import dist_to_spectrum
from weakdis.montecarlo import HamiltonianMatrix, _as_hat


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
