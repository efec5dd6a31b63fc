import math

import numpy as np
import pytest

from weakdis import (
    BudgetError,
    ConfigError,
    PoissonConfig,
    Wavepacket,
    assemble_hamiltonian,
    build_lattice,
    coefficient_T,
    estimate_expectation,
    estimate_partial_term,
    neumann_identity_check,
    potential_matrix,
    profile_periodized_value,
    resolvent_matrix_element,
    rng_for,
    sample_config,
    wavepacket_fourier_periodized,
)
from weakdis.montecarlo import _draw_poisson, potential_fourier

Z = 1.0 + 0.3j


def test_rng_streams_reproducible():
    a = rng_for(11, 3).random(5)
    b = rng_for(11, 3).random(5)
    assert np.array_equal(a, b)
    c = rng_for(11, 4).random(5)
    assert not np.array_equal(a, c)


def test_poisson_draw_moments():
    rng = rng_for(2, 0)
    draws = np.array([_draw_poisson(rng, 2.0) for _ in range(40000)])
    assert draws.mean() == pytest.approx(2.0, abs=0.05)
    assert draws.var() == pytest.approx(2.0, abs=0.1)


def test_poisson_large_mean_path():
    rng = rng_for(2, 1)
    draws = np.array([_draw_poisson(rng, 64.0) for _ in range(4000)])
    assert draws.mean() == pytest.approx(64.0, abs=1.0)


def test_sample_config_replays(std_lattice, rademacher):
    a = sample_config(std_lattice, rademacher, rng_for(7, 5))
    b = sample_config(std_lattice, rademacher, rng_for(7, 5))
    assert a.M == b.M
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.weights, b.weights)
    assert np.all(np.abs(a.positions) <= std_lattice.L / 2)
    assert set(np.unique(a.weights)).issubset({-1.0, 1.0})


def test_config_validation():
    with pytest.raises(ConfigError):
        PoissonConfig(M=2, positions=np.zeros((1, 1)), weights=np.ones(2))


def test_hamiltonian_hermitian(std_lattice, gauss_profile, rademacher):
    for idx in range(4):
        cfg = sample_config(std_lattice, rademacher, rng_for(3, idx))
        H = assemble_hamiltonian(cfg, 0.7, std_lattice, gauss_profile)
        assert H.hermiticity_residual() <= 1e-13
        assert H.dim == std_lattice.size


def test_zero_coupling_hamiltonian_is_diagonal(std_lattice, gauss_profile,
                                               rademacher):
    cfg = sample_config(std_lattice, rademacher, rng_for(3, 1))
    H = assemble_hamiltonian(cfg, 0.0, std_lattice, gauss_profile)
    assert np.array_equal(np.diag(H.entries).real, std_lattice.nu_values)
    assert np.count_nonzero(H.entries - np.diag(np.diag(H.entries))) == 0


def test_potential_fourier_matches_position_sum(std_lattice, gauss_profile,
                                                rademacher):
    # V_hat at a dual point equals the box transform of
    # sum_gamma v_gamma B_#(x - y_gamma) computed by direct quadrature
    from weakdis.lattice import fourier_quad_axis

    cfg = sample_config(std_lattice, rademacher, rng_for(9, 2))
    assert cfg.M > 0
    L = std_lattice.L

    def vfunc(x):
        tot = np.zeros(x.shape[0])
        for y, w in zip(cfg.positions[:, 0], cfg.weights):
            tot = tot + w * profile_periodized_value(
                gauss_profile, (x - y).reshape(-1, 1), L)
        return tot

    # the wrapped-profile sum has seam jumps, so the quadrature oracle
    # converges only polynomially; 1e-7 is ample to catch phase errors
    for q in (0.0, 0.5, -1.0):
        direct = fourier_quad_axis(vfunc, L, q, tol=1e-7)
        got = potential_fourier(cfg, gauss_profile, std_lattice,
                                np.array([q]))
        assert abs(got - direct) < 1e-6


def test_potential_matrix_structure(std_lattice, gauss_profile, rademacher):
    cfg = sample_config(std_lattice, rademacher, rng_for(9, 2))
    V = potential_matrix(cfg, std_lattice, gauss_profile)
    assert V.shape == (std_lattice.size, std_lattice.size)
    assert np.abs(V - V.conj().T).max() < 1e-14
    # entry (p, q) is V_hat(p - q) / L^d
    pts = std_lattice.points
    got = V[3, 10]
    expected = potential_fourier(
        cfg, gauss_profile, std_lattice, pts[3] - pts[10]) / std_lattice.volume
    assert got == pytest.approx(expected, rel=1e-12)


def test_resolvent_solve_matches_dense_inverse(std_lattice, gauss_profile,
                                               rademacher, psi_pair):
    psi1, psi2 = psi_pair
    cfg = sample_config(std_lattice, rademacher, rng_for(9, 2))
    H = assemble_hamiltonian(cfg, 0.5, std_lattice, gauss_profile)
    got = resolvent_matrix_element(H, Z, psi1, psi2)
    p1 = wavepacket_fourier_periodized(psi1, std_lattice.points,
                                       std_lattice.L)
    p2 = wavepacket_fourier_periodized(psi2, std_lattice.points,
                                       std_lattice.L)
    dense = np.linalg.inv(H.entries - Z * np.eye(H.dim))
    expected = np.vdot(p1, dense @ p2) / std_lattice.volume
    assert got == pytest.approx(expected, rel=1e-11)


def test_resolvent_rejects_real_z(std_lattice, gauss_profile, rademacher,
                                  psi_pair):
    psi1, psi2 = psi_pair
    cfg = sample_config(std_lattice, rademacher, rng_for(9, 2))
    H = assemble_hamiltonian(cfg, 0.5, std_lattice, gauss_profile)
    with pytest.raises(ConfigError):
        resolvent_matrix_element(H, 1.0 + 0.0j, psi1, psi2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_neumann_identity(n, std_lattice, gauss_profile, rademacher,
                          psi_pair):
    _, psi2 = psi_pair
    cfg = sample_config(std_lattice, rademacher, rng_for(11, 2))
    assert cfg.M > 0
    rep = neumann_identity_check(cfg, 0.3, Z, n, std_lattice, gauss_profile,
                                 psi2)
    assert rep.passed
    assert rep.lhs <= 1e-9
    assert rep.context["remainder_bound_ok"]


def test_partial_term_estimator_zero_order_exact(std_lattice, gauss_profile,
                                                 rademacher, psi_pair):
    psi1, psi2 = psi_pair
    est = estimate_partial_term(0, 50, Z, psi1, psi2, 1, std_lattice,
                                gauss_profile, rademacher)
    T0 = coefficient_T(0, std_lattice, gauss_profile, rademacher, Z, psi1,
                       psi2).value
    assert est.mean == pytest.approx(T0, rel=1e-14)
    assert est.std_error == 0.0


def test_partial_term_estimator_order2_pull(std_lattice, gauss_profile,
                                            rademacher, psi_pair):
    psi1, psi2 = psi_pair
    est = estimate_partial_term(2, 4000, Z, psi1, psi2, 23, std_lattice,
                                gauss_profile, rademacher, threads=2)
    T2 = coefficient_T(2, std_lattice, gauss_profile, rademacher, Z, psi1,
                       psi2).value
    pull = abs(est.mean - T2) / est.std_error
    assert pull < 4.0


def test_estimator_thread_invariance(std_lattice, gauss_profile, rademacher,
                                     psi_pair):
    psi1, psi2 = psi_pair
    kw = dict(antithetic=True)
    [a] = estimate_expectation(400, [0.1], Z, psi1, psi2, 7, std_lattice,
                               gauss_profile, rademacher, threads=1, **kw)
    [b] = estimate_expectation(400, [0.1], Z, psi1, psi2, 7, std_lattice,
                               gauss_profile, rademacher, threads=4, **kw)
    assert a.mean == b.mean
    assert a.std_error == b.std_error


def test_lambda_sweep_equals_single_lambda_runs(std_lattice, gauss_profile,
                                                 rademacher, psi_pair):
    # every coupling of a sweep sees the draws a run of its own would make
    psi1, psi2 = psi_pair
    T = {j: coefficient_T(j, std_lattice, gauss_profile, rademacher, Z, psi1,
                          psi2).value for j in (1, 2, 3)}
    lams = [0.1, 0.05, 0.025]
    for kw in ({}, {"antithetic": True, "control_values": T}):
        sweep = estimate_expectation(200, lams, Z, psi1, psi2, 7, std_lattice,
                                     gauss_profile, rademacher, threads=2,
                                     **kw)
        assert len(sweep) == len(lams)
        for lam, est in zip(lams, sweep):
            [single] = estimate_expectation(200, [lam], Z, psi1, psi2, 7,
                                            std_lattice, gauss_profile,
                                            rademacher, **kw)
            assert est.mean == single.mean
            assert est.std_error == single.std_error


def test_antithetic_kills_odd_orders_exactly(std_lattice, gauss_profile,
                                             rademacher):
    # flipping every weight negates odd-order chain terms realization-wise
    from weakdis.montecarlo import _chain_terms, _as_hat

    cfg = sample_config(std_lattice, rademacher, rng_for(5, 3))
    assert cfg.M > 0
    flipped = PoissonConfig(M=cfg.M, positions=cfg.positions.copy(),
                            weights=-cfg.weights)
    psi = Wavepacket(x0=(0.0,), a=(0.0,), sigma=1.0)
    p = _as_hat(psi, std_lattice)
    Vp = potential_matrix(cfg, std_lattice, gauss_profile)
    Vm = potential_matrix(flipped, std_lattice, gauss_profile)
    r0 = 1.0 / (std_lattice.nu_values - Z)
    tp = _chain_terms(Vp, r0, p, p, 3, std_lattice.volume)
    tm = _chain_terms(Vm, r0, p, p, 3, std_lattice.volume)
    for j in (1, 3):
        assert tm[j] == -tp[j]
    assert tm[2] == tp[2]


def test_control_variates_change_spread_not_mean_structure(
        std_lattice, gauss_profile, rademacher, psi_pair):
    psi1, psi2 = psi_pair
    T = {j: coefficient_T(j, std_lattice, gauss_profile, rademacher, Z, psi1,
                          psi2).value for j in (1, 2, 3)}
    [plain] = estimate_expectation(2000, [0.05], Z, psi1, psi2, 7,
                                   std_lattice, gauss_profile, rademacher)
    [ctrl] = estimate_expectation(2000, [0.05], Z, psi1, psi2, 7, std_lattice,
                                  gauss_profile, rademacher, antithetic=True,
                                  control_values=T)
    assert ctrl.std_error < plain.std_error / 10
    # both estimate the same quantity
    diff = abs(ctrl.mean - plain.mean)
    assert diff < 4 * plain.std_error


def test_antithetic_requires_even_samples(std_lattice, gauss_profile,
                                          rademacher, psi_pair):
    psi1, psi2 = psi_pair
    with pytest.raises(ConfigError):
        estimate_expectation(401, [0.1], Z, psi1, psi2, 7, std_lattice,
                             gauss_profile, rademacher, antithetic=True)


def test_matrix_dimension_budget(gauss_profile, rademacher):
    lat = build_lattice(1, 2.0, 4100)
    cfg = PoissonConfig(M=0, positions=np.zeros((0, 1)), weights=np.zeros(0))
    with pytest.raises(BudgetError):
        assemble_hamiltonian(cfg, 0.1, lat, gauss_profile)
