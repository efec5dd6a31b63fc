import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from weakdis import (
    BudgetError,
    ConfigError,
    HamiltonianMatrix,
    PoissonConfig,
    ProfileSpec,
    Wavepacket,
    WeightDistribution,
    assemble_hamiltonian,
    build_lattice,
    coefficient_T,
    estimate_expectation,
    estimate_partial_term,
    neumann_identity_check,
    potential_matrix,
    profile_periodized_value,
    rng_for,
    sample_config,
    wavepacket_fourier_periodized,
)
from weakdis import montecarlo
from weakdis._accum import fsum_c
from weakdis.montecarlo import _draw_poisson

from reference import (fourier_quad_axis, potential_fourier,
                       resolvent_matrix_element)

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
        scale = max(1.0, float(np.abs(H.entries).max()))
        assert np.abs(H.entries - H.entries.conj().T).max() / scale <= 1e-13
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


def _stacked_unit_mismatches(threads, antithetic, controlled):
    """Compare every unit of the chunked estimator, realization by
    realization, with the loop of one LU solve per realization, coupling
    and sign; returns (mismatched (realization, coupling) pairs, number of
    realizations without scatterers)."""
    lattice = build_lattice(1, 2.0, 8)
    profile = ProfileSpec(kind="gaussian", b0=1.0, sigma=1.0)
    dist = WeightDistribution(kind="rademacher")
    psi1 = Wavepacket(x0=(0.0,), a=(0.0,), sigma=1.0)
    psi2 = Wavepacket(x0=(0.25,), a=(1.0,), sigma=1.0)
    lams = [0.1, 0.05]
    controls = ({j: coefficient_T(j, lattice, profile, dist, Z, psi1,
                                  psi2).value for j in (1, 2)}
                if controlled else {})
    signs = (1, -1) if antithetic else (1,)
    n_units = 17
    got = []
    run, chunk_bytes = montecarlo._result, montecarlo.CHUNK_BYTES

    def spy(units, n_samples, seed):
        got.append(list(units))
        return run(units, n_samples, seed)

    # chunks of 7 realizations: 17 units make 3 chunks, the last one short
    montecarlo.CHUNK_BYTES = 16 * len(lams) * len(signs) * lattice.size**2 * 7
    montecarlo._result = spy
    try:
        estimate_expectation(n_units * len(signs), lams, Z, psi1, psi2, 7,
                             lattice, profile, dist, threads=threads,
                             antithetic=antithetic, control_values=controls)
    finally:
        montecarlo._result, montecarlo.CHUNK_BYTES = run, chunk_bytes

    nu_c = lattice.nu_values.astype(complex)
    r0 = 1.0 / (lattice.nu_values - Z)
    p1 = montecarlo._as_hat(psi1, lattice)
    p2 = montecarlo._as_hat(psi2, lattice)
    bad, empty = [], 0
    for i in range(n_units):
        cfg = sample_config(lattice, dist, rng_for(7, i))
        V = potential_matrix(cfg, lattice, profile) if cfg.M else None
        empty += V is None
        t = (None if V is None else
             montecarlo._chain_terms(V, r0, p1, p2, 2, lattice.volume))
        for k, lam in enumerate(lams):
            vals = []
            for sign in signs:
                H = np.diag(nu_c)
                if V is not None:
                    H = H + (sign * lam) * V
                val = resolvent_matrix_element(
                    HamiltonianMatrix(lattice.size, H, lattice), Z, psi1,
                    psi2)
                for j, T in controls.items():
                    tj = 0.0 if V is None else sign**j * t[j]
                    val -= (-lam) ** j * (tj - T)
                vals.append(val)
            want = 0.5 * (vals[0] + vals[1]) if antithetic else vals[0]
            if got[k][i] != want:
                bad.append((i, lam))
    return bad, empty


def test_stacked_solves_equal_per_matrix_lu():
    # The per-matrix LU's bits depend on the BLAS thread count, so the
    # comparison runs in a child pinned to one BLAS thread, as the golden
    # ledger is.  Cases: engine threads 1 and 2, antithetic and controls
    # on and off.
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tests.parent / "src"), str(tests)]
        + [p for p in [os.environ.get("PYTHONPATH")] if p])
    code = ("import itertools, json, test_montecarlo as t\n"
            "cases = itertools.product((1, 2), (False, True), (False, True))\n"
            "print(json.dumps([[c, t._stacked_unit_mismatches(*c)]"
            " for c in cases]))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tests, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert len(results) == 8
    for case, (bad, empty) in results:
        assert bad == [], case
        assert 0 < empty < 17, case


def test_chunk_size_keeps_every_bit(std_lattice, gauss_profile, rademacher,
                                    psi_pair, monkeypatch):
    # chunks of 1 and 7 realizations and the default size (one chunk here)
    # give == results: a realization's numbers must not depend on the
    # stack it is part of
    from weakdis.dos import ChiBump, dos_mc

    psi1, psi2 = psi_pair
    model = (std_lattice, gauss_profile, rademacher)
    T = {j: coefficient_T(j, *model, Z, psi1, psi2).value for j in (1, 2, 3)}
    runs = [  # (systems per realization, run)
        (4, lambda: estimate_expectation(
            120, [0.1, 0.05], Z, psi1, psi2, 7, *model, antithetic=True,
            control_values=T)),
        (1, lambda: estimate_partial_term(3, 60, Z, psi1, psi2, 7, *model)),
        (1, lambda: dos_mc(ChiBump(center=1.0, width=0.5), 0.05, 0.1, 15, 5,
                           *model, check_routes=True)),
    ]
    default = montecarlo.CHUNK_BYTES
    for systems, run in runs:
        results = []
        for per_chunk in (1, 7, None):
            monkeypatch.setattr(
                montecarlo, "CHUNK_BYTES", default if per_chunk is None
                else 16 * systems * std_lattice.size**2 * per_chunk)
            results.append(run())
        assert results[0] == results[1] == results[2]


def test_partial_term_equals_per_realization_strings(std_lattice,
                                                     gauss_profile,
                                                     rademacher, psi_pair):
    # the stacked operator strings against one 2-D matmul string per
    # realization: np.matmul on contiguous stacks keeps every bit
    psi1, psi2 = psi_pair
    model = (std_lattice, gauss_profile, rademacher)
    p1 = montecarlo._as_hat(psi1, std_lattice)
    p2 = montecarlo._as_hat(psi2, std_lattice)
    r0 = 1.0 / (std_lattice.nu_values - Z)
    for n in (1, 2, 3):
        units = []
        for i in range(40):
            cfg = sample_config(std_lattice, rademacher, rng_for(7, i))
            x = r0 * p2
            for _ in range(n):
                x = r0 * (potential_matrix(cfg, std_lattice, gauss_profile)
                          @ x)
            units.append(fsum_c(np.conj(p1) * x) / std_lattice.volume
                         if cfg.M else 0j)
        est = estimate_partial_term(n, 40, Z, psi1, psi2, 7, *model)
        assert est.mean == fsum_c(units) / 40


@pytest.mark.parametrize("d, L, K", [(1, 2.0, 8), (2, 1.5, 2), (3, 1.3, 1)])
def test_potential_stack_equals_single_calls(d, L, K, gauss_profile,
                                             rademacher):
    # one k . y matmul per configuration: a joint one over the stack moves
    # bits at d >= 2
    lattice = build_lattice(d, L, K)
    cfgs = [sample_config(lattice, rademacher, rng_for(3, i))
            for i in range(60)]
    W = potential_matrix(cfgs, lattice, gauss_profile)
    assert W.shape == (60, lattice.size, lattice.size)
    assert W.flags.c_contiguous
    assert min(c.M for c in cfgs) == 0 and max(c.M for c in cfgs) > 1
    for V, cfg in zip(W, cfgs):
        assert np.array_equal(V, potential_matrix(cfg, lattice,
                                                  gauss_profile))


@pytest.mark.parametrize("L, kind", [(2.0, "rademacher"),
                                     (40.0, "centered-uniform")])
def test_rekeyed_generator_replays_rng_for(L, kind):
    # one generator re-keyed to (seed, i) after other draws, against a new
    # one per stream; L = 40 draws the count by rng.poisson
    lattice = build_lattice(1, L, 2)
    dist = WeightDistribution(kind=kind)
    rng = rng_for(5, 0)
    for i in range(200):
        got = sample_config(lattice, dist, montecarlo._rekey(rng, 5, i))
        want = sample_config(lattice, dist, rng_for(5, i))
        assert got.M == want.M
        assert np.array_equal(got.positions, want.positions)
        assert np.array_equal(got.weights, want.weights)


def test_estimate_expectation_rejects_negative_coupling_before_drawing(
        std_lattice, gauss_profile, rademacher, psi_pair, monkeypatch):
    psi1, psi2 = psi_pair

    def no_draw(*args, **kwargs):
        raise AssertionError("sampled before checking the couplings")

    monkeypatch.setattr(montecarlo, "sample_config", no_draw)
    with pytest.raises(ConfigError):
        estimate_expectation(32, [0.1, -0.05], Z, psi1, psi2, 7, std_lattice,
                             gauss_profile, rademacher)


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
