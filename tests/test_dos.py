import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import k0, k1

from weakdis import (
    BudgetError,
    ChiBump,
    ConfigError,
    WeightDistribution,
    build_lattice,
    dos_coefficient_D,
    dos_density_order0,
    dos_eta_grid_check,
    dos_expansion,
    dos_mc,
    rng_for,
    sample_config,
    trace_class_bound_check,
)


def test_chibump_validation():
    with pytest.raises(ConfigError):
        ChiBump(center=1.0, width=0.0)
    with pytest.raises(ConfigError):
        ChiBump(center=0.3, width=0.5)  # support leaves (0, inf)


def test_chibump_shape():
    chi = ChiBump(center=1.0, width=0.5)
    assert chi.support == (0.5, 1.5)
    assert chi(1.0) == pytest.approx(1.0)
    assert chi(0.5) == 0.0
    assert chi(2.0) == 0.0
    xs = np.linspace(0.6, 1.4, 101)
    vals = chi(xs)
    assert np.all(vals > 0)
    assert np.all(vals <= 1.0)


def test_chibump_mass_is_its_integral():
    for center, width in ((1.0, 0.5), (3.0, 0.25)):
        chi = ChiBump(center=center, width=width)
        ref, _ = quad(chi, *chi.support, points=[center], epsabs=1e-15,
                      epsrel=1e-13, limit=200)
        assert chi.mass == pytest.approx(ref, rel=1e-14)
        # the engine's literal is scipy's K1(1/2) - K0(1/2), bit for bit
        assert chi.mass == width * math.sqrt(math.e) * float(k1(0.5) - k0(0.5))


def test_order0_matches_closed_form(std_lattice, gauss_profile, rademacher):
    for E, eta in [(0.5, 0.3), (1.0, 0.3), (1.0, 0.05), (2.3, 1.0)]:
        direct = dos_coefficient_D(0, E, eta, std_lattice, gauss_profile,
                                   rademacher)
        closed = dos_density_order0(E, eta, std_lattice)
        assert abs(direct.value - closed) <= 1e-12
        assert direct.imag_residual <= 1e-12


def test_order0_closed_form_spot_value():
    # single-point check: d=1, L=1, K=1 has nu values {0, 1/2, 1/2}
    lat = build_lattice(1, 1.0, 1)
    E, eta = 0.25, 0.5

    def gamma(nu):
        return eta / ((nu - E) ** 2 + eta**2)

    expected = (gamma(0.0) + 2 * gamma(0.5)) / 1.0
    assert dos_density_order0(E, eta, lat) == pytest.approx(expected,
                                                            rel=1e-15)


@pytest.mark.parametrize("n", [1, 2])
def test_coefficients_are_real(n, std_lattice, gauss_profile, rademacher):
    row = dos_coefficient_D(n, 1.0, 0.3, std_lattice, gauss_profile,
                            rademacher)
    assert row.imag_residual <= 1e-12


def test_one_chain_sum_per_live_row(std_lattice, gauss_profile, monkeypatch):
    # the E - i eta sum is the conjugate of the E + i eta one, not recomputed
    from weakdis import dos
    from weakdis import partitions as pt

    calls = []
    chain_sum = dos._chain_sum
    monkeypatch.setattr(dos, "_chain_sum",
                        lambda *a, **k: calls.append(a[0]) or chain_sum(*a, **k))
    dist = WeightDistribution(kind="explicit-moments", moments=(0.5, 1.0, 1.0))
    dos_coefficient_D(3, 1.0, 0.3, std_lattice, gauss_profile, dist)
    assert calls == [row.partition for row in pt.live_partitions(3, dist)]
    assert len(calls) == 5


def test_order1_vanishes_for_centered_weights(std_lattice, gauss_profile,
                                              rademacher):
    row = dos_coefficient_D(1, 1.0, 0.3, std_lattice, gauss_profile,
                            rademacher)
    assert row.value == 0.0


def test_order_cap_enforced(std_lattice, gauss_profile, rademacher):
    with pytest.raises(BudgetError):
        dos_coefficient_D(4, 1.0, 0.3, std_lattice, gauss_profile, rademacher)


def test_expansion_order0_matches_reference_quadrature(std_lattice,
                                                       gauss_profile,
                                                       rademacher):
    chi = ChiBump(center=1.0, width=0.5)
    eta = 0.2
    total, rows, meta = dos_expansion(chi, 0.0, 0.5, 0, std_lattice,
                                      gauss_profile, rademacher, eta=eta)
    ref, _ = quad(lambda E: chi(E) * dos_density_order0(E, eta, std_lattice)
                  / math.pi, 0.5, 1.5, limit=200, epsabs=1e-13, epsrel=1e-13)
    assert total == pytest.approx(ref, abs=1e-10)


def test_expansion_orders_match_quad(std_lattice, gauss_profile, rademacher):
    # the shipped dos study's model and smoothing, orders 0 and 2 (order 1
    # has no live partition under Rademacher weights)
    from weakdis import dos, partitions
    from weakdis.coefficients import bhat_difference_table

    chi = ChiBump(center=1.0, width=0.5)
    lam, eta = 0.05, 0.10573712634405642
    _, rows, _ = dos_expansion(chi, lam, 0.5, 2, std_lattice, gauss_profile,
                               rademacher, eta=eta)
    btab = bhat_difference_table(gauss_profile, std_lattice)
    for n in (0, 2):
        live = partitions.live_partitions(n, rademacher)
        ref = quad(lambda E: chi(E) * dos._dos_value(
            n, live, E, eta, std_lattice, btab).real, 0.5, 1.5,
            epsabs=1e-14, epsrel=1e-12, limit=400)[0]
        assert rows[n]["value"] == pytest.approx(
            (-lam) ** n / math.pi * ref, rel=1e-12, abs=0.0), n


def test_expansion_small_eta_grades_toward_lattice_energies(
        std_lattice, gauss_profile, rademacher):
    # eta = 1e-3: the order-0 integrand is a sum of width-eta peaks at the
    # lattice energies, here nu = 1.125 inside chi's support
    from weakdis.dos import _dos_edges

    chi = ChiBump(center=1.0, width=0.5)
    eta = 1e-3
    nus = sorted({float(nu) for nu in std_lattice.nu_values
                  if 0.5 < nu < 1.5})
    assert nus == [1.125]
    edges = _dos_edges(0.5, 1.5, eta, std_lattice.nu_values)
    widths = np.diff(edges)
    assert edges[0] == 0.5 and edges[-1] == 1.5
    assert widths.min() > 0.0 and widths.max() <= 0.125
    # panels eta wide at the peak only: 1000 would cover the support
    assert len(widths) < 50
    i = int(np.searchsorted(edges, 1.125)) - 1
    assert widths[i] <= eta * (1.0 + 1e-12)
    total, _, _ = dos_expansion(chi, 0.0, 0.5, 0, std_lattice, gauss_profile,
                                rademacher, eta=eta)
    ref, _ = quad(lambda E: chi(E) * dos_density_order0(E, eta, std_lattice)
                  / math.pi, 0.5, 1.5, points=nus, limit=400, epsabs=1e-14,
                  epsrel=1e-13)
    assert total == pytest.approx(ref, rel=1e-12)


def test_expansion_default_eta_coupling(std_lattice, gauss_profile,
                                        rademacher):
    chi = ChiBump(center=1.0, width=0.5)
    lam, eps = 0.05, 0.5
    _, _, meta = dos_expansion(chi, lam, eps, 0, std_lattice, gauss_profile,
                               rademacher)
    assert meta["eta"] == pytest.approx(lam ** (2.0 - eps), rel=1e-15)
    with pytest.raises(ConfigError):
        dos_expansion(chi, 0.0, eps, 0, std_lattice, gauss_profile,
                      rademacher)  # lam=0 needs an explicit eta


def test_expansion_caps_order(std_lattice, gauss_profile, rademacher):
    chi = ChiBump(center=1.0, width=0.5)
    total, rows, meta = dos_expansion(chi, 0.05, 0.5, 9, std_lattice,
                                      gauss_profile, rademacher, eta=0.2)
    assert meta["capped"]
    assert meta["order_cap"] == 3
    assert len(rows) == 4


def test_mc_zero_coupling_equals_expansion_exactly(std_lattice, gauss_profile,
                                                   rademacher):
    # lam = 0: every realization gives the same trace, expansion is exact
    chi = ChiBump(center=1.0, width=0.5)
    eta = 0.2
    total, _, _ = dos_expansion(chi, 0.0, 0.5, 0, std_lattice, gauss_profile,
                                rademacher, eta=eta)
    est = dos_mc(chi, 0.0, eta, 8, 3, std_lattice, gauss_profile, rademacher)
    assert est.std_error <= 1e-14
    assert est.mean == pytest.approx(total, abs=1e-9)


def test_mc_routes_agree(std_lattice, gauss_profile, rademacher):
    chi = ChiBump(center=1.0, width=0.5)
    est, route_diff = dos_mc(chi, 0.05, 0.1, 20, 5, std_lattice,
                             gauss_profile, rademacher, check_routes=True)
    assert route_diff <= 1e-8


def test_mc_seed_determinism(std_lattice, gauss_profile, rademacher):
    chi = ChiBump(center=1.0, width=0.5)
    a, da = dos_mc(chi, 0.05, 0.1, 16, 5, std_lattice, gauss_profile,
                   rademacher, threads=1, check_routes=True)
    b, db = dos_mc(chi, 0.05, 0.1, 16, 5, std_lattice, gauss_profile,
                   rademacher, threads=3, check_routes=True)
    assert a.mean == b.mean
    assert a.std_error == b.std_error
    assert da == db


@pytest.mark.parametrize("threads", [1, 2])
def test_mc_stacked_eigvalsh_equals_per_matrix(threads, std_lattice,
                                               gauss_profile, rademacher,
                                               monkeypatch):
    # chunks of 3 realizations against one eigvalsh per assembled matrix
    from weakdis import montecarlo
    from weakdis._accum import fsum_r

    monkeypatch.setattr(montecarlo, "CHUNK_BYTES",
                        16 * std_lattice.size**2 * 3)
    chi = ChiBump(center=1.0, width=0.5)
    est = dos_mc(chi, 0.05, 0.1, 10, 5, std_lattice, gauss_profile,
                 rademacher, threads=threads)
    a, b = chi.support
    units = []
    for i in range(10):
        cfg = sample_config(std_lattice, rademacher, rng_for(5, i))
        H = montecarlo.assemble_hamiltonian(cfg, 0.05, std_lattice,
                                            gauss_profile)
        mu = np.linalg.eigvalsh(H.entries)
        units.append(montecarlo._trace_from_eigs(mu, chi, 0.1,
                                                 std_lattice.volume, a, b))
    assert est.mean == fsum_r(units) / 10
    assert est.std_error == montecarlo._se_complex(units, est.mean)


def test_mc_traces_the_scatterer_free_spectrum_once(std_lattice,
                                                    gauss_profile, rademacher,
                                                    monkeypatch):
    # every realization without scatterers has the spectrum of diag(nu):
    # one trace for all of them, one per live realization
    import weakdis.dos as dosmod

    calls = []
    trace = dosmod._trace_from_eigs
    monkeypatch.setattr(dosmod, "_trace_from_eigs",
                        lambda *a: calls.append(1) or trace(*a))
    chi = ChiBump(center=1.0, width=0.5)
    dos_mc(chi, 0.05, 0.1, 16, 7, std_lattice, gauss_profile, rademacher)
    live = sum(sample_config(std_lattice, rademacher, rng_for(7, i)).M > 0
               for i in range(16))
    assert live < 15  # seed 7 draws several empty realizations
    assert len(calls) == 1 + live


def test_mc_runs_on_the_requested_threads(std_lattice, gauss_profile,
                                          rademacher, monkeypatch):
    from weakdis import montecarlo

    seen = []
    run = montecarlo.run_ordered

    def spy(tasks, threads):
        seen.append(threads)
        return run(tasks, threads)

    monkeypatch.setattr(montecarlo, "run_ordered", spy)
    chi = ChiBump(center=1.0, width=0.5)
    dos_mc(chi, 0.05, 0.1, 8, 5, std_lattice, gauss_profile, rademacher,
           threads=3)
    assert seen == [3]


def test_tail_bound_shrinks_with_K(gauss_profile, rademacher):
    tails = []
    for K in (4, 8, 16):
        lat = build_lattice(1, 2.0, K)
        tails.append(dos_coefficient_D(2, 1.0, 0.3, lat, gauss_profile,
                                       rademacher).tail_bound)
    assert tails[0] > tails[1] > tails[2] > 0


def test_tail_bound_dominates_K_increment(gauss_profile, rademacher):
    lat8 = build_lattice(1, 2.0, 8)
    lat16 = build_lattice(1, 2.0, 16)
    a = dos_coefficient_D(2, 1.0, 0.3, lat8, gauss_profile, rademacher)
    b = dos_coefficient_D(2, 1.0, 0.3, lat16, gauss_profile, rademacher)
    assert abs(a.value - b.value) <= a.tail_bound


def test_trace_class_bound(std_lattice, gauss_profile, rademacher):
    cfg = sample_config(std_lattice, rademacher, rng_for(5, 1))
    rep = trace_class_bound_check(
        cfg, 0.5, lambda x: 1.0 / (1.0 + np.asarray(x) ** 2), 1.0,
        std_lattice, gauss_profile)
    assert rep.passed


def test_trace_class_bound_other_weight(std_lattice, gauss_profile,
                                        rademacher):
    cfg = sample_config(std_lattice, rademacher, rng_for(5, 2))
    rep = trace_class_bound_check(
        cfg, 1.0, lambda x: 0.25 / (1.0 + np.asarray(x) ** 2), 0.25,
        std_lattice, gauss_profile)
    assert rep.passed


def test_eta_grid_check(std_lattice):
    rep = dos_eta_grid_check(1.0, std_lattice)
    assert rep.passed
    assert rep.lhs <= rep.rhs


def test_uniform_weights_second_order_differs(std_lattice, gauss_profile):
    # same second moment as rademacher -> same D_2 (only m_2 enters at n=2)
    uni = WeightDistribution(kind="centered-uniform")
    rad = WeightDistribution(kind="rademacher")
    d_u = dos_coefficient_D(2, 1.0, 0.3, std_lattice, gauss_profile, uni)
    d_r = dos_coefficient_D(2, 1.0, 0.3, std_lattice, gauss_profile, rad)
    assert d_u.value == pytest.approx(d_r.value, rel=1e-14)


def test_expansion_evaluates_tail_only_where_reported(monkeypatch,
                                                      gauss_profile,
                                                      rademacher):
    import weakdis.dos as dosmod

    calls = []
    real_tail = dosmod._dos_tail

    def counted(n, *args):
        calls.append(n)
        return real_tail(n, *args)

    monkeypatch.setattr(dosmod, "_dos_tail", counted)
    lattice = build_lattice(1, 2.0, 4)
    chi = ChiBump(center=1.0, width=0.5)
    _, rows, _ = dos_expansion(chi, 0.05, 0.5, 2, lattice, gauss_profile,
                               rademacher, eta=0.2)
    # Rademacher weights: order 1 has no live partition, orders 0 and 2 do
    assert rows[1]["tail_bound"] == 0.0
    assert sorted(calls) == [0] * 5 + [2] * 5
    assert rows[2]["tail_bound"] > 0.0
