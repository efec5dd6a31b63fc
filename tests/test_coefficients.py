import math

import numpy as np
import pytest

from weakdis import (
    BudgetError,
    ConfigError,
    Wavepacket,
    WeightDistribution,
    bhat_star_norms,
    build_lattice,
    coefficient_T,
    coefficient_T_oracle,
    conj_symmetry_check,
    profile_fourier_periodized,
    truncation_tail_bound,
)

Z = 1.0 + 0.3j


def test_order0_equals_free_resolvent_pairing(std_lattice, gauss_profile,
                                              rademacher, psi_pair):
    # n=0 has no potential factor: directly <psi1, (H0-z)^{-1} psi2>
    psi1, psi2 = psi_pair
    from weakdis import wavepacket_fourier_periodized

    lat = std_lattice
    p1h = wavepacket_fourier_periodized(psi1, lat.points, lat.L)
    p2h = wavepacket_fourier_periodized(psi2, lat.points, lat.L)
    expected = np.sum(np.conj(p1h) * p2h / (lat.nu_values - Z)) / lat.volume
    got = coefficient_T(0, lat, gauss_profile, rademacher, Z, psi1, psi2)
    assert got.value == pytest.approx(expected, rel=1e-14)
    assert got.partition_count == 1


def test_order0_engine_and_oracle_bitwise(std_lattice, gauss_profile,
                                          rademacher, psi_pair):
    psi1, psi2 = psi_pair
    a = coefficient_T(0, std_lattice, gauss_profile, rademacher, Z, psi1,
                      psi2).value
    b = coefficient_T_oracle(0, std_lattice, gauss_profile, rademacher, Z,
                             psi1, psi2)
    assert a == b


@pytest.mark.parametrize("n", [1, 2, 3])
def test_engine_matches_oracle(n, std_lattice, gauss_profile, rademacher,
                               psi_pair):
    psi1, psi2 = psi_pair
    res = coefficient_T(n, std_lattice, gauss_profile, rademacher, Z, psi1,
                        psi2)
    ora = coefficient_T_oracle(n, std_lattice, gauss_profile, rademacher, Z,
                               psi1, psi2)
    if ora == 0:
        assert res.value == 0
    else:
        assert abs(res.value - ora) / abs(ora) < 1e-12


def test_engine_matches_oracle_nonzero_odd_moments(std_lattice,
                                                   gauss_profile, psi_pair):
    psi1, psi2 = psi_pair
    skewed = WeightDistribution(kind="explicit-moments",
                                moments=(0.0, 1.0, 1.0, 3.0))
    for n in (1, 2, 3):
        res = coefficient_T(n, std_lattice, gauss_profile, skewed, Z, psi1,
                            psi2).value
        ora = coefficient_T_oracle(n, std_lattice, gauss_profile, skewed, Z,
                                   psi1, psi2)
        if n == 1:
            assert res == ora == 0  # m_1 = 0 still kills the single block
        else:
            assert abs(res - ora) / abs(ora) < 1e-12


def test_engine_matches_oracle_d2(gauss_profile, rademacher):
    lat = build_lattice(2, 2.0, 3)
    psi1 = Wavepacket(x0=(0.0, 0.0), a=(0.0, 0.0), sigma=1.0)
    psi2 = Wavepacket(x0=(0.25, -0.1), a=(1.0, 0.0), sigma=1.0)
    res = coefficient_T(2, lat, gauss_profile, rademacher, Z, psi1, psi2)
    ora = coefficient_T_oracle(2, lat, gauss_profile, rademacher, Z, psi1,
                               psi2)
    assert abs(res.value - ora) / abs(ora) < 1e-12


def test_engine_matches_oracle_bump(std_lattice, bump_profile, rademacher,
                                    psi_pair):
    psi1, psi2 = psi_pair
    res = coefficient_T(2, std_lattice, bump_profile, rademacher, Z, psi1,
                        psi2)
    ora = coefficient_T_oracle(2, std_lattice, bump_profile, rademacher, Z,
                               psi1, psi2)
    assert abs(res.value - ora) / abs(ora) < 1e-12


def test_odd_orders_vanish_for_symmetric_weights(std_lattice, gauss_profile,
                                                 rademacher, psi_pair):
    psi1, psi2 = psi_pair
    for n in (1, 3):
        res = coefficient_T(n, std_lattice, gauss_profile, rademacher, Z,
                            psi1, psi2)
        assert res.value == 0


def test_partition_count_matches_bell(std_lattice, gauss_profile, rademacher,
                                      psi_pair):
    psi1, psi2 = psi_pair
    res = coefficient_T(3, std_lattice, gauss_profile, rademacher, Z, psi1,
                        psi2)
    assert res.partition_count == 5


def test_zero_weight_partition_short_circuits(std_lattice, gauss_profile,
                                              rademacher, psi_pair):
    # m_1 = 0: the one partition of order 1 is dead, so no lattice term is
    # summed and it is reported as an exact zero
    psi1, psi2 = psi_pair
    res = coefficient_T(1, std_lattice, gauss_profile, rademacher, Z, psi1,
                        psi2, per_partition=True)
    assert res.value == 0 and res.term_count == 0
    assert res.per_partition == {((1,),): 0}


def test_real_z_rejected(std_lattice, gauss_profile, rademacher, psi_pair):
    psi1, psi2 = psi_pair
    with pytest.raises(ConfigError):
        coefficient_T(0, std_lattice, gauss_profile, rademacher, 1.0 + 0.0j,
                      psi1, psi2)


def test_budget_error(std_lattice, gauss_profile, rademacher, psi_pair):
    psi1, psi2 = psi_pair
    with pytest.raises(BudgetError):
        coefficient_T(2, std_lattice, gauss_profile, rademacher, Z, psi1,
                      psi2, budget=100)


def test_conjugate_symmetry(std_lattice, gauss_profile, rademacher, psi_pair):
    psi1, _ = psi_pair
    rep = conj_symmetry_check(2, std_lattice, gauss_profile, rademacher, Z,
                              psi1)
    assert rep.passed
    assert rep.lhs <= 1e-12


def test_per_partition_sums_to_total(std_lattice, gauss_profile, rademacher,
                                     psi_pair):
    psi1, psi2 = psi_pair
    res = coefficient_T(2, std_lattice, gauss_profile, rademacher, Z, psi1,
                        psi2, per_partition=True)
    total = sum(res.per_partition.values())
    assert total == pytest.approx(res.value, rel=1e-14)


def test_bhat_star_norms_match_direct_sum(gauss_profile):
    # the norms cover the difference window [-2K, 2K]; the box-truncated
    # transform has 1/k^2 edge tails, so s1 carries a small envelope surplus
    L, K = 2.0, 8
    s1, sinf = bhat_star_norms(gauss_profile, L, K=K, d=1)
    ks = np.arange(-2 * K, 2 * K + 1)[:, None] / L
    vals = np.abs(profile_fourier_periodized(gauss_profile, ks, L))
    assert sinf == pytest.approx(vals.max(), rel=1e-14)
    direct = vals.sum() / L
    assert direct <= s1 <= direct + 0.01


def test_truncation_tail_bound_positive_and_shrinks(gauss_profile, rademacher,
                                                    psi_pair):
    psi1, psi2 = psi_pair
    tails = []
    for K in (4, 8, 16):
        lat = build_lattice(1, 2.0, K)
        tails.append(truncation_tail_bound(2, lat, gauss_profile, rademacher,
                                           Z, psi1, psi2))
    assert all(t > 0 for t in tails)
    assert tails[0] > tails[1] > tails[2]


# a pair whose second wavepacket moves at negative momentum
NEGATIVE_A = (Wavepacket(x0=(0.0,), a=(0.0,), sigma=1.0),
              Wavepacket(x0=(0.25,), a=(-1.0,), sigma=1.0))


def test_truncation_tail_dominates_K_increment(gauss_profile, rademacher,
                                               psi_pair):
    # doubling K moves the value by less than the claimed tail bound, for
    # the shipped pair and for one at negative momentum
    lat8 = build_lattice(1, 2.0, 8)
    lat16 = build_lattice(1, 2.0, 16)
    for psi1, psi2 in (psi_pair, NEGATIVE_A):
        v8 = coefficient_T(2, lat8, gauss_profile, rademacher, Z, psi1, psi2)
        v16 = coefficient_T(2, lat16, gauss_profile, rademacher, Z, psi1,
                            psi2)
        assert abs(v8.value - v16.value) <= truncation_tail_bound(
            2, lat8, gauss_profile, rademacher, Z, psi1, psi2)


def test_imag_sign_flip_conjugates(std_lattice, gauss_profile, rademacher,
                                   psi_pair):
    # real profile, real weights: conj T_n(z; psi1, psi2) = T_n(z-bar) with
    # the test functions swapped (matrix-element adjoint symmetry)
    psi1, psi2 = psi_pair
    up = coefficient_T(2, std_lattice, gauss_profile, rademacher, Z, psi1,
                       psi2).value
    dn = coefficient_T(2, std_lattice, gauss_profile, rademacher,
                       Z.conjugate(), psi2, psi1).value
    assert dn == pytest.approx(up.conjugate(), rel=1e-13)


def test_cached_tables_are_read_only(std_lattice, gauss_profile, psi_pair):
    from weakdis.bounds import _big_window_data
    from weakdis.coefficients import bhat_difference_table, psi_hat_vector
    from weakdis.montecarlo import _difference_layout

    tables = [bhat_difference_table(gauss_profile, std_lattice),
              psi_hat_vector(psi_pair[0], std_lattice), std_lattice.ints,
              *_difference_layout(std_lattice),
              *_big_window_data(gauss_profile, 1, 2.0, 64, False)]
    for tab in tables:
        assert not tab.flags.writeable
    # a second call hands back the cached object, not a rebuilt copy
    assert bhat_difference_table(gauss_profile, std_lattice) is tables[0]
    assert psi_hat_vector(psi_pair[0], std_lattice) is tables[1]
    assert _difference_layout(std_lattice)[1] is tables[4]


def test_truncation_tail_envelope_sums_are_built_once(psi_pair, gauss_profile,
                                                      rademacher, monkeypatch):
    import weakdis.coefficients as co

    lat = build_lattice(1, 2.0, 5)
    built = []
    for name in ("profile_axis_envelope", "wavepacket_axis_envelope"):
        make = getattr(co, name)
        monkeypatch.setattr(co, name, lambda *a, make=make: built.append(a)
                            or make(*a))

    def sweep(z):
        return [truncation_tail_bound(n, lat, gauss_profile, rademacher, z,
                                      *psi_pair) for n in range(5)]

    first = sweep(Z)
    assert built
    once = len(built)
    # the envelope sums depend on neither z nor n: later sweeps build none
    assert [sweep(z) for z in (Z, 2.0 + 0.5j)][0] == first
    assert len(built) == once


def test_psi_escape_mass_covers_both_sides_of_the_axis():
    # a wavepacket at negative momentum puts more envelope mass at m < 0:
    # the escape mass outside the half-window K // 2 = 8 must still cover
    # the paired envelopes summed over both sides, 8 < |m| <= 1e5
    from weakdis.coefficients import _psi_escape_sums
    from weakdis.lattice import wavepacket_axis_envelope

    psi1, psi2 = NEGATIVE_A
    L = 2.0
    _, escape = _psi_escape_sums(build_lattice(1, L, 16), psi1, psi2)
    e1 = wavepacket_axis_envelope(psi1, 0, L)
    e2 = wavepacket_axis_envelope(psi2, 0, L)
    ms = np.arange(9, 100_001) / L
    brute = (math.fsum(e1(ms) * e2(ms)) + math.fsum(e1(-ms) * e2(-ms))) / L
    assert escape >= brute
