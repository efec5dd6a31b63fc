import math

import numpy as np
import pytest

from weakdis import (
    BudgetError,
    ConfigError,
    WeightDistribution,
    build_lattice,
    c_tilde,
    check_arctan_bound,
    check_log_integral_bound,
    check_resolvent_sum_bound,
    check_sup_weight_grid,
    check_weighted_resolvent_sum,
    const_C,
    const_C1,
    main_error_bound_rhs,
    measured_cB,
    scaling_exponent,
)
from weakdis.bounds import _maximize_sup_weight, sup_weight_decoupled


def test_C1_closed_form():
    assert const_C1(1.0, 1) == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-15)
    assert const_C1(1.0, 2) == pytest.approx(
        math.sqrt(2.0) * (math.sqrt(2.0) + 1.0) * 2.0 * math.pi, rel=1e-15)
    assert const_C1(1.0, 1) < const_C1(1.0, 2) < const_C1(1.0, 3)


def test_C1_validation():
    with pytest.raises(ConfigError):
        const_C1(0.0, 1)
    with pytest.raises(ConfigError):
        const_C1(1.0, 4)


def test_C_log_term_scaling(gauss_profile):
    # only the log term depends on eta, with coefficient 2*sinf*C1(2E)
    E, d, L = 1.0, 1, 2.0
    eta = 0.01
    diff = (const_C(E, d, L, eta / 10.0, gauss_profile)
            - const_C(E, d, L, eta, gauss_profile))
    from weakdis.bounds import _star_norms
    _, sinf = _star_norms(gauss_profile, L, d, False)
    expected = 2.0 * sinf * const_C1(2.0 * E, d) * (
        math.log(10.0 / eta + 1.0) - math.log(1.0 / eta + 1.0))
    assert diff == pytest.approx(expected, rel=1e-12)


def test_resolvent_sum_bound_spot_checks(gauss_profile):
    for (d, L) in [(1, 1.0), (1, 2.0), (2, 1.0)]:
        for E in (0.5, 1.0):
            for eta in (1e-3, 0.1):
                rep = check_resolvent_sum_bound(E, d, L, eta, gauss_profile)
                assert rep.passed, (d, L, E, eta, rep.lhs, rep.rhs)
                assert rep.context["transform"] == "full-space"


def test_resolvent_sum_bound_bump(bump_profile):
    rep = check_resolvent_sum_bound(1.0, 1, 2.0, 0.01, bump_profile)
    assert rep.passed


def test_resolvent_sum_truncated_fails_at_resonance(gauss_profile):
    # nu(+-1) = E = 0.5 exactly on the L=1 dual lattice; the boundary term
    # of the box truncation fattens |f| on the resonant shell enough to
    # defeat the closed-form constant there.  The default (full-space
    # transform) passes at the same corner.
    rep_t = check_resolvent_sum_bound(0.5, 1, 1.0, 1e-3, gauss_profile,
                                      truncated=True)
    assert not rep_t.passed
    assert rep_t.context["transform"] == "truncated"
    rep_f = check_resolvent_sum_bound(0.5, 1, 1.0, 1e-3, gauss_profile)
    assert rep_f.passed


def test_log_integral_bound(gauss_profile, bump_profile):
    for d in (1, 2, 3):
        rep = check_log_integral_bound(1.0, d, 0.01, gauss_profile)
        assert rep.passed, (d, rep.lhs, rep.rhs)
    rep = check_log_integral_bound(1.0, 1, 0.01, bump_profile)
    assert rep.passed
    with pytest.raises(ConfigError):
        check_log_integral_bound(1.0, 2, 0.01, bump_profile)


def test_arctan_bound_near_equality():
    # f = 1/(1+x^2): the weighted sup is exactly 1 and the full-line
    # integral is exactly pi, so lhs -> rhs as the interval grows
    rep = check_arctan_bound(lambda x: 1.0 / (1.0 + np.asarray(x) ** 2),
                             -2000.0, 2000.0)
    assert rep.passed
    assert rep.rhs == pytest.approx(math.pi, rel=1e-12)
    assert rep.lhs == pytest.approx(math.pi, rel=1e-3)


def test_arctan_bound_gaussian():
    rep = check_arctan_bound(lambda x: np.exp(-np.asarray(x) ** 2), -10.0,
                             10.0)
    assert rep.passed
    with pytest.raises(ConfigError):
        check_arctan_bound(lambda x: x, 1.0, 1.0)


def test_weighted_resolvent_sum(std_lattice):
    rep = check_weighted_resolvent_sum(1.0, 0.0, 1e-3, std_lattice)
    assert rep.passed
    assert rep.lhs >= 1.0  # a max/min ratio
    # box-size sweep stays bounded too
    vals = list(rep.context["by_L"].values())
    assert max(vals) / min(vals) <= rep.rhs


def test_weighted_resolvent_sum_validation(std_lattice):
    with pytest.raises(ConfigError):
        check_weighted_resolvent_sum(1.0, 3.0, 1e-3, std_lattice)
    with pytest.raises(ConfigError):
        check_weighted_resolvent_sum(1.0, 0.0, 0.0, std_lattice)


def test_measured_cB_frozen(gauss_profile):
    assert measured_cB(gauss_profile, 1) == pytest.approx(
        1.1250084523998192, rel=1e-12)


def test_c_tilde_frozen(gauss_profile):
    assert c_tilde(1.0, 1, gauss_profile) == pytest.approx(
        14.899127545473156, rel=1e-12)
    # dominates both closed-form branches by construction
    normB1 = gauss_profile.norm_l1(1)
    assert c_tilde(1.0, 1, gauss_profile) >= 2.0 * normB1 * const_C1(2.0, 1)


def test_main_rhs_coupling_power(gauss_profile, rademacher, psi_pair):
    p1, p2 = psi_pair
    args = (1, 1.0, 0.3, )
    r1 = main_error_bound_rhs(2, 1, 1.0, 0.3, 0.1, gauss_profile, rademacher,
                              p1, p2)
    r2 = main_error_bound_rhs(2, 1, 1.0, 0.3, 0.05, gauss_profile,
                              rademacher, p1, p2)
    assert r1 / r2 == pytest.approx(4.0, rel=1e-14)
    assert r1 == pytest.approx(77.78189028242161, rel=1e-12)


def test_main_rhs_order_zero_closed_form(gauss_profile, rademacher,
                                         psi_pair):
    # K_0 = 1: the only partition of the empty set has weight 1, no blocks
    p1, p2 = psi_pair
    eta = 0.3
    rhs = main_error_bound_rhs(0, 1, 1.0, eta, 0.1, gauss_profile, rademacher,
                               p1, p2)
    assert rhs == pytest.approx(eta**-1.5, rel=1e-15)


def test_main_rhs_validation(gauss_profile, rademacher, psi_pair):
    p1, p2 = psi_pair
    with pytest.raises(BudgetError):
        main_error_bound_rhs(5, 1, 1.0, 0.3, 0.1, gauss_profile, rademacher,
                             p1, p2)
    biased = WeightDistribution(kind="explicit-moments",
                                moments=(0.5, 1.0, 0.0, 1.0))
    with pytest.raises(ConfigError):
        main_error_bound_rhs(2, 1, 1.0, 0.3, 0.1, gauss_profile, biased, p1,
                             p2)


def test_scaling_exponent_formula():
    assert scaling_exponent(2, 0.5) == pytest.approx(-1.75)
    assert scaling_exponent(0, 0.5) == pytest.approx(-2.25)
    assert scaling_exponent(3, 1.0) == pytest.approx(0.0)
    # matches n - (2-eps)(n/2 + 3/2) for a random pair
    n, eps = 4, 0.3
    assert scaling_exponent(n, eps) == pytest.approx(
        n - (2.0 - eps) * (n / 2.0 + 1.5), rel=1e-15)


def test_sup_weight_grid():
    rep = check_sup_weight_grid(1.0 / 32.0, 0.5, 0.5,
                                [(0.0,), (1.0,), (2.0,), (4.0,)], sigma=1)
    assert rep.passed
    assert rep.lhs >= 1.0


def test_sup_weight_grid_validation():
    with pytest.raises(ConfigError):
        check_sup_weight_grid(1.0, 1.5, 0.5, [(0.0,)])
    with pytest.raises(ConfigError):
        check_sup_weight_grid(1.0, 0.5, 0.5, [(0.0,)], sigma=2)


def test_sup_weight_decoupled_cross_check():
    # sigma = 0 makes the joint weight factorize, so the direct joint
    # search must land on the product of the two single-momentum sups
    q, E, eta, eps = (1.0,), 0.25, 0.3, 0.5
    joint = _maximize_sup_weight(q, E, eta, eps, sigma=0, seed=0)
    product = sup_weight_decoupled(q, E, eta, eps, seed=0)
    assert joint == pytest.approx(product, rel=1e-6)
