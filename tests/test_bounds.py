import math
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from weakdis import (
    BudgetError,
    ConfigError,
    ProfileSpec,
    WeightDistribution,
    build_lattice,
    c_tilde,
    check_arctan_bound,
    check_log_integral_bound,
    check_resolvent_sum_bound,
    check_weighted_resolvent_sum,
    const_C,
    const_C1,
    main_error_bound_rhs,
    measured_cB,
    profile_fourier_periodized,
    scaling_exponent,
)
from weakdis.bounds import (
    _big_window_data,
    _ft_axis_abs,
    _weighted_square_sum,
    ft_norm_l1,
)
from weakdis import cli
from weakdis.lattice import int_box


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


def test_gaussian_window_keeps_only_nonzero_points(gauss_profile):
    # the full-space Gaussian transform underflows to exact zeros past
    # |k| ~ 15, so of the (2 * 768 + 1)^2 = 2,362,369 window points at
    # d = 2, L = 2 only the nonzero band is kept
    nu, absf = _big_window_data(gauss_profile, 2, 2.0, 768, False)
    assert nu.shape == absf.shape
    assert 0 < absf.size < 10**4


def _full_window(profile, d, L, X, truncated):
    """(nu, |f|) on every point of int_box(d, X) / L, zeros included."""
    pts = int_box(d, X) / L
    nu = 0.5 * np.sum(pts**2, axis=-1)
    if truncated:
        return nu, np.abs(profile_fourier_periodized(profile, pts, L))
    absf = np.full(pts.shape[0], abs(profile.b0))
    for j in range(d):
        absf = absf * _ft_axis_abs(profile)(pts[:, j])
    return nu, absf


@pytest.mark.parametrize("profile", [
    ProfileSpec(kind="gaussian", b0=-0.7, sigma=1.0),
    ProfileSpec(kind="cosine-bump", b0=1.0, r=0.3),
], ids=["gaussian", "cosine-bump"])
@pytest.mark.parametrize("truncated", [False, True])
def test_window_sum_equals_full_window_sum(profile, truncated):
    for d, L, X in [(1, 1.0, 20), (1, 2.0, 40), (2, 1.0, 20), (3, 1.0, 20)]:
        nu, absf = _big_window_data(profile, d, L, X, truncated)
        ref_nu, ref_absf = _full_window(profile, d, L, X, truncated)
        for E, eta in [(0.5, 1e-3), (1.0, 0.1), (2.0, 1.0)]:
            got = math.fsum(absf / np.hypot(nu - E, eta))
            want = math.fsum(ref_absf / np.hypot(ref_nu - E, eta))
            assert got == want, (d, L, E, eta)


def test_weighted_square_sum_equals_full_window_sum():
    for d, L, X in [(1, 2.0, 64), (1, 3.0, 64), (2, 2.0, 24), (3, 1.0, 8)]:
        for E, tau, eta in [(1.0, 0.0, 1e-3), (0.5, 0.5, 0.1)]:
            if not tau < 4 - d:
                continue
            a2 = np.sum(int_box(d, X) ** 2, axis=-1) / L**2
            vals = (1.0 + a2) ** (tau / 2.0) / ((a2 - E) ** 2 + eta**2)
            # one exact sum per first coordinate, then over those
            total = math.fsum(math.fsum(row)
                              for row in vals.reshape(2 * X + 1, -1))
            rem = (8.0 * d * 3.0 ** (d - 1) * 2.0 ** (tau / 2.0)
                   * L ** (4.0 - tau - d) * X ** (d + tau - 4.0)
                   / (4.0 - d - tau))
            assert _weighted_square_sum(E, tau, eta, d, L, X) == (
                (total + rem) / L**d), (d, L, E, tau, eta)


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


@pytest.mark.parametrize("d", [1, 2])
def test_log_integral_lhs_matches_quad(d, gauss_profile):
    # the default bounds grid, against quad split at the breakpoints
    # |q| = sqrt(E); sigma = 1, so |f(q)| = exp(-pi |q|^2)
    for E, eta in product((0.5, 1.0, 2.0), (1e-3, 1e-2, 0.1, 1.0)):
        rep = check_log_integral_bound(E, d, eta, gauss_profile)
        root = math.sqrt(E)
        R = max(8.0, 2.0 * root + 2.0)
        if d == 1:
            ref = quad(lambda x: math.exp(-math.pi * x * x)
                       / math.hypot(x * x - E, eta), -R, R,
                       points=[-root, root], epsabs=1e-13, epsrel=1e-13,
                       limit=400)[0]
            ref += 2.0 * math.exp(-math.pi * R * R) * R / (R * R - E)
        else:
            ref = quad(lambda r: 2.0 * math.pi * r * math.exp(-math.pi * r * r)
                       / math.hypot(r * r - E, eta), 0.0, R, points=[root],
                       epsabs=1e-13, epsrel=1e-13, limit=400)[0]
        assert abs(rep.lhs - ref) <= 1e-12 * max(rep.lhs, rep.rhs), (E, eta)


def test_bump_integrals_match_lobe_split_quad(bump_profile):
    # |transform| has kinks at its zeros m / (2r), m >= 2
    r = bump_profile.r
    axis = _ft_axis_abs(bump_profile)
    lobes = [0.0, 1.0 / r] + [m / (2.0 * r) for m in range(3, 801)]

    def lobe_split(f, edges):
        return math.fsum(quad(f, a, b, epsabs=1e-15, epsrel=1e-13,
                              limit=100)[0] for a, b in zip(edges, edges[1:]))

    R = lobes[-1]
    ref = 2.0 * (lobe_split(lambda k: float(axis(k)), lobes)
                 + 1.0 / (4.0 * r * R))
    assert ft_norm_l1(bump_profile, 1) == pytest.approx(ref, rel=1e-9)
    for E, eta in ((0.5, 1e-3), (2.0, 1e-3)):
        rep = check_log_integral_bound(E, 1, eta, bump_profile)
        edges = sorted(set(lobes) | {math.sqrt(E)})
        ref = 2.0 * lobe_split(lambda k: float(axis(k))
                               / math.hypot(k * k - E, eta), edges)
        ref += 2.0 * float(axis(R)) * R / (R * R - E)
        assert rep.lhs == pytest.approx(ref, rel=1e-9), (E, eta)


def test_log_integral_sees_narrow_and_wide_transforms():
    for d in (1, 2):
        # sigma = 1e-6: a unit mass of width 6e-4 at q = 0
        narrow = ProfileSpec(kind="gaussian", b0=1.0, sigma=1e-6)
        rep = check_log_integral_bound(2.0, d, 1e-3, narrow)
        assert rep.lhs == pytest.approx(1.0 / math.hypot(2.0, 1e-3),
                                        rel=1e-6), d
    # sigma = 1e6: the transform reaches R = 8000
    wide = ProfileSpec(kind="gaussian", b0=1.0, sigma=1e6)
    R = 8000.0
    rep = check_log_integral_bound(1.0, 1, 1e-3, wide)
    ref = 2.0 * quad(lambda x: math.exp(-math.pi * x * x / 1e6) / 1e3
                     / math.hypot(x * x - 1.0, 1e-3), 0.0, R,
                     points=[0.5, 1.0, 2.0, 8.0, 64.0, 512.0],
                     epsabs=1e-15, epsrel=1e-13, limit=400)[0]
    ref += 2.0 * math.exp(-math.pi * R * R / 1e6) / 1e3 * R / (R * R - 1.0)
    assert rep.lhs == pytest.approx(ref, rel=1e-9)


def test_arctan_bound_sees_narrow_profiles():
    # the bounds study passes the profile's peak and kinks: a bump of
    # radius r integrates to r, which no node of one or two panels sees
    model = {"d": 1, "L": 2.0, "K": 4,
             "profile": {"kind": "cosine-bump", "b0": 1.0, "r": 0.02},
             "weights": {"kind": "rademacher"}}
    study = {"kind": "bounds", "E_grid": [1.0], "eta_grid": [0.1],
             "L_grid": [1], "d_grid": [1]}
    rep, = [r for r in cli._bound_rows({"model": model, "study": study})
            if r.name == "arctan_bound"]
    assert rep.lhs == pytest.approx(0.02, rel=1e-12)
    bump = ProfileSpec(kind="cosine-bump", b0=1.0, r=1e-3)
    rep = check_arctan_bound(bump.axis_value, -10.0, 10.0, (-1e-3, 0.0, 1e-3))
    assert rep.lhs == pytest.approx(1e-3, rel=1e-12)
    gauss = ProfileSpec(kind="gaussian", b0=1.0, sigma=1e6)
    rep = check_arctan_bound(gauss.axis_value, -10.0, 10.0, (0.0,))
    assert rep.lhs == pytest.approx(1e-3, rel=1e-12)


def test_bound_rows_evaluate_fullspace_norms_once_per_key():
    # the resolvent check's tail and const_C both read the full-space
    # norms: one evaluation per (profile, L, d) serves every (E, eta)
    from weakdis import bounds

    model = {"d": 1, "L": 2.0, "K": 4,
             "profile": {"kind": "gaussian", "b0": 1.0, "sigma": 1.0},
             "weights": {"kind": "rademacher"}}
    study = {"kind": "bounds", "E_grid": [1.0, 2.0], "eta_grid": [0.1, 0.3],
             "L_grid": [1, 2], "d_grid": [1]}
    bounds.fullspace_star_norms.cache_clear()
    cli._bound_rows({"model": model, "study": study})
    info = bounds.fullspace_star_norms.cache_info()
    assert info.misses == 2
    assert info.hits == 2 * 2 * 2 * 2 - 2


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


def test_bound_windows_budgeted_before_they_allocate():
    # X grows with L: at L = 1e6 either window's side alone is 2e9 or 8e9
    # points.  A child process under a 1 GiB address-space cap must see
    # BudgetError before any np.arange over the side, not a MemoryError.
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from weakdis import BudgetError, ProfileSpec, build_lattice\n"
        "from weakdis import bounds\n"
        "gauss = ProfileSpec(kind='gaussian', b0=1.0, sigma=1.0)\n"
        "for check in (lambda: bounds.check_weighted_resolvent_sum(\n"
        "                  1.0, 0.0, 1e-3, build_lattice(1, 1e6, 1)),\n"
        "              lambda: bounds.check_resolvent_sum_bound(\n"
        "                  1.0, 1, 1e6, 0.1, gauss)):\n"
        "    try:\n"
        "        check()\n"
        "    except BudgetError as exc:\n"
        "        print(exc)\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2 and all("d=1, L=1e+06" in ln for ln in lines)


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
