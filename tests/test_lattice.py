import math
import subprocess
import sys
from itertools import product

import numpy as np
import pytest
from scipy.special import wofz

from weakdis import (
    ConfigError,
    MomentumLattice,
    ProfileSpec,
    Wavepacket,
    build_lattice,
    dist_to_spectrum,
    fourier_decay_check,
    nu,
    profile_fourier_periodized,
    profile_periodized_value,
    wavepacket_fourier_periodized,
)
from weakdis import lattice as lat
from weakdis.lattice import _int_grid, _weighted_sup, int_box

from reference import box_norm_sq, fourier_quad_axis, nelder_mead_weighted_sup


def test_lattice_point_count():
    lat = build_lattice(1, 2.0, 3)
    assert lat.size == 7
    assert lat.points.shape == (7, 1)
    lat2 = build_lattice(2, 2.0, 3)
    assert lat2.size == 49


def test_lattice_points_are_integer_multiples():
    lat = build_lattice(1, 2.0, 3)
    got = sorted(lat.points[:, 0].tolist())
    assert got == [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]


def test_nu_sum_small_lattice():
    # d=1, L=1, K=1: points -1, 0, 1 -> nu = 1/2, 0, 1/2; sum = 1
    lat = build_lattice(1, 1.0, 1)
    assert math.fsum(lat.nu_values) == pytest.approx(1.0, abs=1e-15)


def test_nu_quadratic():
    p = np.array([[3.0, 4.0]])
    assert nu(p)[0] == pytest.approx(12.5)


def test_dist_to_spectrum():
    assert dist_to_spectrum(1.0 + 0.3j) == pytest.approx(0.3)
    assert dist_to_spectrum(-2.0 + 1.0j) == pytest.approx(math.sqrt(5.0))
    with pytest.raises(ConfigError):
        dist_to_spectrum(1.0)


def test_gaussian_fourier_matches_quadrature(gauss_profile):
    L = 2.0
    for q in (0.0, 0.5, -1.5, 4.0):
        quad = fourier_quad_axis(gauss_profile.axis_value, L, q)
        got = profile_fourier_periodized(gauss_profile, np.array([[q]]), L)[0]
        assert got == pytest.approx(complex(quad).real, abs=5e-13)


def test_faddeeva_matches_scipy_wofz():
    # bound fixed beforehand: 5e-14 relative; the worst points lie near
    # |z| = 6-8
    x = np.linspace(-300.0, 300.0, 60001)
    for y in (1e-8, 1e-3, 0.5, 1.77, 7.0, 30.0, 100.0):
        z = x + 1j * y
        ref = wofz(z)
        assert np.max(np.abs(lat._faddeeva(z) - ref) / np.abs(ref)) <= 5e-14


def test_gauss_box_transform_matches_the_wofz_route(monkeypatch):
    # the same closed form through scipy's wofz, on lattice momenta m / L
    sweep = [(sigma, L, x0) for sigma in (0.05, 0.3, 1.0, 4.0, 30.0)
             for L in (1.0, 2.0, 4.0, 8.0, 64.0)
             for x0 in (0.0, 0.25, 0.45 * L)]
    qs = [np.arange(-64, 65) / L for _, L, _ in sweep]
    got = [lat._gauss_box_ft_axis(*case[:2], q, case[2])
           for case, q in zip(sweep, qs)]
    monkeypatch.setattr(lat, "_faddeeva", wofz)
    for case, q, g in zip(sweep, qs, got):
        ref = lat._gauss_box_ft_axis(*case[:2], q, case[2])
        assert np.max(np.abs(g - ref) / np.abs(ref)) <= 5e-14, case


def test_gaussian_fourier_offcenter_matches_quadrature():
    prof = ProfileSpec(kind="gaussian", b0=2.0, sigma=0.5)
    L = 3.0
    for q in (0.0, 1.0 / 3.0, -2.0):
        quad = fourier_quad_axis(lambda x: prof.value(x.reshape(-1, 1)), L, q)
        got = profile_fourier_periodized(prof, np.array([[q]]), L)[0]
        assert abs(got - quad) < 5e-13


def test_bump_fourier_matches_quadrature(bump_profile):
    L = 2.0
    for q in (0.0, 0.5, 1.0, 2.5):
        quad = fourier_quad_axis(bump_profile.axis_value, L, q)
        got = profile_fourier_periodized(bump_profile, np.array([[q]]), L)[0]
        assert abs(got - quad) < 5e-13


def test_bump_axis_transform_spot_values():
    # axis transform of the cosine bump: value r at q=0 and r/2 at |2 q r|=1
    from weakdis.lattice import _bump_ft_axis

    r = 0.5
    assert _bump_ft_axis(r, np.array([0.0]))[0] == pytest.approx(r)
    assert _bump_ft_axis(r, np.array([1.0]))[0] == pytest.approx(r / 2.0)
    assert _bump_ft_axis(r, np.array([-1.0]))[0] == pytest.approx(r / 2.0)


def test_bump_near_singularity_is_continuous():
    from weakdis.lattice import _bump_ft_axis

    r = 0.5
    qs = np.linspace(0.9, 1.1, 2001)
    vals = _bump_ft_axis(r, qs)
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(np.diff(vals))) < 1e-3


def test_separable_product_in_d2(gauss_profile):
    L = 2.0
    p = np.array([[0.5, -1.0]])
    v2 = profile_fourier_periodized(gauss_profile, p, L)[0]
    vx = profile_fourier_periodized(gauss_profile, np.array([[0.5]]), L)[0]
    vy = profile_fourier_periodized(gauss_profile, np.array([[-1.0]]), L)[0]
    assert v2 == pytest.approx(vx * vy, rel=1e-14)


def test_wavepacket_fourier_matches_quadrature():
    psi = Wavepacket(x0=(0.25,), a=(1.0,), sigma=0.7)
    L = 2.0
    for q in (0.0, 0.5, -1.0):
        quad = fourier_quad_axis(lambda x: psi.value(x.reshape(-1, 1)), L, q)
        got = wavepacket_fourier_periodized(psi, np.array([[q]]), L)[0]
        assert abs(got - quad) < 5e-12


def test_wavepacket_unit_norm():
    # full-space L2 norm is 1 by construction; the box restriction at L=8
    # captures essentially all of it
    psi = Wavepacket(x0=(0.0,), a=(0.0,), sigma=1.0)
    assert box_norm_sq(psi, 8.0) == pytest.approx(1.0, abs=1e-10)
    assert box_norm_sq(psi, 2.0) < 1.0


def test_profile_periodized_value_wraps(gauss_profile):
    L = 2.0
    inside = profile_periodized_value(gauss_profile, np.array([0.3]), L)
    wrapped = profile_periodized_value(gauss_profile, np.array([0.3 + L]), L)
    assert wrapped == pytest.approx(inside, rel=1e-15)
    edge = profile_periodized_value(gauss_profile, np.array([-L / 2]), L)
    assert edge == pytest.approx(gauss_profile.value(np.array([[-L / 2]]))[0])


def test_periodized_coefficients_invert_to_wrapped_values(gauss_profile):
    # Fourier series with the truncated coefficients reproduces the wrapped
    # profile inside the box (many modes needed only for the jump at the edge)
    L, x = 2.0, 0.37
    ks = np.arange(-400, 401)[:, None] / L
    coeff = profile_fourier_periodized(gauss_profile, ks, L)
    series = np.sum(coeff * np.exp(2j * np.pi * ks[:, 0] * x)) / L
    direct = profile_periodized_value(gauss_profile, np.array([x]), L)
    assert abs(series - direct) < 1e-6


def test_fourier_decay_check_gaussian(gauss_profile, std_lattice):
    rep = fourier_decay_check(gauss_profile, std_lattice)
    assert rep.passed


def test_fourier_decay_check_bump(bump_profile, std_lattice):
    rep = fourier_decay_check(bump_profile, std_lattice)
    assert rep.passed


@pytest.mark.parametrize("d", [1, 2, 3])
def test_zoom_sup_matches_nelder_mead(d, gauss_profile, bump_profile):
    for profile, alpha in product([gauss_profile, bump_profile],
                                  product(range(3), repeat=d)):
        assert _weighted_sup(profile, alpha, d) == pytest.approx(
            nelder_mead_weighted_sup(profile, alpha, d), rel=1e-13, abs=0)


@pytest.mark.parametrize("r", [0.02, 0.5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_bump_sups_reach_their_product_bounds(r, d):
    # |d^a B_j| peaks at s_0 = 1 (t = 0), s_1 = pi/(2r) (t = r/2) and
    # s_2 = pi^2/(2r^2) (t = r), and the weight is at least 1: the sup is at
    # least the product of the axis peaks, and at least its value at the
    # support corner (r, ..., r)
    bump = ProfileSpec(kind="cosine-bump", b0=1.0, r=r)
    peak = (1.0, math.pi / (2 * r), math.pi**2 / (2 * r * r))
    for alpha in product(range(3), repeat=d):
        corner = (1.0 + d * r * r) ** d * math.prod(
            abs(float(bump.axis_derivative(np.array([r]), a)[0]))
            for a in alpha)
        sup = _weighted_sup(bump, alpha, d)
        assert sup >= math.prod(peak[a] for a in alpha)
        assert sup >= corner


def test_fourier_decay_check_loads_no_optimizer():
    # the bounds study runs the decay check; its sups need no scipy.optimize
    code = ("import sys\n"
            "from weakdis import ProfileSpec, build_lattice\n"
            "from weakdis.lattice import fourier_decay_check\n"
            "fourier_decay_check(ProfileSpec(kind='cosine-bump', r=0.5), "
            "build_lattice(2, 2.0, 2))\n"
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["False"]


def test_profile_validation():
    with pytest.raises(ConfigError):
        ProfileSpec(kind="gaussian", b0=1.0, sigma=-1.0)
    with pytest.raises(ConfigError):
        ProfileSpec(kind="cosine-bump", b0=1.0, r=0.0)
    with pytest.raises(ConfigError):
        ProfileSpec(kind="mesa", b0=1.0)


def test_lattice_validation():
    with pytest.raises(ConfigError):
        build_lattice(0, 2.0, 3)
    with pytest.raises(ConfigError):
        build_lattice(1, -1.0, 3)
    with pytest.raises(ConfigError):
        MomentumLattice(d=1, L=2.0, K=0)


def test_int_box_order_and_cached_window():
    box = int_box(2, 1)
    assert box.shape == (9, 2)
    assert box.tolist() == [[a, b] for a in (-1, 0, 1) for b in (-1, 0, 1)]
    assert int_box(0, 3).shape == (1, 0)
    grid = _int_grid(3, 2)
    assert np.array_equal(grid, int_box(3, 2))
    assert not grid.flags.writeable
    assert int_box(3, 2).flags.writeable  # built fresh, not the cached grid
