import math

import numpy as np
import pytest

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
from weakdis.lattice import _int_grid, fourier_quad_axis, int_box


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


def test_flat_index_roundtrip():
    lat = build_lattice(2, 2.0, 3)
    idx = lat.flat_index(lat.ints)
    assert np.array_equal(idx, np.arange(lat.size))


def test_gaussian_fourier_matches_quadrature(gauss_profile):
    L = 2.0
    for q in (0.0, 0.5, -1.5, 4.0):
        quad = fourier_quad_axis(gauss_profile.axis_value, L, q)
        got = profile_fourier_periodized(gauss_profile, np.array([[q]]), L)[0]
        assert got == pytest.approx(complex(quad).real, abs=5e-13)


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
    assert psi.box_norm_sq(8.0) == pytest.approx(1.0, abs=1e-10)
    assert psi.box_norm_sq(2.0) < 1.0


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
