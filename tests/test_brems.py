import math

import mpmath as mp
import numpy as np
import pytest

from nucsp.brems import (
    _density_values,
    _gauss_legendre,
    br_density,
    br_spectral_density,
    br_window_yield,
)
from nucsp.numerics import CONSTANTS
from nucsp.nuclide import registry
from nucsp.probe import Probe, electron, proton

mp.mp.dps = 30


@pytest.fixture
def fe():
    return registry()["Fe-57"]


def _slow_density(probe, z_nucleus, r_nm, theta, phi, omega):
    """Reference assembly with mpmath Bessel values and explicit vectors."""
    beta, gamma = probe.beta, probe.gamma
    doppler = 1.0 - beta * math.cos(theta)
    zeta = doppler * omega * r_nm / probe.velocity_nm_s
    k0 = float(mp.besselk(0, mp.mpf(zeta)))
    k1 = float(mp.besselk(1, mp.mpf(zeta)))
    f_vec = np.array([k1, 0.0, 1j * k0 / gamma ** 2])
    rhat = np.array([math.sin(theta) * math.cos(phi),
                     math.sin(theta) * math.sin(phi), math.cos(theta)])
    zhat = np.array([0.0, 0.0, 1.0])
    vec = (doppler * np.cross(rhat, f_vec)
           + beta * np.cross(rhat, zhat) * (rhat @ f_vec))
    pref = (CONSTANTS.alpha_fs ** 3 * probe.z_charge ** 4 * z_nucleus ** 2
            * CONSTANTS.hbar_eV_s ** 2 * omega
            / (math.pi ** 2 * probe.rest_energy_eV ** 2 * beta ** 4 * gamma ** 2))
    return pref * float(np.sum(np.abs(vec) ** 2))


def test_density_matches_reference_assembly(fe):
    probe = electron(beta=0.9)
    for theta, phi in [(0.2, 0.0), (1.0, 0.7), (2.4, 3.9), (3.0, 1.0)]:
        got = br_density(probe, 26, 0.001, theta, phi, fe.omega0_rad_s)
        ref = _slow_density(probe, 26, 0.001, theta, phi, fe.omega0_rad_s)
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_density_units_are_seconds_scale(fe):
    # sanity on magnitude: per sr per unit omega, order 1e-28 s for these
    # parameters (integrating over sr and a 1 eV window gives ~1e-9)
    probe = electron(beta=0.9)
    val = br_density(probe, 26, 0.001, 0.5, 0.0, fe.omega0_rad_s)
    assert 1e-32 < val < 1e-24


def test_density_mass_scaling_is_exact(fe):
    e = electron(beta=0.9)
    p = proton(beta=0.9)
    ratio = (br_density(p, 26, 0.001, 1.0, 0.5, fe.omega0_rad_s)
             / br_density(e, 26, 0.001, 1.0, 0.5, fe.omega0_rad_s))
    expected = (510998.95 / 938272088.16) ** 2
    assert ratio == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_density_charge_scaling(fe):
    e1 = electron(beta=0.9)
    e2 = Probe(z_charge=-2, rest_energy_eV=e1.rest_energy_eV, beta=0.9)
    base = br_density(e1, 26, 0.001, 1.0, 0.5, fe.omega0_rad_s)
    assert br_density(e2, 26, 0.001, 1.0, 0.5, fe.omega0_rad_s) == pytest.approx(
        16.0 * base, rel=1e-13, abs=0.0)
    assert br_density(e1, 52, 0.001, 1.0, 0.5, fe.omega0_rad_s) == pytest.approx(
        4.0 * base, rel=1e-13, abs=0.0)


def test_density_mirror_symmetry(fe):
    # the beam-nucleus plane (phi = 0) is a mirror plane of the emission
    probe = electron(beta=0.9)
    for theta, phi in [(0.4, 0.9), (1.3, 2.2), (2.5, 0.6)]:
        a = br_density(probe, 26, 0.001, theta, phi, fe.omega0_rad_s)
        b = br_density(probe, 26, 0.001, theta, -phi, fe.omega0_rad_s)
        assert a == pytest.approx(b, rel=1e-13, abs=0.0)
    # but the emission is not azimuthally uniform
    in_plane = br_density(probe, 26, 0.001, 1.0, 0.0, fe.omega0_rad_s)
    out_plane = br_density(probe, 26, 0.001, 1.0, 0.5 * math.pi, fe.omega0_rad_s)
    assert abs(in_plane - out_plane) > 1e-3 * in_plane


def test_density_validation(fe):
    probe = electron(beta=0.9)
    with pytest.raises(ValueError):
        br_density(probe, 26, 0.0, 1.0, 0.0, fe.omega0_rad_s)
    with pytest.raises(ValueError):
        br_density(probe, 26, 0.001, 1.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        br_density(probe, 0, 0.001, 1.0, 0.0, fe.omega0_rad_s)


def test_spectral_density_converges(fe):
    probe = electron(beta=0.9)
    loose = br_spectral_density(probe, 26, 0.001, fe.omega0_rad_s, rel_tol=1e-4)
    tight = br_spectral_density(probe, 26, 0.001, fe.omega0_rad_s, rel_tol=1e-7)
    assert loose == pytest.approx(tight, rel=1e-3, abs=0.0)
    assert tight > 0.0


def test_spectral_density_vs_brute_grid(fe):
    # compare against an independent fixed high-order quadrature
    probe = electron(beta=0.9)
    val = br_spectral_density(probe, 26, 0.001, fe.omega0_rad_s, rel_tol=1e-6)
    nodes, wts = np.polynomial.legendre.leggauss(192)
    n_phi = 96
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    total = 0.0
    for c, w in zip(nodes, wts):
        th = math.acos(c)
        row = sum(br_density(probe, 26, 0.001, th, p, fe.omega0_rad_s)
                  for p in phis)
        total += w * row * (2.0 * math.pi / n_phi)
    assert val == pytest.approx(total, rel=1e-5, abs=0.0)


def _n_point_phi_spectral_density(probe, z_nucleus, r_perp_nm, omega, rel_tol=1e-4):
    """The same cos(theta) doubling with an n-point phi grid that grows with
    the n Gauss-Legendre nodes."""
    prev = None
    n = 32
    while n <= 1024:
        nodes, wts = _gauss_legendre(n)
        phis = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        vals = _density_values(probe, z_nucleus, r_perp_nm, nodes, phis, omega)
        est = float(wts @ vals.sum(axis=1)) * (2.0 * math.pi / n)
        if prev is not None and abs(est - prev) <= rel_tol * max(abs(est), abs(prev)):
            return est
        prev = est
        n *= 2
    raise AssertionError("oracle did not settle")


def test_fixed_phi_grid_matches_growing_grid():
    # |V|^2 has phi degree at most 4, so the 8-point phi grid and an n-point
    # one are both exact and agree to rounding
    lines = [rec.omega0_rad_s for rec in registry().values()]
    for probe in (electron(beta=0.9), electron(beta=0.5), proton(beta=0.6)):
        for z in (26, 66):
            for r in (0.0005, 0.001, 0.002):
                for omega in lines:
                    assert br_spectral_density(probe, z, r, omega) == pytest.approx(
                        _n_point_phi_spectral_density(probe, z, r, omega), rel=1e-14,
                        abs=0.0)


def test_window_yield_scales_linearly(fe):
    probe = electron(beta=0.9)
    y1 = br_window_yield(probe, 26, 0.001, fe.e0_eV, 1.0)
    y2 = br_window_yield(probe, 26, 0.001, fe.e0_eV, 2.0)
    assert y2 == pytest.approx(2.0 * y1, rel=1e-4, abs=0.0)
    assert br_window_yield(probe, 26, 0.001, fe.e0_eV, 0.0) == 0.0


def test_window_yield_frozen_magnitude(fe):
    probe = electron(beta=0.9)
    y = br_window_yield(probe, 26, 0.001, fe.e0_eV, 1.0)
    assert y == pytest.approx(6.7374e-10, rel=1e-3, abs=0.0)


def test_window_yield_validation(fe):
    probe = electron(beta=0.9)
    with pytest.raises(ValueError):
        br_window_yield(probe, 26, 0.001, fe.e0_eV, -1.0)
    with pytest.raises(ValueError):
        br_window_yield(probe, 26, 0.001, -14000.0, 1.0)
    with pytest.raises(ValueError):
        br_window_yield(probe, 26, 0.001, 0.4, 1.0)  # window crosses zero


def test_zero_nuclear_charge_rejected_on_every_path(fe):
    probe = electron(beta=0.9)
    with pytest.raises(ValueError, match="z_nucleus"):
        br_spectral_density(probe, 0, 0.001, fe.omega0_rad_s)
    with pytest.raises(ValueError, match="z_nucleus"):
        br_window_yield(probe, 0, 0.001, fe.e0_eV, 1.0)


def test_empty_window_still_checks_its_arguments(fe):
    probe = electron(beta=0.9)
    with pytest.raises(ValueError, match="r_perp_nm"):
        br_window_yield(probe, 0, -1.0, fe.e0_eV, 0.0)
    with pytest.raises(ValueError, match="z_nucleus"):
        br_window_yield(probe, 0, 0.001, fe.e0_eV, 0.0)


def test_gauss_legendre_nodes_are_shared_read_only():
    for n in (32, 64, 128):
        nodes, wts = _gauss_legendre(n)
        ref_nodes, ref_wts = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(nodes, ref_nodes) and np.array_equal(wts, ref_wts)
        assert not nodes.flags.writeable and not wts.flags.writeable
        assert _gauss_legendre(n)[0] is nodes
        with pytest.raises(ValueError):
            nodes[0] = 0.0
