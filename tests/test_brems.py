import importlib.util
import math
import tracemalloc
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from nucsp.brems import (
    _GRID_TERMS,
    _density_values,
    _legendre_64,
    _window_yields,
    br_density,
    br_spectral_density,
    br_window_yield,
)
from nucsp.numerics import CONSTANTS, bessel_k01
from nucsp.nuclide import registry
from nucsp.probe import SPECIES, Probe, electron, proton
from nucsp.scenarios import MAX_WINDOW_SHARE, run_scenario, validate_config

mp.mp.dps = 30


def _tool(name):
    path = Path(__file__).resolve().parents[1] / "tools" / (name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


QUAD = _tool("gen_brems_refs")


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


def test_spectral_density_vs_quad():
    # 64 fixed nodes in u = ln(1 - beta cos(theta)) must hold up to
    # gamma ~ 2e4, where a rule in cos(theta) misses the forward 1/gamma cone
    # (at beta = 0.999999, r = 0.1 nm and 43.8 keV such a rule was 1.9e-4 off);
    # near beta = 1 the double cos(theta) itself limits both sides.  The
    # scipy-quad values are stored by tools/gen_brems_refs.py, and every 8th
    # is recomputed live and must match within the quad's own epsrel
    rows = QUAD.read()
    assert [row[:5] for row in rows] == QUAD.cases()
    for i, (species, beta, r, e_eV, epsrel, ref) in enumerate(rows):
        if i % 8 == 0:
            live = QUAD.reference(species, beta, r, e_eV, epsrel)
            assert live == pytest.approx(ref, rel=epsrel, abs=0.0)
        probe = Probe(*SPECIES[species], beta)
        assert br_spectral_density(probe, QUAD.Z_NUCLEUS, r, e_eV / CONSTANTS.hbar_eV_s) == \
            pytest.approx(ref, rel={1e-13: 1e-12, 1e-10: 1e-9}[epsrel], abs=0.0)


def test_spectral_density_vs_brute_grid(fe):
    # compare against an independent fixed high-order quadrature: a 192-node
    # Gauss-Legendre rule in cos(theta) times a 96-point phi grid, evaluated
    # as one outer product
    probe = electron(beta=0.9)
    val = br_spectral_density(probe, 26, 0.001, fe.omega0_rad_s)
    nodes, wts = np.polynomial.legendre.leggauss(192)
    n_phi = 96
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    grid = _density_values(probe, 26, 0.001, nodes, phis, fe.omega0_rad_s)
    total = float(wts @ grid.sum(axis=1)) * (2.0 * math.pi / n_phi)
    assert val == pytest.approx(total, rel=1e-5, abs=0.0)


def _n_point_phi_spectral_density(probe, z_nucleus, r_perp_nm, omega, n):
    """The same 64 nodes in u = ln(1 - beta cos(theta)) with an n-point phi
    grid."""
    beta = probe.beta
    lo, hi = math.log1p(-beta), math.log1p(beta)
    nodes, wts = np.polynomial.legendre.leggauss(64)
    eu = np.exp(0.5 * (hi - lo) * nodes + 0.5 * (hi + lo))
    phis = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    vals = _density_values(probe, z_nucleus, r_perp_nm, (1.0 - eu) / beta, phis, omega)
    return float((wts * eu) @ vals.sum(axis=1)) * (0.5 * (hi - lo) / beta) * (2.0 * math.pi / n)


def test_fixed_phi_grid_matches_growing_grid():
    # the phi integral is taken in closed form, as 2 pi times the mean <A>;
    # |V|^2 has phi degree at most 4, so a 64-point uniform phi grid is exact
    # too, and the two agree to rounding, also up to gamma ~ 2e4
    lines = [rec.omega0_rad_s for rec in registry().values()]
    for probe in (electron(beta=0.9), electron(beta=0.5), proton(beta=0.6),
                  electron(beta=0.999999), electron(beta=1.0 - 1e-9)):
        for z in (26, 66):
            for r in (0.0005, 0.001, 0.002):
                for omega in lines:
                    assert br_spectral_density(probe, z, r, omega) == pytest.approx(
                        _n_point_phi_spectral_density(probe, z, r, omega, 64), rel=1e-14,
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
    nodes, wts = _legendre_64()
    ref_nodes, ref_wts = np.polynomial.legendre.leggauss(64)
    assert np.array_equal(nodes, ref_nodes) and np.array_equal(wts, ref_wts)
    assert not nodes.flags.writeable and not wts.flags.writeable
    again = _legendre_64()
    assert again[0] is nodes and again[1] is wts
    with pytest.raises(ValueError):
        nodes[0] = 0.0
    with pytest.raises(ValueError):
        wts[0] = 0.0


@pytest.mark.parametrize("size", [1, 8, 9, 41])
def test_array_omega_equals_scalar_calls(fe, size):
    # blocks of 8 frequencies: 1, 8, 9 and 41 cover a partial block, one full
    # block, a full block plus one, and the brems-compare default
    omegas = fe.omega0_rad_s * np.linspace(0.5, 2.0, size)
    for probe in (electron(beta=0.9), proton(beta=0.6)):
        got = br_spectral_density(probe, 26, 0.001, omegas)
        assert isinstance(got, np.ndarray) and got.shape == (size,)
        for w, g in zip(omegas.tolist(), got.tolist()):
            one = br_spectral_density(probe, 26, 0.001, w)
            assert isinstance(one, float)
            assert g == pytest.approx(one, rel=1e-13, abs=0.0)
        # any shape: the result takes it, element for element
        grid = br_spectral_density(probe, 26, 0.001, omegas.reshape(-1, 1))
        assert grid.shape == (size, 1) and np.array_equal(grid[:, 0], got)


def test_array_omega_names_its_bad_arguments(fe):
    probe = electron(beta=0.9)
    omegas = fe.omega0_rad_s * np.ones(20)
    for bad in (0.0, -1.0, math.nan):
        w = omegas.copy()
        w[13] = bad  # in the second block
        with pytest.raises(ValueError, match="omega"):
            br_spectral_density(probe, 26, 0.001, w)
    for empty in (omegas, omegas[:0]):
        with pytest.raises(ValueError, match="r_perp_nm"):
            br_spectral_density(probe, 26, -1.0, empty)
        with pytest.raises(ValueError, match="z_nucleus"):
            br_spectral_density(probe, 0, 0.001, empty)
    assert br_spectral_density(probe, 26, 0.001, omegas[:0]).shape == (0,)


def test_window_yield_is_simpson_over_scalar_calls(fe):
    probe = electron(beta=0.9)
    hbar = CONSTANTS.hbar_eV_s
    lo, mid, hi = ((fe.e0_eV + k * 0.5) / hbar for k in (-1, 0, 1))
    f = [br_spectral_density(probe, 26, 0.001, w) for w in (lo, mid, hi)]
    assert br_window_yield(probe, 26, 0.001, fe.e0_eV, 1.0) == pytest.approx(
        (hi - lo) / 6.0 * (f[0] + 4.0 * f[1] + f[2]), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("nuclide,make,beta,z_n,r_nm", [
    # the worst point of a grid over every admitted beta and r_perp_nm, both
    # species, both built-ins and Z_n 1, 26 and 118: the largest r at which the
    # density is still a normal double, where the Bessel argument peaks
    ("Fe-57", electron, 5e-6, 118, 2.380154814125782e-05),
    ("Dy-161", proton, 0.9, 26, 10.0),
    ("Fe-57", electron, 0.999999, 26, 0.001),
])
def test_window_yield_holds_its_error_at_the_config_ceiling(nuclide, make, beta, z_n, r_nm):
    rec, probe = registry()[nuclide], make(beta=beta)
    window = MAX_WINDOW_SHARE * rec.e0_eV
    lo, hi = ((rec.e0_eV + k * 0.5 * window) / CONSTANTS.hbar_eV_s for k in (-1, 1))
    x, w = np.polynomial.legendre.leggauss(400)
    density = br_spectral_density(probe, z_n, r_nm, 0.5 * (hi - lo) * x + 0.5 * (hi + lo))
    assert density.min() >= np.finfo(float).tiny
    assert br_window_yield(probe, z_n, r_nm, rec.e0_eV, window) == pytest.approx(
        0.5 * (hi - lo) * float(density @ w), rel=2e-7, abs=0.0)


@pytest.mark.parametrize("call,name", [
    (lambda probe, fe: br_window_yield(probe, 26, 0.001, fe.e0_eV, math.nan), "window_eV"),
    (lambda probe, fe: br_window_yield(probe, 26, 0.001, math.inf, 1.0), "center_eV"),
    (lambda probe, fe: br_spectral_density(probe, 26, 0.001, math.inf), "omega"),
    (lambda probe, fe: br_spectral_density(probe, 26, 0.001, fe.omega0_rad_s * np.array(
        [1.0, math.inf])), "omega"),
], ids=["nan-window", "infinite-center", "infinite-omega", "infinite-omega-in-array"])
def test_bad_window_or_frequency_is_named_without_a_warning(fe, call, name):
    # a NaN window passed "window_eV < 0" and was reported as a bad omega; an
    # infinite center or omega gave NaN with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=name):
            call(electron(beta=0.9), fe)


def _per_block_spectral_density(probe, z_nucleus, r_perp_nm, omega):
    """The spectral density at a 1-D omega as one Bessel call per block of 8
    frequencies, each block's (8 x 64) integrand contracted with the weights
    on its own: the loop br_spectral_density ran before one grid took every
    frequency, kept here as a bit-level oracle."""
    beta, gamma = probe.beta, probe.gamma
    lo, hi = math.log1p(-beta), math.log1p(beta)
    nodes, wts = np.polynomial.legendre.leggauss(64)
    em1 = np.expm1(0.5 * (hi - lo) * nodes + 0.5 * (hi + lo))
    weights = wts * (1.0 + em1)
    ct = -em1 / beta
    s2 = np.clip(1.0 - ct * ct, 0.0, None)
    d = 1.0 - beta * ct
    mean_a = (d * ct - 0.5 * beta * s2) ** 2 + 0.5 * d * d * s2 + 0.25 * (beta * s2) ** 2
    c = (CONSTANTS.alpha_fs ** 3 * probe.z_charge ** 4 * z_nucleus ** 2
         * CONSTANTS.hbar_eV_s ** 2)
    den = math.pi ** 2 * probe.rest_energy_eV ** 2 * beta ** 4 * gamma ** 2
    out = np.empty(omega.size)
    for i in range(0, omega.size, 8):
        w = omega[i:i + 8, None]
        k0, k1 = bessel_k01((1.0 - beta * ct) * w * r_perp_nm / probe.velocity_nm_s)
        pref = c * w / den
        out[i:i + 8] = (pref * (k1 * k1) * mean_a
                        + pref * (k0 / (gamma * gamma)) ** 2 * s2) @ weights
    return out * (math.pi * (hi - lo) / beta)


@pytest.mark.parametrize("probe", [electron(beta=0.5), electron(beta=0.9),
                                   electron(beta=1.0 - 1e-9), proton(beta=0.6)],
                         ids=["e0.5", "e0.9", "e1-1e-9", "p0.6"])
def test_spectral_grid_equals_the_per_block_loop(fe, probe):
    # one row takes _GRID_TERMS / 64 frequencies per Bessel call: counts
    # either side of that, the 8-frequency blocks' edges and the n_energy cap
    edge = _GRID_TERMS // 64
    for r in (0.001, 3.0):
        for n in (0, 1, 7, 8, 9, 41, edge - 1, edge + 1, 10_000):
            omegas = fe.omega0_rad_s * np.geomspace(0.5, 2.0, n)
            got = br_spectral_density(probe, 26, r, omegas)
            assert np.array_equal(got, _per_block_spectral_density(probe, 26, r, omegas)), (r, n)


def test_window_yield_rows_equal_per_row_calls(fe):
    # a beta sweep, and an r_perp_nm sweep over more than two grid blocks of
    # _GRID_TERMS / (3 x 64) rows; every value equal to the one-row call, and
    # the beta sweep's to Simpson over the per-block oracle
    hbar = CONSTANTS.hbar_eV_s
    lo, mid, hi = ((fe.e0_eV + k * 0.5) / hbar for k in (-1, 0, 1))
    betas = [(electron(beta=b), 0.001) for b in np.linspace(0.3, 0.999, 40).tolist()]
    radii = [(proton(beta=0.6), r) for r in
             np.geomspace(1e-4, 1.0, 2 * (_GRID_TERMS // 192) + 5).tolist()]
    for rows in (betas, radii):
        got = _window_yields(rows, 26, fe.e0_eV, 1.0)
        assert got.shape == (len(rows),)
        assert np.array_equal(got, [br_window_yield(p, 26, r, fe.e0_eV, 1.0) for p, r in rows])
    for (probe, r), y in zip(betas, _window_yields(betas, 26, fe.e0_eV, 1.0).tolist()):
        f = _per_block_spectral_density(probe, 26, r, np.array([lo, mid, hi]))
        assert y == (hi - lo) / 6.0 * float(f[0] + 4.0 * f[1] + f[2])


@pytest.mark.parametrize("text", [
    "scenario: single-sweep\nparams:\n  sweep_values: [%s]\n"
    % ", ".join(repr(b) for b in np.linspace(0.3, 0.99, 5000).tolist()),
    "scenario: brems-compare\nparams: {n_energy: 10000}\n",
], ids=["single-sweep-5000", "brems-compare-10000"])
def test_bremsstrahlung_grid_is_blocked(text):
    # sweep_values has no length cap, so the (rows x frequencies x 64) grid
    # must go to bessel_k01 in blocks of _GRID_TERMS nodes: blocked, these
    # runs peak near 10 MB and 8 MB, as one grid at 109 MB and 62 MB
    config, errors = validate_config("probe: {species: electron, beta: 0.9}\n" + text)
    assert errors == []
    tracemalloc.start()
    try:
        run_scenario(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 8 * _GRID_TERMS


@pytest.mark.parametrize("center_eV,window_eV", [(1e300, 1.0), (1.1e293, 2e292)],
                         ids=["center-overflows", "window-end-overflows"])
def test_window_beyond_the_largest_frequency_names_center_without_a_warning(
        center_eV, window_eV):
    # center_eV / hbar overflows from about 1.2e293 eV: a finite center
    # there, or a window reaching past it, was reported as a bad omega
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="center_eV"):
            br_window_yield(electron(beta=0.9), 26, 0.001, center_eV, window_eV)
