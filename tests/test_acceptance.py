"""End-to-end acceptance checks.

Each test exercises one load-bearing claim of the package at a pinned
tolerance and prints a single PASS line when it holds, so a verbose run
doubles as a checklist.  Tolerances are deliberately frozen here; loosening
them is a behaviour change, not a test fix.
"""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from nucsp.brems import br_density, br_spectral_density, br_window_yield
from nucsp.crystal_sp import (
    CutoffPolicy,
    LatticeFilm,
    azimuthal_profile,
    layer_yield,
    make_film,
    reciprocal_vectors,
)
from nucsp.finite_array import NucleusSet, angular_density, mc_plane_average
from nucsp.numerics import CONSTANTS
from nucsp.nuclide import coherent_fraction, radiative_rate, registry
from nucsp.probe import electron, proton
from nucsp.scenarios import run_scenario, validate_config
from nucsp.single_nucleus import coherent_yield, decay_profile, spectral_profile

F = Fraction
ROOT = Path(__file__).resolve().parents[1]
FE = registry()["Fe-57"]
DY = registry()["Dy-161"]


def _ok(line):
    print("PASS " + line)


def _sphere_quadrature(f, n_cos=32, n_phi=64):
    """Solid-angle integral via Gauss-Legendre in cos(theta) x uniform phi."""
    nodes, wts = np.polynomial.legendre.leggauss(n_cos)
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    total = 0.0
    for c, w in zip(nodes, wts):
        th = math.acos(c)
        total += w * sum(f(th, p) for p in phis) * (2.0 * math.pi / n_phi)
    return total


def test_radiative_lifetimes_match_tabulated():
    # 1/kappa_r against the 2.03 us / 31.7 ns reference values, 0.5%
    fe_tau = 1.0 / radiative_rate(FE)
    dy_tau = 1.0 / radiative_rate(DY)
    assert fe_tau == pytest.approx(2.03e-6, rel=5e-3)
    assert dy_tau == pytest.approx(3.17e-8, rel=5e-3)
    _ok(f"radiative lifetimes: Fe {fe_tau:.4g} s, Dy {dy_tau:.4g} s "
        "within 0.5% of tabulated")


def test_coherent_fractions_are_exact_rationals():
    # derived from the spins in closed form, not hardcoded
    assert coherent_fraction(F(1, 2), F(3, 2)) == F(2, 3)
    assert coherent_fraction(F(5, 2), F(7, 2)) == F(4, 9)
    assert FE.coherent_fraction == F(2, 3)
    assert DY.coherent_fraction == F(4, 9)
    _ok("coherent fractions: Fe-57 = 2/3 and Dy-161 = 4/9, exact")


def test_total_yield_equals_angular_quadrature():
    # closed-form single-nucleus yield vs numeric solid-angle integral of
    # the angular density, 1e-6 relative, five randomized parameter sets
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(5):
        beta = rng.uniform(0.5, 0.99)
        r = rng.uniform(0.0005, 0.005)
        probe = electron(beta=beta)
        nuclei = NucleusSet(np.array([[r, 0.0, 0.0]]))
        total = _sphere_quadrature(
            lambda th, p: angular_density(probe, FE, nuclei, (0.0, 0.0), th, p))
        closed = coherent_yield(probe, FE, r)
        worst = max(worst, abs(total / closed - 1.0))
    assert worst < 1e-6
    _ok(f"single-nucleus yield matches angular quadrature, worst rel "
        f"{worst:.2e} < 1e-6 over 5 random settings")


def test_array_pattern_peaks_at_cone_angles():
    # configs/array_pattern.yaml, 10 nuclei spaced 0.286 nm, beta = 0.94:
    # all six interference orders appear as local maxima within 0.02 in
    # cos(theta) of the cone condition
    config, errors = validate_config((ROOT / "configs" / "array_pattern.yaml").read_text())
    assert not errors
    (table,) = run_scenario(config)
    rows = np.array(table.rows)
    cos_grid, vals = rows[:, 0], rows[:, 2]
    d = 0.286
    interior = (vals[1:-1] > vals[:-2]) & (vals[1:-1] > vals[2:])
    peak_idx = np.where(interior & (vals[1:-1] >= 0.1 * vals.max()))[0] + 1
    predicted = [1.0 / 0.94 - n * FE.wavelength_nm / d for n in range(1, 7)]
    assert len(peak_idx) == 6
    matched = []
    for cos_n in predicted:
        dist = np.abs(cos_grid[peak_idx] - cos_n)
        assert dist.min() <= 0.02
        matched.append(int(peak_idx[np.argmin(dist)]))
    assert len(set(matched)) == 6
    _ok("linear-array pattern: six orders, each a distinct local maximum "
        "within 0.02 of its cone cosine")


def test_plane_average_reciprocal_vs_monte_carlo():
    # single 41 x 41 plane, beta = 0.9, closest approach 1 pm: the G-space
    # average and a 1e5-sample Monte-Carlo agree within 5% in 3 directions
    from nucsp.crystal_sp import single_plane_averaged_intensity
    probe = electron(beta=0.9)
    film = make_film("sc100")
    pol = CutoffPolicy(0.001)
    worst = 0.0
    for theta, phi in [(math.radians(60), 0.3), (math.radians(110), 1.9),
                       (math.radians(35), 4.0)]:
        gs = single_plane_averaged_intensity(probe, FE, film, theta, phi, pol)
        mc = mc_plane_average(probe, FE, film.a_nm, 20, theta, phi, 0.001,
                              100_000, seed=1)
        worst = max(worst, abs(gs / mc - 1.0))
    assert worst < 0.05
    _ok(f"plane-averaged intensity: reciprocal sum vs Monte-Carlo within "
        f"5% (worst {worst:.2%}) in 3 directions")


def test_stacking_selection_structure():
    # two-plane stackings allow only matching interplane parity, and a
    # stacking with zero offset reproduces the single-plane lattice exactly
    film = make_film("bcc100")
    pol = CutoffPolicy(0.004)
    for n in (1, 2, 3, 4):
        g = reciprocal_vectors(film, n, pol)
        ij = np.round(g / (2.0 * math.pi / film.a_nm)).astype(int)
        assert np.all((ij[:, 0] + ij[:, 1] + n) % 2 == 0)
    probe = electron(beta=0.94)
    a = film.a_nm
    no_offset = LatticeFilm("stacked-sc", a, (0.0, 0.0), a)
    plain_sc = make_film("sc100", a_nm=a)
    phis = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
    for n in (1, 2):
        np.testing.assert_array_equal(reciprocal_vectors(no_offset, n, pol),
                                      reciprocal_vectors(plain_sc, n, pol))
        pa = azimuthal_profile(probe, FE, no_offset, n, phis, pol)
        pb = azimuthal_profile(probe, FE, plain_sc, n, phis, pol)
        np.testing.assert_allclose(pa, pb, rtol=1e-12)
    _ok("stacking selection: parity rule holds for bcc100 orders 1-4; "
        "zero-offset stacking identical to the simple lattice")


def test_layer_yield_follows_log_cutoff_law():
    # halving the closest approach (doubling the reciprocal cutoff) adds a
    # constant increment to the yield; successive increments across
    # 4, 2, 1 pm agree within 15%
    probe = electron(beta=0.94)
    film = make_film("bcc100")
    y4, y2, y1 = (layer_yield(probe, FE, film, CutoffPolicy(r))
                  for r in (0.004, 0.002, 0.001))
    d_coarse = y2 - y4
    d_fine = y1 - y2
    assert d_coarse > 0.0 and d_fine > 0.0
    mismatch = abs(d_fine / d_coarse - 1.0)
    assert mismatch < 0.15
    _ok(f"per-layer yield grows logarithmically with the cutoff: "
        f"successive increments match to {mismatch:.1%} < 15%")


def test_layer_yield_absolute_scale():
    probe = electron(beta=0.94)
    film = make_film("bcc100")
    y = layer_yield(probe, FE, film, CutoffPolicy(0.001))
    assert 1e-18 < y < 1e-16
    _ok(f"per-layer yield {y:.3g} within a decade of 1e-17 "
        "(beta 0.94, 1 pm cutoff)")


def test_order_openings_are_discontinuous():
    # crossing the speed where a new cone enters at cos(theta) = -1 changes
    # the total yield by a finite step far exceeding the smooth variation
    film = make_film("bcc100")
    pol = CutoffPolicy(0.004)
    lam_over_d = FE.wavelength_nm / film.z_period_nm
    beta_open = 1.0 / (7.0 * lam_over_d - 1.0)  # order 7 enters below this
    assert 0.5 < beta_open < 1.0
    eps = 5e-5
    y_hi = layer_yield(electron(beta=beta_open + eps), FE, film, pol)
    y_lo = layer_yield(electron(beta=beta_open - eps), FE, film, pol)
    jump = y_lo - y_hi  # slower probe has one extra cone
    y_far1 = layer_yield(electron(beta=beta_open + 100 * eps), FE, film, pol)
    smooth = abs(y_far1 - y_hi)
    assert jump > 0.0
    assert jump > 10.0 * smooth
    _ok(f"order opening at beta = {beta_open:.5f}: yield jumps by "
        f"{jump / y_hi:.1%} across the threshold, >10x the smooth drift")


def test_background_comparison():
    # (a) the only probe-mass dependence is the 1/M^2 prefactor
    e9 = electron(beta=0.9)
    p9 = proton(beta=0.9)
    ratio = (br_density(p9, 26, 0.001, 1.0, 0.5, FE.omega0_rad_s)
             / br_density(e9, 26, 0.001, 1.0, 0.5, FE.omega0_rad_s))
    expected = (e9.rest_energy_eV / p9.rest_energy_eV) ** 2
    assert ratio == pytest.approx(expected, rel=1e-12, abs=0.0)
    # (b) integrated over a 1 eV window the continuum dominates the line
    br = br_window_yield(e9, 26, 0.001, FE.e0_eV, 1.0)
    coh = coherent_yield(e9, FE, 0.001)
    assert br / coh >= 1e2
    # (c) on the line center the resonant spectral density still wins
    spec = spectral_profile(FE)
    res_peak = coh * spec.density(spec.center_eV)
    br_per_eV = (br_spectral_density(e9, 26, 0.001, FE.omega0_rad_s)
                 / CONSTANTS.hbar_eV_s)
    assert res_peak > br_per_eV
    _ok(f"bremsstrahlung: mass scaling exact to 1e-12, window ratio "
        f"{br / coh:.3g} >= 1e2, line peak {res_peak:.3g}/eV above "
        f"continuum {br_per_eV:.3g}/eV")


def test_decay_time_constants():
    assert decay_profile(FE).survival(142e-9) == pytest.approx(
        math.exp(-1.0), rel=1e-12, abs=0.0)
    assert decay_profile(DY).survival(1.2e-9) == pytest.approx(
        math.exp(-1.0), rel=1e-12, abs=0.0)
    _ok("excited-state survival reaches 1/e at exactly 142 ns (Fe-57) "
        "and 1.2 ns (Dy-161)")

