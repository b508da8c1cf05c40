import itertools
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from nucsp import crystal_sp, finite_array
from nucsp.finite_array import (
    NucleusSet,
    _k1_sq_disk_integral,
    _line_density,
    _plane_terms,
    angular_density,
    far_field_amplitude,
    mc_plane_average,
    square_plane_sites,
)
from nucsp.numerics import CONSTANTS, bessel_k1
from nucsp.nuclide import registry
from nucsp.probe import BETA_MIN, DISTANCE, electron
from nucsp.scenarios import run_scenario, validate_config
from nucsp.single_nucleus import _dimensionless_scale, coherent_yield


@pytest.fixture
def fe():
    return registry()["Fe-57"]


@pytest.fixture
def probe():
    return electron(beta=0.9)


def _slow_amplitude(probe, rec, positions, rp, theta, phi):
    """Straightforward per-nucleus reference assembly of g(Omega)."""
    vg = probe.velocity_nm_s * probe.gamma
    k0 = rec.omega0_rad_s / CONSTANTS.c_nm_s
    rhat = np.array([math.sin(theta) * math.cos(phi),
                     math.sin(theta) * math.sin(phi), math.cos(theta)])
    g = np.zeros(3, dtype=complex)
    for (x, y, z) in positions:
        dx, dy = x - rp[0], y - rp[1]
        dist = math.hypot(dx, dy)
        phase = (rec.omega0_rad_s * z / probe.velocity_nm_s
                 - k0 * (rhat[0] * x + rhat[1] * y + rhat[2] * z))
        unit = np.array([-dy / dist, dx / dist, 0.0])
        g = g + bessel_k1(rec.omega0_rad_s * dist / vg) * np.exp(1j * phase) * unit
    return g


def test_nucleus_set_validation():
    with pytest.raises(ValueError):
        NucleusSet(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        NucleusSet(np.array([[0.0, 0.0, math.inf]]))
    with pytest.raises(ValueError):
        NucleusSet(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    assert len(NucleusSet(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.3]]))) == 2


def test_single_nucleus_amplitude_analytic(probe, fe):
    # one nucleus at (x0, 0, 0) seen from the origin: g is K1 along y_hat
    # with a pure observation phase
    x0 = 0.002
    nuclei = NucleusSet(np.array([[x0, 0.0, 0.0]]))
    theta, phi = 1.0, 0.4
    g = far_field_amplitude(probe, fe, nuclei, (0.0, 0.0), theta, phi)
    arg = fe.omega0_rad_s * x0 / (probe.velocity_nm_s * probe.gamma)
    k0 = fe.omega0_rad_s / CONSTANTS.c_nm_s
    expected_phase = -k0 * math.sin(theta) * math.cos(phi) * x0
    expected = bessel_k1(arg) * np.exp(1j * expected_phase)
    assert g[0] == pytest.approx(0.0, abs=1e-18)
    assert g[1] == pytest.approx(expected, rel=1e-12)
    assert g[2] == pytest.approx(0.0, abs=1e-18)


def test_amplitude_matches_slow_reference(probe, fe):
    rng = np.random.default_rng(7)
    positions = np.column_stack([rng.uniform(-0.01, 0.01, 6),
                                 rng.uniform(-0.01, 0.01, 6),
                                 rng.uniform(0.0, 2.0, 6)])
    nuclei = NucleusSet(positions)
    rp = (0.015, -0.003)
    for theta, phi in [(0.3, 0.0), (1.2, 2.0), (2.8, 5.1)]:
        g = far_field_amplitude(probe, fe, nuclei, rp, theta, phi)
        ref = _slow_amplitude(probe, fe, positions, rp, theta, phi)
        np.testing.assert_allclose(g, ref, rtol=1e-10, atol=1e-18)


def test_amplitude_rejects_coincident_impact(probe, fe):
    nuclei = NucleusSet(np.array([[0.001, 0.002, 0.0]]))
    with pytest.raises(ValueError):
        far_field_amplitude(probe, fe, nuclei, (0.001, 0.002), 1.0, 0.0)


def test_amplitude_rejects_a_three_component_impact_point(probe, fe):
    nuclei = NucleusSet(np.array([[0.001, 0.002, 0.0]]))
    with pytest.raises(ValueError, match="^impact point must have two transverse components$"):
        far_field_amplitude(probe, fe, nuclei, (0.0, 0.0, 0.0), 1.0, 0.0)


def test_single_nucleus_density_integrates_to_yield(probe, fe):
    # the |r_hat x y_hat|^2 pattern integrates to 8 pi / 3, recovering the
    # total single-nucleus yield
    nuclei = NucleusSet(np.array([[0.001, 0.0, 0.0]]))
    nodes, wts = np.polynomial.legendre.leggauss(24)
    n_phi = 48
    phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)
    total = 0.0
    for c, w in zip(nodes, wts):
        th = math.acos(c)
        row = sum(angular_density(probe, fe, nuclei, (0.0, 0.0), th, p)
                  for p in phis)
        total += w * row * (2.0 * math.pi / n_phi)
    assert total == pytest.approx(coherent_yield(probe, fe, 0.001), rel=1e-10, abs=0.0)


def test_two_nucleus_longitudinal_interference(probe, fe):
    # two nuclei along z at the matching-phase angle add coherently:
    # 4x the single-nucleus density
    d = 0.286
    lam = fe.wavelength_nm
    cos_t = 1.0 / probe.beta - lam / d  # first constructive angle
    assert abs(cos_t) <= 1.0
    theta = math.acos(cos_t)
    one = NucleusSet(np.array([[0.001, 0.0, 0.0]]))
    two = NucleusSet(np.array([[0.001, 0.0, 0.0], [0.001, 0.0, d]]))
    rp = (0.0, 0.0)
    d1 = angular_density(probe, fe, one, rp, theta, 0.0)
    d2 = angular_density(probe, fe, two, rp, theta, 0.0)
    assert d2 == pytest.approx(4.0 * d1, rel=1e-9, abs=0.0)


ARRAY_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "array_pattern.yaml"


def _shipped_array_pattern():
    """(cos_theta, density) columns of configs/array_pattern.yaml, as
    run_scenario returns them."""
    config, errors = validate_config(ARRAY_CONFIG.read_text())
    assert not errors
    (table,) = run_scenario(config)
    assert table.columns == ("cos_theta", "theta_rad", "density_per_sr")
    rows = np.array(table.rows)
    np.testing.assert_array_equal(rows[:, 1], [math.acos(c) for c in rows[:, 0]])
    return rows[:, 0], rows[:, 2]


def test_linear_array_pattern_grid():
    # the runner samples phi = 0 on a grid uniform in cos(theta), from 1 to -1
    cos_grid, vals = _shipped_array_pattern()
    assert cos_grid.size == vals.size == 801
    assert cos_grid[0] == 1.0 and cos_grid[-1] == -1.0
    np.testing.assert_allclose(np.diff(cos_grid), -2.0 / 800, atol=1e-12)
    assert np.all(vals >= 0.0)
    text = ARRAY_CONFIG.read_text()
    assert "n_nuclei: 10" in text
    assert validate_config(text.replace("n_nuclei: 10", "n_nuclei: 1"))[0] is None


def test_linear_array_peaks_near_cone_angles(fe):
    # configs/array_pattern.yaml: 10 nuclei spaced 0.286 nm, beta = 0.94
    cos_grid, vals = _shipped_array_pattern()
    predicted = [1.0 / 0.94 - n * fe.wavelength_nm / 0.286 for n in range(1, 7)]
    peak_level = vals.max()
    for cos_n in predicted:
        mask = np.abs(cos_grid - cos_n) <= 0.02
        assert vals[mask].max() > 0.5 * peak_level


def test_square_plane_sites():
    sites = square_plane_sites(0.3, 2)
    assert sites.shape == (25, 2)
    assert any(np.all(s == 0.0) for s in sites)
    assert sites.min() == -0.6 and sites.max() == 0.6


def test_plane_terms_match_reference_amplitude(probe, fe):
    # the batch path used by the Monte-Carlo loop must agree with the
    # reference per-point assembly
    sites = square_plane_sites(0.2856, 6)
    sites = sites[np.argsort(np.hypot(sites[:, 0], sites[:, 1]), kind="stable")]
    positions = np.column_stack([sites, np.zeros(len(sites))])
    theta, phi = 1.1, 0.7
    delta = fe.omega0_rad_s / (probe.velocity_nm_s * probe.gamma)
    k0 = fe.omega0_rad_s / CONSTANTS.c_nm_s
    rhat = np.array([math.sin(theta) * math.cos(phi),
                     math.sin(theta) * math.sin(phi), math.cos(theta)])
    rps = np.array([[0.04, 0.02], [-0.1, 0.013], [0.001, 0.001]])
    x, dn, self_term = _plane_terms(sites, rps, rhat, delta, k0,
                                    np.empty((8, len(sites), len(rps))))
    nuclei = NucleusSet(positions)
    for i, rp in enumerate(rps):
        g = far_field_amplitude(probe, fe, nuclei, rp, theta, phi)
        ref = float(np.sum(np.abs(g) ** 2) - np.abs(rhat @ g) ** 2)
        assert x[i] == pytest.approx(ref, rel=1e-10, abs=0.0)
    # nearest-site bookkeeping
    assert dn[2] == pytest.approx(math.hypot(0.001, 0.001), rel=1e-12, abs=0.0)


def _k1_grid_as_bessel_k1(arg):
    """What _plane_terms' K1 grid must hold: bessel_k1 below argument 45,
    0 from 45 on."""
    return np.where(arg < 45.0, bessel_k1(arg), 0.0)


def _grids(work, n, m, *which):
    return [work[i].reshape(-1)[:n * m].reshape(n, m) for i in which]


@pytest.mark.parametrize("beta", [0.5, 0.9, 0.99, 0.999])
def test_plane_terms_k1_grid_equals_bessel_k1(monkeypatch, fe, beta):
    # _plane_terms evaluates K1 by slabs of sites sorted by radius: masked
    # bessel_k1 where an argument can fall below 10, the [10, 700] Chebyshev
    # piece on whole rows where every argument lies in [10, 45), and that
    # piece on the arguments below 45 beyond.  The grid must equal masked
    # bessel_k1 bit for bit, and no argument may reach a piece its slab does
    # not expect.
    probe = electron(beta=beta)
    delta = fe.omega0_rad_s / (probe.velocity_nm_s * probe.gamma)
    k0 = fe.omega0_rad_s / CONSTANTS.c_nm_s
    rhat = np.array([math.sin(1.0) * math.cos(0.3), math.sin(1.0) * math.sin(0.3),
                     math.cos(1.0)])
    plane_terms, chebyshev = finite_array._plane_terms, finite_array._k_chebyshev
    seen, inner_rows = [], []

    def spy(sites, rps, rhat, delta, k0, work):
        out = plane_terms(sites, rps, rhat, delta, k0, work)
        arg, k1 = _grids(work, len(sites), len(rps), 3, 4)
        assert np.array_equal(k1, _k1_grid_as_bessel_k1(arg))
        seen.append((len(sites), float(arg.min()), float(arg.max())))
        return out

    def piece_1_only(x, xp, n, piece, out=None):
        # the inner slab passes out=, the outer slab its arguments below 45
        assert (n, piece) == (1, 1) and np.all(x >= 10.0)
        if out is not None:
            assert np.all(x < 45.0)
            inner_rows.append(x.shape[0])
        return chebyshev(x, xp, n, piece, out=out)

    monkeypatch.setattr(finite_array, "_k_chebyshev", piece_1_only)
    monkeypatch.setattr(finite_array, "_plane_terms", spy)
    for a_nm, half_extent in ((0.2856, 20), (1e-5, 3), (1e6, 2)):
        seen.clear()
        inner_rows.clear()
        mc_plane_average(probe, fe, a_nm, half_extent, 1.0, 0.3, a_nm * 1e-3, 3000)
        least, most = min(s[1] for s in seen), max(s[2] for s in seen)
        if a_nm == 0.2856:  # an inner slab needs delta a / sqrt(2) < 17.5: not at 0.5
            assert least < 10.0 and (max(inner_rows) > 0) == (beta > 0.5)
        elif a_nm == 1e-5:  # no argument reaches 10: every site is near
            assert most < 10.0 and not any(inner_rows)
        else:  # only the origin site is within reach, mostly past 45
            assert {s[0] for s in seen} == {1} and most > 45.0 and not any(inner_rows)

    # a site s = 1.5 v and a draw at v / 2 (or -v / 2) are collinear with
    # the origin, so the argument delta |s - p| sits exactly on a slab bound
    # when delta = 10 / |v| (or 45 / (2 |v|)); rounding then puts about one
    # case in ten on the wrong side of an unwidened bound
    rng = np.random.default_rng(7)
    for _ in range(100):
        turn = rng.uniform(0.0, 2.0 * math.pi)
        length = rng.uniform(1.0, 1.5) * 10.0 / delta
        # on a 2^-40 grid, so that 1.5 v and v / 2 are exact
        v = np.round(length * np.array([math.cos(turn), math.sin(turn)]) * 2.0 ** 40) / 2.0 ** 40
        sites = np.array([[0.0, 0.0], 1.5 * v])
        for cut, rps in ((10.0, 0.5 * v[None, :]), (45.0, -0.5 * v[None, :])):
            d = cut / (math.hypot(*v) * (1.0 if cut == 10.0 else 2.0))
            work = np.empty((8, 2, 1))
            plane_terms(sites, rps, rhat, d, k0, work)
            arg, k1 = _grids(work, 2, 1, 3, 4)
            assert np.array_equal(k1, _k1_grid_as_bessel_k1(arg))


def test_near_slab_k1_is_zero_from_45(fe):
    # a site v and a draw at -v are collinear with the origin, and v - (-v)
    # is exact, so the argument delta |2 v| sits on 45 when delta = 45 / (2 |v|);
    # the site is in the near slab, whose bound 10 / delta + |v| is then
    # 13 |v| / 9, and rounding puts the argument on both sides of 45
    k0 = fe.omega0_rad_s / CONSTANTS.c_nm_s
    rhat = np.array([math.sin(1.0) * math.cos(0.3), math.sin(1.0) * math.sin(0.3),
                     math.cos(1.0)])
    rng = np.random.default_rng(7)
    on_cut = 0
    for _ in range(300):
        turn = rng.uniform(0.0, 2.0 * math.pi)
        v = 10.0 ** rng.uniform(-3.0, 3.0) * np.array([math.cos(turn), math.sin(turn)])
        work = np.empty((5, 2, 1))
        finite_array._plane_terms(np.array([[0.0, 0.0], v]), -v[None, :], rhat,
                                  45.0 / (2.0 * math.hypot(*v)), k0, work)
        arg, k1 = _grids(work, 2, 1, 3, 4)
        assert np.array_equal(k1, _k1_grid_as_bessel_k1(arg))
        on_cut += arg[1, 0] == 45.0
    assert on_cut > 0


def test_mc_plane_average_is_deterministic(probe, fe):
    kw = dict(a_nm=0.2856, half_extent=8, theta=1.0, phi=0.3,
              r_min_nm=0.001, n_samples=2000, seed=11)
    a = mc_plane_average(probe, fe, **kw)
    b = mc_plane_average(probe, fe, **kw)
    assert a == b
    c = mc_plane_average(probe, fe, **dict(kw, seed=12))
    assert c != a
    assert a > 0.0


@pytest.mark.parametrize("a_nm,message", [(DISTANCE[0] * 0.9, "least 1e-05"),
                                           (DISTANCE[1] * 1.1, "most 1e+06")],
                         ids=["below", "above"])
def test_mc_plane_average_rejects_a_nm_outside_the_distance_bounds(probe, fe, a_nm, message):
    # the lattice constant obeys the same bounds as a lattices.dat block
    with pytest.raises(ValueError, match=r"^a_nm: must be at %s$" % message.replace("+", r"\+")):
        mc_plane_average(probe, fe, a_nm=a_nm, half_extent=2, theta=1.0, phi=0.3,
                         r_min_nm=a_nm * 1e-3, n_samples=10, seed=11)


def test_mc_rows_are_the_lattice_and_cutoff_rows():
    # one row, so one bound and one message, for a config, a data file and the call
    rows = {row.name: row for row in finite_array.MC_ARGS}
    assert rows["a_nm"] is crystal_sp.LATTICE[1]
    assert rows["r_min_nm"] is crystal_sp.R_MIN


def _plain_mean_over(sites, probe, rec, a_nm, theta, phi, r_min_nm, n_samples, seed):
    """_plain_mean's loop on the given sites (sorted by radius, origin first)."""
    delta = rec.omega0_rad_s / (probe.velocity_nm_s * probe.gamma)
    k0 = rec.omega0_rad_s / CONSTANTS.c_nm_s
    rhat = np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                     math.cos(theta)])
    rows = max(1, finite_array._BLOCK_TERMS // sites.shape[0])
    work = np.empty((5, sites.shape[0], rows))
    rng = np.random.default_rng(seed)
    total, kept = 0.0, 0
    while kept < n_samples:
        rps = rng.uniform(-0.5 * a_nm, 0.5 * a_nm, size=(min(rows, n_samples - kept), 2))
        x, dn, _ = _plane_terms(sites, rps, rhat, delta, k0, work)
        ok = dn >= r_min_nm
        total += float(np.sum(x[ok]))
        kept += int(np.count_nonzero(ok))
    return total / n_samples


@pytest.mark.parametrize("beta", [0.5, 0.9, 0.95, 0.99])
def test_mc_sites_are_built_only_within_the_bessel_reach(monkeypatch, fe, beta):
    # every draw lies in the cell square [-a/2, a/2]^2, so the call keeps the
    # sites within 45 / delta of that square (widened as the K1 slabs are),
    # sorted by radius with the origin first: 77 at beta 0.9, where the disk
    # of radius 45 / delta + a / sqrt(2) about the origin holds 89.  At beta
    # 0.95, 45 / delta is 6.56 a, so sites of index 7, 6.5 a from the square,
    # are in reach
    probe = electron(beta=beta)
    a_nm = 0.2856
    delta = fe.omega0_rad_s / (probe.velocity_nm_s * probe.gamma)
    grid = square_plane_sites(a_nm, 20)
    to_square = np.hypot(*(grid - np.clip(grid, -0.5 * a_nm, 0.5 * a_nm)).T)
    want = grid[to_square <= 45.0 / delta * (1.0 + finite_array._SLAB_MARGIN)]
    want = want[np.argsort(np.hypot(want[:, 0], want[:, 1]), kind="stable")]
    # the origin comes first, and the reach ends inside the grid
    assert np.all(want[0] == 0.0) and np.max(np.abs(want)) < 20 * a_nm
    passed = []
    plane_terms = finite_array._plane_terms

    def spy(sites, *args):
        passed.append(sites.copy())
        return plane_terms(sites, *args)

    monkeypatch.setattr(finite_array, "_plane_terms", spy)
    kw = dict(a_nm=a_nm, theta=1.0, phi=0.3, r_min_nm=0.001, n_samples=2000, seed=11)
    mean = mc_plane_average(probe, fe, half_extent=20, **kw)
    assert passed and all(np.array_equal(sites, want) for sites in passed)
    if beta == 0.9:
        assert len(want) == 77
    left_out = ~(grid[:, None, :] == want[None, :, :]).all(axis=2).any(axis=1)
    assert np.all(to_square[left_out] > 45.0 / delta)
    # the sites left out add only exact zeros, so a plain mean without them
    # is the plain mean over the disk set up to the grouping of the sums
    assert _plain_mean_over(want, probe, fe, **kw) == pytest.approx(
        _plain_mean(probe, fe, half_extent=20, **kw), rel=1e-15, abs=0.0)
    # half_extent 10**6 (4e12 sites if the whole grid were built) gives the
    # half_extent 20 mean bit for bit; a grid half as wide as the reach binds
    assert mc_plane_average(probe, fe, half_extent=10 ** 6, **kw) == mean
    short = round(np.max(np.abs(want)) / a_nm) // 2
    assert mc_plane_average(probe, fe, half_extent=short, **kw) != mean


def _plain_mean(probe, rec, a_nm, half_extent, theta, phi, r_min_nm, n_samples, seed):
    """The plain Monte-Carlo mean, which mc_plane_average's control variate
    replaced: its sites, draws and chunks, each kept sample's term summed as
    it is.  The oracle of the control-variate estimator."""
    delta = rec.omega0_rad_s / (probe.velocity_nm_s * probe.gamma)
    k0 = rec.omega0_rad_s / CONSTANTS.c_nm_s
    rhat = np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                     math.cos(theta)])
    reach = finite_array._ARG_CUT / delta + a_nm / math.sqrt(2.0)
    sites = square_plane_sites(a_nm, min(half_extent, math.floor(reach / a_nm)))
    sites = sites[np.hypot(sites[:, 0], sites[:, 1]) <= reach]
    sites = sites[np.argsort(np.hypot(sites[:, 0], sites[:, 1]), kind="stable")]
    rows = max(1, finite_array._BLOCK_TERMS // sites.shape[0])
    work = np.empty((5, sites.shape[0], rows))
    rng = np.random.default_rng(seed)
    total, kept = 0.0, 0
    while kept < n_samples:
        rps = rng.uniform(-0.5 * a_nm, 0.5 * a_nm, size=(min(rows, n_samples - kept), 2))
        x, dn, _ = _plane_terms(sites, rps, rhat, delta, k0, work)
        ok = dn >= r_min_nm
        total += float(np.sum(x[ok]))
        kept += int(np.count_nonzero(ok))
    return total / n_samples


def test_mc_control_variate_consistency(probe, fe):
    # with and without the variance-reduction term the estimator targets the
    # same mean; at 20k samples the plain version is only a few percent noisy
    kw = dict(a_nm=0.2856, half_extent=8, theta=1.0, phi=0.3,
              r_min_nm=0.001, n_samples=20000, seed=3)
    assert mc_plane_average(probe, fe, **kw) == pytest.approx(_plain_mean(probe, fe, **kw),
                                                              rel=0.25)


@pytest.mark.parametrize("delta", [10.4, 35.375, 120.0])
@pytest.mark.parametrize("r_min", [1e-4, 1e-3, 3e-3])
def test_capture_disk_integral_closed_form_matches_mpmath(delta, r_min):
    # the control variate's radial term, over [r_min, 0.35 a] with a = 0.2856:
    # delta 10.4, 35.4 and 120/nm are beta 0.99, 0.9 and ~0.53 for Fe-57
    # The reference integrates over t = ln r, where the integrand is smooth.
    capture = 0.35 * 0.2856
    with mp.workdps(20):
        d = mp.mpf(delta)
        ref = mp.quad(lambda t: mp.besselk(1, d * mp.exp(t)) ** 2 * 2 * mp.pi * mp.exp(2 * t),
                      [mp.log(r_min), mp.log(capture)], method="gauss-legendre")
    got = _k1_sq_disk_integral(delta, r_min, capture)
    assert got == pytest.approx(float(ref), rel=1e-13, abs=0.0)


def test_capture_disk_integral_is_zero_far_out():
    # past x ~ 1.3e154, x^2 overflows while K0 and K1 are 0: the antiderivative
    # must not form inf * 0
    assert _k1_sq_disk_integral(1.0, 1e155, 1e160) == 0.0


# Means recorded with the complex-sum batch path and the adaptive-Simpson
# radial integral they replaced, at (beta, theta, phi, r_min, seed) over an
# a = 0.2856 nm, 17 x 17 plane with 3000 samples: with the control variate
# they may move by rounding and by that quadrature's error (1.6e-10 relative
# at beta 0.5), without it (the plain oracle) by rounding only.
_RECORDED_MC = [
    ((0.9, 1.0, 0.3, 0.001, 5), 0.11771640920637404, 0.09228633645641034),
    ((0.5, 2.0, 1.1, 0.002, 7), 0.0030180127728311017, 0.0026372154488535754),
    ((0.99, 0.6, 4.0, 0.001, 9), 2.529305336423161, 2.0077926814130698),
]


@pytest.mark.parametrize("case,with_cv,without", _RECORDED_MC)
def test_mc_plane_average_matches_recorded_means(fe, case, with_cv, without):
    beta, theta, phi, r_min, seed = case
    probe = electron(beta=beta)
    args = (probe, fe, 0.2856, 8, theta, phi, r_min, 3000)
    assert mc_plane_average(*args, seed=seed) == pytest.approx(with_cv, rel=1e-9, abs=0.0)
    assert _plain_mean(*args, seed=seed) == pytest.approx(without, rel=1e-13, abs=0.0)


def test_mc_plane_average_validation(probe, fe):
    with pytest.raises(ValueError):
        mc_plane_average(probe, fe, 0.2856, 8, 1.0, 0.0, -0.001, 100)
    with pytest.raises(ValueError):
        mc_plane_average(probe, fe, 0.2856, 8, 1.0, 0.0, 0.001, 0)


@pytest.mark.parametrize("name,bad", [
    ("half_extent", dict(half_extent=-1)),
    ("half_extent", dict(half_extent=2.5)),
    ("theta", dict(theta=math.nan)),
    ("phi", dict(phi=math.inf)),
    ("n_samples", dict(n_samples=2.5)),
    # a bool is an int to Python, but not a count (True ran one sample)
    ("half_extent", dict(half_extent=True)),
    ("n_samples", dict(n_samples=True)),
    ("a_nm", dict(a_nm=math.nan)),
    ("a_nm", dict(a_nm=-0.2856)),
    # outside [1e-5, 1e6] nm: nan, or a failure inside the Bessel kernel
    *(("a_nm", dict(a_nm=a, r_min_nm=a * 1e-3))
      for a in (1e-300, 1e-200, 1e-160, 1e160, 1e300)),
    # one step beyond each side of each bound, then a bool, numeric text and None
    *(("a_nm", dict(a_nm=a, r_min_nm=a * 1e-3))
      for a in (math.nextafter(1e-5, 0.0), math.nextafter(1e6, math.inf))),
    *((angle, {angle: v}) for angle in ("theta", "phi") for v in (-math.inf, math.inf)),
    ("n_samples", dict(n_samples=0)),
    ("r_min_nm", dict(r_min_nm=0.0)),
    ("r_min_nm", dict(r_min_nm=0.35 * 0.2856)),
    *((name, {name: True}) for name in ("a_nm", "theta", "phi", "r_min_nm")),
    *((name, {name: v}) for name in ("a_nm", "theta", "phi", "half_extent", "n_samples",
                                     "r_min_nm") for v in ("1", None)),
])
def test_mc_plane_average_names_bad_arguments(probe, fe, name, bad):
    # unchecked, these give 0.0 or nan, or fail inside numpy
    kw = dict(a_nm=0.2856, half_extent=8, theta=1.0, phi=0.0, r_min_nm=0.001,
              n_samples=100)
    with pytest.raises(ValueError, match=f"^{name}: "):
        mc_plane_average(probe, fe, **dict(kw, **bad))


def test_mc_plane_average_runs_at_the_bounds(probe, fe):
    # the first value inside each bound runs
    kw = dict(a_nm=0.2856, half_extent=8, theta=1.0, phi=0.0, r_min_nm=0.001, n_samples=10)
    for bound in (dict(half_extent=0), dict(n_samples=1),
                  dict(r_min_nm=math.nextafter(0.35 * 0.2856, 0.0))):
        assert mc_plane_average(probe, fe, **dict(kw, **bound)) > 0.0


@pytest.mark.parametrize("a_nm", [1e-5, 1e6])
def test_mc_plane_average_is_finite_at_the_a_nm_bounds(fe, a_nm):
    # r_min from far inside the cell to just inside the capture radius 0.35 a
    for beta in (BETA_MIN, 0.9, 1.0 - 1e-15):
        for r_min in (a_nm * 1e-12, a_nm * 0.34):
            mean = mc_plane_average(electron(beta=beta), fe, a_nm, 2, 2.5, 0.3, r_min, 200)
            assert math.isfinite(mean)


def test_mc_mean_does_not_depend_on_chunk_size(monkeypatch, probe, fe):
    # the kept samples are the first n_samples accepted points of the stream
    # whatever the chunk size, so chunks of one row, the default term budget
    # and 2000 rows give one mean up to rounding.  r_min 0.099 nm, just
    # inside the capture radius, rejects 37.7% of draws, so the last chunks
    # are top-ups of the samples still needed.
    chunks = []
    plane_terms = finite_array._plane_terms

    def spy(sites, rps, rhat, delta, k0, work):
        chunks.append((len(rps), work.shape[2], work.shape[1]))
        return plane_terms(sites, rps, rhat, delta, k0, work)

    monkeypatch.setattr(finite_array, "_plane_terms", spy)
    mc_plane_average(probe, fe, 0.2856, 8, 1.0, 0.3, 0.001, 10)
    n_sites = chunks[0][2]
    default_rows = finite_array._BLOCK_TERMS // n_sites
    for r_min in (0.001, 0.099):
        means = []
        for rows in (default_rows, 1, 2000):
            monkeypatch.setattr(finite_array, "_BLOCK_TERMS", rows * n_sites)
            chunks.clear()
            means.append(mc_plane_average(probe, fe, 0.2856, 8, 1.0, 0.3, r_min, 1500,
                                          seed=4))
            assert {c[1] for c in chunks} == {rows}
            if r_min == 0.099 and rows > 1:
                assert chunks[-1][0] < rows  # a top-up of the samples still needed ran
        assert means[1] == pytest.approx(means[0], rel=1e-14, abs=0.0)
        assert means[2] == pytest.approx(means[0], rel=1e-14, abs=0.0)


def test_mc_draws_no_more_points_than_it_needs(monkeypatch, probe, fe):
    # at r_min 1 fm almost no draw is rejected (about 4e-11 of the cell), so
    # the chunks of a 1500-sample call draw exactly 1500 points
    drawn = []
    plane_terms = finite_array._plane_terms

    def spy(sites, rps, *args):
        drawn.append(len(rps))
        return plane_terms(sites, rps, *args)

    monkeypatch.setattr(finite_array, "_plane_terms", spy)
    mc_plane_average(probe, fe, 0.2856, 8, 1.0, 0.3, 1e-6, 1500)
    assert len(drawn) > 1
    assert sum(drawn) == 1500


def test_mc_plane_average_allocation_peak(probe, fe):
    # a warm 1e4-sample call writes each chunk's grids into work arrays
    # allocated once per call and peaks near 8 MB; fresh (2000 x 97)
    # temporaries in every chunk would peak at 18 MB
    args = (probe, fe, 0.2856, 20, 1.0, 0.3, 0.001, 10_000)
    mc_plane_average(*args)
    tracemalloc.start()
    try:
        mc_plane_average(*args, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_mc_plane_average_rejects_r_min_before_sampling(monkeypatch, probe, fe):
    # r_min must lie inside the capture radius 0.35 a of the control variate;
    # from a/sqrt(2) on no draw would be kept at all
    monkeypatch.setattr(finite_array, "_plane_terms", None)  # no chunk may run
    for r_min in (0.1, 0.15, 0.21):
        with pytest.raises(ValueError, match="^r_min_nm: must be below the capture radius"):
            mc_plane_average(probe, fe, 0.2856, 8, 1.0, 0.0, r_min, 10)


def test_angle_arrays_equal_scalar_calls(probe, fe):
    # broadcast (3, 1) x (3,) angles; 20,000 nuclei puts 3 angles per block
    rng = np.random.default_rng(11)
    thetas = np.array([[0.3], [1.2], [2.8]])
    phis = np.array([0.0, 2.0, 5.1])
    rp = (0.015, -0.003)
    for n in (6, 20_000):
        nuclei = NucleusSet(np.column_stack([rng.uniform(-0.01, 0.01, n),
                                             rng.uniform(-0.01, 0.01, n),
                                             rng.uniform(0.0, 2.0, n)]))
        g = far_field_amplitude(probe, fe, nuclei, rp, thetas, phis)
        dens = angular_density(probe, fe, nuclei, rp, thetas, phis)
        assert g.shape == (3, 3, 3) and dens.shape == (3, 3)
        for i, j in np.ndindex(3, 3):
            th, ph = float(thetas[i, 0]), float(phis[j])
            single = far_field_amplitude(probe, fe, nuclei, rp, th, ph)
            assert single.shape == (3,) and np.all(g[i, j] == single)
            s = angular_density(probe, fe, nuclei, rp, th, ph)
            assert isinstance(s, float) and dens[i, j] == s


def test_long_row_sum_against_mpmath(fe):
    # 1e5 nuclei along z at the first zero past the order-1 cone, where the
    # row factor sin(N a / 2) / sin(a / 2) vanishes (a = 2 pi (1 + 1/N)):
    # the terms, each of size K1 ~ 3.5, cancel to ~5e-6, so an uncompensated
    # sum would be off by ~1e-4 relative.  The reference rebuilds the same
    # terms with the module's reduced-phase formula and adds them exactly.
    probe = electron(beta=0.94)
    n, d, standoff = 100_000, 0.286, 0.01
    z = d * np.arange(n)
    nuclei = NucleusSet(np.column_stack([np.zeros(n), np.zeros(n), z]))
    theta = math.acos(1.0 / probe.beta - fe.wavelength_nm / d * (1.0 + 1.0 / n))
    g = far_field_amplitude(probe, fe, nuclei, (standoff, 0.0), theta, 0.0)

    two_pi = 2.0 * math.pi
    k0 = fe.omega0_rad_s / CONSTANTS.c_nm_s
    ph = (np.mod(fe.omega0_rad_s * z / probe.velocity_nm_s, two_pi)
          - np.mod(k0 * (z * np.cos(theta)), two_pi))
    k1 = bessel_k1(fe.omega0_rad_s * standoff / (probe.velocity_nm_s * probe.gamma))
    terms = k1 * np.exp(1j * ph)
    with mp.workprec(256):
        # phi_hat points along -y for every nucleus
        ref = -complex(mp.fsum(terms.real.tolist()), mp.fsum(terms.imag.tolist()))
    assert abs(ref) < 1e-5 * k1
    assert g[0] == 0.0 and g[2] == 0.0
    assert g[1].real == pytest.approx(ref.real, rel=1e-12, abs=0.0)
    assert g[1].imag == pytest.approx(ref.imag, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# array-pattern: one nucleus times the grating factor


def _one_nucleus(probe, rec, standoff):
    k1 = bessel_k1(rec.omega0_rad_s * standoff / (probe.velocity_nm_s * probe.gamma))
    return 9.0 / (8.0 * math.pi) * _dimensionless_scale(probe, rec) * k1 * k1


def _array_rows(beta, n, spacing, standoff, n_points=201):
    config, errors = validate_config(
        "scenario: array-pattern\nprobe: {species: electron, beta: %r}\n"
        "params: {n_nuclei: %d, spacing_nm: %r, standoff_nm: %r, n_points: %d}\n"
        % (beta, n, spacing, standoff, n_points))
    assert not errors
    (table,) = run_scenario(config)
    return np.array(table.rows)


@pytest.mark.parametrize("n", [2, 10])
def test_array_scenario_matches_angular_density(fe, n):
    # the golden rule: 1e-12 relative plus 1e-12 of the column maximum.  The
    # last spacing puts order 2 at cos(theta) = 0, the grid's middle point,
    # where sin(Phi / 2) vanishes up to the rounding of the inputs
    on_order = 2 * 0.9 * fe.wavelength_nm
    cases = [*itertools.product((0.5, 0.94), (0.25, 0.286, 0.32), (0.005, 0.02)),
             (0.9, on_order, 0.01)]
    for beta, spacing, standoff in cases:
        rows = _array_rows(beta, n, spacing, standoff)
        z = spacing * np.arange(n)
        nuclei = NucleusSet(np.column_stack([np.zeros(n), np.zeros(n), z]))
        ref = angular_density(electron(beta=beta), fe, nuclei, (standoff, 0.0), rows[:, 1], 0.0)
        got = rows[:, 2]
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref) + 1e-12 * ref.max()), \
            (beta, spacing, standoff)
    assert rows[100, 0] == 0.0
    assert rows[100, 2] == pytest.approx(n * n * _one_nucleus(electron(beta=0.9), fe, 0.01),
                                         rel=1e-12, abs=0.0)


def test_grating_factor_is_n_squared_where_the_step_is_whole_turns(monkeypatch, fe):
    # with 2 pi taken as d omega0 / v, the step at cos(theta) = 0 is exactly
    # one turn, so sin(pi t) is exactly 0 and the N^2 branch answers
    probe = electron(beta=0.9)
    d = 0.286
    monkeypatch.setattr(finite_array, "_TWO_PI", Fraction(fe.omega0_rad_s) * Fraction(d)
                        / Fraction(probe.velocity_nm_s))
    got = _line_density(probe, fe, 1000, d, 0.01, np.array([0.0, 0.5]))
    assert got[0] == 1000 ** 2 * _one_nucleus(probe, fe, 0.01)
    assert 0.0 <= got[1] < got[0]


def _chain_sum(probe, rec, n, d, cos_vals, direct):
    """|sum_j e^{i j Phi}|^2 at 40 digits, Phi = d (omega0 / v - omega0 cos / c)
    exactly from the double inputs: term by term, or as the geometric series
    in closed form."""
    out = []
    with mp.workdps(40):
        w0, v, c = (mp.mpf(x) for x in (rec.omega0_rad_s, probe.velocity_nm_s, CONSTANTS.c_nm_s))
        for cos in cos_vals:
            phi = mp.mpf(d) * (w0 / v - w0 / c * mp.mpf(cos))
            if direct:
                step, term, total = mp.expj(phi), mp.mpc(1), mp.mpc(0)
                for _ in range(n):
                    total += term
                    term *= step
                out.append(abs(total) ** 2)
            else:
                out.append((mp.sin(n * phi / 2) / mp.sin(phi / 2)) ** 2)
    return np.array([float(x) for x in out])


def _near_orders(probe, rec, n, d):
    """cos(theta) on and around the main peaks, plus a few between, each a
    value that cos(acos(.)) reproduces, so both paths see the same input."""
    lam = rec.wavelength_nm
    cos_vals = [1.0 / probe.beta - k * lam / d + f * lam / (d * n)
                for k in range(1, 30) for f in (-2.5, -1.0, -0.5, -0.2, 0.0, 0.1, 0.7, 1.3)]
    cos_vals += np.linspace(0.99, -0.99, 7).tolist()
    return np.array([c for c in cos_vals if abs(c) <= 1.0 and math.cos(math.acos(c)) == c])


def test_grating_factor_against_40_digit_sums(fe):
    # precision reached at N = 1000 and 1e6: 2e-15 of the column maximum and
    # 1e-13 relative at every point, pattern zeros included (worst seen
    # 7.9e-16 and 1.0e-14 over nine (beta, d) cases).  Without the exact
    # product N t the relative error near zeros reached 1.5e-3 at N = 1e6.
    # The per-term fsum path in angular_density is 4e-13 to 8e-13 of the
    # column maximum off at N = 1000 on the same points.
    standoff = 0.01
    for beta, d in ((0.5, 0.32), (0.9, 0.286), (0.94, 0.25)):
        probe = electron(beta=beta)
        one = _one_nucleus(probe, fe, standoff)
        cos_vals = _near_orders(probe, fe, 1000, d)
        ref = one * _chain_sum(probe, fe, 1000, d, cos_vals, direct=True)
        err = np.abs(_line_density(probe, fe, 1000, d, standoff, cos_vals) - ref)
        assert np.all(err <= 1e-13 * ref) and err.max() <= 2e-15 * ref.max(), (beta, d)
        nuclei = NucleusSet(np.column_stack([np.zeros(1000), np.zeros(1000),
                                             d * np.arange(1000)]))
        fsum = angular_density(probe, fe, nuclei, (standoff, 0.0), np.arccos(cos_vals), 0.0)
        assert err.max() < np.abs(fsum - ref).max()
    for beta, d in itertools.product((0.5, 0.9, 0.94), (0.25, 0.286, 0.32)):
        probe = electron(beta=beta)
        cos_vals = _near_orders(probe, fe, 10 ** 6, d)
        ref = _one_nucleus(probe, fe, standoff) * _chain_sum(probe, fe, 10 ** 6, d, cos_vals,
                                                             direct=False)
        err = np.abs(_line_density(probe, fe, 10 ** 6, d, standoff, cos_vals) - ref)
        assert np.all(err <= 1e-13 * ref) and err.max() <= 2e-15 * ref.max(), (beta, d)
