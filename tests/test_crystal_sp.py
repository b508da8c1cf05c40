import math

import mpmath as mp
import numpy as np
import pytest

from nucsp.crystal_sp import (
    CutoffPolicy,
    LatticeFilm,
    _gsum_terms,
    _layer_prefactor,
    _phi_integrals,
    azimuthal_profile,
    builtin_presets,
    emission_cones,
    first_radiating_order,
    layer_yield,
    make_film,
    parse_lattice_file,
    reciprocal_vectors,
    single_plane_averaged_intensity,
    sp_angles,
)
from nucsp.finite_array import mc_plane_average
from nucsp.nuclide import radiative_rate, registry
from nucsp.numerics import CONSTANTS, integrate_periodic
from nucsp.probe import electron


@pytest.fixture
def fe():
    return registry()["Fe-57"]


@pytest.fixture
def p94():
    return electron(beta=0.94)


# ---------------------------------------------------------------------------
# geometry


def test_preset_geometry():
    bcc = make_film("bcc100")
    assert bcc.a_nm == pytest.approx(0.2856)
    assert bcc.b_par_nm == pytest.approx((0.1428, 0.1428))
    assert bcc.stack_period == 2
    assert bcc.z_period_nm == pytest.approx(0.2856)

    fcc = make_film("fcc100")
    assert fcc.a_nm == pytest.approx(0.36)
    assert fcc.b_z_nm == pytest.approx(0.36 / math.sqrt(2.0))
    assert fcc.stack_period == 2
    assert fcc.z_period_nm == pytest.approx(0.36 * math.sqrt(2.0))

    sc = make_film("sc100")
    assert sc.stack_period == 1
    assert sc.z_period_nm == pytest.approx(sc.a_nm)


def test_make_film_overrides():
    film = make_film("bcc100", a_nm=0.3, n_layers=5)
    assert film.b_par_nm == pytest.approx((0.15, 0.15))
    assert film.n_layers == 5
    with pytest.raises(ValueError):
        make_film("hcp0001")


def test_builtin_presets_mapping():
    films = builtin_presets()
    assert set(films) == {"bcc100", "fcc100", "sc100"}


def test_film_rejects_non_closing_stacking():
    golden = 0.5 * (math.sqrt(5.0) - 1.0)
    with pytest.raises(ValueError):
        LatticeFilm("bad", 0.3, (golden * 0.3, 0.0), 0.15)


def test_film_validation():
    with pytest.raises(ValueError):
        LatticeFilm("bad", -0.3, (0.0, 0.0), 0.3)
    with pytest.raises(ValueError):
        LatticeFilm("bad", 0.3, (0.0, 0.0), 0.3, n_layers=0)


def test_parse_lattice_file(tmp_path):
    p = tmp_path / "lattices.dat"
    p.write_text(
        "# custom stacking\n"
        "name = tetragonal\n"
        "a_nm = 0.30\n"
        "b_par_x_nm = 0.15\n"
        "b_par_y_nm = 0.15\n"
        "b_z_nm = 0.21\n")
    films = parse_lattice_file(p)
    assert films["tetragonal"].stack_period == 2
    assert films["tetragonal"].z_period_nm == pytest.approx(0.42)


def test_parse_lattice_file_errors(tmp_path):
    p = tmp_path / "lattices.dat"
    p.write_text("name = x\na_nm = wide\nb_par_x_nm = 0\nb_par_y_nm = 0\nb_z_nm = 1\n")
    with pytest.raises(Exception) as exc:
        parse_lattice_file(p)
    assert "a_nm" in str(exc.value)


# ---------------------------------------------------------------------------
# cone angles


def test_sp_angles_frozen_reference(fe):
    # beta = 0.94, d = 0.286: six radiating orders.  Independent expectation
    # assembled from cos(theta_n) = 1/beta - n (hc/E0) / d with typed-in
    # constants.
    angles = sp_angles(0.94, 0.286, fe.wavelength_nm)
    assert [n for n, _ in angles] == [1, 2, 3, 4, 5, 6]
    lam = 1239.8419844 / 14412.9
    for n, c in angles:
        assert c == pytest.approx(1.0 / 0.94 - n * lam / 0.286, abs=1e-9)
    expected = [0.7630497, 0.4622696, 0.1614896, -0.1392905, -0.4400705,
                -0.7408506]
    for (n, c), e in zip(angles, expected):
        assert c == pytest.approx(e, abs=1e-6)


def test_sp_angles_slow_probe_skips_low_orders(fe):
    # at beta = 0.5 the first orders satisfy cos > 1 and cannot radiate
    angles = sp_angles(0.5, 0.286, fe.wavelength_nm)
    ns = [n for n, _ in angles]
    assert ns[0] > 1
    assert all(abs(c) <= 1.0 for _, c in angles)


def test_sp_angles_order_cap(fe):
    angles = sp_angles(0.94, 0.286, fe.wavelength_nm, order_cap=3)
    assert [n for n, _ in angles] == [1, 2, 3]


def _brute_sp_angles(beta, d_nm, lambda_nm, order_cap=None, start=1):
    """Every order from start up, as a plain scan."""
    out = []
    n = start
    while order_cap is None or n <= order_cap:
        c = 1.0 / beta - n * lambda_nm / d_nm
        if c < -1.0:
            break
        if c <= 1.0:
            out.append((n, c))
        n += 1
    return out


def test_sp_angles_match_brute_force_scan():
    # sp_angles starts at first_radiating_order; a scan from n = 1 must give
    # the same orders and the same cosines, on every preset and nuclide.  The
    # betas 1 / (1 + k lambda / d) put order k's cosine at 1 up to rounding,
    # where the first order can fall just below the real crossing x = k.
    grid = np.concatenate([np.linspace(0.02, 0.999, 240), [0.05, 0.1, 0.2, 0.3]])
    for rec in registry().values():
        for film in builtin_presets().values():
            d, lam = film.z_period_nm, rec.wavelength_nm
            edges = [1.0 / (1.0 + k * lam / d) for k in range(1, 60)]
            for beta in np.concatenate([grid, edges]):
                for cap in (None, 1, 3, 12):
                    assert sp_angles(beta, d, lam, cap) == _brute_sp_angles(beta, d, lam, cap)


def test_sp_angles_slow_probe_is_not_a_loop_over_orders():
    # at beta = 1e-6 the first radiating order is ~3.3 million; a scan from
    # n = 1, here in one vectorized pass with the same arithmetic, gives the
    # same seven orders
    beta, d, lam = 1e-6, 0.2856, 0.08602
    angles = sp_angles(beta, d, lam)
    n = np.arange(1, 3_400_000)
    c = 1.0 / beta - n * lam / d
    keep = (c <= 1.0) & (c >= -1.0)
    assert len(angles) == 7
    assert angles == list(zip(n[keep].tolist(), c[keep].tolist()))
    assert first_radiating_order(beta, d, lam) == angles[0][0]
    with pytest.raises(ValueError, match="2\\^40"):
        sp_angles(1e-13, d, lam)


def test_sp_angles_validation(fe):
    with pytest.raises(ValueError):
        sp_angles(1.0, 0.286, fe.wavelength_nm)
    with pytest.raises(ValueError):
        sp_angles(0.9, -1.0, fe.wavelength_nm)


# ---------------------------------------------------------------------------
# reciprocal-space selection


def test_stacking_selection_bcc(p94, fe):
    film = make_film("bcc100")
    pol = CutoffPolicy(0.004)
    for n in (1, 3):
        g = reciprocal_vectors(film, n, pol)
        ij = np.round(g / (2.0 * math.pi / film.a_nm)).astype(int)
        assert np.all((ij[:, 0] + ij[:, 1]) % 2 == 1)
    for n in (2, 4):
        g = reciprocal_vectors(film, n, pol)
        ij = np.round(g / (2.0 * math.pi / film.a_nm)).astype(int)
        assert np.all((ij[:, 0] + ij[:, 1]) % 2 == 0)
        assert any(np.all(row == 0) for row in ij)


def test_stacking_selection_fcc_matches_bcc_rule():
    bcc = make_film("bcc100", a_nm=0.3)
    fcc = make_film("fcc100", a_nm=0.3)
    pol = CutoffPolicy(0.004)
    for n in (1, 2, 3):
        np.testing.assert_allclose(reciprocal_vectors(bcc, n, pol),
                                   reciprocal_vectors(fcc, n, pol))


def test_stacking_selection_sc_keeps_all():
    sc = make_film("sc100")
    pol = CutoffPolicy(0.004)
    g1 = reciprocal_vectors(sc, 1, pol)
    g2 = reciprocal_vectors(sc, 2, pol)
    np.testing.assert_allclose(g1, g2)
    # unit-cell count inside the cutoff disk: no vectors are filtered out
    g_unit = 2.0 * math.pi / sc.a_nm
    m = int(250.0 / g_unit)
    count = sum(1 for i in range(-m, m + 1) for j in range(-m, m + 1)
                if (i * i + j * j) * g_unit * g_unit <= 250.0 ** 2)
    assert g1.shape[0] == count


def test_empty_reciprocal_set_warns():
    film = make_film("bcc100")
    pol = CutoffPolicy(1.0)  # cutoff below the first shell
    with pytest.warns(RuntimeWarning):
        g = reciprocal_vectors(film, 1, pol)
    assert g.shape == (0, 2)


def test_cutoff_policy():
    pol = CutoffPolicy(0.001)
    assert pol.g_max_nm == pytest.approx(1000.0)
    assert pol.enumeration_radius() == pytest.approx(1000.0)
    np.testing.assert_allclose(pol.weights(np.array([5.0, 10.0])), 1.0)
    smooth = CutoffPolicy(0.001, smooth=True)
    assert smooth.enumeration_radius() == pytest.approx(12000.0)
    np.testing.assert_allclose(smooth.weights(np.array([1000.0])),
                               math.exp(-1.0))
    with pytest.raises(ValueError):
        CutoffPolicy(0.0)


# ---------------------------------------------------------------------------
# prefactor algebra


def test_layer_prefactor_equivalent_forms(p94, fe):
    # for two-plane stackings (b_z = d/2) the prefactor can also be written
    # 18 pi^2 Z^2 alpha kappa_r^2 c^3 / (a^4 omega0^4 kappa d)
    kr = radiative_rate(fe)
    c = CONSTANTS.c_nm_s
    for name in ("bcc100", "fcc100"):
        film = make_film(name)
        printed = (18.0 * math.pi ** 2 * CONSTANTS.alpha_fs * kr ** 2 * c ** 3
                   / (film.a_nm ** 4 * fe.omega0_rad_s ** 4 * fe.kappa_s
                      * film.z_period_nm))
        assert _layer_prefactor(p94, fe, film) == pytest.approx(printed, rel=1e-12)
    # the single-plane stacking has b_z = d and the factor 2 disappears
    sc = make_film("sc100")
    printed_sc = (9.0 * math.pi ** 2 * CONSTANTS.alpha_fs * kr ** 2 * c ** 3
                  / (sc.a_nm ** 4 * fe.omega0_rad_s ** 4 * fe.kappa_s
                     * sc.z_period_nm))
    assert _layer_prefactor(p94, fe, sc) == pytest.approx(printed_sc, rel=1e-12)


# ---------------------------------------------------------------------------
# azimuthal profiles and yields


def _transverse_sum(probe, rec, g, w, theta, phi):
    """Oracle for the G sum in its transverse form,

        sum_G w Q^2 (1 - (r_hat . phi_hat_Q)^2) / (Q^2 + Delta^2)^2,

    per entry of phi; the library assembles Q^2 cos^2(theta) + (Q . r_hat)^2."""
    k0 = rec.omega0_rad_s / CONSTANTS.c_nm_s
    delta = rec.omega0_rad_s / (probe.velocity_nm_s * probe.gamma)
    sin_t = math.sin(theta)
    phi = np.atleast_1d(np.asarray(phi, dtype=float))[:, None]
    qx = k0 * sin_t * np.cos(phi) + g[:, 0]
    qy = k0 * sin_t * np.sin(phi) + g[:, 1]
    q2 = qx * qx + qy * qy
    # r_hat . phi_hat_Q times |Q|, with phi_hat_Q = z_hat x Q / |Q|
    r_dot = sin_t * (np.sin(phi) * qx - np.cos(phi) * qy)
    return np.sum(w * (q2 - r_dot * r_dot) / (q2 + delta * delta) ** 2, axis=1)


def test_kernel_forms_agree(p94, fe):
    # Q^2 cos^2(theta) + (Q . r_hat)^2 equals Q^2 (1 - (r_hat . phi_hat_Q)^2)
    film = make_film("bcc100")
    phis = np.array([0.0, 0.35, 1.2, 2.9, 4.4])
    cos_t = dict(sp_angles(0.94, film.z_period_nm, fe.wavelength_nm))[2]
    for pol in (CutoffPolicy(0.001), CutoffPolicy(0.004, smooth=True)):
        g = reciprocal_vectors(film, 2, pol)
        w = pol.weights(np.hypot(g[:, 0], g[:, 1]))
        oracle = (film.n_layers * _layer_prefactor(p94, fe, film)
                  * _transverse_sum(p94, fe, g, w, math.acos(cos_t), phis))
        np.testing.assert_allclose(azimuthal_profile(p94, fe, film, 2, phis, pol),
                                   oracle, rtol=1e-12)


def test_plane_average_matches_transverse_oracle(fe):
    # off every cone (cos_n = 1/0.9 - 0.3015 n on sc100), one theta > pi/2
    probe = electron(beta=0.9)
    film = make_film("sc100")
    pol = CutoffPolicy(0.001)
    g_unit = 2.0 * math.pi / film.a_nm
    m = int(pol.g_max_nm // g_unit)
    i, j = np.meshgrid(np.arange(-m, m + 1), np.arange(-m, m + 1), indexing="ij")
    inside = (i * i + j * j) * g_unit ** 2 <= pol.g_max_nm ** 2
    g = g_unit * np.column_stack([i[inside], j[inside]]).astype(float)
    vg = probe.velocity_nm_s * probe.gamma
    pref = (2.0 * math.pi * vg / (film.cell_area_nm2 * fe.omega0_rad_s)) ** 2
    for theta, phi in [(1.0, 0.3), (2.2, 1.9), (0.6, 4.0)]:
        oracle = pref * _transverse_sum(probe, fe, g, np.ones(len(g)), theta, phi)[0]
        got = single_plane_averaged_intensity(probe, fe, film, theta, phi, pol)
        assert got == pytest.approx(oracle, rel=1e-12)


def test_azimuthal_profile_scalar_and_array(p94, fe):
    film = make_film("bcc100")
    pol = CutoffPolicy(0.001)
    arr = azimuthal_profile(p94, fe, film, 1, np.array([0.2, 0.9]), pol)
    s = azimuthal_profile(p94, fe, film, 1, 0.2, pol)
    assert isinstance(s, float)
    assert s == pytest.approx(arr[0], rel=1e-15)


def test_azimuthal_profile_fourfold_symmetry(p94, fe):
    film = make_film("bcc100")
    pol = CutoffPolicy(0.001)
    phis = np.array([0.1, 0.8, 1.3])
    a = azimuthal_profile(p94, fe, film, 1, phis, pol)
    b = azimuthal_profile(p94, fe, film, 1, phis + math.pi / 2.0, pol)
    np.testing.assert_allclose(a, b, rtol=1e-10)


def test_azimuthal_profile_rejects_silent_order(fe):
    film = make_film("bcc100")
    pol = CutoffPolicy(0.001)
    slow = electron(beta=0.5)
    with pytest.raises(ValueError):
        azimuthal_profile(slow, fe, film, 1, 0.0, pol)


def test_gsum_terms_compose_profile(p94, fe):
    film = make_film("bcc100")
    pol = CutoffPolicy(0.002)
    g = reciprocal_vectors(film, 1, pol)
    w = pol.weights(np.hypot(g[:, 0], g[:, 1]))
    cos_t = dict(sp_angles(0.94, film.z_period_nm, fe.wavelength_nm))[1]
    terms = _gsum_terms(p94, fe, g, w, cos_t, 0.3)
    pref = film.n_layers * _layer_prefactor(p94, fe, film)
    total = azimuthal_profile(p94, fe, film, 1, 0.3, pol)
    assert pref * terms.sum() == pytest.approx(total, rel=1e-12)
    assert np.all(terms >= 0.0)


def test_emission_cones_structure(p94, fe):
    film = make_film("bcc100")
    pol = CutoffPolicy(0.001)
    cones = emission_cones(p94, fe, film, pol)
    assert [c.n for c in cones] == [1, 2, 3, 4, 5, 6]
    for c in cones:
        assert c.weight > 0.0
        assert c.phi_profile.shape == c.phis.shape
        # the integrated weight matches a trapezoid of the stored profile
        # to well under a percent (the profile is nearly flat)
        trap = c.phi_profile.mean() * 2.0 * math.pi
        assert c.weight == pytest.approx(trap, rel=1e-3)


def _phi_integral_oracle(probe, rec, cos_t, g_norm, g_angle=0.7):
    """mpmath quadrature over phi of one unit-weight summand in its transverse
    form, Q^2 (1 - (r_hat . phi_hat_Q)^2) / (Q^2 + Delta^2)^2, for
    G = g_norm (cos g_angle, sin g_angle)."""
    with mp.workdps(30):
        k0 = mp.mpf(rec.omega0_rad_s) / mp.mpf(CONSTANTS.c_nm_s)
        delta = mp.mpf(rec.omega0_rad_s) / (mp.mpf(probe.velocity_nm_s)
                                            * mp.mpf(probe.gamma))
        c = mp.mpf(cos_t)
        s = mp.sqrt((1 - c) * (1 + c))
        gx = mp.mpf(g_norm) * mp.cos(g_angle)
        gy = mp.mpf(g_norm) * mp.sin(g_angle)

        def f(phi):
            qx = k0 * s * mp.cos(phi) + gx
            qy = k0 * s * mp.sin(phi) + gy
            q2 = qx * qx + qy * qy
            r_dot = s * (mp.sin(phi) * qx - mp.cos(phi) * qy)
            return (q2 - r_dot * r_dot) / (q2 + delta * delta) ** 2

        # |Q| is smallest at phi = g_angle + pi, where the integrand peaks
        # with width ~ Delta / k: crowd breakpoints towards it
        peak = mp.mpf(g_angle) + mp.pi
        gaps = [mp.pi * mp.mpf(10) ** -e for e in range(9)]
        pts = [peak - x for x in gaps] + [peak] + [peak + x for x in reversed(gaps)]
        return float(mp.quad(f, pts))


@pytest.mark.parametrize("beta", [0.5, 0.94, 0.99999])
@pytest.mark.parametrize("cos_t", [1.0 - 1e-6, 0.3, -0.6, -1.0 + 1e-6])
def test_phi_integral_closed_form_matches_mpmath(fe, beta, cos_t):
    # G = 0 (B = 0), the first bcc100 shell, |G| = |k_par| (Q passes through
    # zero; at beta -> 1, Delta << k and the textbook form cancels there) and
    # the 1/r_min = 1000/nm cutoff
    probe = electron(beta=beta)
    k = fe.omega0_rad_s / CONSTANTS.c_nm_s * math.sqrt((1 - cos_t) * (1 + cos_t))
    g_norms = np.array([0.0, 2.0 * math.pi / 0.2856, k, 1000.0])
    got = _phi_integrals(probe, fe, cos_t, g_norms)
    for gn, val in zip(g_norms, got):
        assert val == pytest.approx(_phi_integral_oracle(probe, fe, cos_t, gn),
                                    rel=1e-12, abs=0.0)


@pytest.mark.parametrize("preset,pol", [
    ("bcc100", CutoffPolicy(0.002)),
    ("fcc100", CutoffPolicy(0.002)),
    ("sc100", CutoffPolicy(0.002)),
    ("bcc100", CutoffPolicy(0.004, smooth=True)),
])
def test_cone_weights_match_periodic_quadrature(fe, preset, pol):
    # the azimuthal quadrature the closed form replaced, run tighter
    probe = electron(beta=0.9)
    film = make_film(preset)
    cones = emission_cones(probe, fe, film, pol)
    assert cones
    for c in cones:
        quad = integrate_periodic(
            lambda phi: azimuthal_profile(probe, fe, film, c.n, phi, pol), rel_tol=1e-10)
        assert c.weight == pytest.approx(quad, rel=1e-8)


def test_phi_profile_is_azimuthal_profile_read_lazily(p94, fe):
    film = make_film("fcc100")
    pol = CutoffPolicy(0.002)
    for c in emission_cones(p94, fe, film, pol):
        assert "phi_profile" not in vars(c)
        profile = c.phi_profile
        assert c.phi_profile is profile
        assert np.array_equal(profile, azimuthal_profile(p94, fe, film, c.n, c.phis, pol))


def test_profile_blocks_match_one_pass_sum(p94, fe):
    # 4096 angles against 812 vectors: the profile is summed in 51 G blocks
    film = make_film("bcc100")
    pol = CutoffPolicy(0.002)
    g = reciprocal_vectors(film, 1, pol)
    w = pol.weights(np.hypot(g[:, 0], g[:, 1]))
    cos_t = dict(sp_angles(0.94, film.z_period_nm, fe.wavelength_nm))[1]
    phis = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    one_pass = (film.n_layers * _layer_prefactor(p94, fe, film)
                * np.sum(_gsum_terms(p94, fe, g, w, cos_t, phis), axis=1))
    np.testing.assert_allclose(azimuthal_profile(p94, fe, film, 1, phis, pol),
                               one_pass, rtol=1e-13)


def test_layer_yield_frozen_value(p94, fe):
    film = make_film("bcc100")
    pol = CutoffPolicy(0.001)
    y = layer_yield(p94, fe, film, pol)
    assert y == pytest.approx(1.3304641e-18, rel=1e-6)


def test_layer_yield_scales_with_charge_squared(p94, fe):
    from nucsp.probe import Probe
    film = make_film("bcc100")
    pol = CutoffPolicy(0.001)
    ion = Probe(z_charge=3, rest_energy_eV=9.4e8, beta=0.94)
    assert layer_yield(ion, fe, film, pol) == pytest.approx(
        layer_yield(p94, fe, film, pol), rel=1e-10)


def test_n_layers_multiplies_profile(p94, fe):
    pol = CutoffPolicy(0.001)
    one = make_film("bcc100")
    ten = make_film("bcc100", n_layers=10)
    a = azimuthal_profile(p94, fe, one, 1, 0.4, pol)
    b = azimuthal_profile(p94, fe, ten, 1, 0.4, pol)
    assert b == pytest.approx(10.0 * a, rel=1e-14)
    # layer_yield normalizes the layer count back out
    assert layer_yield(p94, fe, ten, pol) == pytest.approx(
        layer_yield(p94, fe, one, pol), rel=1e-12)


# ---------------------------------------------------------------------------
# single-plane average vs Monte-Carlo


def test_plane_average_fourfold_symmetry(fe):
    probe = electron(beta=0.9)
    film = make_film("sc100")
    pol = CutoffPolicy(0.001)
    theta = 1.0
    a = single_plane_averaged_intensity(probe, fe, film, theta, 0.25, pol)
    b = single_plane_averaged_intensity(probe, fe, film, theta,
                                        0.25 + math.pi / 2.0, pol)
    assert a == pytest.approx(b, rel=1e-10)


def test_plane_average_against_monte_carlo(fe):
    probe = electron(beta=0.9)
    film = make_film("sc100")
    pol = CutoffPolicy(0.001)
    theta, phi = 1.0, 0.3
    gs = single_plane_averaged_intensity(probe, fe, film, theta, phi, pol)
    mc = mc_plane_average(probe, fe, film.a_nm, 12, theta, phi, 0.001,
                          10000, seed=5)
    # the hard reciprocal cutoff and the real-space disk exclusion differ by
    # a few percent systematically; 10k samples add ~1% noise
    assert gs == pytest.approx(mc, rel=0.10)
