import json
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from nucsp.crystal_sp import (
    MAX_G_GRID,
    R_MIN,
    CutoffPolicy,
    LatticeFilm,
    _PARITY_TOL,
    _class_shells,
    _counted_fsum,
    _enumerate_g,
    _grid_half_width,
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
from nucsp.rows import _validate_block
from nucsp.scenarios import PARAMS, validate_config


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
    film = make_film("bcc100", a_nm=0.3)
    assert film.b_par_nm == pytest.approx((0.15, 0.15))
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


def test_reciprocal_vectors_rejects_order_zero():
    with pytest.raises(ValueError, match="order must be a positive integer"):
        reciprocal_vectors(make_film("bcc100"), 0, CutoffPolicy(0.01))


@pytest.mark.parametrize("order", [1.5, 2.0, True, np.float64(2.0), "2", None])
def test_order_must_be_an_integer(p94, fe, order):
    # 1.5 gave no vectors (or a 0.0 profile) with a warning about "order 1",
    # and True ran as order 1
    film, pol = make_film("bcc100"), CutoffPolicy(0.01)
    with pytest.raises(ValueError, match="^order must be a positive integer$"):
        reciprocal_vectors(film, order, pol)
    with pytest.raises(ValueError, match="^order must be a positive integer$"):
        azimuthal_profile(p94, fe, film, order, 0.3, pol)


def test_numpy_integer_orders_are_accepted(p94, fe):
    film, pol = make_film("bcc100"), CutoffPolicy(0.01)
    assert np.array_equal(reciprocal_vectors(film, np.int64(2), pol),
                          reciprocal_vectors(film, 2, pol))
    assert azimuthal_profile(p94, fe, film, np.int64(2), 0.3, pol) == \
        azimuthal_profile(p94, fe, film, 2, 0.3, pol)


# the admitted cutoff of tests/test_scenarios.py's grid-cap test builds a
# 1413 x 1413 index square; one step past it, 1415 x 1415 is over the budget
_ADMITTED_R_MIN = 0.0007715075261167521
_FILM_CALLS = {
    "reciprocal_vectors": lambda probe, rec, film, pol: reciprocal_vectors(film, 1, pol),
    "emission_cones": emission_cones,
    "layer_yield": layer_yield,
    "azimuthal_profile": lambda probe, rec, film, pol: azimuthal_profile(
        probe, rec, film, sp_angles(probe.beta, film.z_period_nm, rec.wavelength_nm)[0][0],
        np.linspace(0.0, math.pi, 4), pol),
    "single_plane_averaged_intensity": lambda probe, rec, film, pol:
        single_plane_averaged_intensity(probe, rec, film, 1.0, 0.5, pol),
}


def test_grid_half_width_is_an_int_at_the_admitted_cutoff():
    m = _grid_half_width(make_film("bcc100"), CutoffPolicy(_ADMITTED_R_MIN, smooth=True))
    assert type(m) is int and m == 706


@pytest.mark.parametrize("call", sorted(_FILM_CALLS))
@pytest.mark.parametrize("pol", [CutoffPolicy(_ADMITTED_R_MIN * 706.5 / 707.0, smooth=True),
                                 CutoffPolicy(1e-320)], ids=["one-step-past", "1e-320"])
def test_film_calls_raise_past_the_grid_budget_before_they_allocate(p94, fe, call, pol):
    # 1e-320 makes the enumeration radius infinite, which once raised
    # OverflowError converting the half-width to int
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            _FILM_CALLS[call](p94, fe, make_film("bcc100"), pol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == "reciprocal grid exceeds %d entries per stacking class" % (
        MAX_G_GRID)
    assert peak < 1 << 20


def test_empty_stacking_class_warns_and_weighs_zero(p94, fe):
    # at r_min = 0.05 nm only G = 0 is inside the cutoff, and on bcc100 it
    # serves the even orders alone: each odd cone is named, weighed 0.0
    film = make_film("bcc100")
    pol = CutoffPolicy(0.05)
    with pytest.warns(RuntimeWarning) as record:
        cones = emission_cones(p94, fe, film, pol)
    assert [str(w.message) for w in record] == [
        "no reciprocal vectors pass the cutoff for order %d" % n for n in (1, 3, 5)]
    assert [c.weight == 0.0 for c in cones] == [True, False] * 3
    with pytest.warns(RuntimeWarning):
        assert [c.weight for c in cones] == [
            _per_vector_weight(p94, fe, film, c.n, pol) for c in cones]


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
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="^r_min_nm: must be (positive|finite)$"):
            CutoffPolicy(bad, smooth=True)


@pytest.mark.parametrize("r_min_nm", [0.0, -1.0, math.nan, math.inf, 1e-300, 0.003])
def test_cutoff_policy_r_min_admits_what_its_config_row_admits(r_min_nm):
    # the row alone: a config adds the grid cap, which 1e-300 fails
    table = PARAMS["crystal-yield"]
    assert any(row is R_MIN for row in table)
    errors = []
    _validate_block("params", table, {"r_min_nm": r_min_nm}, errors, {"films": builtin_presets()})
    try:
        CutoffPolicy(r_min_nm)
    except ValueError as exc:
        assert errors == ["params." + str(exc)]
    else:
        assert errors == []


@pytest.mark.parametrize("smooth", [True, False, "false", 0, 1, None])
def test_cutoff_policy_admits_what_its_config_row_admits(smooth):
    # a "false" string once ran the smooth cutoff, at 12 / r_min
    config, errors = validate_config(
        "scenario: crystal-yield\nprobe: {species: electron, beta: 0.9}\n"
        "params: {r_min_nm: 0.003, smooth_cutoff: %s}\n" % json.dumps(smooth))
    try:
        policy = CutoffPolicy(0.003, smooth)
    except ValueError as exc:
        assert str(exc) == ("smooth: required" if smooth is None else "smooth: must be a boolean")
        policy = None
    assert (policy is not None) == (not errors), errors
    assert config is None or config.params["smooth_cutoff"] is policy.smooth


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
        assert _layer_prefactor(p94, fe, film) == pytest.approx(printed, rel=1e-12, abs=0.0)
    # the single-plane stacking has b_z = d and the factor 2 disappears
    sc = make_film("sc100")
    printed_sc = (9.0 * math.pi ** 2 * CONSTANTS.alpha_fs * kr ** 2 * c ** 3
                  / (sc.a_nm ** 4 * fe.omega0_rad_s ** 4 * fe.kappa_s
                     * sc.z_period_nm))
    assert _layer_prefactor(p94, fe, sc) == pytest.approx(printed_sc, rel=1e-12, abs=0.0)


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
        oracle = (_layer_prefactor(p94, fe, film)
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
        assert got == pytest.approx(oracle, rel=1e-12, abs=0.0)


def test_azimuthal_profile_scalar_and_array(p94, fe):
    film = make_film("bcc100")
    pol = CutoffPolicy(0.001)
    arr = azimuthal_profile(p94, fe, film, 1, np.array([0.2, 0.9]), pol)
    s = azimuthal_profile(p94, fe, film, 1, 0.2, pol)
    assert isinstance(s, float)
    assert s == pytest.approx(arr[0], rel=1e-15, abs=0.0)


def test_plane_average_array_phi_equals_scalar_calls(fe):
    # an array phi gives one average per phi, not their sum, in phi's shape
    probe = electron(beta=0.9)
    film = make_film("sc100")
    pol = CutoffPolicy(0.001)
    phis = np.array([[0.3, 1.1], [2.5, 4.0]])
    got = single_plane_averaged_intensity(probe, fe, film, 1.0, phis, pol)
    assert isinstance(got, np.ndarray) and got.shape == phis.shape
    for phi, g in zip(phis.ravel().tolist(), got.ravel().tolist()):
        one = single_plane_averaged_intensity(probe, fe, film, 1.0, phi, pol)
        assert isinstance(one, float)
        assert g == pytest.approx(one, rel=1e-15, abs=0.0)
    assert single_plane_averaged_intensity(probe, fe, film, 1.0, phis[:0], pol).shape == (0, 2)


def test_azimuthal_profile_of_empty_stacking_class_warns(p94, fe):
    # at r_min = 0.05 nm bcc100's odd orders keep no reciprocal vector: the
    # profile is 0.0 and named, as emission_cones names the cone
    film = make_film("bcc100")
    pol = CutoffPolicy(0.05)
    with pytest.warns(RuntimeWarning) as record:
        profile = azimuthal_profile(p94, fe, film, 1, np.array([0.0, 0.7]), pol)
    assert [str(w.message) for w in record] == [
        "no reciprocal vectors pass the cutoff for order 1"]
    assert record[0].filename == __file__
    np.testing.assert_array_equal(profile, 0.0)


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
    pref = _layer_prefactor(p94, fe, film)
    total = azimuthal_profile(p94, fe, film, 1, 0.3, pol)
    assert pref * terms.sum() == pytest.approx(total, rel=1e-12, abs=0.0)
    assert np.all(terms >= 0.0)


def test_emission_cones_structure(p94, fe):
    film = make_film("bcc100")
    pol = CutoffPolicy(0.001)
    cones = emission_cones(p94, fe, film, pol)
    assert [c.n for c in cones] == [1, 2, 3, 4, 5, 6]
    phis = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    for c in cones:
        assert c.weight > 0.0
        # the integrated weight matches a trapezoid of the profile on 64
        # points to well under a percent (the profile is nearly flat)
        trap = azimuthal_profile(p94, fe, film, c.n, phis, pol).mean() * 2.0 * math.pi
        assert c.weight == pytest.approx(trap, rel=1e-3, abs=0.0)


def test_emission_cones_compare_by_value(p94, fe):
    film = make_film("fcc100")
    pol = CutoffPolicy(0.002)
    first = emission_cones(p94, fe, film, pol)
    assert first and emission_cones(p94, fe, film, pol) == first


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
        assert c.weight == pytest.approx(quad, rel=1e-8, abs=0.0)


def _per_vector_weight(probe, rec, film, n, pol):
    """Cone weight as one compensated sum over every admissible G of order n,
    each with its own np.hypot norm."""
    cos_t = dict(sp_angles(probe.beta, film.z_period_nm, rec.wavelength_nm))[n]
    g = reciprocal_vectors(film, n, pol)
    norm = np.hypot(g[:, 0], g[:, 1])
    return (_layer_prefactor(probe, rec, film)
            * math.fsum(pol.weights(norm) * _phi_integrals(probe, rec, cos_t, norm)))


_QUARTER_LATTICE = ("name = quarter\na_nm = 0.30\nb_par_x_nm = 0.075\n"
                    "b_par_y_nm = 0.075\nb_z_nm = 0.10\n")


@pytest.mark.parametrize("pol", [CutoffPolicy(0.001), CutoffPolicy(0.004, smooth=True)],
                         ids=["hard", "smooth"])
@pytest.mark.parametrize("lattice", ["bcc100", "fcc100", "sc100", "quarter"])
def test_cone_weights_equal_per_vector_fsum(lattice, pol, tmp_path):
    # weights summed over distinct |G| with multiplicities are the per-vector
    # sum bit for bit; the quarter-offset data-file lattice stacks four
    # planes, so orders of all four classes are summed
    if lattice == "quarter":
        (tmp_path / "lattices.dat").write_text(_QUARTER_LATTICE)
        film = parse_lattice_file(tmp_path / "lattices.dat")["quarter"]
        assert film.stack_period == 4
    else:
        film = make_film(lattice)
    classes = set()
    for rec in registry().values():
        for beta in (0.6, 0.94, 0.99):
            probe = electron(beta=beta)
            for c in emission_cones(probe, rec, film, pol):
                assert c.weight == _per_vector_weight(probe, rec, film, c.n, pol)
                classes.add(c.n % film.stack_period)
    assert classes == set(range(film.stack_period))


def _full_grid_g(film, policy, order):
    """_enumerate_g as it was: the whole (2m+1)^2 index grid, then the disk
    test, the stacking phase and the (i^2 + j^2, i, j) sort."""
    g_unit = 2.0 * math.pi / film.a_nm
    radius = policy.enumeration_radius()
    m = int(_grid_half_width(film, policy))
    idx = np.arange(-m, m + 1)
    ii, jj = (a.ravel() for a in np.meshgrid(idx, idx, indexing="ij"))
    keep = (ii * ii + jj * jj) * g_unit * g_unit <= radius * radius
    ii, jj = ii[keep], jj[keep]
    if order is not None:
        t = (order * film.b_z_nm / film.z_period_nm
             + (ii * film.b_par_nm[0] + jj * film.b_par_nm[1]) / film.a_nm)
        ok = np.abs(t - np.round(t)) < _PARITY_TOL
        ii, jj = ii[ok], jj[ok]
    key = np.lexsort((jj, ii, ii * ii + jj * jj))
    return g_unit * np.column_stack([ii[key], jj[key]]).astype(float)


@pytest.mark.parametrize("preset", ["bcc100", "fcc100", "sc100"])
@pytest.mark.parametrize("pol", [CutoffPolicy(r, smooth) for r in (0.5, 0.05, 0.0123, 0.004)
                                 for smooth in (False, True)], ids=str)
def test_enumeration_equals_full_grid(preset, pol):
    # the disk is built row by row; vectors and their order are unchanged,
    # with and without a stacking order
    film = make_film(preset)
    for order in (None, 1, 2):
        got = _enumerate_g(film, pol, order)
        assert got.dtype == float and np.array_equal(got, _full_grid_g(film, pol, order))


# a = 0.3 nm with the offset a/3 + 2e-11 nm: p b_par / a closes at p = 3
# within 1e-9, but a float stacking phase per vector drifts by 6.7e-11 |i|
_NEAR_THIRD = LatticeFilm("near", 0.3, (0.10000000002, 0.0), 0.1)
_THIRD = LatticeFilm("third", 0.3, (0.1, 0.0), 0.1)


def test_near_rational_offset_selects_as_its_closed_stacking():
    # the stacking is decided once, so every order keeps all of the vectors
    # the exact offset keeps, those past |i| = 15 included
    pol = CutoffPolicy(0.001)
    assert _NEAR_THIRD.stack_period == _THIRD.stack_period == 3
    for n, size in ((1, 2388), (2, 2388), (3, 2377), (4, 2388)):
        got = _enumerate_g(_NEAR_THIRD, pol, n)
        assert got.shape == (size, 2) and np.array_equal(got, _enumerate_g(_THIRD, pol, n))


def test_far_offset_selects_as_its_reduction_by_lattice_vectors():
    # (900000.1, -600000.2) nm is (0.1, -0.2) nm plus whole lattice vectors:
    # it closes at p = 3 with P = (9000001, -6000002), and the smooth 1 pm
    # cutoff runs i to 572, so i P_x leaves int32 unless P is reduced mod p
    pol = CutoffPolicy(0.001, smooth=True)
    far = LatticeFilm("far", 0.3, (900000.1, -600000.2), 0.1)
    reduced = LatticeFilm("reduced", 0.3, (0.1, -0.2), 0.1)
    assert far.stack_period == reduced.stack_period == 3
    assert _grid_half_width(far, pol) * 9000001 > 2 ** 31
    for n in (1, 2, 3):
        got = _enumerate_g(far, pol, n)
        assert got.shape[0] > 340_000 and np.array_equal(got, _enumerate_g(reduced, pol, n))


def test_enumeration_peak_memory_is_below_twice_its_result():
    # fcc100 at the smooth 1 pm cutoff: 1,485,133 vectors (23.8 MB) from a
    # 1375 x 1375 index square, which once peaked at 97 MB
    tracemalloc.start()
    try:
        g = _enumerate_g(make_film("fcc100"), CutoffPolicy(0.001, smooth=True), None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.shape == (1_485_133, 2)
    assert peak < 2 * g.nbytes


def _phi_grid(rec):
    """Cone cosines, +-(1 - 1e-6) among them, and |G| = 0, |k_par| of each
    cosine, the 1000/nm cutoff and a real class's shells."""
    cos_t = np.array([1.0 - 1e-6, 0.3, 0.0, -0.6, -1.0 + 1e-6])
    k0 = rec.omega0_rad_s / CONSTANTS.c_nm_s
    k_par = [k0 * math.sqrt((1 - c) * (1 + c)) for c in cos_t]
    shells = _class_shells(make_film("bcc100"), CutoffPolicy(0.002), 1)[0]
    return cos_t, np.concatenate([[0.0], k_par, [1000.0], shells])


@pytest.mark.parametrize("beta", [0.5, 0.94, 0.99999])
def test_phi_integrals_of_many_cosines_equal_per_cosine_calls(fe, beta):
    # one (cosines x |G|) pass against one call per cosine, bit for bit
    probe = electron(beta=beta)
    cos_t, g_norms = _phi_grid(fe)
    batch = _phi_integrals(probe, fe, cos_t, g_norms)
    assert batch.shape == (cos_t.size, g_norms.size)
    for c, row in zip(cos_t, batch):
        assert np.array_equal(row, _phi_integrals(probe, fe, float(c), g_norms))


def _phi_integrals_as_written(probe, rec, cos_t, g_norm):
    """_phi_integrals with every subexpression written out where it is used,
    as the module docstring states the formula."""
    c = np.asarray(cos_t, dtype=float)[..., None]
    sin_t = np.sqrt(np.maximum(0.0, (1.0 - c) * (1.0 + c)))
    k = rec.omega0_rad_s / CONSTANTS.c_nm_s * sin_t
    d2 = (rec.omega0_rad_s / (probe.velocity_nm_s * probe.gamma)) ** 2
    g2 = g_norm * g_norm
    r = np.sqrt(((k - g_norm) ** 2 + d2) * ((k + g_norm) ** 2 + d2))
    k2mg2 = (k - g_norm) * (k + g_norm)
    p = k2mg2 * k2mg2 + (k * k + g2) * d2
    num = k * k * (k2mg2 + d2) ** 2 + p * r + c * c * g2 * r * r
    return 2.0 * math.pi * num / (r ** 3 * (k * k + g2 + d2 + r))


@pytest.mark.parametrize("beta", [0.5, 0.94, 0.99999])
def test_phi_integrals_equal_the_formula_as_written(fe, beta):
    # shared subexpressions must not move a bit, in one pass or per cosine
    probe = electron(beta=beta)
    cos_t, g_norms = _phi_grid(fe)
    assert np.array_equal(_phi_integrals(probe, fe, cos_t, g_norms),
                          _phi_integrals_as_written(probe, fe, cos_t, g_norms))
    for c in cos_t:
        assert np.array_equal(_phi_integrals(probe, fe, float(c), g_norms),
                              _phi_integrals_as_written(probe, fe, float(c), g_norms))


def test_counted_fsum_equals_per_vector_fsum():
    # counts of 1, 4, 8, 12, 24 and 36, in no order; full 53-bit values over
    # a wide exponent range, so count * x rounds wherever the count is not a
    # power of two
    rng = np.random.default_rng(5)
    counts = rng.permutation(np.repeat([1, 4, 8, 12, 24, 36], 7))
    x = rng.uniform(1.0, 2.0, (6, counts.size)) * 2.0 ** rng.integers(-80, 80, counts.size)
    x[1] *= (-1.0) ** np.arange(counts.size)  # mixed signs cancel
    got = _counted_fsum(x, counts)
    assert got == [math.fsum(np.repeat(row, counts).tolist()) for row in x]
    assert all(type(v) is float for v in got)


def test_counted_fsum_reads_any_layout_and_empty_shapes():
    # C-ordered, Fortran-ordered and column-strided x give the same floats;
    # values stay Python floats, which ResultTable.to_csv's fast path checks
    # with type(v) is float
    rng = np.random.default_rng(7)
    counts = rng.permutation(np.repeat([1, 4, 12, 36], 5))
    x = rng.uniform(1.0, 2.0, (4, counts.size)) * 2.0 ** rng.integers(-60, 60, counts.size)
    want = [math.fsum(np.repeat(row, counts).tolist()) for row in x]
    wide = np.zeros((4, 2 * counts.size))
    wide[:, ::2] = x
    for layout in (np.ascontiguousarray(x), np.asfortranarray(x), wide[:, ::2]):
        got = _counted_fsum(layout, counts)
        assert got == want and all(type(v) is float for v in got)
    assert _counted_fsum(np.empty((0, counts.size)), counts) == []
    # an empty stacking class: no shells, each row sums to 0.0
    got = _counted_fsum(np.empty((3, 0)), np.empty(0))
    assert got == [0.0] * 3 and all(type(v) is float for v in got)


def _fuzz_row(rng, counts, kind):
    """One row for _counted_fsum: full 53-bit values at wide, subnormal,
    cancelling or zero magnitudes with random signs; of one sign in one
    binade, whose sum uses all the headroom that 2^m > sum(counts) leaves;
    or +-(1 + j 2^-53), a half-way tie between two doubles for odd j."""
    size = counts.size
    x = rng.uniform(1.0, 2.0, size) * rng.choice([-1.0, 1.0], size)
    if kind == "wide":
        x *= 2.0 ** rng.integers(-200, 200, size)
    elif kind == "subnormal":  # subnormals, and the normals just above them
        x = np.ldexp(x, rng.integers(-1075, -1010, size))
    elif kind == "cancel":  # the first half repeated with the opposite sign
        x *= 2.0 ** rng.integers(-30, 30, size)
        half = size // 2
        x[half:2 * half] = -x[:half] * counts[:half] / counts[half:2 * half]
        x[0] = np.nextafter(x[0], 0.0)
    elif kind == "zeros":
        x[rng.random(size) < 0.7] = 0.0
    elif kind == "binade":
        x = np.abs(x) * math.copysign(2.0 ** int(rng.integers(-100, 100)), x[0])
    elif kind == "tie":
        sign = math.copysign(1.0, x[0])
        x = np.where(rng.random(size) < 0.5, sign * 2.0 ** -53, 0.0)
        x[0] = sign / counts[0]
    return x


def test_counted_fsum_fuzz_equals_per_vector_fsum():
    # 3,000 seeded rows against math.fsum over the individual vectors, in
    # three layouts: mixed signs, wide exponents, cancellation, subnormals,
    # zero rows, one-binade rows, ties, and counts from 1 to 64 with powers
    # of two among them
    rng = np.random.default_rng(33)
    kinds = ("wide", "subnormal", "cancel", "zeros", "binade", "tie")
    for trial in range(100):
        counts = rng.integers(1, 65, int(rng.integers(1, 80)))
        counts[0] = 1 << int(rng.integers(0, 6))  # so that tie rows start at +-1
        x = np.array([_fuzz_row(rng, counts, kinds[(trial + i) % 6]) for i in range(30)])
        x[trial % 30] = 0.0
        want = [math.fsum(np.repeat(row, counts).tolist()) for row in x]
        wide = np.zeros((x.shape[0], 3 * counts.size))
        wide[:, 1::3] = x
        for layout in (x, np.asfortranarray(x), wide[:, 1::3]):
            got = _counted_fsum(layout, counts)
            assert got == want and all(type(v) is float for v in got)


def test_counted_fsum_at_a_grid_sized_count_and_the_overflow_guard():
    # counts totalling just under MAX_G_GRID (m = 21), with a row's largest
    # |x| one step below 2^(1023 - m) and one at it; the latter, inf and NaN
    # raise ValueError before anything is summed.  The last four rows are
    # negative and within a factor 2 of the top, so their sums come near
    # -2^1023: they use all the headroom that sigma = 2^(e + m) leaves
    rng = np.random.default_rng(21)
    counts = np.full(64, MAX_G_GRID // 64)
    counts[:7] -= 1
    assert MAX_G_GRID - 64 < counts.sum() < MAX_G_GRID
    m = int(counts.sum()).bit_length()
    top = np.nextafter(2.0 ** (1023 - m), 0.0)
    x = rng.uniform(-1.0, 1.0, (7, counts.size)) * 2.0 ** rng.integers(-60, 0, counts.size)
    x *= top
    x[0, 5] = top
    x[1, 9] = -top
    x[2] = top
    x[3:] = rng.uniform(-1.0, -0.5, (4, counts.size)) * top
    got = _counted_fsum(x, counts)
    assert got == [math.fsum(np.repeat(row, counts).tolist()) for row in x]
    for bad in (2.0 ** (1023 - m), -math.inf, math.nan):
        y = x.copy()
        y[1, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            _counted_fsum(y, counts)
    with pytest.raises(ValueError, match="m = 53 < 53"):
        _counted_fsum(np.ones((1, 2)), np.array([2 ** 51, 2 ** 51]))


def test_class_shells_are_ascending_norms_with_float_counts():
    # each distinct np.hypot norm once, ascending, with its weight and the
    # number of vectors that have it, as read-only floats
    film, pol = make_film("bcc100"), CutoffPolicy(0.001)
    for cls in (0, 1):
        norms, w, counts = _class_shells(film, pol, cls)
        g = reciprocal_vectors(film, 2 - cls, pol)
        want_norms, want_counts = np.unique(np.hypot(g[:, 0], g[:, 1]), return_counts=True)
        assert np.array_equal(norms, want_norms) and np.all(np.diff(norms) > 0)
        assert counts.dtype == float and np.array_equal(counts, want_counts)
        assert np.array_equal(w, pol.weights(norms))
        assert counts.sum() == g.shape[0]
        assert not any(arr.flags.writeable for arr in (norms, w, counts))


def test_empty_stacking_classes_warn_once_per_order_in_order(fe, tmp_path):
    # the quarter-offset lattice stacks four planes, and at r_min = 0.05 nm
    # only G = 0 is inside the cutoff, which serves class 0 alone: the cones
    # of the three empty classes are batched per class but named in order
    (tmp_path / "lattices.dat").write_text(_QUARTER_LATTICE)
    film = parse_lattice_file(tmp_path / "lattices.dat")["quarter"]
    probe = electron(beta=0.6)
    with pytest.warns(RuntimeWarning) as record:
        cones = emission_cones(probe, fe, film, CutoffPolicy(0.05))
    assert len(cones) > film.stack_period
    empty = [c.n for c in cones if c.n % film.stack_period]
    assert [str(w.message) for w in record] == [
        "no reciprocal vectors pass the cutoff for order %d" % n for n in empty]
    assert {w.filename for w in record} == {__file__}
    assert [c.weight == 0.0 for c in cones] == [c.n in empty for c in cones]


def test_profile_blocks_match_one_pass_sum(p94, fe):
    # 4096 angles against 812 vectors: the profile is summed in 51 G blocks
    film = make_film("bcc100")
    pol = CutoffPolicy(0.002)
    g = reciprocal_vectors(film, 1, pol)
    w = pol.weights(np.hypot(g[:, 0], g[:, 1]))
    cos_t = dict(sp_angles(0.94, film.z_period_nm, fe.wavelength_nm))[1]
    phis = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    one_pass = (_layer_prefactor(p94, fe, film)
                * np.sum(_gsum_terms(p94, fe, g, w, cos_t, phis), axis=1))
    np.testing.assert_allclose(azimuthal_profile(p94, fe, film, 1, phis, pol),
                               one_pass, rtol=1e-13)


def test_layer_yield_frozen_value(p94, fe):
    film = make_film("bcc100")
    pol = CutoffPolicy(0.001)
    y = layer_yield(p94, fe, film, pol)
    assert y == pytest.approx(1.3304641e-18, rel=1e-6, abs=0.0)


def test_layer_yield_scales_with_charge_squared(p94, fe):
    from nucsp.probe import Probe
    film = make_film("bcc100")
    pol = CutoffPolicy(0.001)
    ion = Probe(z_charge=3, rest_energy_eV=9.4e8, beta=0.94)
    assert layer_yield(ion, fe, film, pol) == pytest.approx(
        layer_yield(p94, fe, film, pol), rel=1e-10, abs=0.0)


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
