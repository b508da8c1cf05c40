import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import sph_harm_y

from nucsp.nuclide import (
    DataFileError,
    NuclideRecord,
    builtin_records,
    clebsch_gordan_half,
    coherent_fraction,
    parse_kv_blocks,
    parse_nuclide_file,
    polarizability,
    radiative_rate,
    registry,
    transition_diagram,
    y1m_matrix_element,
)
from nucsp.numerics import CONSTANTS

F = Fraction


@pytest.fixture
def fe():
    return registry()["Fe-57"]


@pytest.fixture
def dy():
    return registry()["Dy-161"]


# ---------------------------------------------------------------------------
# angular momentum coupling


def test_orbital_spin_coupling_closed_forms():
    # l = 1 coupled with spin 1/2 to j = 1/2: the two weights are
    # -sqrt((l - mu + 1/2)/(2l + 1)) and sqrt((l + mu + 1/2)/(2l + 1))
    assert clebsch_gordan_half(1, F(1, 2), F(1, 2), F(1, 2)) == pytest.approx(
        -math.sqrt(1.0 / 3.0), abs=1e-15)
    assert clebsch_gordan_half(1, F(1, 2), F(1, 2), -F(1, 2)) == pytest.approx(
        math.sqrt(2.0 / 3.0), abs=1e-15)
    # j = l + 1/2 stretched state couples with weight 1
    assert clebsch_gordan_half(1, F(3, 2), F(3, 2), F(1, 2)) == pytest.approx(
        1.0, abs=1e-15)


def test_orbital_spin_coupling_is_normalized():
    for l in (1, 2, 3):
        for twoj in (2 * l - 1, 2 * l + 1):
            j = F(twoj, 2)
            mu = -j
            while mu <= j:
                total = sum(clebsch_gordan_half(l, j, mu, s) ** 2
                            for s in (F(1, 2), -F(1, 2)))
                assert total == pytest.approx(1.0, abs=1e-14)
                mu += 1


def test_coupling_rejects_invalid_quantum_numbers():
    with pytest.raises(ValueError):
        clebsch_gordan_half(2, F(1, 2), F(1, 2), F(1, 2))  # l not j +- 1/2
    with pytest.raises(ValueError):
        clebsch_gordan_half(1, F(3, 2), F(5, 2), F(1, 2))  # |mu| > j
    with pytest.raises(ValueError):
        clebsch_gordan_half(1, F(3, 2), F(1, 2), F(1, 3))  # s not +-1/2


def test_dipole_matrix_elements_match_tabulated_pattern():
    # 1/2 -> 3/2 transition: |<3/2 mu'|Y_1q|1/2 mu>|, in units of
    # 1/sqrt(4 pi), is 1 for stretched, sqrt(2/3) for q = 0, sqrt(1/3)
    # for the remaining allowed q
    inv = 1.0 / math.sqrt(4.0 * math.pi)
    val = y1m_matrix_element(F(3, 2), F(3, 2), F(1, 2), F(1, 2))
    assert abs(val) == pytest.approx(inv, rel=1e-14)
    val = y1m_matrix_element(F(3, 2), F(1, 2), F(1, 2), F(1, 2))
    assert abs(val) == pytest.approx(math.sqrt(2.0 / 3.0) * inv, rel=1e-14)
    val = y1m_matrix_element(F(3, 2), -F(1, 2), F(1, 2), F(1, 2))
    assert abs(val) == pytest.approx(math.sqrt(1.0 / 3.0) * inv, rel=1e-14)


# Oracle: the orbital x spin-1/2 construction the library's Wigner-Eckart
# form replaces.  |l j mu> = sum_s <l, mu - s; 1/2 s | j mu> Y_{l, mu - s} |s>
# with the coefficients from the closed-form table and the Gaunt integrals
# from quadrature of scipy's spherical harmonics, so nothing here shares
# code with nucsp's Racah sum.

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_N_PHI = 16


def _spin_half_cg(l, j, mu, s):
    """<l, mu - s; 1/2 s | j mu> from the closed-form table (Condon-Shortley)."""
    if abs(mu - s) > l:
        return 0.0
    if j == l + 0.5:
        return math.sqrt((l + 2 * s * mu + 0.5) / (2 * l + 1))
    return -2 * s * math.sqrt((l - 2 * s * mu + 0.5) / (2 * l + 1))


def _gaunt_y1(lp, mp, q, l, m):
    """Integral of conj(Y_{lp mp}) Y_{1 q} Y_{l m} over the sphere.

    The integrand is a polynomial of degree <= lp + l + 1 in cos(theta) times
    exp(i (m + q - mp) phi), so 16 Gauss-Legendre by 16 uniform-phi nodes
    are exact for lp, l <= 7.
    """
    theta = np.arccos(_GL_X)[:, None]
    phi = 2.0 * math.pi * np.arange(_N_PHI)[None, :] / _N_PHI
    f = (np.conj(sph_harm_y(lp, mp, theta, phi)) * sph_harm_y(1, q, theta, phi)
         * sph_harm_y(l, m, theta, phi))
    val = complex(_GL_W @ f.sum(axis=1)) * 2.0 * math.pi / _N_PHI
    assert abs(val.imag) < 1e-15
    return val.real


def _orbital_y1m(j_e, mu_e, j_g, mu_g, upper):
    """<e_{mu_e}| Y_1m |g_{mu_g}> built from the spin-1/2 states, with orbital
    l = j + 1/2 (upper) or l = j - 1/2 for both levels."""
    l_e = int(j_e + 0.5) if upper else int(j_e - 0.5)
    l_g = int(j_g + 0.5) if upper else int(j_g - 0.5)
    q = int(mu_e - mu_g)
    if abs(q) > 1:
        return 0.0
    total = 0.0
    for s in (0.5, -0.5):
        if abs(mu_e - s) > l_e or abs(mu_g - s) > l_g:
            continue
        total += (_spin_half_cg(l_e, j_e, mu_e, s) * _spin_half_cg(l_g, j_g, mu_g, s)
                  * _gaunt_y1(l_e, int(mu_e - s), q, l_g, int(mu_g - s)))
    return total


def _sublevels(j):
    return [F(m2, 2) for m2 in range(-int(2 * j), int(2 * j) + 1, 2)]


def test_dipole_matrix_elements_realizations_agree_in_magnitude():
    # y1m_matrix_element against the explicit construction in both
    # realizations, sign included, on every sublevel pair; j_e = j_g is
    # parity forbidden (l_e = l_g) and must vanish
    nonzero = 0
    for jg, je in ((F(1, 2), F(3, 2)), (F(5, 2), F(7, 2)),
                   (F(3, 2), F(1, 2)), (F(7, 2), F(5, 2)), (F(3, 2), F(3, 2))):
        for mu_e in _sublevels(je):
            for mu_g in _sublevels(jg):
                val = y1m_matrix_element(je, mu_e, jg, mu_g)
                args = (float(je), float(mu_e), float(jg), float(mu_g))
                up = _orbital_y1m(*args, upper=True)
                lo = _orbital_y1m(*args, upper=False)
                assert val == pytest.approx(up, abs=1e-15)
                assert val == pytest.approx(lo, abs=1e-15)
                nonzero += val != 0.0
    assert nonzero == 3 * (2 + 6 + 2 + 6)  # 3(2 j_min + 1) per dipole pair


def test_spin_half_oracle_table_matches_library():
    for l in range(0, 5):
        for twoj in (2 * l - 1, 2 * l + 1):
            if twoj < 1:
                continue
            j = F(twoj, 2)
            for mu in _sublevels(j):
                for s in (F(1, 2), -F(1, 2)):
                    assert clebsch_gordan_half(l, j, mu, s) == pytest.approx(
                        _spin_half_cg(l, float(j), float(mu), float(s)), abs=1e-15)


def test_dipole_selection_rule():
    assert y1m_matrix_element(F(3, 2), F(3, 2), F(1, 2), -F(1, 2)) == 0.0


# ---------------------------------------------------------------------------
# transition diagrams and coherent fractions


def test_diagram_strengths_sum_to_one_per_excited_level():
    for jg, je in ((F(1, 2), F(3, 2)), (F(5, 2), F(7, 2)), (F(3, 2), F(5, 2))):
        diag = transition_diagram(jg, je)
        mu = -je
        while mu <= je:
            assert diag.downward_sum(mu) == F(1)
            mu += 1


def test_diagram_is_mirror_symmetric():
    diag = transition_diagram(F(1, 2), F(3, 2))
    for (mu_e, mu_g), w in diag.strengths.items():
        assert diag.strengths[(-mu_e, -mu_g)] == w


def test_diagram_known_weights():
    diag = transition_diagram(F(1, 2), F(3, 2))
    assert diag.strengths[(F(3, 2), F(1, 2))] == F(1)
    assert diag.strengths[(F(1, 2), F(1, 2))] == F(2, 3)
    assert diag.strengths[(F(1, 2), -F(1, 2))] == F(1, 3)
    assert (F(3, 2), -F(1, 2)) not in diag.strengths


def test_coherent_fraction_exact_values():
    assert coherent_fraction(F(1, 2), F(3, 2)) == F(2, 3)
    assert coherent_fraction(F(5, 2), F(7, 2)) == F(4, 9)


def test_coherent_fraction_equals_mean_nonzero_strength():
    for jg, je in ((F(1, 2), F(3, 2)), (F(5, 2), F(7, 2)), (F(7, 2), F(9, 2))):
        diag = transition_diagram(jg, je)
        weights = list(diag.strengths.values())
        assert coherent_fraction(jg, je) == sum(weights) / len(weights)


@pytest.mark.parametrize("jg, je, f", [
    (F(3, 2), F(1, 2), F(1, 3)),
    (F(3, 2), F(5, 2), F(1, 2)),
    (F(5, 2), F(3, 2), F(1, 3)),
    (F(7, 2), F(5, 2), F(1, 3)),
    (F(7, 2), F(9, 2), F(5, 12)),
    (F(9, 2), F(7, 2), F(1, 3)),
    (F(9, 2), F(11, 2), F(2, 5)),
])
def test_coherent_fraction_and_sum_rules_both_directions(jg, je, f):
    assert coherent_fraction(jg, je) == f
    diag = transition_diagram(jg, je)
    for mu_e in _sublevels(je):
        assert diag.downward_sum(mu_e) == F(1)
    for mu_g in _sublevels(jg):
        assert diag.upward_sum(mu_g) == (2 * je + 1) / (2 * jg + 1)


# ---------------------------------------------------------------------------
# nuclide records


def test_builtin_registry_contents(fe, dy):
    names = [r.name for r in builtin_records()]
    assert names == ["Fe-57", "Dy-161"]
    assert fe.e0_eV == pytest.approx(14412.9, rel=0)
    assert dy.e0_eV == pytest.approx(43820.1, rel=0)
    assert fe.j_g == F(1, 2) and fe.j_e == F(3, 2)
    assert dy.j_g == F(5, 2) and dy.j_e == F(7, 2)


def test_resonance_kinematics(fe):
    omega = fe.e0_eV / CONSTANTS.hbar_eV_s
    assert fe.omega0_rad_s == pytest.approx(omega, rel=1e-14)
    assert fe.omega0_rad_s == pytest.approx(2.1897050e19, rel=1e-7)
    assert fe.wavelength_nm == pytest.approx(0.08602308, rel=1e-6)
    assert fe.kappa_s == pytest.approx(1.0 / 1.42e-7, rel=1e-14)


def test_radiative_rates_match_tabulated_lifetimes(fe, dy):
    # kappa_r = f kappa / (1 + alpha_IC), with the Dy branching divisor
    assert 1.0 / radiative_rate(fe) == pytest.approx(2.03e-6, rel=2e-3)
    assert 1.0 / radiative_rate(dy) == pytest.approx(3.17e-8, rel=2e-3)


def test_polarizability_peak_and_symmetry(fe):
    on_peak = polarizability(fe, fe.omega0_rad_s)
    assert on_peak.real == pytest.approx(0.0, abs=1e-30)
    assert on_peak.imag > 0.0
    # amplitude at resonance: (3/4k^3) * kappa_r / (kappa/2)
    k = fe.omega0_rad_s / CONSTANTS.c_nm_s
    expected = 0.75 / k ** 3 * radiative_rate(fe) / (0.5 * fe.kappa_s)
    assert abs(on_peak) == pytest.approx(expected, rel=1e-12)
    # detuned symmetrically, the magnitudes match
    d = 5.0 * fe.kappa_s
    lo = polarizability(fe, fe.omega0_rad_s - d)
    hi = polarizability(fe, fe.omega0_rad_s + d)
    assert abs(lo) == pytest.approx(abs(hi), rel=1e-12)
    assert lo.real > 0.0 > hi.real


def test_record_validation():
    with pytest.raises(ValueError):
        NuclideRecord("X", e0_keV=-1.0, lifetime_s=1e-7, alpha_ic=1.0,
                      jg2=1, je2=3)
    with pytest.raises(ValueError):
        NuclideRecord("X", e0_keV=14.0, lifetime_s=1e-7, alpha_ic=1.0,
                      jg2=1, je2=5)  # not a dipole step
    with pytest.raises(ValueError):
        NuclideRecord("X", e0_keV=14.0, lifetime_s=1e-7, alpha_ic=1.0,
                      jg2=2, je2=4)  # integer spins not supported


# ---------------------------------------------------------------------------
# data files


def test_registry_overlay(tmp_path):
    data = tmp_path / "nuclides.dat"
    data.write_text(
        "name = Fe-57\n"
        "e0_keV = 15.0\n"
        "lifetime_s = 1.0e-7\n"
        "alpha_ic = 8.0\n"
        "jg2 = 1\n"
        "je2 = 3\n"
        "\n"
        "name = Tm-169\n"
        "e0_keV = 8.410\n"
        "lifetime_s = 5.9e-9\n"
        "alpha_ic = 285.0\n"
        "jg2 = 1\n"
        "je2 = 3\n")
    reg = registry(extra_files=[data])
    assert reg["Fe-57"].e0_eV == pytest.approx(15000.0)
    assert "Tm-169" in reg and "Dy-161" in reg


def test_kv_parser_strips_comments_and_tracks_lines():
    blocks = parse_kv_blocks("# header\nname = A # trailing\n\n\nname = B\n")
    assert len(blocks) == 2
    assert blocks[0][1] == {"name": "A"}
    assert blocks[1][0] == 5


def test_kv_parser_rejects_malformed_lines():
    with pytest.raises(DataFileError) as exc:
        parse_kv_blocks("name = A\nnot a pair\n", "f.dat")
    assert "f.dat:2" in str(exc.value)


def test_kv_parser_rejects_duplicate_keys():
    with pytest.raises(DataFileError) as exc:
        parse_kv_blocks("name = A\nname = B\n", "f.dat")
    assert "f.dat:2" in str(exc.value)


def test_nuclide_file_unknown_key(tmp_path):
    p = tmp_path / "n.dat"
    p.write_text("name = X\ne0_keV = 1.0\nlifetime_s = 1e-7\nalpha_ic = 1.0\n"
                 "jg2 = 1\nje2 = 3\nflavour = odd\n")
    with pytest.raises(DataFileError) as exc:
        parse_nuclide_file(p)
    assert "flavour" in str(exc.value)


def test_nuclide_file_missing_key(tmp_path):
    p = tmp_path / "n.dat"
    p.write_text("name = X\ne0_keV = 1.0\n")
    with pytest.raises(DataFileError) as exc:
        parse_nuclide_file(p)
    assert "lifetime_s" in str(exc.value)


def test_nuclide_file_bad_number(tmp_path):
    p = tmp_path / "n.dat"
    p.write_text("name = X\ne0_keV = fast\nlifetime_s = 1e-7\nalpha_ic = 1.0\n"
                 "jg2 = 1\nje2 = 3\n")
    with pytest.raises(DataFileError) as exc:
        parse_nuclide_file(p)
    assert "e0_keV" in str(exc.value)
