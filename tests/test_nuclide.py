import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import sph_harm_y

from nucsp.cli import _load_registries
from nucsp.nuclide import (
    NuclideRecord,
    coherent_fraction,
    parse_nuclide_file,
    radiative_rate,
    registry,
)
from nucsp.numerics import CONSTANTS
from nucsp.rows import DataFileError, parse_kv_blocks

F = Fraction


@pytest.fixture
def fe():
    return registry()["Fe-57"]


@pytest.fixture
def dy():
    return registry()["Dy-161"]


# ---------------------------------------------------------------------------
# reference: exact Clebsch-Gordan squares from the Racah sum, and the M1
# strength diagram built on them.  The library ships only the closed-form
# coherent fraction; these are the exact algebra it is checked against.


def _fact_half(nd):
    """Factorial of nd/2 where nd is an even, non-negative doubled integer."""
    if nd < 0 or nd % 2:
        raise ValueError("factorial argument must be a non-negative integer")
    return math.factorial(nd // 2)


def _cg_sq(j1d, m1d, j2d, m2d, jd, md):
    """Square of the Clebsch-Gordan coefficient <j1 m1; j2 m2 | j m> via the
    Racah sum, on doubled-integer arguments, as an exact rational."""
    if md != m1d + m2d:
        return F(0)
    if not (abs(j1d - j2d) <= jd <= j1d + j2d) or (j1d + j2d + jd) % 2:
        return F(0)
    if abs(m1d) > j1d or abs(m2d) > j2d or abs(md) > jd:
        return F(0)

    pref = F(
        (jd + 1)
        * _fact_half(j1d + j2d - jd) * _fact_half(j1d - j2d + jd) * _fact_half(-j1d + j2d + jd)
        * _fact_half(jd + md) * _fact_half(jd - md)
        * _fact_half(j1d - m1d) * _fact_half(j1d + m1d)
        * _fact_half(j2d - m2d) * _fact_half(j2d + m2d),
        _fact_half(j1d + j2d + jd + 2),
    )
    total = F(0)
    kd = 0
    while True:
        args = (kd, j1d + j2d - jd - kd, j1d - m1d - kd, j2d + m2d - kd,
                jd - j2d + m1d + kd, jd - j1d - m2d + kd)
        if args[1] < 0 and args[2] < 0 and args[3] < 0:
            break
        if all(x >= 0 for x in args):
            den = 1
            for x in args:
                den *= _fact_half(x)
            total += F((-1) ** (kd // 2), den)
        kd += 2
    return pref * total * total


def _strengths(jg, je):
    """{(mu_e, mu_g): <j_g mu_g; 1 q | j_e mu_e>^2} over the nonzero entries of
    an M1 pair, |q| <= 1; each excited sublevel's entries sum to 1."""
    jg_d, je_d = int(2 * jg), int(2 * je)
    out = {}
    for mue_d in range(-je_d, je_d + 1, 2):
        for mug_d in range(mue_d - 2, mue_d + 3, 2):
            w = _cg_sq(jg_d, mug_d, 2, mue_d - mug_d, je_d, mue_d)
            if w:
                out[(F(mue_d, 2), F(mug_d, 2))] = w
    return out


def _downward_sum(strengths, mu_e):
    return sum(w for (me, _), w in strengths.items() if me == mu_e)


def _upward_sum(strengths, mu_g):
    return sum(w for (_, mg), w in strengths.items() if mg == mu_g)


# ---------------------------------------------------------------------------
# angular momentum coupling


def _spin_half_sq(l, j, mu, s):
    """<l, mu - s; 1/2 s | j mu>^2 from the reference Racah sum."""
    return _cg_sq(2 * l, int(2 * (mu - s)), 1, int(2 * s), int(2 * j), int(2 * mu))


def test_orbital_spin_coupling_closed_forms():
    # l = 1 coupled with spin 1/2 to j = 1/2: the two squared weights are
    # (l - mu + 1/2)/(2l + 1) and (l + mu + 1/2)/(2l + 1)
    assert _spin_half_sq(1, F(1, 2), F(1, 2), F(1, 2)) == F(1, 3)
    assert _spin_half_sq(1, F(1, 2), F(1, 2), -F(1, 2)) == F(2, 3)
    # j = l + 1/2 stretched state couples with weight 1
    assert _spin_half_sq(1, F(3, 2), F(3, 2), F(1, 2)) == F(1)


def test_orbital_spin_coupling_is_normalized():
    for l in (1, 2, 3):
        for twoj in (2 * l - 1, 2 * l + 1):
            j = F(twoj, 2)
            for mu in _sublevels(j):
                assert sum(_spin_half_sq(l, j, mu, s) for s in (F(1, 2), -F(1, 2))) == 1


def test_coupling_rejects_invalid_quantum_numbers():
    # the Racah sum is zero outside the coupling rules ...
    assert _spin_half_sq(2, F(1, 2), F(1, 2), F(1, 2)) == 0  # l not j +- 1/2
    assert _cg_sq(2, 4, 1, 1, 3, 5) == 0  # |m| > l and |mu| > j
    # ... and the coherent fraction rejects invalid spins; j_e = j_g is parity
    # forbidden (l_e = l_g in the construction below)
    for jg, je in ((F(1, 3), F(4, 3)), (1, 2), (F(1, 2), F(5, 2)), (-F(1, 2), F(1, 2)),
                   (F(3, 2), F(3, 2))):
        with pytest.raises(ValueError):
            coherent_fraction(jg, je)


# Oracle for the Wigner-Eckart strengths: the orbital x spin-1/2
# construction.  |l j mu> = sum_s <l, mu - s; 1/2 s | j mu> Y_{l, mu - s} |s>
# with the coefficients from the closed-form table and the Gaunt integrals
# from quadrature of scipy's spherical harmonics, so nothing here shares
# code with the Racah sum.

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
    # each diagram strength is the squared orbital construction, normalized
    # over the excited sublevel, in both realizations
    entries = 0
    for jg, je in ((F(1, 2), F(3, 2)), (F(5, 2), F(7, 2)),
                   (F(3, 2), F(1, 2)), (F(7, 2), F(5, 2))):
        strengths = _strengths(jg, je)
        entries += len(strengths)
        for upper in (True, False):
            for mu_e in _sublevels(je):
                sq = {mu_g: _orbital_y1m(float(je), float(mu_e), float(jg), float(mu_g),
                                         upper=upper) ** 2 for mu_g in _sublevels(jg)}
                norm = sum(sq.values())
                for mu_g, v in sq.items():
                    assert float(strengths.get((mu_e, mu_g), 0)) == pytest.approx(
                        v / norm, abs=1e-15)
    assert entries == 3 * (2 + 6 + 2 + 6)  # 3(2 j_min + 1) per dipole pair


def test_spin_half_oracle_table_matches_library():
    for l in range(0, 5):
        for twoj in (2 * l - 1, 2 * l + 1):
            if twoj < 1:
                continue
            j = F(twoj, 2)
            for mu in _sublevels(j):
                for s in (F(1, 2), -F(1, 2)):
                    assert float(_spin_half_sq(l, j, mu, s)) == pytest.approx(
                        _spin_half_cg(l, float(j), float(mu), float(s)) ** 2, abs=1e-15)


def test_dipole_selection_rule():
    for jg, je in ((F(1, 2), F(3, 2)), (F(5, 2), F(7, 2)), (F(7, 2), F(5, 2))):
        assert all(abs(mu_e - mu_g) <= 1 for mu_e, mu_g in _strengths(jg, je))


# ---------------------------------------------------------------------------
# transition diagrams and coherent fractions


def test_diagram_strengths_sum_to_one_per_excited_level():
    for jg, je in ((F(1, 2), F(3, 2)), (F(5, 2), F(7, 2)), (F(3, 2), F(5, 2))):
        diag = _strengths(jg, je)
        for mu_e in _sublevels(je):
            assert _downward_sum(diag, mu_e) == F(1)


def test_diagram_is_mirror_symmetric():
    diag = _strengths(F(1, 2), F(3, 2))
    for (mu_e, mu_g), w in diag.items():
        assert diag[(-mu_e, -mu_g)] == w


def test_diagram_known_weights():
    diag = _strengths(F(1, 2), F(3, 2))
    assert diag[(F(3, 2), F(1, 2))] == F(1)
    assert diag[(F(1, 2), F(1, 2))] == F(2, 3)
    assert diag[(F(1, 2), -F(1, 2))] == F(1, 3)
    assert (F(3, 2), -F(1, 2)) not in diag


def test_coherent_fraction_exact_values():
    assert coherent_fraction(F(1, 2), F(3, 2)) == F(2, 3)
    assert coherent_fraction(F(5, 2), F(7, 2)) == F(4, 9)


def test_coherent_fraction_equals_mean_nonzero_strength():
    # the closed form against the Racah diagram, exactly, for every dipole
    # pair with 2 j_g < 100 in both directions (j_e = j_g +- 1)
    pairs = 0
    for jg2 in range(1, 100, 2):
        for je2 in (jg2 - 2, jg2 + 2):
            if je2 < 1:
                continue
            jg, je = F(jg2, 2), F(je2, 2)
            weights = list(_strengths(jg, je).values())
            assert coherent_fraction(jg, je) == sum(weights) / len(weights)
            pairs += 1
    assert pairs == 99


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
    diag = _strengths(jg, je)
    for mu_e in _sublevels(je):
        assert _downward_sum(diag, mu_e) == F(1)
    for mu_g in _sublevels(jg):
        assert _upward_sum(diag, mu_g) == (2 * je + 1) / (2 * jg + 1)


def test_transition_strength_sum_rules_exact(fe, dy):
    # downward sums are exactly 1 per excited sublevel, upward sums exactly
    # (2je+1)/(2jg+1) per ground sublevel, for both built-in nuclides
    for rec in (fe, dy):
        diag = _strengths(rec.j_g, rec.j_e)
        per_ground = F(rec.je2 + 1, rec.jg2 + 1)
        for mu_e in _sublevels(rec.j_e):
            assert _downward_sum(diag, mu_e) == F(1)
        for mu_g in _sublevels(rec.j_g):
            assert _upward_sum(diag, mu_g) == per_ground


# ---------------------------------------------------------------------------
# nuclide records


def test_builtin_registry_contents(fe, dy):
    names = list(registry())
    assert names == ["Fe-57", "Dy-161"]
    assert fe.e0_eV == pytest.approx(14412.9, rel=0, abs=0.0)
    assert dy.e0_eV == pytest.approx(43820.1, rel=0, abs=0.0)
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


def test_record_from_numpy_integer_spins_equals_its_int_twin():
    twin = NuclideRecord("X", 14.4, 1e-7, 1.0, 1, 3)
    rec = NuclideRecord("X", 14.4, 1e-7, 1.0, np.int64(1), np.int64(3))
    assert rec == twin and hash(rec) == hash(twin)
    assert rec.coherent_fraction == twin.coherent_fraction == F(2, 3)
    assert radiative_rate(rec) == radiative_rate(twin)
    # float32 arithmetic would leak into every result
    with pytest.raises(ValueError, match="^e0_keV: must be a number$"):
        NuclideRecord("X", np.float32(14.4), 1e-7, 1.0, 1, 3)


def test_spin_rule_names_the_record_fields_only_on_records():
    # a record names the fields its spins come from; the public function,
    # which takes spins, keeps its own message
    rule = r"only \|j_e - j_g\| = 1 dipole pairs are supported$"
    with pytest.raises(ValueError, match="^" + rule):
        coherent_fraction(F(9999, 2), F(3, 2))
    with pytest.raises(ValueError, match="^jg2/je2: " + rule):
        NuclideRecord("X", e0_keV=14.0, lifetime_s=1e-7, alpha_ic=1.0, jg2=9999, je2=3)


# ---------------------------------------------------------------------------
# data files


def test_registry_overlay(tmp_path, monkeypatch):
    # the CLI overlays a NUCSP_DATA_DIR nuclides.dat on the built-ins: a
    # built-in's name replaces it in place, a new name comes after them
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
    assert list(parse_nuclide_file(data)) == ["Fe-57", "Tm-169"]
    monkeypatch.setenv("NUCSP_DATA_DIR", str(tmp_path))
    reg, _ = _load_registries()
    assert reg["Fe-57"].e0_eV == pytest.approx(15000.0)
    assert list(reg) == ["Fe-57", "Dy-161", "Tm-169"]
    assert reg["Dy-161"] == registry()["Dy-161"]
    assert registry()["Fe-57"].e0_eV == pytest.approx(14412.9)


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
