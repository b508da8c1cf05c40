import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from nucsp.numerics import CONSTANTS
from nucsp.nuclide import radiative_rate, registry
from nucsp.probe import DISTANCE, Probe, electron
from nucsp.single_nucleus import (
    bessel_argument,
    coherent_yield,
    decay_profile,
    spectral_profile,
)

mp.mp.dps = 30


def _simpson(f, a, b, tol):
    """Adaptive-Simpson integral of f over [a, b], to tol * max(1, |I|) with I
    the whole-interval estimate, the error budget halved at each split."""
    def adapt(a, b, fa, fm, fb, s, eps, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = float(f(lm)), float(f(rm))
        sl = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        sr = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        s2 = sl + sr
        if abs(s2 - s) <= 15.0 * eps:
            return s2 + (s2 - s) / 15.0
        assert depth > 0, "adaptive Simpson ran out of depth"
        return (adapt(a, m, fa, flm, fm, sl, 0.5 * eps, depth - 1)
                + adapt(m, b, fm, frm, fb, sr, 0.5 * eps, depth - 1))

    fa, fm, fb = float(f(a)), float(f(0.5 * (a + b))), float(f(b))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return adapt(a, b, fa, fm, fb, whole, tol * max(1.0, abs(whole)), 48)


@pytest.fixture
def fe():
    return registry()["Fe-57"]


@pytest.fixture
def dy():
    return registry()["Dy-161"]


def test_coherent_yield_against_direct_assembly(fe):
    # independent assembly: 3 Z^2 alpha / (beta gamma)^2 * kappa_r^2/(omega0
    # kappa) * K1(omega0 r / v gamma)^2, with mpmath supplying the Bessel value
    probe = electron(beta=0.9)
    r = 0.001
    arg = fe.omega0_rad_s * r / (probe.velocity_nm_s * probe.gamma)
    k1 = float(mp.besselk(1, mp.mpf(arg)))
    kr = radiative_rate(fe)
    expected = (3.0 * CONSTANTS.alpha_fs / (0.9 * probe.gamma) ** 2
                * kr * kr / (fe.omega0_rad_s * fe.kappa_s) * k1 * k1)
    assert coherent_yield(probe, fe, r) == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert coherent_yield(probe, fe, r) == pytest.approx(6.4075e-15, rel=1e-4, abs=0.0)


def test_coherent_yield_charge_scaling(fe):
    base = electron(beta=0.9)
    doubled = Probe(z_charge=-2, rest_energy_eV=base.rest_energy_eV, beta=0.9)
    assert coherent_yield(doubled, fe, 0.001) == pytest.approx(
        4.0 * coherent_yield(base, fe, 0.001), rel=1e-14, abs=0.0)


def test_coherent_yield_short_distance_behaviour(fe):
    # K1(x) ~ 1/x for small x, so the yield approaches a 1/r^2 law down to
    # DISTANCE[0] = 10 fm, a nucleus's size; 1 fm is inside one and refused
    probe = electron(beta=0.9)
    y1 = coherent_yield(probe, fe, 1e-4) * 1e-4 ** 2
    y2 = coherent_yield(probe, fe, 1e-5) * 1e-5 ** 2
    assert y1 == pytest.approx(y2, rel=1e-3, abs=0.0)
    with pytest.raises(ValueError, match="^r_perp_nm: must be at least 1e-05$"):
        coherent_yield(probe, fe, 1e-6)


def test_coherent_yield_exponential_tail(fe):
    # beyond r ~ v gamma / omega0 the yield falls off exponentially
    probe = electron(beta=0.9)
    r_scale = 1.0 / bessel_argument(probe, fe, 1.0)
    near = coherent_yield(probe, fe, r_scale)
    far = coherent_yield(probe, fe, 10.0 * r_scale)
    assert far < near * 1e-6


def test_yield_rises_with_beta(fe):
    # faster probes reach deeper: at fixed r the argument shrinks with v gamma
    ys = [coherent_yield(electron(beta=b), fe, 0.001)
          for b in (0.5, 0.7, 0.9, 0.99)]
    assert all(b > a for a, b in zip(ys, ys[1:]))


def test_bessel_argument(fe):
    probe = electron(beta=0.9)
    expected = fe.omega0_rad_s * 0.001 / (probe.velocity_nm_s * probe.gamma)
    assert bessel_argument(probe, fe, 0.001) == pytest.approx(expected, rel=1e-15, abs=0.0)
    # coherent_yield checks the distance by probe.R_PERP, as configs do;
    # r = 1e-300 once returned inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for r in (math.nextafter(DISTANCE[0], 0.0), math.nextafter(DISTANCE[1], math.inf),
                  0.0, -1.0, math.nan, math.inf, -math.inf, True, "0.001", None,
                  np.float32(0.001)):
            with pytest.raises(ValueError, match="^r_perp_nm: "):
                coherent_yield(probe, fe, r)
        assert all(math.isfinite(coherent_yield(probe, fe, r)) for r in DISTANCE)


def test_spectral_profile_center_and_width(fe):
    spec = spectral_profile(fe)
    assert spec.center_eV == pytest.approx(14412.9)
    assert spec.fwhm_eV == pytest.approx(
        CONSTANTS.hbar_eV_s / 1.42e-7, rel=1e-12, abs=0.0)
    # the offset center + fwhm/2 quantizes at ~1.8e-12 eV on a 14.4 keV
    # center, so the natural-width half-maximum only holds to ~1e-3
    peak = spec.density(spec.center_eV)
    assert spec.density(spec.center_eV + 0.5 * spec.fwhm_eV) == pytest.approx(
        0.5 * peak, rel=5e-3)


def test_spectral_profile_shape_identity():
    # same identity checked to full precision on an artificially broad line
    from nucsp.nuclide import NuclideRecord
    wide = NuclideRecord("wide", e0_keV=14.4129, lifetime_s=1e-15,
                         alpha_ic=0.0, jg2=1, je2=3)
    spec = spectral_profile(wide)
    peak = spec.density(spec.center_eV)
    assert peak == pytest.approx(2.0 / (math.pi * spec.fwhm_eV), rel=1e-12, abs=0.0)
    assert spec.density(spec.center_eV + 0.5 * spec.fwhm_eV) == pytest.approx(
        0.5 * peak, rel=1e-9)


def test_spectral_profile_normalization(fe):
    spec = spectral_profile(fe)
    half_span = 50.0 * spec.fwhm_eV
    val = _simpson(spec.density, spec.center_eV - half_span, spec.center_eV + half_span,
                   tol=1e-10)
    # a Lorentzian integrated over +-100 half-widths captures
    # (2/pi) arctan(100) of its weight
    assert val == pytest.approx(2.0 / math.pi * math.atan(100.0), rel=1e-6)


def test_decay_profile_survival(fe, dy):
    assert decay_profile(fe).survival(142e-9) == pytest.approx(
        math.exp(-1.0), rel=1e-12, abs=0.0)
    assert decay_profile(dy).survival(1.2e-9) == pytest.approx(
        math.exp(-1.0), rel=1e-12, abs=0.0)
    dp = decay_profile(fe)
    assert dp.survival(0.0) == 1.0
    assert dp.survival(-1.0) == 1.0
    assert dp.profile(-1.0) == 0.0


def test_decay_profile_normalization(fe):
    dp = decay_profile(fe)
    val = _simpson(dp.profile, 0.0, 40.0 * fe.lifetime_s, tol=1e-10)
    assert val == pytest.approx(1.0, rel=1e-6)
    # vectorized call agrees with scalars
    t = np.array([0.0, 1e-7, 1e-6])
    np.testing.assert_allclose(dp.profile(t), [dp.profile(x) for x in t])

