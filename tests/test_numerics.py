import math
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from nucsp import numerics
from nucsp.numerics import (
    CONSTANTS,
    EULER_GAMMA,
    ConvergenceError,
    bessel_k0,
    bessel_k01,
    bessel_k1,
    integrate_adaptive,
    integrate_periodic,
)

mp.mp.dps = 30


def test_constants_are_self_consistent():
    # e^2 = alpha * hbar * c and hbar c in eV nm
    assert CONSTANTS.e2_eV_nm == pytest.approx(
        CONSTANTS.alpha_fs * CONSTANTS.hbar_eV_s * CONSTANTS.c_nm_s, rel=1e-9)
    assert CONSTANTS.hbar_c_eV_nm == pytest.approx(197.3269804, rel=1e-9)
    assert CONSTANTS.alpha_fs == pytest.approx(1.0 / 137.035999084, rel=1e-10)
    assert CONSTANTS.c_nm_s == pytest.approx(2.99792458e17, rel=0)


def test_constants_reject_inconsistent_values():
    import dataclasses
    with pytest.raises(ValueError):
        dataclasses.replace(CONSTANTS, alpha_fs=7.3e-3)
    with pytest.raises(ValueError):
        dataclasses.replace(CONSTANTS, e2_eV_nm=1.44)


def test_bessel_matches_high_precision_reference():
    xs = np.logspace(-8, math.log10(699.0), 400)
    k0, k1 = bessel_k01(xs)
    ref0 = np.array([float(mp.besselk(0, mp.mpf(float(x)))) for x in xs])
    ref1 = np.array([float(mp.besselk(1, mp.mpf(float(x)))) for x in xs])
    np.testing.assert_allclose(k0, ref0, rtol=1e-12)
    np.testing.assert_allclose(k1, ref1, rtol=1e-12)


def test_bessel_accuracy_near_branch_crossover():
    xs = np.linspace(1.9, 2.1, 41)
    k0, k1 = bessel_k01(xs)
    ref0 = np.array([float(mp.besselk(0, mp.mpf(float(x)))) for x in xs])
    ref1 = np.array([float(mp.besselk(1, mp.mpf(float(x)))) for x in xs])
    np.testing.assert_allclose(k0, ref0, rtol=1e-13)
    np.testing.assert_allclose(k1, ref1, rtol=1e-13)


def _mp_k01(xs):
    """mpmath K0, and K1 from the Wronskian I0 K1 + I1 K0 = 1/x (A&S 9.6.15),
    which costs far less than mpmath's besselk(1, x)."""
    k0, k1 = [], []
    with mp.workdps(20):
        for x in xs:
            x = mp.mpf(float(x))
            k = mp.besselk(0, x)
            k0.append(float(k))
            k1.append(float((1 / x - mp.besseli(1, x) * k) / mp.besseli(0, x)))
    return np.array(k0), np.array(k1)


def test_bessel_dense_sweep_against_mpmath():
    # log-spaced sweep, plus the neighbourhoods of the branch point x = 2 and
    # of the underflow cut x = 700, where the result must switch to exactly 0
    def around(x):
        return [x - 1e-12, x - 1e-13, np.nextafter(x, 0.0), x,
                np.nextafter(x, np.inf), x + 1e-13, x + 1e-12]

    xs = np.concatenate([np.geomspace(1e-8, 700.0, 4001), around(2.0), around(700.0)[:4]])
    k0, k1 = bessel_k01(xs)
    ref0, ref1 = _mp_k01(xs)
    np.testing.assert_allclose(k0, ref0, rtol=1e-12)
    np.testing.assert_allclose(k1, ref1, rtol=1e-12)
    above = np.array(around(700.0)[4:])
    assert not np.any(np.concatenate(bessel_k01(above)))
    assert [bessel_k01(float(x)) for x in above] == [(0.0, 0.0)] * above.size


@pytest.mark.parametrize("lo,hi", [(1e-8, 2.0), (2.0, 700.0)])
def test_bessel_scalar_path_matches_array_path(lo, hi):
    xs = np.concatenate([np.geomspace(lo, hi, 400), [np.nextafter(hi, 0.0)]])
    k0, k1 = bessel_k01(xs)
    scalar = np.array([bessel_k01(float(x)) for x in xs])
    np.testing.assert_allclose(scalar[:, 0], k0, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(scalar[:, 1], k1, rtol=1e-15, atol=0.0)


def test_single_order_paths_are_bit_identical_to_k01():
    # bessel_k1 and bessel_k0 run only their own order's rows, with the same
    # arithmetic in the same order, so they equal bessel_k01 bit for bit:
    # both branches, x = 2 and 700 and their neighbouring doubles, and past
    # the underflow cut
    edges = [np.nextafter(2.0, 0.0), 2.0, np.nextafter(2.0, np.inf),
             np.nextafter(700.0, 0.0), 700.0, np.nextafter(700.0, np.inf), 701.0, 1e6]
    xs = np.concatenate([np.geomspace(1e-8, 750.0, 2002), edges])
    k0, k1 = bessel_k01(xs)
    assert np.array_equal(bessel_k1(xs), k1) and np.array_equal(bessel_k0(xs), k0)
    assert np.array_equal(bessel_k1(xs.reshape(-1, 10)), k1.reshape(-1, 10))
    assert not np.any(bessel_k1(np.array(edges[-3:])))
    for x in np.concatenate([xs[::37], edges]):
        pair = bessel_k01(float(x))
        assert (bessel_k0(float(x)), bessel_k1(float(x))) == pair
        assert bessel_k1(np.float64(x)) == pair[1]
    for bad in (0.0, -1.0, math.nan, np.array([1.0, 0.0]), np.array([math.nan, 3.0])):
        for f in (bessel_k1, bessel_k0, bessel_k01):
            with pytest.raises(ValueError):
                f(bad)


def test_bessel_coefficients_match_generator():
    # the literals in numerics.py are the generator's output, digit for digit
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, str(root / "tools" / "gen_bessel_coeffs.py")],
                         check=True, capture_output=True, text=True, timeout=60).stdout
    assert out.startswith("# BEGIN generated")
    assert out in Path(numerics.__file__).read_text(encoding="utf-8")


def test_bessel_frozen_unit_argument():
    assert bessel_k0(1.0) == pytest.approx(0.4210244382407083, rel=1e-14)
    assert bessel_k1(1.0) == pytest.approx(0.6019072301972346, rel=1e-14)


def test_bessel_small_argument_limits():
    x = 1e-8
    assert bessel_k0(x) == pytest.approx(-(math.log(x / 2.0) + EULER_GAMMA), rel=1e-12)
    assert x * bessel_k1(x) == pytest.approx(1.0, rel=1e-12)


def test_bessel_underflow_region_is_zero():
    assert bessel_k0(701.0) == 0.0
    assert bessel_k1(1e6) == 0.0
    k0, k1 = bessel_k01(np.array([0.5, 800.0]))
    assert k1[1] == 0.0 and k0[1] == 0.0
    assert k0[0] > 0.0


def test_bessel_ordering():
    xs = np.logspace(-6, 2, 50)
    k0, k1 = bessel_k01(xs)
    assert np.all(k1 > k0)
    assert np.all(k0 > 0.0)


def test_bessel_derivative_identity():
    # K1'(x) = -K0(x) - K1(x)/x, checked with Richardson-extrapolated
    # central differences
    for x in (0.01, 0.1, 1.0, 10.0):
        h = 1e-3 * x
        d1 = (bessel_k1(x + h) - bessel_k1(x - h)) / (2.0 * h)
        d2 = (bessel_k1(x + h / 2.0) - bessel_k1(x - h / 2.0)) / h
        deriv = (4.0 * d2 - d1) / 3.0
        expected = -bessel_k0(x) - bessel_k1(x) / x
        assert deriv == pytest.approx(expected, rel=1e-8)


def test_bessel_rejects_bad_arguments():
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            bessel_k0(bad)
    with pytest.raises(ValueError):
        bessel_k1(np.array([1.0, 0.0]))


def test_bessel_scalar_and_array_types():
    assert isinstance(bessel_k0(1.5), float)
    out = bessel_k1(np.array([0.5, 3.0]))
    assert isinstance(out, np.ndarray) and out.shape == (2,)
    k0, k1 = bessel_k01(2.5)
    assert isinstance(k0, float) and isinstance(k1, float)


def test_periodic_integral_trig_exactness():
    # the trapezoid rule is exact for low-order trigonometric polynomials
    phi0 = 0.7
    val = integrate_periodic(lambda p: np.sin(p - phi0) ** 2)
    assert val == pytest.approx(math.pi, rel=1e-12)
    val = integrate_periodic(lambda p: 1.5 + 0.5 * np.cos(p) + 0.25 * np.sin(3 * p))
    assert val == pytest.approx(3.0 * math.pi, rel=1e-12)


def test_periodic_integral_accepts_scalar_only_callables():
    val = integrate_periodic(lambda p: math.exp(math.cos(p)))
    # 2 pi I0(1)
    assert val == pytest.approx(2.0 * math.pi * float(mp.besseli(0, 1)), rel=1e-10)


def test_periodic_integral_reports_failure():
    with pytest.raises(ConvergenceError) as exc:
        integrate_periodic(lambda p: np.abs(np.sin(p)), rel_tol=0.0,
                           max_doublings=6)
    a, b = exc.value.estimates
    assert math.isfinite(a) and math.isfinite(b)
    assert b == pytest.approx(4.0, rel=1e-3)


def test_periodic_integral_rejects_empty_grid_or_no_doublings():
    for kw in (dict(n_start=0), dict(max_doublings=0), dict(n_start=-4)):
        with pytest.raises(ValueError):
            integrate_periodic(np.cos, **kw)


def test_adaptive_integral_known_values():
    assert integrate_adaptive(math.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-10)
    assert integrate_adaptive(lambda x: math.exp(-x), 0.0, 10.0) == pytest.approx(
        1.0 - math.exp(-10.0), rel=1e-9)


def test_adaptive_integral_handles_narrow_feature():
    # narrow Lorentzian: worst case for fixed-order rules.  The effective
    # tolerance is relative to the first whole-interval estimate, which the
    # central spike inflates, so only ~1e-6 is guaranteed here.
    w = 1e-4
    val = integrate_adaptive(lambda x: w / math.pi / (x * x + w * w), -1.0, 1.0,
                             tol=1e-10)
    assert val == pytest.approx(2.0 / math.pi * math.atan(1.0 / w), rel=1e-6)


def test_adaptive_integral_depth_exhaustion():
    with pytest.raises(ConvergenceError):
        integrate_adaptive(lambda x: math.sqrt(abs(x - 1.0 / math.sqrt(2.0))),
                           0.0, 1.0, tol=1e-15, max_depth=6)


def test_adaptive_integral_rejects_bad_interval():
    with pytest.raises(ValueError):
        integrate_adaptive(math.sin, 1.0, 1.0)
