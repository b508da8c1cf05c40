import importlib.util
import itertools
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
    ConvergenceError,
    bessel_k01,
    bessel_k1,
    integrate_adaptive,
    integrate_periodic,
)

mp.mp.dps = 30

ROOT = Path(__file__).resolve().parents[1]
SPLIT = numerics._CHEB_SPLIT


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REFS = _tool("gen_bessel_refs")


def test_constants_are_self_consistent():
    # hbar c in eV nm
    assert CONSTANTS.hbar_eV_s * CONSTANTS.c_nm_s == pytest.approx(197.3269804, rel=1e-9)
    assert CONSTANTS.alpha_fs == pytest.approx(1.0 / 137.035999084, rel=1e-10, abs=0.0)
    assert CONSTANTS.c_nm_s == pytest.approx(2.99792458e17, rel=0, abs=0.0)


def test_constants_reject_inconsistent_values():
    import dataclasses
    with pytest.raises(ValueError):
        dataclasses.replace(CONSTANTS, alpha_fs=7.3e-3)


def _assert_matches_besselk(xs, rtol):
    k0, k1 = bessel_k01(xs)
    ref0 = np.array([float(mp.besselk(0, mp.mpf(float(x)))) for x in xs])
    ref1 = np.array([float(mp.besselk(1, mp.mpf(float(x)))) for x in xs])
    np.testing.assert_allclose(k0, ref0, rtol=rtol)
    np.testing.assert_allclose(k1, ref1, rtol=rtol)


def _assert_matches_stored_refs(path, xs, live):
    """bessel_k01 on xs within 1e-12 of the mpmath references stored in path
    by tools/gen_bessel_refs.py; the points at indices live are recomputed
    and must match the stored values bit for bit."""
    stored, ref0, ref1 = REFS.read(path)
    assert np.array_equal(stored, xs)
    live0, live1 = REFS.mp_k01(xs[live])
    assert np.array_equal(live0, ref0[live]) and np.array_equal(live1, ref1[live])
    k0, k1 = bessel_k01(xs)
    np.testing.assert_allclose(k0, ref0, rtol=1e-12)
    np.testing.assert_allclose(k1, ref1, rtol=1e-12)


def test_bessel_matches_high_precision_reference():
    # 400 log-spaced points up to x = 699; every 20th is recomputed live
    xs = REFS.log_points()
    assert np.array_equal(xs, np.logspace(-8, math.log10(699.0), 400))
    _assert_matches_stored_refs(REFS.LOG_OUT, xs, np.arange(0, xs.size, 20))


def test_bessel_accuracy_near_branch_crossover():
    _assert_matches_besselk(np.linspace(1.9, 2.1, 41), 1e-13)


def test_bessel_accuracy_near_chebyshev_split():
    # the two Chebyshev pieces meet at SPLIT: each must be accurate up to it
    _assert_matches_besselk(np.linspace(SPLIT - 0.1, SPLIT + 0.1, 41), 1e-13)


def test_bessel_dense_sweep_against_mpmath():
    # log-spaced sweep, plus the neighbourhoods of the branch point x = 2, of
    # the Chebyshev split and of the underflow cut x = 700, where the result
    # must switch to exactly 0.  The mpmath references are stored by
    # tools/gen_bessel_refs.py; every 50th sweep point and every edge point
    # is recomputed live and must match the stored value bit for bit.
    sweep, edges = REFS.sweep_points(), REFS.edge_points()
    assert REFS.SPLIT == SPLIT
    xs = np.concatenate([sweep, edges])
    live = np.concatenate([np.arange(0, sweep.size, 50), np.arange(sweep.size, xs.size)])
    _assert_matches_stored_refs(REFS.OUT, xs, live)
    above = np.array(REFS.around(700.0)[4:])
    assert not np.any(np.concatenate(bessel_k01(above)))
    assert [bessel_k01(float(x)) for x in above] == [(0.0, 0.0)] * above.size


@pytest.mark.parametrize("lo,hi", [(1e-8, 2.0), (2.0, SPLIT), (SPLIT, 700.0)])
def test_bessel_scalar_path_matches_array_path(lo, hi):
    xs = np.concatenate([np.geomspace(lo, hi, 400), [np.nextafter(hi, 0.0)]])
    k0, k1 = bessel_k01(xs)
    scalar = np.array([bessel_k01(float(x)) for x in xs])
    np.testing.assert_allclose(scalar[:, 0], k0, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(scalar[:, 1], k1, rtol=1e-15, atol=0.0)


def _horner_as_written(x, n, piece):
    """The array Horner of numerics._k_chebyshev as one expression per step,
    from p = 0, with numpy allocating every intermediate: the in-place form
    that starts at the first step must equal it bit for bit."""
    rows, head, tail, a, b = numerics._CHEB_ROWS[piece][n]
    u = a / x + b
    p = 0.0
    for c in rows:
        p = p * u + c
    return (p * u + tail + head) * (np.exp(-x) / np.sqrt(x))


@pytest.mark.parametrize("size", [1, 64, 512, 45_000])
def test_array_horner_equals_the_expression_as_written(size):
    edges = [np.nextafter(v, d) for v in (2.0, SPLIT, 700.0) for d in (0.0, v, np.inf)]
    rng = np.random.default_rng(size)
    if size == 1:
        inputs = [np.array([x]) for x in edges]
    else:
        xs = np.concatenate([edges, np.geomspace(2.0, 700.0, size - len(edges))])
        inputs = [rng.permutation(xs), rng.permutation(xs).reshape(-1, 8 if size > 64 else 2)]
    for xs, piece, n in itertools.product(inputs, (0, 1), (0, 1)):
        before = xs.copy()
        want = _horner_as_written(xs, n, piece)
        assert np.array_equal(numerics._k_chebyshev(xs, np, n, piece), want)
        out = np.full_like(xs, np.nan)
        assert numerics._k_chebyshev(xs, np, n, piece, out=out) is out
        assert np.array_equal(out, want)
        assert np.array_equal(xs, before)


def _clenshaw(x, c, a, b):
    """sum_n c_n T_n(u) e^-x / sqrt(x), u = a/x + b, in doubles by Clenshaw's
    recurrence, with c_0/2 (c[0]) as a head and tail as in numerics."""
    head = float(c[0])
    tail, rest = float(c[0] - head), [float(v) for v in c[:0:-1]]
    u = a / x + b
    u2 = u + u
    b1 = b2 = 0.0
    for cn in rest:
        b1, b2 = u2 * b1 - b2 + cn, b1
    return (u * b1 - b2 + tail + head) * (np.exp(-x) / np.sqrt(x))


def test_power_form_agrees_with_clenshaw_on_the_chebyshev_fits():
    # an oracle that does not share the power form's coefficients: Clenshaw's
    # recurrence over the generator's Chebyshev fits, each coefficient
    # rounded to a double.  Per piece and order on 20,000 points, numerics
    # must agree with it within 2 ulp and be unbiased against it: a constant
    # term rounded to one double, without its tail, moves the mean by 0.4 ulp
    gen = _tool("gen_bessel_coeffs")
    rng = np.random.default_rng(37)
    for piece, ((a, b), (lo, hi)) in enumerate(zip(gen.chebyshev_maps(gen.SPLIT),
                                                   ((2.0, SPLIT), (SPLIT, 700.0)))):
        with mp.workdps(gen.DPS):
            fits = gen.chebyshev_tables(mp.mpf(a), mp.mpf(b))
        xs = np.concatenate([[lo, np.nextafter(hi, 0.0)], rng.uniform(lo, hi, 9999),
                             np.geomspace(lo, hi, 9999, endpoint=False)])
        for n, c in enumerate(fits):
            assert numerics._CHEB_ROWS[piece][n][3:] == (a, b)
            assert len(numerics._CHEB_ROWS[piece][n][0]) == len(c) - 1
            want = _clenshaw(xs, c, a, b)
            ulps = (numerics._k_chebyshev(xs, np, n, piece) - want) / np.spacing(want)
            assert np.abs(ulps).max() <= 2.0, (piece, n, np.abs(ulps).max())
            assert abs(ulps.mean()) <= 0.05, (piece, n, ulps.mean())


def test_bessel_worst_error_against_stored_refs():
    # the accuracy that the numerics docstring states: over both stored
    # reference files, on the 4,419 points up to 700 (where K is not 0), the
    # worst relative error |K/K_ref - 1| in doubles is 4 * 2^-52 below x = 2
    # and 2 * 2^-52 from 2 on
    xs, ref0, ref1 = np.concatenate([REFS.read(REFS.OUT), REFS.read(REFS.LOG_OUT)], axis=1)
    keep = xs <= 700.0
    xs, refs = xs[keep], (ref0[keep], ref1[keep])
    assert xs.size == 4419 and np.all(np.concatenate(refs) > 0.0)
    for got, ref in zip(bessel_k01(xs), refs):
        err = np.abs(got / ref - 1.0)
        assert err[xs < 2.0].max() <= 8.9e-16
        assert err[xs >= 2.0].max() <= 4.5e-16


def _series_as_written(x, n, xp=np):
    """The Horner series of numerics._k_series from i = k = 0, with numpy
    allocating every intermediate for an array: the form that starts at the
    top row must equal it bit for bit, for a float (xp = math) as well."""
    q = 0.25 * x * x
    i = k = 0.0
    for a, b in numerics._SERIES_ROWS[n]:
        i = i * q + a
        k = k * q + b
    lg = xp.log(0.5 * x)
    if n == 0:
        return k - lg * i
    return 1.0 / x + 0.5 * x * (lg * i - k)


@pytest.mark.parametrize("size", [1, 64, 512, 45_000])
def test_array_series_equals_the_expression_as_written(size):
    edges = [np.nextafter(2.0, 0.0), 1e-300, 5e-8, 1.0]
    rng = np.random.default_rng(size)
    if size == 1:
        inputs = [np.array([x]) for x in edges]
    else:
        xs = np.concatenate([edges, np.geomspace(1e-8, 2.0, size - len(edges), endpoint=False)])
        inputs = [rng.permutation(xs), rng.permutation(xs).reshape(-1, 4)]
    for xs, n in itertools.product(inputs, (0, 1)):
        before = xs.copy()
        want = _series_as_written(xs, n)
        assert np.array_equal(numerics._k_series(xs, np, n), want)
        assert np.array_equal(xs, before)
        for x in xs.ravel()[:64].tolist():
            assert numerics._k_series(x, math, n) == _series_as_written(x, n, math)


def _bessel_by_mask(x, orders):
    """The array path of numerics._bessel written with boolean masks, and
    the series and Horner as written: selecting the pieces by position
    must give the same values bit for bit."""
    arr = np.asarray(x, dtype=float)
    out = tuple(np.zeros_like(arr) for _ in orders)
    lo = arr < 2.0
    hi = arr >= SPLIT
    mid = ~(lo | hi)
    hi &= arr <= 700.0
    for mask, kernel in ((lo, _series_as_written),
                         (mid, lambda v, n: _horner_as_written(v, n, 0)),
                         (hi, lambda v, n: _horner_as_written(v, n, 1))):
        if np.any(mask):
            part = arr[mask]
            for k, n in zip(out, orders):
                k[mask] = kernel(part, n)
    return out


def test_positional_pieces_equal_the_masked_kernel():
    # bessel_k1 and bessel_k01 select each piece by position;
    # they must equal the masked kernel bit for bit on the piece edges and
    # their neighbours, past the underflow cut, and on 2-D, transposed,
    # strided, one-element and empty inputs
    edges = [np.nextafter(v, d) for v in (2.0, SPLIT, 700.0) for d in (0.0, v, np.inf)]
    rng = np.random.default_rng(31)
    xs = rng.permutation(np.concatenate([
        edges, [701.0, 1e4, 1e300], np.geomspace(1e-8, 750.0, 9988)]))
    grid = xs.reshape(100, 100)
    inputs = [xs, grid, grid.T, grid[::3, 1::2], xs[::-7], xs[:1], xs[:0],
              np.array([700.5]), np.array([2.0]), np.array([[SPLIT]])]
    for arr in inputs:
        before = arr.copy()
        k0, k1 = _bessel_by_mask(arr, (0, 1))
        for got, want in ((bessel_k1(arr), k1), *zip(bessel_k01(arr), (k0, k1))):
            assert got.shape == arr.shape and got.dtype == np.float64
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.array_equal(arr, before)


def test_single_order_paths_are_bit_identical_to_k01():
    # bessel_k1 runs only its own order's rows, with the same arithmetic in
    # the same order, so it equals bessel_k01 bit for bit:
    # both branches, x = 2, the Chebyshev split and 700 and their neighbouring
    # doubles, and past the underflow cut
    edges = [np.nextafter(2.0, 0.0), 2.0, np.nextafter(2.0, np.inf),
             np.nextafter(SPLIT, 0.0), SPLIT, np.nextafter(SPLIT, np.inf),
             np.nextafter(700.0, 0.0), 700.0, np.nextafter(700.0, np.inf), 701.0, 1e6]
    xs = np.concatenate([np.geomspace(1e-8, 750.0, 2002), edges])
    k0, k1 = bessel_k01(xs)
    assert np.array_equal(bessel_k1(xs), k1)
    assert np.array_equal(bessel_k1(xs.reshape(-1, 11)), k1.reshape(-1, 11))
    assert not np.any(bessel_k1(np.array(edges[-3:])))
    for x in np.concatenate([xs[::37], edges]):
        pair = bessel_k01(float(x))
        assert bessel_k1(float(x)) == pair[1]
        assert bessel_k1(np.float64(x)) == pair[1]
    for bad in (0.0, -1.0, math.nan, np.array([1.0, 0.0]), np.array([math.nan, 3.0])):
        for f in (bessel_k1, bessel_k01):
            with pytest.raises(ValueError):
                f(bad)


def test_bessel_coefficients_match_generator():
    # the literals in numerics.py are the generator's output, digit for digit
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "gen_bessel_coeffs.py")],
                         check=True, capture_output=True, text=True, timeout=60).stdout
    assert out.startswith("# BEGIN generated")
    assert _tool("gen_bessel_coeffs").SPLIT == SPLIT
    assert out in Path(numerics.__file__).read_text(encoding="utf-8")


def test_bessel_frozen_unit_argument():
    assert bessel_k01(1.0)[0] == pytest.approx(0.4210244382407083, rel=1e-14, abs=0.0)
    assert bessel_k1(1.0) == pytest.approx(0.6019072301972346, rel=1e-14, abs=0.0)


def test_bessel_small_argument_limits():
    x = 1e-8
    assert bessel_k01(x)[0] == pytest.approx(-(math.log(x / 2.0) + np.euler_gamma), rel=1e-12)
    assert x * bessel_k1(x) == pytest.approx(1.0, rel=1e-12)


def test_bessel_underflow_region_is_zero():
    assert bessel_k01(701.0)[0] == 0.0
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
        expected = -bessel_k01(x)[0] - bessel_k1(x) / x
        assert deriv == pytest.approx(expected, rel=1e-8, abs=0.0)


def test_bessel_rejects_bad_arguments():
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            bessel_k01(bad)
    with pytest.raises(ValueError):
        bessel_k1(np.array([1.0, 0.0]))


def test_bessel_scalar_and_array_types():
    assert isinstance(bessel_k01(1.5)[0], float)
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
