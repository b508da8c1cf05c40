"""Shared numerical kernel: physical constants, modified Bessel functions,
and two generic quadrature rules.

No code in the package calls the quadrature rules any more: the cone weights
and the Monte-Carlo control variate are in closed form.  integrate_periodic
and integrate_adaptive stay, still imported by crystal_sp and finite_array,
because the benchmark's spans (perfbench/spans.py) bind them there.

Unit system
-----------
Energies are expressed in eV, lengths in nm, times in s, and angular
frequencies in rad/s (omega = E / hbar).  Every emission probability computed
downstream is a dimensionless combination of these, so no unit conversion
happens outside the presentation layer.

The modified Bessel functions K0, K1 are evaluated from fixed-length
expansions, with no convergence loop, following Cody (Math. Comp. 29 (1975)
1089), the scheme behind Cephes k0/k1:

    x < 2 :  power series in q = x^2/4, 14 terms, by Horner
             K0(x) = sum_k psi(k+1) q^k / (k!)^2 - ln(x/2) I0(x)
             K1(x) = 1/x + (x/2) sum_k [ln(x/2) - (psi(k+1) + psi(k+2))/2] q^k / (k! (k+1)!)
    2 <= x < 10:    sqrt(x) e^x K0,1(x) as a Chebyshev fit in u = 5/x - 3/2,
                    20 terms, held in powers of u and summed by Horner
    10 <= x <= 700: the same in u = 20/x - 1, 14 terms
    x > 700: exactly 0 (below the double-precision floor)

with psi the digamma function and I0(x) = sum_k q^k / (k!)^2.  The
coefficients are the literals between the "generated" markers below, printed
by tools/gen_bessel_coeffs.py, which converts each 40-digit Chebyshev fit to
powers of u in mpmath; Horner's step p = (p + c) u is two array passes, where
Clenshaw's recurrence takes three.  A fit's constant term is stored as a
double head and tail; as one double it would bias its piece by up to 0.47
ulp.  Against the mpmath values in tests/data (4,419 points up to 700, near
2, 10 and 700 too), the worst |K/K_ref - 1| is 8.88e-16 below x = 2 and
4.44e-16 from 2 on; a test holds them.  Each branch has one helper, which
runs the rows of one order (bessel_k1 evaluates only its own, bit-identical
to the K1 half of bessel_k01) from the state its first step from 0 reaches
exactly.  A scalar runs through the helpers as a Python float with math.exp
and math.log; an array through numpy, by position per piece, in place.
libm's exp and log round differently from numpy's, so the two paths can
differ by a few ulp: on the sweeps of the scalar-path test in
tests/test_numerics.py the largest gap is 0 below x = 2, 3 ulp (4.4e-16
relative) on [2, 10) and 2 ulp on [10, 700).  The test allows 1e-15
relative, since another libm may round differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "PhysicalConstants",
    "CONSTANTS",
    "ConvergenceError",
    "bessel_k1",
    "bessel_k01",
    "integrate_periodic",
    "integrate_adaptive",
]


class ConvergenceError(RuntimeError):
    """A refinement loop hit its cap before reaching the requested tolerance.

    Carries the last two successive estimates so callers can judge how far
    the iteration got.
    """

    def __init__(self, message: str, estimates: tuple[float, float]):
        super().__init__(f"{message} (last two estimates: {estimates[0]!r}, {estimates[1]!r})")
        self.estimates = estimates


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA-2018 constants, the single source of truth for unit consistency."""

    hbar_eV_s: float = 6.582119569e-16
    c_m_s: float = 299792458.0
    alpha_fs: float = 7.2973525693e-3
    electron_mass_eV: float = 510998.95000
    proton_mass_eV: float = 938272088.16

    def __post_init__(self):
        if abs(self.alpha_fs - 1.0 / 137.035999) > 1e-6:
            raise ValueError("alpha_fs inconsistent with 1/137.035999")

    @property
    def c_nm_s(self) -> float:
        """Speed of light in the internal length unit (nm/s)."""
        return self.c_m_s * 1e9


CONSTANTS = PhysicalConstants()

# Series / Chebyshev crossover.  Above _X_UNDERFLOW the result is below the
# double-precision floor and is returned as exactly 0 by contract.
_SERIES_CUT = 2.0
# The Chebyshev range splits in two here.  One series over [2, inf) needs 27
# terms; [10, inf), where most arguments of a plane sum lie, needs 14 for the
# same truncation and [2, 10) needs 20.  At 10 both maps onto [-1, 1] have constants
# exact in binary: u = 5/x - 3/2 below and u = 20/x - 1 above.  The tables are
# generated for this value (tools/gen_bessel_coeffs.py, SPLIT).
_CHEB_SPLIT = 10.0
_X_UNDERFLOW = 700.0
_BAD_ARGUMENT = "bessel_k0/k1 require positive, non-NaN arguments"

# BEGIN generated by tools/gen_bessel_coeffs.py
_SERIES_I0 = (  # 1/(k!)^2
    1.0, 1.0, 0.25,
    0.027777777777777776, 0.001736111111111111, 6.944444444444444e-05,
    1.9290123456790124e-06, 3.936759889140842e-08, 6.151187326782565e-10,
    7.594058428126624e-12, 7.594058428126623e-14, 6.276081345559193e-16,
    4.358389823304995e-18, 2.5789288895295828e-20,
)
_SERIES_K0 = (  # psi(k+1)/(k!)^2
    -0.5772156649015329, 0.42278433509846713, 0.23069608377461678,
    0.0348921574564389, 0.0026147876188052093, 0.00011848039364109726,
    3.6126241031992037e-06, 7.935096521304209e-08, 1.3167486730385647e-09,
    1.709994072705808e-11, 1.785934656987074e-13, 1.5330343403208473e-15,
    1.1009270959725744e-17, 6.712740659979047e-20,
)
_SERIES_I1 = (  # 1/(k!(k+1)!)
    1.0, 0.5, 0.08333333333333333,
    0.006944444444444444, 0.00034722222222222224, 1.1574074074074073e-05,
    2.755731922398589e-07, 4.920949861426052e-09, 6.834652585313961e-11,
    7.594058428126623e-13, 6.903689480115112e-15, 5.230067787965994e-17,
    3.352607556388458e-19, 1.842092063949702e-21,
)
_SERIES_K1 = (  # (psi(k+1)+psi(k+2))/(2 k!(k+1)!)
    -0.07721566490153287, 0.33639216754923357, 0.09078758348042781,
    0.009591094919665281, 0.000557679745983264, 2.0711238446355714e-05,
    5.357729570455905e-07, 1.022643001796939e-08, 1.501024373294594e-10,
    1.747964364846441e-12, 1.654957367625136e-14, 1.2993205660505643e-16,
    8.597616413496283e-19, 4.860603759411809e-21,
)
_CHEB_LO_K0 = (  # x < 10: sqrt(x) e^x K0(x) in powers of 5/x - 1.5; p_0 head, tail
    1.21249867547185, 8.565938833358984e-17, -0.023930301438957444,
    0.001770944408552106, -0.00020941058044536968, 3.214816784750256e-05,
    -5.861314671211034e-06, 1.2098360993573139e-06, -2.745787686808544e-07,
    6.720632144031989e-08, -1.750055142434748e-08, 4.80076500045064e-09,
    -1.3766983999113206e-09, 4.0896730812299194e-10, -1.2582519771929316e-10,
    4.1737782381102195e-11, -1.3824624922242457e-11, 3.1098535625202265e-12,
    -9.551173821893316e-13, 1.0424955721683753e-12, -3.928848348112558e-13,
)
_CHEB_LO_K1 = (  # x < 10: sqrt(x) e^x K1(x) in powers of 5/x - 1.5; p_0 head, tail
    1.3836048411450967, 1.0467178568527785e-16, 0.08096568999670634,
    -0.003300075355191113, 0.00032557769409125655, -4.56493684588648e-05,
    7.875452576508491e-06, -1.5656478688204589e-06, 3.4573387925942576e-07,
    -8.28670926675199e-08, 2.122272213683584e-08, -5.7433524192025615e-09,
    1.6284746111010875e-09, -4.792153915024709e-10, 1.4623499734344312e-10,
    -4.8089087482152065e-11, 1.5822338082041355e-11, -3.5756319339221455e-12,
    1.0953112023402002e-12, -1.1705112276931245e-12, 4.3932716280547656e-13,
)
_CHEB_HI_K0 = (  # x >= 10: sqrt(x) e^x K0(x) in powers of 20/x - 1; p_0 head, tail
    1.2456905579795077, 1.6260417345897554e-18, -0.007423891735003586,
    0.00019040668763680747, -8.672018047166208e-06, 5.580577321106584e-07,
    -4.5743170881846275e-08, 4.504118183471736e-09, -5.132055344649389e-10,
    6.59507864562906e-11, -9.380088244520214e-12, 1.4461171821229792e-12,
    -2.4139294572092964e-13, 5.013049112764138e-14, -9.790929290705691e-15,
)
_CHEB_HI_K1 = (  # x >= 10: sqrt(x) e^x K1(x) in powers of 20/x - 1; p_0 head, tail
    1.276461627342245, 7.829216222425936e-17, 0.022809426416372344,
    -0.0003248444904772017, 1.2422023588419376e-05, -7.338066836348306e-07,
    5.7155890591625836e-08, -5.439795957193354e-09, 6.049352504965287e-10,
    -7.633104598671057e-11, 1.0702810733307233e-11, -1.6316054475962678e-12,
    2.6982505823898764e-13, -5.5486711166250906e-14, 1.076434776048575e-14,
)
# END generated by tools/gen_bessel_coeffs.py

# Per order n: the Horner rows (I_n coefficient, K_n coefficient), highest
# power of q first.  Per Chebyshev piece (below, above the split) and order n:
# the Horner rows from the highest power of u down to the first, the head and
# tail of the constant term, and (a, b) of the map u = a/x + b, derived from
# the split.
_SERIES_ROWS = (tuple(zip(_SERIES_I0, _SERIES_K0))[::-1],
                tuple(zip(_SERIES_I1, _SERIES_K1))[::-1])
_CHEB_ROWS = tuple(
    tuple((c[:1:-1], c[0], c[1], a, b) for c in tables)
    for tables, (a, b) in (
        ((_CHEB_LO_K0, _CHEB_LO_K1), (4.0 * _CHEB_SPLIT / (_CHEB_SPLIT - 2.0),
                                      -(_CHEB_SPLIT + 2.0) / (_CHEB_SPLIT - 2.0))),
        ((_CHEB_HI_K0, _CHEB_HI_K1), (2.0 * _CHEB_SPLIT, -1.0))))


def _k_series(x, xp, n):
    """K_n(x), n = 0 or 1, for 0 < x < 2: the power series in q = x^2/4, by
    Horner.

    Plain arithmetic, so x may be a float (xp = math) or an array (xp = numpy).
    """
    q = 0.25 * x * x
    (i, k), *rows = _SERIES_ROWS[n]  # the first step from i = k = 0, exactly
    for a, b in rows:
        i = i * q + a
        k = k * q + b
    lg = xp.log(0.5 * x)
    if n == 0:
        return k - lg * i
    return 1.0 / x + 0.5 * x * (lg * i - k)


def _k_chebyshev(x, xp, n, piece, out=None):
    """K_n(x), n = 0 or 1, for x >= 2: the fit in powers of u = a/x + b, by
    Horner, on piece 0 ([2, _CHEB_SPLIT)) or 1 ([_CHEB_SPLIT, inf)).

    x is a float (xp = math) or an array (xp = numpy); an array's steps run
    in place, two passes a term, in buffers allocated per call, and out, if
    given, gets K_n(x).
    """
    rows, head, tail, a, b = _CHEB_ROWS[piece][n]
    u = a / x + b
    p = u * rows[0]  # the first step from p = 0, exactly
    for c in rows[1:]:  # p = (p + c) u, in place for an array
        p += c
        p *= u
    p += tail
    p += head
    if xp is math:
        return p * (xp.exp(-x) / xp.sqrt(x))
    e = np.divide(np.exp(np.negative(x, u), u), np.sqrt(x), u)
    return np.multiply(p, e, p if out is None else out)


def _bessel(x, orders):
    """Tuple of K_n(x) for each n in orders; see bessel_k01 for the contract."""
    if isinstance(x, float) or np.ndim(x) == 0:
        xf = float(x)
        if not xf > 0.0:
            raise ValueError(_BAD_ARGUMENT)
        if xf < _SERIES_CUT:
            return tuple(_k_series(xf, math, n) for n in orders)
        if xf <= _X_UNDERFLOW:
            piece = int(xf >= _CHEB_SPLIT)
            return tuple(_k_chebyshev(xf, math, n, piece) for n in orders)
        return (0.0,) * len(orders)

    arr = np.asarray(x, dtype=float)
    if not np.all(arr > 0.0):
        raise ValueError(_BAD_ARGUMENT)
    flat = arr.ravel()  # each piece taken and put by position in the C-order ravel
    out = tuple(np.zeros(arr.shape) for _ in orders)
    lo = np.flatnonzero(flat < _SERIES_CUT)
    mid = np.flatnonzero((flat >= _SERIES_CUT) & (flat < _CHEB_SPLIT))
    hi = np.flatnonzero((flat >= _CHEB_SPLIT) & (flat <= _X_UNDERFLOW))
    # x > 700: left as 0
    for idx, kernel, args in ((lo, _k_series, ()), (mid, _k_chebyshev, (0,)),
                              (hi, _k_chebyshev, (1,))):
        if idx.size:
            part = flat.take(idx)
            for k, n in zip(out, orders):
                k.put(idx, kernel(part, np, n, *args))
    return out


def bessel_k01(x) -> tuple[np.ndarray | float, np.ndarray | float]:
    """Return (K0(x), K1(x)) for scalar or array input.

    Raises ValueError on non-positive or NaN arguments.  Arguments above 700
    underflow in double precision and yield exactly 0 by contract; deep in the
    1/x pole the pole value is returned (clamping is the caller's job).  A
    scalar runs through the same expansions as a Python float.
    """
    return _bessel(x, (0, 1))


def bessel_k1(x):
    """Modified Bessel function of the second kind, order 1.

    Runs only the K1 rows, so it is bit-identical to bessel_k01(x)[1].
    """
    return _bessel(x, (1,))[0]


def _veltkamp_split(x):
    """x = hi + lo with at most 26 significant bits in each half (Veltkamp),
    so products of halves with 26-bit factors are exact."""
    t = x * 134217729.0  # 2^27 + 1
    hi = t - (t - x)
    return hi, x - hi


def _eval_vec(f: Callable, t: np.ndarray) -> np.ndarray:
    """Evaluate f on an array of nodes, falling back to a scalar loop."""
    try:
        y = np.asarray(f(t), dtype=float)
        if y.shape == t.shape:
            return y
    except (TypeError, ValueError):
        pass
    return np.array([float(f(ti)) for ti in t])


def integrate_periodic(f: Callable, rel_tol: float = 1e-8,
                       n_start: int = 8, max_doublings: int = 16) -> float:
    """Integrate a smooth periodic function over [0, 2*pi).

    Uniform-grid trapezoidal rule, which is spectrally accurate for periodic
    integrands; the grid is doubled until two successive estimates agree to
    rel_tol.  f may accept a numpy array of angles or a scalar.
    """
    if n_start < 1 or max_doublings < 1:
        raise ValueError("n_start and max_doublings must be at least 1")
    n = n_start
    t = 2.0 * np.pi * np.arange(n) / n
    total = float(np.sum(_eval_vec(f, t)))
    prev = 2.0 * np.pi * total / n
    for _ in range(max_doublings):
        # new nodes are the midpoints of the current grid
        tm = 2.0 * np.pi * (np.arange(n) + 0.5) / n
        total += float(np.sum(_eval_vec(f, tm)))
        n *= 2
        est = 2.0 * np.pi * total / n
        if abs(est - prev) <= rel_tol * max(abs(est), abs(prev), 1e-300):
            return est
        prev = est
    raise ConvergenceError("integrate_periodic did not converge", (prev, est))


def integrate_adaptive(f: Callable, a: float, b: float, tol: float = 1e-9,
                       max_depth: int = 48) -> float:
    """Adaptive-Simpson integral of f over [a, b].

    The error target is absolute plus relative: tol * max(1, |I|) with I the
    initial whole-interval estimate.  Raises ConvergenceError when a panel
    exhausts max_depth without meeting its share of the budget.
    """
    if not a < b:
        raise ValueError("integrate_adaptive requires a < b")
    fa, fm, fb = float(f(a)), float(f(0.5 * (a + b))), float(f(b))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    eps = tol * max(1.0, abs(whole))
    return _adapt(f, a, b, fa, fm, fb, whole, eps, max_depth)


def _adapt(f, a, b, fa, fm, fb, s, eps, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = float(f(lm)), float(f(rm))
    sl = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    sr = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    s2 = sl + sr
    if abs(s2 - s) <= 15.0 * eps:
        return s2 + (s2 - s) / 15.0
    if depth <= 0:
        raise ConvergenceError("integrate_adaptive hit max recursion depth", (s, s2))
    return (_adapt(f, a, m, fa, flm, fm, sl, 0.5 * eps, depth - 1)
            + _adapt(f, m, b, fm, frm, fb, sr, 0.5 * eps, depth - 1))
