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
    x >= 2:  sqrt(x) e^x K0,1(x) as Chebyshev series in u = 4/x - 1, 27 terms,
             by Clenshaw
    x > 700: exactly 0 (below the double-precision floor)

with psi the digamma function and I0(x) = sum_k q^k / (k!)^2.  The
coefficients are the literals between the "generated" markers below, printed
by tools/gen_bessel_coeffs.py from mpmath.  Both branches agree with a
high-precision reference to a few ulp (worst 2e-15 relative, on the series
side of x = 2) over [1e-8, 700].  Each branch has one helper, which runs the
rows of one order: bessel_k1 and bessel_k0 evaluate only their own order,
bit-identical to the matching half of bessel_k01.  A scalar argument runs
through the helpers as a Python float with math.exp/math.log, so it skips
numpy's per-call set-up; an array runs through them with numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "PhysicalConstants",
    "CONSTANTS",
    "EULER_GAMMA",
    "ConvergenceError",
    "bessel_k0",
    "bessel_k1",
    "bessel_k01",
    "integrate_periodic",
    "integrate_adaptive",
]

EULER_GAMMA = 0.5772156649015328606


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
    e2_eV_nm: float = 1.4399645478  # e^2 = alpha * hbar * c
    electron_mass_eV: float = 510998.95000
    proton_mass_eV: float = 938272088.16

    def __post_init__(self):
        if abs(self.alpha_fs - 1.0 / 137.035999) > 1e-6:
            raise ValueError("alpha_fs inconsistent with 1/137.035999")
        if abs(self.e2_eV_nm - self.alpha_fs * self.hbar_eV_s * self.c_nm_s) > 1e-9 * self.e2_eV_nm:
            raise ValueError("e2_eV_nm inconsistent with alpha * hbar * c")

    @property
    def c_nm_s(self) -> float:
        """Speed of light in the internal length unit (nm/s)."""
        return self.c_m_s * 1e9

    @property
    def hbar_c_eV_nm(self) -> float:
        return self.hbar_eV_s * self.c_nm_s


CONSTANTS = PhysicalConstants()

# Series / Chebyshev crossover.  Above _X_UNDERFLOW the result is below the
# double-precision floor and is returned as exactly 0 by contract.
_SERIES_CUT = 2.0
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
_CHEB_K0 = (  # sqrt(x) e^x K0(x) in T_n(4/x - 1), c_0 halved
    1.2201515410329777, -0.0314481013119645, 0.0015698838857300533,
    -0.00012849549581627802, 1.39498137188765e-05, -1.8317555227191195e-06,
    2.766813639445015e-07, -4.660489897687948e-08, 8.574034017414225e-09,
    -1.6975345093890614e-09, 3.5773972814003283e-10, -7.957489244477396e-11,
    1.8559491149549264e-11, -4.514597883374519e-12, 1.1403405882073441e-12,
    -2.9800969231481784e-13, 8.032890775068375e-14, -2.2275133267462965e-14,
    6.340076476276646e-15, -1.848593377920907e-15, 5.5120559994043335e-16,
    -1.6782311257549006e-16, 5.2103917776435543e-17, -1.6475805939842632e-17,
    5.3004337711773354e-18, -1.7331712005821001e-18, 5.755109202882729e-19,
)
_CHEB_K1 = (  # sqrt(x) e^x K1(x) in T_n(4/x - 1), c_0 halved
    1.3603130952422213, 0.10392373657681724, -0.002857816859622779,
    0.00019521551847135162, -1.936197974166083e-05, 2.406484947837217e-06,
    -3.5019606030878126e-07, 5.7410841254500495e-08, -1.0345762465678097e-08,
    2.0150497551970347e-09, -4.1903547593419254e-10, 9.218315187605315e-11,
    -2.129967838427791e-11, 5.139639673482343e-12, -1.2891739609498229e-12,
    3.348419666052243e-13, -8.976705182010146e-14, 2.4771544242195988e-14,
    -7.0198370892147685e-15, 2.038703166239861e-15, -6.057047270643018e-16,
    1.8380935752430455e-16, -5.689462849193648e-17, 1.7940510478863572e-17,
    -5.7567444820733025e-18, 1.8778651901623268e-18, -6.221645287352609e-19,
)
# END generated by tools/gen_bessel_coeffs.py

# Per order n: the Horner rows (I_n coefficient, K_n coefficient), highest
# power of q first; and the Clenshaw coefficients from the highest degree down
# to degree 1, with the halved c_0 apart.
_SERIES_ROWS = (tuple(zip(_SERIES_I0, _SERIES_K0))[::-1],
                tuple(zip(_SERIES_I1, _SERIES_K1))[::-1])
_CHEB_ROWS = tuple((c[:0:-1], c[0]) for c in (_CHEB_K0, _CHEB_K1))


def _k_series(x, xp, n):
    """K_n(x), n = 0 or 1, for 0 < x < 2: the power series in q = x^2/4, by
    Horner.

    Plain arithmetic, so x may be a float (xp = math) or an array (xp = numpy).
    """
    q = 0.25 * x * x
    i = k = 0.0
    for a, b in _SERIES_ROWS[n]:
        i = i * q + a
        k = k * q + b
    lg = xp.log(0.5 * x)
    if n == 0:
        return k - lg * i
    return 1.0 / x + 0.5 * x * (lg * i - k)


def _k_chebyshev(x, xp, n):
    """K_n(x), n = 0 or 1, for x >= 2: Chebyshev series in u = 4/x - 1, by
    Clenshaw.

    Plain arithmetic, so x may be a float (xp = math) or an array (xp = numpy).
    """
    u = 4.0 / x - 1.0
    u2 = u + u
    b1 = b2 = 0.0
    rows, last = _CHEB_ROWS[n]
    for c in rows:
        b1, b2 = u2 * b1 - b2 + c, b1
    return (u * b1 - b2 + last) * (xp.exp(-x) / xp.sqrt(x))


def _bessel(x, orders):
    """Tuple of K_n(x) for each n in orders; see bessel_k01 for the contract."""
    if isinstance(x, float) or np.ndim(x) == 0:
        xf = float(x)
        if not xf > 0.0:
            raise ValueError(_BAD_ARGUMENT)
        if xf < _SERIES_CUT:
            return tuple(_k_series(xf, math, n) for n in orders)
        if xf <= _X_UNDERFLOW:
            return tuple(_k_chebyshev(xf, math, n) for n in orders)
        return (0.0,) * len(orders)

    arr = np.asarray(x, dtype=float)
    if not np.all(arr > 0.0):
        raise ValueError(_BAD_ARGUMENT)
    out = tuple(np.zeros_like(arr) for _ in orders)
    lo = arr < _SERIES_CUT
    hi = ~lo & (arr <= _X_UNDERFLOW)
    # x > 700: left as 0
    for mask, kernel in ((lo, _k_series), (hi, _k_chebyshev)):
        if np.any(mask):
            part = arr[mask]
            for k, n in zip(out, orders):
                k[mask] = kernel(part, np, n)
    return out


def bessel_k01(x) -> tuple[np.ndarray | float, np.ndarray | float]:
    """Return (K0(x), K1(x)) for scalar or array input.

    Raises ValueError on non-positive or NaN arguments.  Arguments above 700
    underflow in double precision and yield exactly 0 by contract; deep in the
    1/x pole the pole value is returned (clamping is the caller's job).  A
    scalar runs through the same expansions as a Python float.
    """
    return _bessel(x, (0, 1))


def bessel_k0(x):
    """Modified Bessel function of the second kind, order 0.

    Runs only the K0 rows, so it is bit-identical to bessel_k01(x)[0].
    """
    return _bessel(x, (0,))[0]


def bessel_k1(x):
    """Modified Bessel function of the second kind, order 1.

    Runs only the K1 rows, so it is bit-identical to bessel_k01(x)[1].
    """
    return _bessel(x, (1,))[0]


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
