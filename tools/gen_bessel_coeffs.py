"""Print the K0/K1 coefficient tables that ``nucsp.numerics`` holds as literals.

    python3 tools/gen_bessel_coeffs.py

The output is the block between the ``BEGIN``/``END generated`` markers in
``src/nucsp/numerics.py``, byte for byte; ``tests/test_numerics.py`` checks
that.  Needs mpmath, a test extra: nucsp itself never imports it.

Series tables (x < 2), power k of q = x^2/4, k = 0 .. SERIES_TERMS - 1
(Abramowitz & Stegun 9.6.10, 9.6.11, 9.6.13), with psi the digamma function:

    I0(x) = sum_k q^k / (k!)^2
    K0(x) = sum_k psi(k+1) q^k / (k!)^2 - ln(x/2) I0(x)
    K1(x) = 1/x + (x/2) sum_k [ln(x/2) - (psi(k+1) + psi(k+2))/2] q^k / (k! (k+1)!)

Chebyshev tables (x >= 2), in two pieces split at SPLIT = 10, each mapped
onto [-1, 1] by a u affine in 1/x whose constants are exact in binary:

    [2, 10)   :  u = 5/x - 3/2
    [10, inf) :  u = 20/x - 1

    sqrt(x) e^x K_nu(x) = c_0/2 + sum_{n>=1} c_n T_n(u)

as in Cody, Math. Comp. 29 (1975) 1089 and Cephes k0/k1.  One piece over
[2, inf), in u = 4/x - 1, would need 27 terms for the same left-out sum, and
most arguments of a Monte-Carlo plane sum lie above 10.  The c_n come from
the discrete cosine transform of the function at CHEB_NODES Chebyshev nodes,
whose aliasing error is below 1e-30 here.  Each piece keeps the fewest terms
whose left-out terms sum below DROPPED for both orders: 20 terms below the
split and 14 above it.  c_0/2 is printed as a head and the tail that its
rounding leaves: the series are c_0/2 plus a few percent, so without the
tail the rounding of c_0/2 alone (up to 0.4 ulp on three of the four tables)
would bias every value on its piece.
"""

from __future__ import annotations

import mpmath as mp

SERIES_TERMS = 14  # the first term left out is below 1e-20 of K0, K1 at x = 2
SPLIT = 10  # must equal nucsp.numerics._CHEB_SPLIT
# bound on the sum of the left-out Chebyshev terms: 1/400 of an ulp of the
# expanded functions, which lie in [1.19, 1.47]
DROPPED = 5e-19
CHEB_NODES = 48
DPS = 40
PER_LINE = 3


def series_tables():
    """(I0, K0, I1, K1) power-series coefficients in q, lowest power first."""
    i0, k0, i1, k1 = [], [], [], []
    for k in range(SERIES_TERMS):
        a = 1 / mp.factorial(k) ** 2
        b = 1 / (mp.factorial(k) * mp.factorial(k + 1))
        i0.append(a)
        k0.append(mp.digamma(k + 1) * a)
        i1.append(b)
        k1.append((mp.digamma(k + 1) + mp.digamma(k + 2)) / 2 * b)
    return i0, k0, i1, k1


def chebyshev_maps(split):
    """(a, b) of u = a/x + b for the pieces [2, split) and [split, inf)."""
    return ((4 * split / (split - 2), -(split + 2) / (split - 2)),
            (2 * split, -1))


def chebyshev_tables(a, b):
    """(K0, K1) Chebyshev coefficients of sqrt(x) e^x K(x) in u = a/x + b,
    truncated to the fewest terms whose left-out sum is below DROPPED, with c_0/2
    as head and tail."""
    n = CHEB_NODES
    thetas = [mp.pi * (j + mp.mpf(1) / 2) / n for j in range(n)]
    f0, f1 = [], []
    for t in thetas:
        x = a / (mp.cos(t) - b)
        s = mp.sqrt(x) * mp.exp(x)
        f0.append(s * mp.besselk(0, x))
        f1.append(s * mp.besselk(1, x))
    tables = []
    for f in (f0, f1):
        c = [2 * mp.fsum(fj * mp.cos(m * t) for fj, t in zip(f, thetas)) / n
             for m in range(n)]
        c[0] /= 2
        tables.append(c)
    terms = max(next(k for k in range(1, n) if mp.fsum(abs(v) for v in c[k:]) < DROPPED)
                for c in tables)
    return [[c[0], c[0] - float(c[0])] + c[1:terms] for c in tables]


def _literal(name, comment, values):
    lines = ["%s = (  # %s" % (name, comment)]
    vals = [repr(float(v)) for v in values]
    for i in range(0, len(vals), PER_LINE):
        lines.append("    " + ", ".join(vals[i:i + PER_LINE]) + ",")
    lines.append(")")
    return "\n".join(lines)


def block() -> str:
    """The generated block of numerics.py, markers included."""
    mp.mp.dps = DPS
    i0, k0, i1, k1 = series_tables()
    (a_lo, b_lo), (a_hi, b_hi) = chebyshev_maps(SPLIT)
    lo0, lo1 = chebyshev_tables(mp.mpf(a_lo), mp.mpf(b_lo))
    hi0, hi1 = chebyshev_tables(mp.mpf(a_hi), mp.mpf(b_hi))
    below = "x < %g: sqrt(x) e^x K%d(x) in T_n(%g/x - %g); c_0/2 head, tail"
    above = "x >= %g: sqrt(x) e^x K%d(x) in T_n(%g/x - 1); c_0/2 head, tail"
    parts = [
        "# BEGIN generated by tools/gen_bessel_coeffs.py",
        _literal("_SERIES_I0", "1/(k!)^2", i0),
        _literal("_SERIES_K0", "psi(k+1)/(k!)^2", k0),
        _literal("_SERIES_I1", "1/(k!(k+1)!)", i1),
        _literal("_SERIES_K1", "(psi(k+1)+psi(k+2))/(2 k!(k+1)!)", k1),
        _literal("_CHEB_LO_K0", below % (SPLIT, 0, a_lo, -b_lo), lo0),
        _literal("_CHEB_LO_K1", below % (SPLIT, 1, a_lo, -b_lo), lo1),
        _literal("_CHEB_HI_K0", above % (SPLIT, 0, a_hi), hi0),
        _literal("_CHEB_HI_K1", above % (SPLIT, 1, a_hi), hi1),
        "# END generated by tools/gen_bessel_coeffs.py",
    ]
    return "\n".join(parts) + "\n"


if __name__ == "__main__":
    print(block(), end="")
