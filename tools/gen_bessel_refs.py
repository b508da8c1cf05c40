"""Write the mpmath K0/K1 references that tests/test_numerics.py's dense sweep
and its 400-point log sweep read, so the tier-1 run does not recompute all of
them.

    python3 tools/gen_bessel_refs.py

writes two files under ``tests/data``, one line per point, ``x K0(x) K1(x)``
as three ``repr`` floats:

- ``bessel_k01_refs.txt``: sweep points first, then edge points.  The test
  recomputes every 50th sweep point and every edge point live with
  ``mp_k01`` below and requires the stored values bit for bit.
- ``bessel_k01_log_refs.txt``: ``log_points()``; the test recomputes every
  20th point live in the same way.

Needs mpmath, a test extra: nucsp itself never imports it.
"""

from __future__ import annotations

from pathlib import Path

import mpmath as mp
import numpy as np

DATA = Path(__file__).resolve().parents[1] / "tests" / "data"
OUT = DATA / "bessel_k01_refs.txt"
LOG_OUT = DATA / "bessel_k01_log_refs.txt"
SPLIT = 10.0  # must equal nucsp.numerics._CHEB_SPLIT


def around(x):
    """x, its neighbouring doubles, and x -+ 1e-13, 1e-12."""
    return [x - 1e-12, x - 1e-13, np.nextafter(x, 0.0), x,
            np.nextafter(x, np.inf), x + 1e-13, x + 1e-12]


def sweep_points() -> np.ndarray:
    return np.geomspace(1e-8, 700.0, 4001)


def log_points() -> np.ndarray:
    """400 log-spaced points from 1e-8 to 699, below the underflow cut."""
    return np.logspace(-8, np.log10(699.0), 400)


def edge_points() -> np.ndarray:
    """The series / Chebyshev branch point x = 2, the Chebyshev split, and the
    underflow cut x = 700 from below (above it the result is exactly 0)."""
    return np.array(around(2.0) + around(SPLIT) + around(700.0)[:4])


def mp_k01(xs):
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


def read(path):
    """(xs, K0, K1) as stored in path."""
    return np.array([[float(v) for v in line.split()] for line in
                     path.read_text(encoding="utf-8").splitlines()
                     if not line.startswith("#")]).T


def write(path, xs):
    k0, k1 = mp_k01(xs)
    lines = ["# x K0(x) K1(x), written by tools/gen_bessel_refs.py"]
    lines += ["%r %r %r" % (float(x), float(a), float(b)) for x, a, b in zip(xs, k0, k1)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main():
    write(OUT, np.concatenate([sweep_points(), edge_points()]))
    write(LOG_OUT, log_points())


if __name__ == "__main__":
    main()
