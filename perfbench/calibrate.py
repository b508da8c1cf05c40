"""Host-speed calibration for the benchmark's times.

On a shared host the speed of one core drifts by tens of percent over tens
of seconds, so raw times from separate runs spread more than any useful
regression bound. The benchmark therefore times a fixed kernel, which no
change to nucsp can affect, right before and after every operation, and
rescales the operation's time by how slowly the kernel ran around it
(``Calibrator.calibrated``).

A workload uses the kernel whose bottleneck matches its own:

* ``python``: interpreter work (exact rational arithmetic, dict updates);
* ``numpy``: broadcasting on preallocated, cache-sized arrays;
* ``numpy-large``: broadcasting that allocates 25 MB temporaries, like the
  smooth-cutoff G-sum.

The first two are bound by the core, so they run in the measured process,
on the core that runs the workload; they allocate next to nothing. The
third runs in a helper process while the measured process waits, so that
its temporaries stay out of the measured peak resident memory. Run as a
script, this module is that helper: it reads kernel names from stdin, one
per line, and answers each with the kernel's time in seconds.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

# Median kernel times between operations in benchmark runs on the reference
# host (2-vCPU Xeon VM at 2.1 GHz, Python 3.11, numpy 2.4); calibrated times
# are seconds on that host.
REFERENCE_S = {"python": 0.032, "numpy": 0.022, "numpy-large": 0.066}

_PHI = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)[:, None]
_KX, _KY = 70.0 * np.cos(_PHI), 70.0 * np.sin(_PHI)


def _python_kernel() -> None:
    acc = Fraction(0)
    for i in range(1, 2000):
        acc += Fraction(i, i + 1) * Fraction(2 * i + 1, 3 * i + 2)
    counts: dict = {}
    for i in range(100_000):
        counts[i % 97] = counts.get(i % 97, 0) + i


_G = np.random.default_rng(0).normal(scale=300.0, size=(2, 1000))
_BUF = np.empty((3, 64, 1000))


def _numpy_kernel() -> None:
    qx, qy, q2 = _BUF
    for _ in range(60):
        np.add(_KX, _G[0], out=qx)
        np.add(_KY, _G[1], out=qy)
        np.multiply(qx, qx, out=q2)
        np.multiply(qy, qy, out=qy)
        q2 += qy
        np.multiply(qx, 0.5, out=qx)
        np.add(qx, q2, out=qx)
        np.add(q2, 4.0, out=q2)
        np.multiply(q2, q2, out=q2)
        np.divide(qx, q2, out=qx)
        float(qx.sum())


_G_LARGE = np.random.default_rng(0).normal(scale=300.0, size=(2, 50_000))


def _numpy_large_kernel() -> None:
    qx = _KX + _G_LARGE[0]
    qy = _KY + _G_LARGE[1]
    q2 = qx * qx + qy * qy
    float(np.sum((0.5 * qx + q2) / (q2 + 4.0) ** 2))


def _timed(kernel) -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def _serve() -> None:
    _numpy_large_kernel()                 # no timed call pays first-call costs
    for line in sys.stdin:
        if line.strip() != "numpy-large":
            raise ValueError("unknown kernel %r" % line.strip())
        print(_timed(_numpy_large_kernel), flush=True)


class Calibrator:
    """Kernel timer; ``close`` stops the helper process, if one was started."""

    REFERENCE_S = REFERENCE_S

    def __init__(self, kind: str):
        self._proc = None
        if kind == "numpy-large":
            self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                          stdout=subprocess.PIPE, text=True)
        _python_kernel()                  # first calls warm caches
        _numpy_kernel()

    def measure(self, kind: str) -> float:
        """Seconds one run of the named kernel takes now."""
        if kind == "python":
            return _timed(_python_kernel)
        if kind == "numpy":
            return _timed(_numpy_kernel)
        self._proc.stdin.write(kind + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration helper exited (code %s)" % self._proc.poll())
        return float(line)

    @staticmethod
    def calibrated(wall: float, kind: str, before: float, after: float) -> float:
        """Wall seconds rescaled to the reference host, given the kernel's
        seconds measured right before and right after them."""
        return wall * REFERENCE_S[kind] / (0.5 * (before + after))

    def close(self) -> None:
        if self._proc is not None:
            self._proc.stdin.close()
            self._proc.wait(timeout=60)


if __name__ == "__main__":
    _serve()
