"""Write the scipy-quad references that tests/test_brems.py's
``test_spectral_density_vs_quad`` reads, so the tier-1 run does not
recompute all 64 of them.

    python3 tools/gen_brems_refs.py

writes ``tests/data/brems_quad_refs.txt``, one line per case of ``cases()``,
``species beta r_perp_nm e_eV epsrel value`` with the numbers as ``repr``
floats; value is ``quad_spectral_density`` below, run at that epsrel.  The
test recomputes every 8th case live and requires it within epsrel of the
stored value.

The integrand is nucsp's own ``brems._density_values``; only the quadrature
is independent.  Runs with the nucsp of this tree's src/.  Needs scipy, a
test extra: nucsp itself never imports it.
"""

from __future__ import annotations

import itertools
import math
import sys
import warnings
from pathlib import Path

import numpy as np
from scipy.integrate import IntegrationWarning, quad

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from nucsp.brems import _density_values  # noqa: E402
from nucsp.numerics import CONSTANTS  # noqa: E402
from nucsp.probe import SPECIES, Probe  # noqa: E402

OUT = ROOT / "tests" / "data" / "brems_quad_refs.txt"
Z_NUCLEUS = 26


def cases() -> list[tuple[str, float, float, float, float]]:
    """(species, beta, r_perp_nm, e_eV, epsrel): 48 cases up to gamma ~ 700
    at epsrel 1e-13, then 16 near beta = 1, where the double cos(theta)
    itself limits both sides, at 1e-10."""
    far = itertools.product(SPECIES, (0.5, 0.9, 0.999, 0.999999), (1e-4, 0.1),
                            (6e3, 43.8e3, 100e3), (1e-13,))
    near = itertools.product(SPECIES, (1.0 - 1e-8, 1.0 - 1e-9), (1e-4, 0.1),
                             (6e3, 100e3), (1e-10,))
    return [*far, *near]


def quad_spectral_density(probe, z_nucleus, r_perp_nm, omega, epsrel):
    """scipy quad in cos(theta), split at 1 - 4^j / gamma^2 so each panel
    holds one scale of the forward cone, times an exact 16-point phi grid."""
    phis = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)

    def f(c):
        vals = _density_values(probe, z_nucleus, r_perp_nm, np.array([c]), phis, omega)
        return float(vals.sum()) * (2.0 * math.pi / 16)

    g2 = probe.gamma ** 2
    cuts = [1.0 - 4.0 ** j / g2 for j in range(40, -2, -1) if 4.0 ** j / g2 < 2.0]
    edges = [-1.0] + cuts + [1.0]
    return math.fsum(quad(f, a, b, epsabs=0.0, epsrel=epsrel, limit=200)[0]
                     for a, b in zip(edges, edges[1:]))


def reference(species, beta, r_perp_nm, e_eV, epsrel) -> float:
    """One case's quad value; quad's roundoff warnings near beta = 1 are
    expected and silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad_spectral_density(Probe(*SPECIES[species], beta), Z_NUCLEUS, r_perp_nm,
                                     e_eV / CONSTANTS.hbar_eV_s, epsrel)


def read(path=OUT) -> list[tuple]:
    """The stored rows: the case, then its value."""
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.startswith("#"):
            species, *numbers = line.split()
            rows.append((species, *map(float, numbers)))
    return rows


def main():
    lines = ["# species beta r_perp_nm e_eV epsrel value, written by tools/gen_brems_refs.py"]
    for case in cases():
        lines.append(" ".join([case[0], *map(repr, (*case[1:], reference(*case)))]))
    OUT.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
