"""Print the Monte-Carlo plane averages of a fixed set of cases, one ``repr``
per line, so that a change to finite_array.mc_plane_average can be checked
against another tree:

    python3 tools/mc_digest.py

The cases are:

- the three recorded means of ``tests/test_finite_array.py`` (Fe-57, a =
  0.2856 nm, half_extent 8, 3000 samples, at their beta, theta, phi, r_min
  and seed), each with the control variate and without it;
- the benchmark's plane-mc call (Fe-57, electron at beta 0.9, the sc100
  lattice constant, half_extent 20, r_min 1 pm, 1e4 samples) at four
  directions and seeds.

Each line is ``label repr(mean)``.  Two trees are compared line by line; the
Monte-Carlo draws are the same, so their means differ by rounding only.
The nucsp imported is this tree's src/, whatever else is installed.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nucsp.crystal_sp import make_film  # noqa: E402
from nucsp.finite_array import mc_plane_average  # noqa: E402
from nucsp.nuclide import registry  # noqa: E402
from nucsp.probe import electron  # noqa: E402

# (beta, theta, phi, r_min_nm, seed) of the recorded means
RECORDED = ((0.9, 1.0, 0.3, 0.001, 5), (0.5, 2.0, 1.1, 0.002, 7),
            (0.99, 0.6, 4.0, 0.001, 9))
# (theta, phi, seed) of the plane-mc calls
PLANE_MC = ((0.5, 0.0, 1), (1.0, 0.3, 2), (1.6, 2.5, 3), (2.4, 5.0, 4))


def cases():
    """(label, args, control_variate, seed) in print order."""
    for beta, theta, phi, r_min, seed in RECORDED:
        for cv in (True, False):
            yield ("recorded beta=%r theta=%r phi=%r cv=%s" % (beta, theta, phi, cv),
                   (electron(beta=beta), 0.2856, 8, theta, phi, r_min, 3000), cv, seed)
    a_nm = make_film("sc100").a_nm
    for theta, phi, seed in PLANE_MC:
        yield ("plane-mc theta=%r phi=%r seed=%d" % (theta, phi, seed),
               (electron(beta=0.9), a_nm, 20, theta, phi, 0.001, 10_000), True, seed)


def main() -> None:
    fe = registry()["Fe-57"]
    for label, (probe, *rest), cv, seed in cases():
        print(label, repr(mc_plane_average(probe, fe, *rest, seed=seed, control_variate=cv)))


if __name__ == "__main__":
    main()
