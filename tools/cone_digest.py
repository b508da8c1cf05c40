"""Print one SHA-256 digest over the Fe-57 cone weights of a fixed set of films,
so that a change to the film path can be checked bit for bit against another
tree:

    python3 tools/cone_digest.py

Each cone adds the line ``lattice beta n cos_theta.hex() weight.hex()`` to
the digest, with beta as its ``repr``.  The cases are:

- bcc100, fcc100 and sc100 at 20 betas in [0.5, 0.975] and the hard 1 pm
  cutoff, with ``order_cap`` 12 and without it;
- bcc100 at the smooth 3 pm cutoff at betas 0.90 to 0.96;
- the quarter-offset lattice of ``tests/test_crystal_sp.py`` (a = 0.30 nm,
  offset (0.075, 0.075) nm, b_z = 0.10 nm, four planes per period) at the
  same 20 betas and cutoff as the presets.

The digest and the number of cones go to stdout.  Only the Fe-57 record and
nucsp's film path are used; the per-vector oracle of the tests is not run.
The nucsp imported is this tree's src/, whatever else is installed.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from nucsp.crystal_sp import CutoffPolicy, LatticeFilm, emission_cones, make_film  # noqa: E402
from nucsp.nuclide import registry  # noqa: E402
from nucsp.probe import electron  # noqa: E402

BETAS = tuple(round(0.5 + 0.025 * i, 3) for i in range(20))
SMOOTH_BETAS = (0.9, 0.91, 0.92, 0.93, 0.94, 0.95, 0.96)
HARD = CutoffPolicy(0.001)
SMOOTH = CutoffPolicy(0.003, smooth=True)
QUARTER = LatticeFilm("quarter", 0.30, (0.075, 0.075), 0.10)


def cases():
    """(film, policy, betas, order_cap) in digest order."""
    for preset in ("bcc100", "fcc100", "sc100"):
        for cap in (12, None):
            yield make_film(preset), HARD, BETAS, cap
    yield make_film("bcc100"), SMOOTH, SMOOTH_BETAS, 12
    yield QUARTER, HARD, BETAS, None


def main() -> None:
    rec = registry()["Fe-57"]
    digest = hashlib.sha256()
    n_cones = 0
    for film, policy, betas, cap in cases():
        for beta in betas:
            for cone in emission_cones(electron(beta=beta), rec, film, policy, cap):
                digest.update(("%s %r %d %s %s\n" % (
                    film.preset, beta, cone.n, cone.cos_theta.hex(),
                    cone.weight.hex())).encode())
                n_cones += 1
    print("%s  %d cones" % (digest.hexdigest(), n_cones))


if __name__ == "__main__":
    main()
