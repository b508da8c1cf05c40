"""Print digests of nucsp's outputs and its input messages, so that a change
can be checked bit for bit against another tree:

    python3 tools/digest.py                  # this tree's six sections
    python3 tools/digest.py --against TREE   # the sections that differ in TREE

Each section starts with a ``== name`` line:

- ``csv``: one SHA-256 per CSV that the shipped configs write, and one over
  all of them.  Each config in the tree's configs/ is validated and run with
  the built-in nuclides and lattices, as ``nucsp run`` runs it without
  NUCSP_DATA_DIR; nothing is written.  A table's digest covers the CSV text,
  header and data rows, with the ``#`` metadata lines skipped (they hold the
  timestamp, the version and the config's own hash).  The overall digest
  covers the lines before it, in table-name order.
- ``cones``: one SHA-256 over the Fe-57 cone weights of a fixed set of
  films, one ``lattice beta n cos_theta.hex() weight.hex()`` line per cone:
  bcc100, fcc100 and sc100 at 20 betas in [0.5, 0.975] and the hard 1 pm
  cutoff, with ``order_cap`` 12 and without it; the same three at the
  smooth 3 pm cutoff at betas 0.90 to 0.96, with ``order_cap`` 12, where a
  cone sum takes three extraction levels; and the quarter-offset lattice of
  ``tests/test_crystal_sp.py`` (a = 0.30 nm, offset (0.075, 0.075) nm,
  b_z = 0.10 nm) at the presets' betas and cutoff.
- ``mc``: ``label repr(mean)`` of ``mc_plane_average`` for the three
  recorded means of ``tests/test_finite_array.py`` (Fe-57, a = 0.2856 nm,
  half_extent 8, 3000 samples), each with the control variate and without
  it, and for the benchmark's plane-mc call (electron at beta 0.9, the sc100
  lattice constant, half_extent 20, r_min 1 pm, 1e4 samples) at four
  directions and seeds.
- ``bessel``: one SHA-256 over ``x.hex() K0.hex() K1.hex()`` lines of
  ``bessel_k01``, first on the whole grid as one array, then on each point
  as a float.  The grid is 4001 points log-spaced over [1e-8, 800] and 2, 10
  and 700 with the two doubles next to each.
- ``brems``: one SHA-256 over ``.hex()`` lines of ``br_spectral_density``
  (Z_n 26) at 0, 1, 7, 8, 9, 41, 1023, 1025 and 10,000 frequencies
  geometrically spaced over [0.5, 2] times Fe-57's line, for an electron at
  beta 0.5, 0.9 and 1 - 1e-9 and a proton at 0.6, each at r_perp_nm 1 pm
  and 3 nm; then over the CSV data rows (header included, ``#`` lines
  skipped) of two single-sweeps run through ``run_scenario``: 400 betas over
  [0.3, 0.999] on Fe-57 and 700 ``r_perp_nm`` values over [1e-4, 10] nm on
  Dy-161.
- ``messages``: one ``label: errors`` line per case, the messages joined by
  `` | `` (``ok`` for none).  Each row of ``CONFIG``, ``PROBE``, every
  ``PARAMS`` table and ``OUTPUT`` is set, one at a time in a config that
  validates, to each of its bounds, one step outside each, and a value of a
  wrong type, and the config goes through ``validate_config``; each row of
  ``NUCLIDE`` and ``LATTICE`` likewise in a data-file block, read by
  ``parse_nuclide_file`` or ``parse_lattice_file``.  An open side takes the
  extreme double (5e-324 for a positive number) and the step beyond it; a
  ``beta`` row takes [``BETA_MIN``, 1), and a list row a non-list, an empty
  list, a decreasing pair and one-beta lists at those bounds.  A last case
  gives an electron a kinetic energy whose speed is below the floor.  Only
  names that every tree has are read, so the lines of two trees compare.

With ``--against TREE`` the sections are computed for this tree and, with
TREE's src/ and configs/, for TREE, each in its own process; for every
section that differs, the lines that each tree gives and the other does not
are printed, then a count of the sections that differ, and the exit status
is 1 if any does (2 if a tree cannot be digested, such as one without
src/nucsp).  TREE needs no copy of this tool.  The nucsp imported is always
the tree's own src/, whatever else is installed.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

BETAS = tuple(round(0.5 + 0.025 * i, 3) for i in range(20))
SMOOTH_BETAS = (0.9, 0.91, 0.92, 0.93, 0.94, 0.95, 0.96)
# (beta, theta, phi, r_min_nm, seed) of the recorded means
RECORDED = ((0.9, 1.0, 0.3, 0.001, 5), (0.5, 2.0, 1.1, 0.002, 7),
            (0.99, 0.6, 4.0, 0.001, 9))
# (theta, phi, seed) of the plane-mc calls
PLANE_MC = ((0.5, 0.0, 1), (1.0, 0.3, 2), (1.6, 2.5, 3), (2.4, 5.0, 4))
# frequency counts of the brems section: the 8-frequency blocks' edges, one
# either side of 1024 (a grid block of one row) and the n_energy cap
BREMS_COUNTS = (0, 1, 7, 8, 9, 41, 1023, 1025, 10_000)


def fail(message: str) -> None:
    print("digest: " + message, file=sys.stderr)
    sys.exit(2)


def _table_rows(table) -> str:
    """A result table's CSV text without its ``#`` metadata lines."""
    return "".join(line for line in table.to_csv().splitlines(keepends=True)
                   if not line.startswith("#"))


def csv_section(configs: Path) -> list[str]:
    from nucsp.scenarios import run_scenario, validate_config

    digests = {}
    for path in sorted(configs.glob("*.yaml")):
        config, errors = validate_config(path.read_text(encoding="utf-8"))
        if errors:
            fail("%s: %s" % (path, "; ".join(errors)))
        for table in run_scenario(config):
            digests[table.name + ".csv"] = hashlib.sha256(_table_rows(table).encode()).hexdigest()
    lines = ["%s  %s" % (digests[name], name) for name in sorted(digests)]
    total = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    return lines + ["%s  %d tables" % (total, len(lines))]


def cone_section() -> list[str]:
    from nucsp.crystal_sp import CutoffPolicy, LatticeFilm, emission_cones, make_film
    from nucsp.nuclide import registry
    from nucsp.probe import electron

    hard = CutoffPolicy(0.001)
    cases = [(make_film(p), hard, BETAS, cap) for p in ("bcc100", "fcc100", "sc100")
             for cap in (12, None)]
    smooth = CutoffPolicy(0.003, smooth=True)
    cases += [(make_film(p), smooth, SMOOTH_BETAS, 12) for p in ("bcc100", "fcc100", "sc100")]
    cases.append((LatticeFilm("quarter", 0.30, (0.075, 0.075), 0.10), hard, BETAS, None))
    rec = registry()["Fe-57"]
    digest = hashlib.sha256()
    n_cones = 0
    for film, policy, betas, cap in cases:
        for beta in betas:
            for cone in emission_cones(electron(beta=beta), rec, film, policy, cap):
                digest.update(("%s %r %d %s %s\n" % (
                    film.preset, beta, cone.n, cone.cos_theta.hex(),
                    cone.weight.hex())).encode())
                n_cones += 1
    return ["%s  %d cones" % (digest.hexdigest(), n_cones)]


def mc_section() -> list[str]:
    from nucsp.crystal_sp import make_film
    from nucsp.finite_array import mc_plane_average
    from nucsp.nuclide import registry
    from nucsp.probe import electron

    fe = registry()["Fe-57"]
    lines = []
    for beta, theta, phi, r_min, seed in RECORDED:
        for cv in (True, False):
            mean = mc_plane_average(electron(beta=beta), fe, 0.2856, 8, theta, phi, r_min,
                                    3000, seed=seed, control_variate=cv)
            lines.append("recorded beta=%r theta=%r phi=%r cv=%s %r" % (beta, theta, phi, cv, mean))
    a_nm = make_film("sc100").a_nm
    for theta, phi, seed in PLANE_MC:
        mean = mc_plane_average(electron(beta=0.9), fe, a_nm, 20, theta, phi, 0.001, 10_000,
                                seed=seed)
        lines.append("plane-mc theta=%r phi=%r seed=%d %r" % (theta, phi, seed, mean))
    return lines


def bessel_section() -> list[str]:
    import numpy as np
    from nucsp.numerics import bessel_k01

    edges = [np.nextafter(v, d) for v in (2.0, 10.0, 700.0) for d in (0.0, v, np.inf)]
    xs = np.concatenate([np.geomspace(1e-8, 800.0, 4001), edges])
    digest = hashlib.sha256()
    for k0, k1 in (bessel_k01(xs), np.array([bessel_k01(float(x)) for x in xs]).T):
        for x, a, b in zip(xs, k0, k1):
            digest.update(("%s %s %s\n" % (float(x).hex(), float(a).hex(), float(b).hex())).encode())
    return ["%s  %d points" % (digest.hexdigest(), 2 * xs.size)]


def brems_section() -> list[str]:
    import numpy as np
    from nucsp.brems import br_spectral_density
    from nucsp.nuclide import registry
    from nucsp.probe import electron, proton
    from nucsp.scenarios import run_scenario, validate_config

    omega0 = registry()["Fe-57"].omega0_rad_s
    digest = hashlib.sha256()
    n_values = 0
    for probe in (electron(beta=0.5), electron(beta=0.9), electron(beta=1.0 - 1e-9),
                  proton(beta=0.6)):
        for r in (0.001, 3.0):
            for n in BREMS_COUNTS:
                density = br_spectral_density(probe, 26, r, omega0 * np.geomspace(0.5, 2.0, n))
                digest.update("".join(v.hex() + "\n" for v in density.tolist()).encode())
                n_values += n
    sweeps = (("Fe-57", "beta", np.linspace(0.3, 0.999, 400), "r_perp_nm: 0.001, "),
              ("Dy-161", "r_perp_nm", np.geomspace(1e-4, 10.0, 700), ""))
    n_rows = 0
    for nuclide, variable, values, extra in sweeps:
        text = ("scenario: single-sweep\nnuclide: %s\nprobe: {species: electron, beta: 0.9}\n"
                "params: {sweep_variable: %s, %ssweep_values: [%s]}\n"
                % (nuclide, variable, extra, ", ".join(repr(v) for v in values.tolist())))
        config, errors = validate_config(text)
        if errors:
            fail("brems sweep: " + "; ".join(errors))
        for table in run_scenario(config):
            digest.update(_table_rows(table).encode())
            n_rows += len(table.rows)
    return ["%s  %d densities, %d sweep rows" % (digest.hexdigest(), n_values, n_rows)]


def _row_values(kind, bound, beta_min):
    """Each bound of a row, one step outside each, and a value of a wrong type."""
    if kind in ("positive", "number"):
        lo, hi = bound if isinstance(bound, tuple) else (None, None)
        lo = lo if lo is not None else (5e-324 if kind == "positive" else -sys.float_info.max)
        hi = hi if hi is not None else sys.float_info.max
        return [lo, hi, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf), "x"]
    if kind == "beta":
        return [beta_min, math.nextafter(1.0, 0.0), math.nextafter(beta_min, 0.0), 1.0, "x"]
    if kind == "increasing":  # every list row's values are betas by default
        return ["x", [], [0.9, 0.5], *([v] for v in _row_values("beta", None, beta_min)[:4])]
    if kind == "int":
        return [bound[0], bound[1], bound[0] - 1, bound[1] + 1, 1.5]
    if kind == "nonzero":
        return [bound, -bound, 0, bound + 1, -bound - 1, 1.5]
    if kind == "bool":
        return [True, False, "false"]
    if kind == "prefix":
        return ["a b", "", 1, *(bound or ())]
    return ["nope", 1]  # a choice


def messages_section() -> list[str]:
    import yaml
    from nucsp.crystal_sp import LATTICE, parse_lattice_file
    from nucsp.nuclide import NUCLIDE, parse_nuclide_file, registry
    from nucsp.probe import BETA_MIN
    from nucsp.scenarios import CONFIG, OUTPUT, PARAMS, PROBE, validate_config

    electron = {"species": "electron", "beta": 0.9}
    custom = {"species": "custom", "beta": 0.9, "rest_energy_eV": 9.4e8, "z_charge": 2}
    cases = [("config", {"scenario": "array-pattern", "probe": electron}, None, CONFIG)]
    cases += [("probe", {"scenario": "array-pattern", "probe": custom}, "probe", PROBE)]
    for scenario, rows in PARAMS.items():
        doc = {"scenario": scenario, "params": {}}
        if scenario != "nuclide-info":
            doc["probe"] = electron
        if scenario == "single-sweep":
            doc["params"] = {"sweep_values": [0.9]}
        cases.append((scenario, doc, "params", rows))
    cases.append(("output", {"scenario": "nuclide-info", "output": {}}, "output", OUTPUT))

    lines = []
    for label, base, block, rows in cases:
        for row in rows:
            for value in _row_values(row.kind, row.bound, BETA_MIN):
                doc = {key: dict(v) if isinstance(v, dict) else v for key, v in base.items()}
                where = doc[block] if block else doc
                if row.name == "kinetic_energy_eV":
                    del where["beta"]
                where[row.name] = value
                errors = validate_config(yaml.safe_dump(doc, sort_keys=False))[1]
                lines.append("%s %s=%r: %s" % (label, row.name, value, " | ".join(errors) or "ok"))
    doc = {"scenario": "array-pattern", "probe": {"species": "electron",
                                                   "kinetic_energy_eV": 1e-140}}
    errors = validate_config(yaml.safe_dump(doc, sort_keys=False))[1]
    lines.append("kinetic-energy-below-floor: %s" % " | ".join(errors))

    fe = registry()["Fe-57"]
    blocks = (("nuclides.dat", NUCLIDE, parse_nuclide_file,
               {row.name: repr(getattr(fe, row.name)) for row in NUCLIDE[1:]}),
              ("lattices.dat", LATTICE, parse_lattice_file,
               {"a_nm": "0.3", "b_par_x_nm": "0.15", "b_par_y_nm": "0.15", "b_z_nm": "0.21"}))
    with tempfile.TemporaryDirectory() as tmp:
        for filename, rows, parse, values in blocks:
            path = Path(tmp) / filename
            for row in rows:
                for value in _row_values(row.kind, row.bound, BETA_MIN):
                    block = {"name": "X", **values}
                    block[row.name] = value if isinstance(value, str) else repr(value)
                    path.write_text("".join("%s = %s\n" % kv for kv in block.items()))
                    try:
                        parse(path)
                        message = "ok"
                    except ValueError as exc:
                        message = str(exc).replace(str(path), filename)
                    lines.append("%s %s=%r: %s" % (filename, row.name, value, message))
    return lines


def sections(tree: Path) -> dict[str, list[str]]:
    """Every section, computed with the nucsp of tree's src/."""
    if not (tree / "src" / "nucsp").is_dir():
        fail("%s: no src/nucsp" % tree)
    sys.path.insert(0, str(tree / "src"))
    return {"csv": csv_section(tree / "configs"), "cones": cone_section(),
            "mc": mc_section(), "bessel": bessel_section(), "brems": brems_section(),
            "messages": messages_section()}


def render(name: str, lines: list[str]) -> str:
    return "== %s\n%s\n" % (name, "\n".join(lines))


def run_in(tree: Path) -> dict[str, list[str]]:
    """sections(tree) in a fresh process, so that each tree imports its own nucsp."""
    proc = subprocess.run([sys.executable, __file__, "--tree", str(tree)],
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode:
        sys.exit(2)  # the child has said why on stderr
    parsed: dict[str, list[str]] = {}
    for line in proc.stdout.splitlines():
        if line.startswith("== "):
            lines = parsed[line[3:]] = []
        else:
            lines.append(line)
    return parsed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", type=Path, metavar="TREE",
                    help="compare every section with TREE's; exit 1 if any differs")
    ap.add_argument("--tree", type=Path, default=ROOT, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.against is None:
        print("".join(render(name, lines) for name, lines in sections(args.tree).items()), end="")
        return 0
    against = args.against.resolve()
    here, there = run_in(args.tree), run_in(against)
    differ = [name for name in here if here[name] != there.get(name)]
    for name in differ:
        mine, theirs = here[name], there.get(name, [])
        print(render("%s differs, %s" % (name, args.tree),
                     [line for line in mine if line not in theirs]), end="")
        print(render("%s differs, %s" % (name, against),
                     [line for line in theirs if line not in mine]), end="")
    print("%d of %d sections differ" % (len(differ), len(here)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
