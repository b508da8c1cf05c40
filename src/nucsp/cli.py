"""Command-line entry point.

Subcommands:

  run CONFIG        validate a YAML scenario config, execute it, write CSVs
  validate CONFIG   check a config and report every problem found
  list-nuclides     show the resonance registry under the nuclides.dat keys
  list-lattices     show the film presets under the lattices.dat keys

Exit codes: 0 on success, 1 for validation problems, 2 for runtime failures
(unreadable files, data file errors).  A reader that closes the output pipe
early, as in `nucsp list-nuclides | head -1`, ends the command quietly with 0.

If the NUCSP_DATA_DIR environment variable points at a directory, any
nuclides.dat and lattices.dat files inside it are loaded on top of the
built-in registries; entries with matching names override the built-ins.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .crystal_sp import LATTICE, builtin_presets, parse_lattice_file
from .nuclide import NUCLIDE, parse_nuclide_file, radiative_rate, registry as nuclide_registry
from .scenarios import run_scenario, validate_config, write_tables

DATA_DIR_ENV = "NUCSP_DATA_DIR"


def _load_registries():
    """Built-in nuclides and lattices, plus any NUCSP_DATA_DIR overlays."""
    reg, films = nuclide_registry(), builtin_presets()
    data_dir = os.environ.get(DATA_DIR_ENV)
    for name, table, parse in (("lattices.dat", films, parse_lattice_file),
                               ("nuclides.dat", reg, parse_nuclide_file)):
        path = Path(data_dir) / name if data_dir else None
        if path and path.is_file():
            table.update(parse(path))
    return reg, films


def _validated(path):
    """Read and validate a config file, printing any problems to stderr.

    Returns (config or None, nuclide registry, films).
    """
    text = Path(path).read_text(encoding="utf-8")
    reg, films = _load_registries()
    config, errors = validate_config(text, reg, films)
    for e in errors:
        print(e, file=sys.stderr)
    return config, reg, films


def _cmd_run(args) -> int:
    config, reg, films = _validated(args.config)
    if config is None:
        return 1
    tables = run_scenario(config, seed=args.seed, registry=reg, films=films)
    for path in write_tables(tables, args.out):
        print(path)
    return 0


def _cmd_validate(args) -> int:
    config, _, _ = _validated(args.config)
    if config is None:
        return 1
    print("ok: %s scenario for %s" % (config.scenario, config.nuclide))
    return 0


def _cmd_list_nuclides(args) -> int:
    reg, _ = _load_registries()
    keys = [row.name for row in NUCLIDE]
    print("%-10s %10s %12s %10s %4s %4s %14s %12s %8s" % (*keys, "tau_rad_s", "f"))
    for rec in reg.values():
        f = rec.coherent_fraction
        print("%-10s %10.4f %12.4g %10.4g %4d %4d %14.4g %12.4g %8s" % (
            *(getattr(rec, key) for key in keys),
            1.0 / radiative_rate(rec), "%d/%d" % (f.numerator, f.denominator)))
    return 0


def _cmd_list_lattices(args) -> int:
    _, films = _load_registries()
    print("%-10s %8s %10s %10s %10s %10s %7s" % (*(r.name for r in LATTICE), "d_nm", "planes"))
    for name, film in films.items():
        print("%-10s %8.4f %10.4f %10.4f %10.4f %10.4f %7d" % (
            name, film.a_nm, *film.b_par_nm, film.b_z_nm,
            film.z_period_nm, film.stack_period))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nucsp",
        description="Resonant nuclear gamma-ray emission from relativistic "
                    "charges near nuclei, arrays, and crystal films.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("config", help="YAML scenario file")
    p_run.add_argument("--out", default=".", help="output directory (default: .)")
    p_run.add_argument("--seed", type=int, default=1,
                       help="random seed recorded in table metadata (default: 1)")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check a config without running it")
    p_val.add_argument("config", help="YAML scenario file")
    p_val.set_defaults(func=_cmd_validate)

    p_ln = sub.add_parser("list-nuclides", help="show the resonance registry")
    p_ln.set_defaults(func=_cmd_list_nuclides)

    p_ll = sub.add_parser("list-lattices", help="show film geometry presets")
    p_ll.set_defaults(func=_cmd_list_lattices)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the exit flush
        return code
    except BrokenPipeError:
        # the reader stopped early; stdout's buffer goes to devnull, so the
        # exit flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as exc:  # DataFileError is a ValueError
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
