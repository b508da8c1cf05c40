"""Record refs.json: the expected output for every entry of every input pool.

Usage (from the repository root): python3 perfbench/make_refs.py

Run it only at a commit whose outputs are trusted; the benchmark compares
later commits against these values (see workloads.RTOL).
"""

from __future__ import annotations

import itertools
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402


def tables(ctx, text: str, out: Path) -> dict:
    """Run one config the way the benchmark does; rows of each written table."""
    op = wl.ScenarioOp("ref", text, "", ())
    paths = wl.execute(op, wl.prepare(op, ctx), ctx, out)
    return {Path(p).stem: wl.read_rows(p) for p in paths}


def by_first_column(rows, key_prefix: str) -> dict:
    out: dict = {}
    for row in rows:
        out.setdefault("%s%r" % (key_prefix, row[0]), []).append(row[1:])
    return out


def main() -> int:
    ctx = wl.Context()
    refs: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        refs["film"] = {}
        for preset in wl.PRESETS:
            (rows,) = tables(ctx, wl.film_config(preset, wl.FILM_BETAS), out).values()
            refs["film"].update(by_first_column(rows, preset + "|"))
        (rows,) = tables(ctx, wl.film_config("bcc100", wl.SMOOTH_BETAS, True), out).values()
        refs["film-smooth"] = by_first_column(rows, "")
        refs["nuclide-info"] = {
            name: next(iter(tables(ctx, wl.info_config(name), out).values()))
            for name in wl.INFO_CHOICES}
        refs["single-sweep"] = {}
        sweep_betas = [b for stratum in wl.SWEEP_STRATA for b in stratum]
        for nuc, r_perp in itertools.product(wl.NUCLIDES, wl.R_PERPS):
            (rows,) = tables(ctx, wl.sweep_config(nuc, r_perp, sweep_betas), out).values()
            for row in rows:
                refs["single-sweep"]["%s|%r|%r" % (nuc, r_perp, row[0])] = row
        refs["array-pattern"] = {
            "%r|%r|%r" % combo: {name: wl.summarise(rows) for name, rows
                                 in tables(ctx, wl.array_config(*combo), out).items()}
            for combo in itertools.product(wl.ARRAY_BETAS, wl.ARRAY_SPACINGS,
                                           wl.ARRAY_STANDOFFS)}
        refs["brems-compare"] = {
            "%s|%r|%r" % combo: {name: wl.summarise(rows) for name, rows
                                 in tables(ctx, wl.brems_config(*combo), out).items()}
            for combo in itertools.product(wl.NUCLIDES, wl.BREMS_BETAS, wl.R_PERPS)}
    wl.REFS_PATH.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n",
                            encoding="utf-8")
    print("wrote %s" % wl.REFS_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
