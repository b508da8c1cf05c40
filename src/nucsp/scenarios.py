"""Scenario orchestration: YAML configs in, deterministic CSV tables out.

Five scenarios cover the library surface:

  nuclide-info    resonance data, decay channels, coherent fraction
  single-sweep    single-nucleus yield and bremsstrahlung window vs beta or
                  impact parameter
  array-pattern   angular interference pattern of a short linear chain
  crystal-yield   per-layer cone weights and totals for a periodic film
  brems-compare   resonant line vs bremsstrahlung continuum, spectrally and
                  in time

Validation checks the top-level keys and the probe, params and output blocks
against one table of rows each (CONFIG, PROBE, PARAMS per scenario, OUTPUT;
rows._validate_block, as for the data files), then the cross-field rules
once every field has passed, and reports every problem found, each tagged
with the config path that caused it.  Runs are deterministic: rows are
computed in input order on the calling thread, so no output can depend on a
thread count.  The only non-reproducible output line is the timestamp
metadata entry.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from types import MappingProxyType
from typing import Any, Iterable, Mapping

import numpy as np
import yaml

from . import __version__
from .brems import _window_yields, br_spectral_density
from .brems import br_window_yield  # noqa: F401  (traced by perfbench/spans.py)
from .crystal_sp import (R_MIN, CutoffPolicy, LatticeFilm, _cone_sets,
                         _grid_half_width, builtin_presets, first_radiating_order)
from .crystal_sp import emission_cones  # noqa: F401  (traced by perfbench/spans.py)
from .finite_array import _line_density
from .finite_array import angular_density  # noqa: F401  (traced by perfbench/spans.py)
from .nuclide import NuclideRecord, radiative_rate, registry as nuclide_registry
from .numerics import CONSTANTS
from .probe import (BETA, DISTANCE, MAX_Z, R_PERP, REST_ENERGY, SPECIES, Z_CHARGE, Probe,
                    beta_from_kinetic)
from .rows import REQUIRED, Param, _validate_block
from .single_nucleus import coherent_yield, decay_profile, spectral_profile

__all__ = [
    "ScenarioConfig",
    "ResultTable",
    "validate_config",
    "run_scenario",
    "write_tables",
    "parse_result_table",
    "SCENARIOS",
]

_TOP_KEYS = {"scenario", "nuclide", "probe", "params", "output"}
# What registry=None and films=None mean, built once; read-only, as every call shares them
_REGISTRY = MappingProxyType(nuclide_registry())
_FILMS = MappingProxyType(builtin_presets())


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated run request; params carry scenario defaults already applied."""

    scenario: str
    nuclide: str
    probe: Probe | None
    params: Mapping[str, Any]
    prefix: str
    raw_text: str


# ---------------------------------------------------------------------------
# validation

# BETA, REST_ENERGY and Z_CHARGE are Probe's rows; cross-field rules: _build_probe
PROBE = (
    Param("species", "choice", "electron", (*SPECIES, "custom")),
    BETA,
    Param("kinetic_energy_eV", "positive", None),
    REST_ENERGY,
    Z_CHARGE,
)
BR_Z_NUCLEUS = Param("br_z_nucleus", "nonzero", 26, MAX_Z)
OUTPUT = (Param("prefix", "prefix", "result"),)
PARAMS = {
    "nuclide-info": (),
    "single-sweep": (
        Param("sweep_variable", "choice", "beta", ("beta", "r_perp_nm")),
        Param("sweep_values", "increasing", REQUIRED,
              lambda p, ctx: BETA if p["sweep_variable"] == "beta" else R_PERP),
        R_PERP,
        BR_Z_NUCLEUS,
        Param("br_window_eV", "positive", 1.0),
    ),
    "array-pattern": (
        # phase precision: the inputs fix the step (tens of rad) to eps of its
        # size, so the chain's end phase to N eps |step|, 3e-9 rad at the cap
        Param("n_nuclei", "int", 10, (2, 1_000_000)),
        # 1 mm is far above any lattice and far below the 4e298 nm (Dy-161)
        # where the phase step per unit cos(theta) leaves the double range
        Param("spacing_nm", "positive", 0.286, (None, 1.0e6)),
        Param("standoff_nm", "positive", 0.01, DISTANCE),  # no closer than a nucleus's size
        Param("n_points", "int", 801, (2, 20_000)),
    ),
    "crystal-yield": (
        Param("lattice", "choice", "bcc100", lambda p, ctx: sorted(ctx["films"])),
        R_MIN,
        Param("smooth_cutoff", "bool", False),
        Param("betas", "increasing", None, BETA),
        Param("order_cap", "int", 12, (1, 100)),
    ),
    "brems-compare": (
        R_PERP,
        BR_Z_NUCLEUS,
        Param("half_span_line_widths", "positive", 25.0),
        Param("n_energy", "int", 41, (3, 10_000)),
        Param("time_max_lifetimes", "positive", 5.0),
        Param("n_time", "int", 51, (2, 100_000)),
    ),
}
SCENARIOS = tuple(PARAMS)
CONFIG = (  # the top-level keys other than the blocks
    Param("scenario", "choice", REQUIRED, SCENARIOS),
    Param("nuclide", "choice", "Fe-57", lambda p, ctx: (*ctx["registry"], "all")),
)

# Ceiling on br_window_eV / E0, where br_window_yield's three-point rule holds
# 2e-7 (README); its error grows as the window's fourth power
MAX_WINDOW_SHARE = 2.0e-4


def _rule_errors(scenario, p, doc, rec, films, probe):
    """Cross-field rules, run once every field has passed its own check; doc
    is the config as written, which tells a key from a default."""
    given = doc.get("params") or {}
    if scenario == "single-sweep" and p["sweep_variable"] == "r_perp_nm" and "r_perp_nm" in given:
        yield ("params.r_perp_nm: not taken with params.sweep_variable: r_perp_nm, "
               "whose sweep_values give the distances")
    if scenario == "single-sweep" and p["br_window_eV"] > MAX_WINDOW_SHARE * rec.e0_eV:
        yield "params.br_window_eV: must be at most %g eV (%g of the line energy)" % (
            MAX_WINDOW_SHARE * rec.e0_eV, MAX_WINDOW_SHARE)
    if scenario == "brems-compare" and (
            rec.e0_eV <= p["half_span_line_widths"] * spectral_profile(rec).fwhm_eV):
        yield "params.half_span_line_widths: span reaches zero energy; omega must be positive"
    if scenario == "crystal-yield":
        film = films[p["lattice"]]
        try:
            _grid_half_width(film, CutoffPolicy(p["r_min_nm"], p["smooth_cutoff"]))
        except ValueError as exc:
            yield "params.r_min_nm: %s" % exc
        yield from _order_cap_errors(p, rec, film, probe, doc["probe"])


def _order_cap_errors(p, rec, film, probe, block):
    """Betas at which order_cap drops every radiating order; a first order
    past 2^40 names the key that gave the beta (block: the probe as written)."""
    lam, d, cap = rec.wavelength_nm, film.z_period_nm, p["order_cap"]
    for i, beta in enumerate(p["betas"] or [probe.beta]):
        try:
            first = first_radiating_order(beta, d, lam)
        except ValueError as exc:  # no order_cap reaches that far: the speed is at fault
            key = ("params.betas[%d]" % i if p["betas"] else
                   "probe.beta" if block.get("beta") is not None else "probe.kinetic_energy_eV")
            yield "%s: %s" % (key, exc)
            continue
        if first > cap and 1.0 / beta - first * lam / d >= -1.0:
            yield ("params.order_cap: %d drops every radiating order at beta = %g "
                   "(the first is n = %d)" % (cap, beta, first))


def _build_probe(block, errors) -> Probe | None:
    """The probe from a block whose keys have passed PROBE, or None after
    appending the errors; cross-field rules run only once every key passed."""
    if block is None:
        errors.append("probe: required for this scenario")
        return None
    n_errors = len(errors)
    p = _validate_block("probe", PROBE, block, errors, None)
    if len(errors) > n_errors:
        return None
    beta, ke, custom = p["beta"], p["kinetic_energy_eV"], p["species"] == "custom"
    if (beta is None) == (ke is None):
        errors.append("probe: give exactly one of beta or kinetic_energy_eV")
    for key in ("rest_energy_eV", "z_charge"):
        if (p[key] is None) == custom:
            errors.append("probe.%s: %s" % (key, "required for custom species" if custom
                                            else "only custom species take it"))
    if len(errors) > n_errors:
        return None
    z, rest = SPECIES.get(p["species"], (p["z_charge"], p["rest_energy_eV"]))
    beta = beta if ke is None else beta_from_kinetic(ke, rest)
    try:
        return Probe(z, rest, beta)
    except ValueError:  # every key passed its row: only a speed from kinetic_energy_eV fails
        errors.append("probe.kinetic_energy_eV: gives beta = %g, outside [%g, 1)"
                      % (beta, BETA.bound))
        return None


class _ConfigLoader(yaml.SafeLoader):
    """yaml.SafeLoader that rejects a key given twice in one mapping."""

    def construct_mapping(self, node, deep=False):
        seen = []  # a list: an unhashable key is left for SafeLoader to reject
        for key_node in [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]:
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, "found duplicate key %r" % (key,), key_node.start_mark)
            seen.append(key)
        return super().construct_mapping(node, deep)


def validate_config(text: str, registry: Mapping[str, NuclideRecord] | None = None,
                    films: Mapping[str, LatticeFilm] | None = None):
    """Parse and check a YAML scenario config.

    Returns (config, errors); config is None whenever errors is non-empty.
    Every detected problem is reported, prefixed with its config path.
    """
    ctx = {"registry": _REGISTRY if registry is None else registry,
           "films": _FILMS if films is None else films}
    errors: list[str] = []
    try:
        doc = yaml.load(text, Loader=_ConfigLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = " (line %d, column %d)" % (mark.line + 1, mark.column + 1) if mark else ""
        return None, ["config: invalid YAML%s: %s" % (loc, getattr(exc, "problem", exc))]
    if not isinstance(doc, dict):
        return None, ["config: top level must be a mapping"]

    errors.extend("config.%s: unknown key" % key for key in doc if key not in _TOP_KEYS)
    top = _validate_block("", CONFIG, {row.name: doc[row.name] for row in CONFIG
                                       if row.name in doc}, errors, ctx)
    scenario = None if top["scenario"] is REQUIRED else top["scenario"]
    nuclide = top["nuclide"]
    if nuclide == "all" and scenario is not None and scenario != "nuclide-info":
        errors.append("nuclide: 'all' is only valid for nuclide-info")

    probe = None
    if scenario is not None and scenario != "nuclide-info":
        probe = _build_probe(doc.get("probe"), errors)
    elif scenario == "nuclide-info" and doc.get("probe") is not None:
        errors.append("probe: nuclide-info takes no probe block")

    params = _validate_block("params", PARAMS[scenario], doc.get("params"), errors,
                             ctx) if scenario is not None else {}
    if not errors:
        errors.extend(_rule_errors(scenario, params, doc, ctx["registry"].get(nuclide),
                                   ctx["films"], probe))
    output = _validate_block("output", OUTPUT, doc.get("output"), errors, None)

    if errors:
        return None, errors
    return ScenarioConfig(scenario=scenario, nuclide=nuclide, probe=probe,
                          params=params, prefix=output["prefix"], raw_text=text), []


# ---------------------------------------------------------------------------
# result tables


@dataclass(frozen=True, eq=False)
class ResultTable:
    """One CSV deliverable: '#' metadata lines, a header, then data rows."""

    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    meta: Mapping[str, str]

    def to_csv(self) -> str:
        """The CSV text, a column at a time: all-float columns by repr."""
        lines = ["# %s = %s" % (k, v) for k, v in self.meta.items()]
        lines.append(",".join(self.columns))
        if any(len(row) != len(self.columns) for row in self.rows):
            raise ValueError("row width does not match header")
        cells = []
        for col in zip(*self.rows):
            if all(type(v) is float for v in col):
                if not all(map(math.isfinite, col)):
                    raise ValueError("non-finite value in result table")
                cells.append(map(repr, col))
            else:
                cells.append(map(_format_cell, col))
        lines.extend(map(",".join, zip(*cells)))
        return "\n".join(lines) + "\n"


def _format_cell(v) -> str:
    if isinstance(v, str):
        if "," in v or "\n" in v:
            raise ValueError("cell strings must not contain commas or newlines")
        return v
    if isinstance(v, (bool, np.bool_)):
        raise ValueError("boolean cells are not supported")
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if not math.isfinite(f):
            raise ValueError("non-finite value in result table")
        return repr(f)
    raise ValueError("unsupported cell type %r" % type(v).__name__)


def parse_result_table(text: str):
    """Inverse of ResultTable.to_csv: returns (meta, columns, rows of strings)."""
    meta: dict[str, str] = {}
    columns: list[str] = []
    rows: list[list[str]] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif not columns:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, columns, rows


def write_tables(tables: Iterable[ResultTable], out_dir) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for table in tables:
        path = out / (table.name + ".csv")
        path.write_text(table.to_csv(), encoding="utf-8")
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# runners


def _run_nuclide_info(config, reg, films):
    names = list(reg) if config.nuclide == "all" else [config.nuclide]

    def row(name):
        rec = reg[name]
        f = rec.coherent_fraction
        return (rec.name, rec.e0_eV / 1e3, rec.lifetime_s, 1.0 / radiative_rate(rec),
                rec.alpha_ic, float(f), str(f), str(rec.j_g), str(rec.j_e))

    columns = ("name", "e0_keV", "lifetime_s", "radiative_lifetime_s",
               "alpha_ic", "coherent_fraction", "coherent_fraction_exact",
               "j_ground", "j_excited")
    return [(columns, [row(name) for name in names])]


def _run_single_sweep(config, reg, films):
    rec = reg[config.nuclide]
    p = config.params
    if p["sweep_variable"] == "beta":
        rows = [(dataclasses.replace(config.probe, beta=val), p["r_perp_nm"])
                for val in p["sweep_values"]]
    else:
        rows = [(config.probe, val) for val in p["sweep_values"]]
    brems = _window_yields(rows, p["br_z_nucleus"], rec.e0_eV, p["br_window_eV"])

    def row(probe, r, br):
        y = coherent_yield(probe, rec, r)
        ratio = br / y if y > 0.0 else ""
        return (probe.beta, probe.gamma, r, y, br, ratio)

    columns = ("beta", "gamma", "r_perp_nm", "resonant_yield",
               "brems_window_yield", "brems_over_resonant")
    return [(columns, [row(*pr, br) for pr, br in zip(rows, brems.tolist())])]


def _run_array_pattern(config, reg, films):
    p = config.params
    cos_grid = np.linspace(1.0, -1.0, p["n_points"])
    thetas = [math.acos(c) for c in cos_grid.tolist()]  # np.arccos may differ in the last bit
    density = _line_density(config.probe, reg[config.nuclide], p["n_nuclei"],
                            p["spacing_nm"], p["standoff_nm"], cos_grid)
    columns = ("cos_theta", "theta_rad", "density_per_sr")
    return [(columns, list(zip(cos_grid.tolist(), thetas, density.tolist())))]


def _run_crystal_yield(config, reg, films):
    rec = reg[config.nuclide]
    p = config.params
    betas = p["betas"] if p["betas"] is not None else [config.probe.beta]
    cone_sets = _cone_sets([dataclasses.replace(config.probe, beta=b) for b in betas], rec,
                           films[p["lattice"]], CutoffPolicy(p["r_min_nm"], p["smooth_cutoff"]),
                           p["order_cap"])
    z2 = config.probe.z_charge ** 2
    rows = []
    for beta, cones in zip(betas, cone_sets):  # each beta's cones, then its total
        rows += [(beta, c.n, c.cos_theta, c.weight / z2) for c in cones]
        rows.append((beta, 0, "", sum(c.weight for c in cones) / z2))
    columns = ("beta", "order_n", "cos_theta", "yield_per_layer_per_z2")
    return [(columns, rows)]


def _run_brems_compare(config, reg, films):
    rec = reg[config.nuclide]
    p = config.params
    probe = config.probe
    y = coherent_yield(probe, rec, p["r_perp_nm"])
    spectrum = spectral_profile(rec)
    half = p["half_span_line_widths"] * spectrum.fwhm_eV
    offsets = np.linspace(-half, half, p["n_energy"])
    energies = rec.e0_eV + offsets
    hbar = CONSTANTS.hbar_eV_s
    brems = br_spectral_density(probe, p["br_z_nucleus"], p["r_perp_nm"], energies / hbar) / hbar
    spectral = zip(offsets.tolist(), (y * spectrum.density(energies)).tolist(), brems.tolist())
    s_cols = ("energy_offset_eV", "resonant_per_eV_per_passage",
              "brems_per_eV_per_passage")

    dp = decay_profile(rec)
    times = np.linspace(0.0, p["time_max_lifetimes"] * rec.lifetime_s, p["n_time"])
    temporal = zip(times.tolist(), dp.survival(times).tolist(),
                   (y * dp.profile(times)).tolist())
    t_cols = ("time_s", "excited_fraction", "emission_rate_per_s")
    return [(s_cols, spectral), (t_cols, temporal, "_temporal")]


_RUNNERS = {
    "nuclide-info": _run_nuclide_info,
    "single-sweep": _run_single_sweep,
    "array-pattern": _run_array_pattern,
    "crystal-yield": _run_crystal_yield,
    "brems-compare": _run_brems_compare,
}


def run_scenario(config: ScenarioConfig, threads: int = 1,
                 registry: Mapping[str, NuclideRecord] | None = None,
                 films: Mapping[str, LatticeFilm] | None = None) -> list[ResultTable]:
    """Execute a validated config and return its result tables.

    threads is accepted and ignored: rows always run in order on the calling
    thread.  The keyword stays only because perfbench/workloads.py passes it,
    and goes with the next change to that harness.
    """
    reg = _REGISTRY if registry is None else registry
    film_map = _FILMS if films is None else films
    produced = _RUNNERS[config.scenario](config, reg, film_map)
    meta = {
        "scenario": config.scenario,
        "nuclide": config.nuclide,
        "config_sha256": hashlib.sha256(config.raw_text.encode("utf-8")).hexdigest(),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    tables = []
    for columns, rows, *suffix in produced:  # an optional third item suffixes the name
        tables.append(ResultTable(name=config.prefix + "".join(suffix),
                                  columns=tuple(columns),
                                  rows=tuple(tuple(r) for r in rows),
                                  meta=meta))
    return tables
