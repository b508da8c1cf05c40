"""Seeded workloads of the nucsp benchmark and the checks on their outputs.

A workload is a generator of *passes*. One pass is a short list of
operations drawn from a fixed input pool with the run's random generator;
an operation is one ``run_scenario`` call (followed by ``write_tables``, as
the CLI does) or one ``mc_plane_average`` call. Each pass costs about the
same whatever the draw, so the median pass time is steady across seeds.

Scenario outputs are checked against ``refs.json``, recorded from the
library by ``make_refs.py`` for every pool entry. The Monte-Carlo plane
average is checked against a reciprocal-space oracle defined here.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nucsp import finite_array, scenarios
from nucsp.numerics import CONSTANTS

REFS_PATH = Path(__file__).resolve().with_name("refs.json")

# Outputs may drift by this much relative to the recorded references. It sits
# well above the 1e-12 and 1e-8 relative gates that numerical rewrites of the
# Bessel kernel and the reciprocal sum must meet, and far below any physics
# error; byte equality would reject legitimate reorderings of sums.
RTOL = 1e-6
# Absolute slack per column, as a share of the column's largest magnitude, for
# cells near a zero of the column (cos_theta, interference minima).
ATOL_SHARE = 1e-12
# The Monte-Carlo mean at 1e4 samples sits 4.16-4.20% above the single-plane
# reciprocal sum in every direction tried (the two regularise the closest
# approach differently). The acceptance tests hold the pair to 5%.
MC_BOUND = 0.05

PRESETS = ("bcc100", "fcc100", "sc100")
# 20 betas spanning the openings of orders 1-4 on all three stackings.
FILM_BETAS = tuple(round(0.5 + 0.025 * i, 3) for i in range(20))
FILM_COMB = 5                      # each op takes every 5th pool beta
FILM_R_MIN = 0.001
ORDER_CAP = 12

# One beta per op; at r_min = 3 pm every pool beta enumerates ~52k vectors
# per order and takes 2.0-2.5 s.
SMOOTH_BETAS = (0.9, 0.91, 0.92, 0.93, 0.94, 0.95, 0.96)
SMOOTH_R_MIN = 0.003

NUCLIDES = {"Fe-57": 26, "Dy-161": 66}      # nuclide -> br_z_nucleus
INFO_CHOICES = ("Fe-57", "Dy-161", "all")
SWEEP_STRATA = ((0.5, 0.55), (0.6, 0.65), (0.7, 0.75), (0.8, 0.85),
                (0.88, 0.9), (0.92, 0.94), (0.96, 0.98))
R_PERPS = (0.0005, 0.001, 0.002)
ARRAY_BETAS = (0.9, 0.94)
ARRAY_SPACINGS = (0.25, 0.286, 0.32)
ARRAY_STANDOFFS = (0.005, 0.01, 0.02)
BREMS_BETAS = (0.8, 0.9, 0.94)

MC_SAMPLES = 10_000
MC_HALF_EXTENT = 20
MC_BETA = 0.9
MC_R_MIN = 0.001
MC_OPS_PER_PASS = 2

# Untraced runs make at least this many passes, so that they cover the whole
# pool (see passes()).
MIN_PASSES = {"film": FILM_COMB, "film-smooth": len(SMOOTH_BETAS)}

# Calibration kernel (calibrate.py) whose bottleneck matches the workload's.
CALIBRATION = {"film": "numpy", "film-smooth": "numpy-large", "session": "python",
               "plane-mc": "numpy"}


class CheckError(Exception):
    """An operation's output disagrees with its reference."""


# ---------------------------------------------------------------------------
# config texts


def _probe_block(beta: float) -> str:
    return "probe:\n  species: electron\n  beta: %r\n" % beta


def film_config(preset: str, betas, smooth: bool = False) -> str:
    r_min = SMOOTH_R_MIN if smooth else FILM_R_MIN
    prefix = "film_smooth" if smooth else "film_" + preset
    return ("scenario: crystal-yield\nnuclide: Fe-57\n" + _probe_block(betas[-1])
            + "params:\n  lattice: %s\n  r_min_nm: %r\n  betas: [%s]\n"
              "  order_cap: %d\n  smooth_cutoff: %s\n"
            % (preset, r_min, ", ".join(repr(b) for b in betas), ORDER_CAP,
               "true" if smooth else "false")
            + "output:\n  prefix: %s\n" % prefix)


def info_config(nuclide: str) -> str:
    return ("scenario: nuclide-info\nnuclide: %s\n"
            "output:\n  prefix: nuclide_info\n" % nuclide)


def sweep_config(nuclide: str, r_perp: float, betas) -> str:
    return ("scenario: single-sweep\nnuclide: %s\n" % nuclide + _probe_block(0.9)
            + "params:\n  sweep_variable: beta\n  sweep_values: [%s]\n"
              "  r_perp_nm: %r\n  br_z_nucleus: %d\n  br_window_eV: 1.0\n"
            % (", ".join(repr(b) for b in betas), r_perp, NUCLIDES[nuclide])
            + "output:\n  prefix: single_sweep\n")


def array_config(beta: float, spacing: float, standoff: float) -> str:
    return ("scenario: array-pattern\nnuclide: Fe-57\n" + _probe_block(beta)
            + "params:\n  n_nuclei: 10\n  spacing_nm: %r\n  standoff_nm: %r\n"
              "  n_points: 801\n" % (spacing, standoff)
            + "output:\n  prefix: array_pattern\n")


def brems_config(nuclide: str, beta: float, r_perp: float) -> str:
    return ("scenario: brems-compare\nnuclide: %s\n" % nuclide + _probe_block(beta)
            + "params:\n  r_perp_nm: %r\n  br_z_nucleus: %d\n"
              "  half_span_line_widths: 25.0\n  n_energy: 41\n"
              "  time_max_lifetimes: 5.0\n  n_time: 51\n"
            % (r_perp, NUCLIDES[nuclide])
            + "output:\n  prefix: brems_compare\n")


# ---------------------------------------------------------------------------
# operations


@dataclass(frozen=True)
class ScenarioOp:
    """One validate -> run_scenario -> write_tables round, as the CLI does it.

    ``ref_kind`` and ``ref_keys`` locate the expected tables in refs.json:
    per-row references ("film", "film-smooth", "single-sweep") are keyed by
    the inputs of each row, per-table summaries by the op's inputs.
    """

    label: str
    text: str
    ref_kind: str
    ref_keys: tuple


@dataclass(frozen=True)
class PlaneMcOp:
    """One mc_plane_average call over the single sc100 plane."""

    label: str
    theta: float
    phi: float
    seed: int


def passes(workload: str, rng: np.random.Generator):
    """Endless sequence of passes, each a list of operations.

    The crystal-yield workloads cycle through their beta pools in an order
    drawn from ``rng``, so that every run of MIN_PASSES passes covers the
    whole pool: its median pass time and memory peak then do not depend on
    which betas were drawn. On ``film`` pass k gives preset i the comb
    order[k] + i (mod FILM_COMB), so every cycle holds the same five passes.
    The other workloads draw every pass afresh.
    """
    if workload == "film":
        order = rng.permutation(FILM_COMB)
        for k in itertools.count():
            yield [film_op(preset, FILM_BETAS[(int(order[k % FILM_COMB]) + i) % FILM_COMB
                                              ::FILM_COMB])
                   for i, preset in enumerate(PRESETS)]
    if workload == "film-smooth":
        order = rng.permutation(len(SMOOTH_BETAS))
        for k in itertools.count():
            beta = SMOOTH_BETAS[int(order[k % len(order)])]
            yield [ScenarioOp("crystal-yield smooth", film_config("bcc100", [beta], True),
                              "film-smooth", (repr(beta),))]
    while True:
        yield draw_pass(workload, rng)


def film_op(preset: str, betas) -> ScenarioOp:
    return ScenarioOp("crystal-yield %s" % preset, film_config(preset, betas), "film",
                      tuple("%s|%r" % (preset, b) for b in betas))


def draw_pass(workload: str, rng: np.random.Generator) -> list:
    """The operations of one pass, drawn from the workload's pool."""
    if workload == "session":
        info = INFO_CHOICES[int(rng.integers(len(INFO_CHOICES)))]
        nuc = tuple(NUCLIDES)[int(rng.integers(len(NUCLIDES)))]
        r_perp = R_PERPS[int(rng.integers(len(R_PERPS)))]
        betas = [s[int(rng.integers(len(s)))] for s in SWEEP_STRATA]
        a_beta = ARRAY_BETAS[int(rng.integers(len(ARRAY_BETAS)))]
        spacing = ARRAY_SPACINGS[int(rng.integers(len(ARRAY_SPACINGS)))]
        standoff = ARRAY_STANDOFFS[int(rng.integers(len(ARRAY_STANDOFFS)))]
        b_nuc = tuple(NUCLIDES)[int(rng.integers(len(NUCLIDES)))]
        b_beta = BREMS_BETAS[int(rng.integers(len(BREMS_BETAS)))]
        b_r = R_PERPS[int(rng.integers(len(R_PERPS)))]
        return [
            ScenarioOp("nuclide-info", info_config(info), "nuclide-info", (info,)),
            ScenarioOp("single-sweep", sweep_config(nuc, r_perp, betas), "single-sweep",
                       tuple("%s|%r|%r" % (nuc, r_perp, b) for b in betas)),
            ScenarioOp("brems-compare", brems_config(b_nuc, b_beta, b_r), "brems-compare",
                       ("%s|%r|%r" % (b_nuc, b_beta, b_r),)),
            ScenarioOp("array-pattern", array_config(a_beta, spacing, standoff),
                       "array-pattern", ("%r|%r|%r" % (a_beta, spacing, standoff),)),
        ]
    if workload == "plane-mc":
        ops = []
        for _ in range(MC_OPS_PER_PASS):
            theta = math.acos(rng.uniform(-0.9, 0.9))
            phi = rng.uniform(0.0, 2.0 * math.pi)
            seed = int(rng.integers(1, 2 ** 31))
            ops.append(PlaneMcOp("mc_plane_average", theta, phi, seed))
        return ops
    raise ValueError("unknown workload %r" % workload)


class Context:
    """Registries built once per process, as the CLI's start-up does."""

    def __init__(self):
        from nucsp.crystal_sp import builtin_presets, make_film
        from nucsp.nuclide import registry
        from nucsp.probe import electron
        self.reg = registry()
        self.films = builtin_presets()
        self.fe = self.reg["Fe-57"]
        self.mc_probe = electron(beta=MC_BETA)
        self.mc_a = make_film("sc100").a_nm


def prepare(op, ctx: Context):
    """Untimed part of an op: parse and validate a scenario config."""
    if isinstance(op, PlaneMcOp):
        return op
    config, errors = scenarios.validate_config(op.text, ctx.reg, ctx.films)
    if errors:
        raise CheckError("config rejected: %s" % "; ".join(errors))
    return config


def execute(op, prepared, ctx: Context, out_dir: Path, threads: int = 1):
    """Timed part of an op. Returns the written CSV paths or the MC mean."""
    if isinstance(op, PlaneMcOp):
        return finite_array.mc_plane_average(
            ctx.mc_probe, ctx.fe, ctx.mc_a, MC_HALF_EXTENT, op.theta, op.phi,
            MC_R_MIN, MC_SAMPLES, seed=op.seed)
    tables = scenarios.run_scenario(prepared, threads=threads,
                                    registry=ctx.reg, films=ctx.films)
    return scenarios.write_tables(tables, out_dir)


# ---------------------------------------------------------------------------
# checks


def read_rows(path: Path) -> list:
    """Data rows of a written table; numeric cells become floats."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    return [[_cell(c) for c in ln.split(",")] for ln in lines[1:]]


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def summarise(rows) -> dict:
    """Reference summary of a table: column sums, scales and sampled rows."""
    cols = list(zip(*rows))
    numeric = [all(isinstance(c, float) for c in col) for col in cols]
    stride = max(1, math.ceil(len(rows) / 16))
    return {
        "n_rows": len(rows),
        "sums": [math.fsum(col) if ok else None for col, ok in zip(cols, numeric)],
        "abs_sums": [math.fsum(abs(c) for c in col) if ok else None
                     for col, ok in zip(cols, numeric)],
        "max_abs": [max(abs(c) for c in col) if ok else None
                    for col, ok in zip(cols, numeric)],
        "sample": {str(i): rows[i] for i in range(0, len(rows), stride)},
    }


def _close(a, b, scale: float) -> bool:
    if isinstance(b, str) or isinstance(a, str):
        return a == b
    return abs(a - b) <= RTOL * abs(b) + ATOL_SHARE * scale


def compare_rows(rows, expected, where: str) -> None:
    if len(rows) != len(expected):
        raise CheckError("%s: %d rows, expected %d" % (where, len(rows), len(expected)))
    scales = [max((abs(c) for c in col if isinstance(c, float)), default=0.0)
              for col in zip(*expected)]
    for i, (row, ref) in enumerate(zip(rows, expected)):
        if len(row) != len(ref) or not all(
                _close(a, b, s) for a, b, s in zip(row, ref, scales)):
            raise CheckError("%s row %d: %r, expected %r" % (where, i, row, ref))


def compare_summary(rows, summary: dict, where: str) -> None:
    if len(rows) != summary["n_rows"]:
        raise CheckError("%s: %d rows, expected %d"
                         % (where, len(rows), summary["n_rows"]))
    scales = summary["max_abs"]
    for idx, ref in summary["sample"].items():
        row = rows[int(idx)]
        if len(row) != len(ref) or not all(
                _close(a, b, s or 0.0) for a, b, s in zip(row, ref, scales)):
            raise CheckError("%s row %s: %r, expected %r" % (where, idx, row, ref))
    for j, (want, mag) in enumerate(zip(summary["sums"], summary["abs_sums"])):
        if want is None:
            continue
        got = math.fsum(r[j] for r in rows)
        if not abs(got - want) <= RTOL * mag:
            raise CheckError("%s column %d sums to %r, expected %r"
                             % (where, j, got, want))


def load_refs(path: Path = REFS_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def check(op, result, refs: dict, ctx: Context) -> None:
    """Raise CheckError unless the op's output matches its reference."""
    if isinstance(op, PlaneMcOp):
        want = plane_oracle(ctx, op.theta, op.phi)
        if not (math.isfinite(result) and result > 0
                and abs(result / want - 1.0) < MC_BOUND):
            raise CheckError("%s at theta=%r phi=%r: %r vs reciprocal sum %r"
                             % (op.label, op.theta, op.phi, result, want))
        return
    kind_refs = refs[op.ref_kind]
    tables = {Path(p).stem: read_rows(p) for p in result}
    if op.ref_kind in ("film", "film-smooth", "single-sweep"):
        (rows,) = tables.values()
        expected = []
        for key in op.ref_keys:
            ref = kind_refs[key]
            if op.ref_kind == "single-sweep":
                expected.append(ref)
            else:
                beta = float(key.rsplit("|", 1)[-1])
                expected.extend([beta] + r for r in ref)
        compare_rows(rows, expected, op.label)
    elif op.ref_kind == "nuclide-info":
        (rows,) = tables.values()
        compare_rows(rows, kind_refs[op.ref_keys[0]], op.label)
    else:
        summaries = kind_refs[op.ref_keys[0]]
        if sorted(summaries) != sorted(tables):
            raise CheckError("%s wrote %s, expected %s"
                             % (op.label, sorted(tables), sorted(summaries)))
        for name, rows in tables.items():
            compare_summary(rows, summaries[name], "%s %s" % (op.label, name))


def csv_without_timestamp(paths) -> dict:
    """Written CSVs keyed by file name, minus the timestamp metadata line."""
    out = {}
    for p in paths:
        lines = Path(p).read_text(encoding="utf-8").splitlines()
        out[Path(p).name] = [ln for ln in lines if not ln.startswith("# timestamp =")]
    return out


# ---------------------------------------------------------------------------
# Monte-Carlo oracle


def plane_oracle(ctx: Context, theta: float, phi: float) -> float:
    """Impact-parameter average of |r_hat x g|^2 over one square plane.

    Reciprocal-space form with the hard cutoff |G| <= 1/r_min and no stacking
    selection:

        (2 pi v gamma / (A omega0))^2
            sum_G Q^2 (1 - (r_hat . phi_hat_Q)^2) / (Q^2 + Delta^2)^2,

    Q = k_par + G, Delta = omega0 / (v gamma), A = a^2.
    """
    probe, rec, a = ctx.mc_probe, ctx.fe, ctx.mc_a
    g_unit = 2.0 * math.pi / a
    g_max = 1.0 / MC_R_MIN
    m = int(g_max // g_unit)
    i, j = np.meshgrid(np.arange(-m, m + 1), np.arange(-m, m + 1), indexing="ij")
    inside = (i * i + j * j) * g_unit ** 2 <= g_max ** 2
    gx, gy = g_unit * i[inside], g_unit * j[inside]
    vg = probe.velocity_nm_s * probe.gamma
    k_par = rec.omega0_rad_s / CONSTANTS.c_nm_s * math.sin(theta)
    qx = k_par * math.cos(phi) + gx
    qy = k_par * math.sin(phi) + gy
    q2 = qx * qx + qy * qy
    # r_hat . phi_hat_Q times |Q|, with phi_hat_Q = z_hat x Q / |Q|
    r_dot = math.sin(theta) * (math.sin(phi) * qx - math.cos(phi) * qy)
    delta2 = (rec.omega0_rad_s / vg) ** 2
    terms = (q2 - r_dot * r_dot) / (q2 + delta2) ** 2
    return (2.0 * math.pi * vg / (a * a * rec.omega0_rad_s)) ** 2 * math.fsum(terms)
