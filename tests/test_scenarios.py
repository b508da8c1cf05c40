import copy
import json
import math
import re
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import yaml

from nucsp import crystal_sp, nuclide
from nucsp.crystal_sp import MAX_G_GRID, CutoffPolicy, builtin_presets, emission_cones, make_film
from nucsp.nuclide import registry
from nucsp.probe import BETA_MIN, SPECIES, electron, proton
from nucsp.scenarios import (
    MAX_WINDOW_SHARE,
    OUTPUT,
    PARAMS,
    PROBE,
    REQUIRED,
    SCENARIOS,
    ResultTable,
    _format_cell,
    parse_result_table,
    run_scenario,
    validate_config,
    write_tables,
)
from nucsp.single_nucleus import coherent_yield, decay_profile, spectral_profile


def _cfg(text):
    config, errors = validate_config(text)
    assert errors == [], errors
    return config


# ---------------------------------------------------------------------------
# validation


def test_validate_minimal_sweep_config():
    config = _cfg("""
scenario: single-sweep
probe:
  species: electron
  beta: 0.9
params:
  sweep_values: [0.5, 0.9]
""")
    assert config.scenario == "single-sweep"
    assert config.nuclide == "Fe-57"
    assert config.params["sweep_variable"] == "beta"
    assert config.params["br_z_nucleus"] == 26
    assert config.prefix == "result"


def test_validate_reports_all_problems_at_once():
    _, errors = validate_config("""
scenario: single-sweep
nuclide: Unobtainium-999
probe:
  species: muon
params:
  sweep_values: [0.9, 0.5]
  br_window_eV: -2
""")
    text = "\n".join(errors)
    assert "nuclide:" in text and "Fe-57" in text
    assert "probe.species:" in text
    assert "params.sweep_values:" in text
    assert "params.br_window_eV:" in text
    assert len(errors) >= 4


def test_validate_yaml_syntax_error_has_location():
    _, errors = validate_config("scenario: [unclosed\n")
    assert len(errors) == 1
    assert "invalid YAML" in errors[0]


def test_yaml_merge_key_still_overrides():
    # a key given twice is rejected, but a key merged in with << and given
    # again is YAML's override, not a repeat
    merged, errors = validate_config(
        "scenario: single-sweep\nparams: {sweep_values: [0.9]}\n"
        "probe:\n  <<: {species: electron, beta: 0.9}\n  beta: 0.5\n")
    plain, _ = validate_config("scenario: single-sweep\nparams: {sweep_values: [0.9]}\n"
                               "probe: {species: electron, beta: 0.5}\n")
    assert errors == [] and merged.probe == plain.probe


def test_validate_rejects_non_mapping():
    _, errors = validate_config("- a\n- b\n")
    assert errors == ["config: top level must be a mapping"]


def test_validate_unknown_keys():
    _, errors = validate_config("""
scenario: array-pattern
probe: {species: electron, beta: 0.9}
params: {n_nuclei: 5, flavour: strange}
colour: blue
""")
    text = "\n".join(errors)
    assert "config.colour" in text
    assert "params.flavour" in text


def test_validate_unknown_scenario_lists_choices():
    _, errors = validate_config("scenario: teleport\n")
    assert any("teleport" in e and "crystal-yield" in e for e in errors)


def test_validate_probe_requires_one_speed():
    _, errors = validate_config("""
scenario: array-pattern
probe: {species: electron, beta: 0.9, kinetic_energy_eV: 1e6}
""")
    assert any("exactly one of beta or kinetic_energy_eV" in e for e in errors)


def test_validate_beta_range():
    _, errors = validate_config("""
scenario: array-pattern
probe: {species: electron, beta: 1.2}
""")
    assert any("probe.beta" in e for e in errors)


def test_validate_custom_species():
    config = _cfg("""
scenario: array-pattern
probe: {species: custom, beta: 0.8, rest_energy_eV: 9.4e8, z_charge: 2}
""")
    assert config.probe.z_charge == 2
    _, errors = validate_config("""
scenario: array-pattern
probe: {species: custom, beta: 0.8}
""")
    assert any("rest_energy_eV" in e for e in errors)


@pytest.mark.parametrize("speed", [{"beta": 0.9}, {"kinetic_energy_eV": 1.0e+6}],
                         ids=["beta", "kinetic_energy"])
@pytest.mark.parametrize("species,factory", [("electron", electron), ("proton", proton)])
def test_named_species_builds_its_factory_probe(species, factory, speed):
    # a config's named species and the library factories share SPECIES
    assert [row.bound for row in PROBE if row.name == "species"] == [(*SPECIES, "custom")]
    (key, value), = speed.items()
    config = _cfg("scenario: array-pattern\nprobe: {species: %s, %s: %r}\n"
                  % (species, key, value))
    assert config.probe == factory(**speed)


def test_validate_custom_only_probe_keys_are_rejected_for_other_species():
    # they used to be dropped, leaving a Z = -1 electron
    _, errors = validate_config("""
scenario: single-sweep
probe: {species: electron, beta: 0.9, rest_energy_eV: 9.4e+8, z_charge: 3}
params: {sweep_values: [0.5]}
""")
    assert errors == ["probe.rest_energy_eV: only custom species take it",
                      "probe.z_charge: only custom species take it"]


def test_validate_all_nuclide_only_for_info():
    _, errors = validate_config("""
scenario: single-sweep
nuclide: all
probe: {species: electron, beta: 0.9}
params: {sweep_values: [0.5]}
""")
    assert any("'all'" in e for e in errors)
    config = _cfg("scenario: nuclide-info\nnuclide: all\n")
    assert config.nuclide == "all"


def test_validate_crystal_lattice_known():
    _, errors = validate_config("""
scenario: crystal-yield
probe: {species: electron, beta: 0.94}
params: {lattice: diamond111}
""")
    assert any("params.lattice" in e and "bcc100" in e for e in errors)


def test_validate_output_prefix():
    _, errors = validate_config("""
scenario: nuclide-info
output: {prefix: "bad name"}
""")
    assert any("output.prefix" in e for e in errors)


# ---------------------------------------------------------------------------
# result tables


def test_result_table_round_trip():
    table = ResultTable(name="t", columns=("a", "b"),
                        rows=((1, 0.5), (2, 1.5e-7)),
                        meta={"scenario": "x", "timestamp": "now"})
    text = table.to_csv()
    meta, cols, rows = parse_result_table(text)
    assert meta["scenario"] == "x"
    assert cols == ["a", "b"]
    assert [[float(c) for c in r] for r in rows] == [[1.0, 0.5], [2.0, 1.5e-7]]


def test_result_table_floats_round_trip_exactly():
    vals = (math.pi, 1.3304641011879859e-18, 0.1 + 0.2)
    table = ResultTable(name="t", columns=("x",),
                        rows=tuple((v,) for v in vals), meta={})
    _, _, rows = parse_result_table(table.to_csv())
    assert [float(r[0]) for r in rows] == list(vals)


def test_result_table_rejects_bad_cells():
    with pytest.raises(ValueError):
        ResultTable("t", ("x",), ((math.nan,),), {}).to_csv()
    with pytest.raises(ValueError, match="non-finite"):
        ResultTable("t", ("x",), ((1.0,), (math.nan,), (2.0,)), {}).to_csv()
    with pytest.raises(ValueError):
        ResultTable("t", ("x",), (("a,b",),), {}).to_csv()
    with pytest.raises(ValueError):
        ResultTable("t", ("x", "y"), ((1.0,),), {}).to_csv()


def test_result_table_names_an_unsupported_cell_type():
    with pytest.raises(ValueError, match="^unsupported cell type 'NoneType'$"):
        ResultTable("t", ("x",), ((None,),), {}).to_csv()


def test_parse_result_table_skips_blank_lines():
    assert parse_result_table("# a = 1\n\nx,y\n  \n1,2\n\n") == (
        {"a": "1"}, ["x", "y"], [["1", "2"]])


def _per_cell_csv(table):
    """The CSV as one _format_cell call per cell, row by row."""
    lines = ["# %s = %s" % (k, v) for k, v in table.meta.items()]
    lines.append(",".join(table.columns))
    lines.extend(",".join(_format_cell(c) for c in row) for row in table.rows)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("path", sorted((Path(__file__).resolve().parents[1] / "configs")
                                        .glob("*.yaml")), ids=lambda p: p.name)
def test_column_formatting_writes_the_per_cell_bytes(path):
    for table in run_scenario(_cfg(path.read_text())):
        assert table.to_csv() == _per_cell_csv(table)


def test_mixed_columns_go_cell_by_cell():
    rows = ((0.5, 1, "", np.float64(0.25)), (1.5, 2, 3.0, np.float64(1e-300)))
    table = ResultTable("t", ("a", "b", "c", "d"), rows, {})
    assert table.to_csv() == _per_cell_csv(table) == "a,b,c,d\n0.5,1,,0.25\n1.5,2,3.0,1e-300\n"
    for bad in (True, np.float64(math.inf), "a,b"):
        with pytest.raises(ValueError):
            ResultTable("t", ("a", "b"), ((1.0, 1.0), (2.0, bad)), {}).to_csv()


def test_write_tables(tmp_path):
    table = ResultTable(name="out", columns=("x",), rows=((1.0,),),
                        meta={"scenario": "t"})
    paths = write_tables([table], tmp_path / "sub")
    assert paths[0].name == "out.csv"
    assert paths[0].read_text().startswith("# scenario = t")


# ---------------------------------------------------------------------------
# runners


def test_run_nuclide_info_all():
    config = _cfg("scenario: nuclide-info\nnuclide: all\n")
    (table,) = run_scenario(config)
    meta, cols, rows = parse_result_table(table.to_csv())
    assert meta["scenario"] == "nuclide-info"
    assert [r[0] for r in rows] == ["Fe-57", "Dy-161"]
    by = {r[0]: dict(zip(cols, r)) for r in rows}
    assert float(by["Fe-57"]["e0_keV"]) == pytest.approx(14.4129)
    assert by["Fe-57"]["coherent_fraction_exact"] == "2/3"
    assert by["Dy-161"]["coherent_fraction_exact"] == "4/9"
    assert by["Dy-161"]["j_ground"] == "5/2"
    assert float(by["Fe-57"]["radiative_lifetime_s"]) == pytest.approx(2.03e-6,
                                                                       rel=2e-3)


def test_run_single_sweep_values():
    config = _cfg("""
scenario: single-sweep
probe: {species: electron, beta: 0.9}
params:
  sweep_values: [0.5, 0.9]
  r_perp_nm: 0.001
""")
    (table,) = run_scenario(config)
    _, cols, rows = parse_result_table(table.to_csv())
    assert len(rows) == 2
    fe = registry()["Fe-57"]
    row = dict(zip(cols, rows[1]))
    assert float(row["beta"]) == 0.9
    assert float(row["resonant_yield"]) == coherent_yield(
        electron(beta=0.9), fe, 0.001)
    assert float(row["brems_over_resonant"]) > 1e2


def test_run_array_pattern_shape():
    config = _cfg("""
scenario: array-pattern
probe: {species: electron, beta: 0.94}
params: {n_nuclei: 4, spacing_nm: 0.286, n_points: 51}
""")
    (table,) = run_scenario(config)
    _, cols, rows = parse_result_table(table.to_csv())
    assert cols == ["cos_theta", "theta_rad", "density_per_sr"]
    assert len(rows) == 51
    assert float(rows[0][0]) == 1.0 and float(rows[-1][0]) == -1.0
    assert all(float(r[2]) >= 0.0 for r in rows)


def test_run_crystal_yield_totals():
    config = _cfg("""
scenario: crystal-yield
probe: {species: electron, beta: 0.9}
params: {betas: [0.94], r_min_nm: 0.004}
""")
    (table,) = run_scenario(config)
    _, cols, rows = parse_result_table(table.to_csv())
    orders = [int(r[1]) for r in rows]
    assert orders == [1, 2, 3, 4, 5, 6, 0]
    total = float(rows[-1][3])
    assert total == pytest.approx(sum(float(r[3]) for r in rows[:-1]), rel=1e-12, abs=0.0)
    assert rows[-1][2] == ""  # no single direction for the total row
    # spot-check order 1 against the library
    cones = emission_cones(electron(beta=0.94), registry()["Fe-57"],
                           make_film("bcc100"), CutoffPolicy(0.004))
    assert float(rows[0][3]) == pytest.approx(cones[0].weight, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("lattice", ["bcc100", "sc100"])
def test_crystal_yield_builds_each_stacking_class_once(lattice, monkeypatch):
    # every order and beta of a run shares its stacking class's |G| shells,
    # and the coherent fraction behind the prefactor is computed once
    crystal_sp._class_shells.cache_clear()
    nuclide.coherent_fraction.cache_clear()
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(crystal_sp, "_enumerate_g",
                        counted("enumerate_g", crystal_sp._enumerate_g))
    config = _cfg("""
scenario: crystal-yield
probe: {species: electron, beta: 0.9}
params: {lattice: %s, betas: [0.6, 0.8, 0.9, 0.94, 0.99], r_min_nm: 0.002}
""" % lattice)
    (table,) = run_scenario(config)
    _, _, rows = parse_result_table(table.to_csv())
    film = make_film(lattice)
    assert len(rows) > 5 * film.stack_period
    assert 1 <= calls["enumerate_g"] <= film.stack_period
    assert nuclide.coherent_fraction.cache_info().misses <= 1
    misses = crystal_sp._class_shells.cache_info().misses
    for cls in range(film.stack_period):
        for arr in crystal_sp._class_shells(film, CutoffPolicy(0.002), cls):
            assert not arr.flags.writeable
    assert crystal_sp._class_shells.cache_info().misses == misses


def test_run_brems_compare_tables():
    config = _cfg("""
scenario: brems-compare
probe: {species: electron, beta: 0.9}
params: {n_energy: 5, n_time: 5}
output: {prefix: cmp}
""")
    spectral, temporal = run_scenario(config)
    assert spectral.name == "cmp" and temporal.name == "cmp_temporal"
    _, s_cols, s_rows = parse_result_table(spectral.to_csv())
    assert len(s_rows) == 5
    mid = s_rows[2]
    assert float(mid[0]) == 0.0
    # on the line center the resonant spectral density dominates the continuum
    assert float(mid[1]) > float(mid[2])
    _, t_cols, t_rows = parse_result_table(temporal.to_csv())
    assert float(t_rows[0][1]) == 1.0
    fe = registry()["Fe-57"]
    t_mid = float(t_rows[2][0])
    assert float(t_rows[2][1]) == pytest.approx(math.exp(-t_mid / fe.lifetime_s),
                                                rel=1e-12, abs=0.0)


@pytest.mark.parametrize("path", sorted((Path(__file__).resolve().parents[1] / "configs")
                                        .glob("*.yaml")), ids=lambda p: p.name)
def test_run_starts_no_thread(path, monkeypatch):
    def refuse(self):
        raise AssertionError("a scenario run started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert run_scenario(_cfg(path.read_text()), threads=4)


@pytest.mark.parametrize("nuclide", ["Fe-57", "Dy-161"])
def test_brems_compare_array_columns_match_per_row_calls(nuclide):
    config = _cfg("""
scenario: brems-compare
nuclide: %s
probe: {species: electron, beta: 0.9}
params: {n_energy: 41, n_time: 100000}
""" % nuclide)
    spectral, temporal = run_scenario(config)
    p = config.params
    rec = registry()[nuclide]
    y = coherent_yield(config.probe, rec, p["r_perp_nm"])
    spectrum = spectral_profile(rec)
    half = p["half_span_line_widths"] * spectrum.fwhm_eV
    offsets = np.linspace(-half, half, p["n_energy"])
    assert [row[:2] for row in spectral.rows] == [
        (float(de), y * spectrum.density(rec.e0_eV + de)) for de in offsets]
    dp = decay_profile(rec)
    times = np.linspace(0.0, p["time_max_lifetimes"] * rec.lifetime_s, p["n_time"])
    assert list(temporal.rows) == [
        (float(t), dp.survival(t), y * dp.profile(t)) for t in times]


def test_run_metadata(tmp_path):
    config = _cfg("scenario: nuclide-info\n")
    (table,) = run_scenario(config)
    meta, _, _ = parse_result_table(table.to_csv())
    assert set(meta) == {"scenario", "nuclide", "config_sha256", "version", "timestamp"}
    assert (meta["scenario"], meta["nuclide"]) == ("nuclide-info", "Fe-57")
    assert meta["version"]
    assert len(meta["config_sha256"]) == 64
    assert "timestamp" in meta


# ---------------------------------------------------------------------------
# parameter tables

_PROBE = "probe: {species: electron, beta: 0.9}\n"
_REQUIRED_PARAMS = {"single-sweep": "  sweep_values: [0.5]\n"}


@pytest.mark.parametrize("scenario,key", [
    (scenario, row.name) for scenario, table in PARAMS.items() for row in table
    if row.kind == "positive" and row.default is not None])
def test_null_float_parameter_is_rejected(scenario, key):
    _, errors = validate_config("scenario: %s\n%sparams:\n%s  %s: null\n"
                                % (scenario, _PROBE, _REQUIRED_PARAMS.get(scenario, ""), key))
    assert errors == ["params.%s: must be a number" % key]


# a config naming each kind of name, with %s for the name, and its choices in order
_NAMES = {
    "scenario": ("scenario: %s\n", SCENARIOS),
    "nuclide": ("scenario: nuclide-info\nnuclide: %s\n", (*registry(), "all")),
    "params.lattice": ("scenario: crystal-yield\n" + _PROBE + "params: {lattice: %s}\n",
                       sorted(builtin_presets())),
    "probe.species": ("scenario: array-pattern\nprobe: {species: %s, beta: 0.9}\n",
                      (*SPECIES, "custom")),
    "params.sweep_variable": ("scenario: single-sweep\n" + _PROBE
                              + "params: {sweep_variable: %s, sweep_values: [0.5]}\n",
                              ("beta", "r_perp_nm")),
}


@pytest.mark.parametrize("value", ["teleport", 5, ["a"], {"a": 1}, True])
@pytest.mark.parametrize("path", list(_NAMES))
def test_unknown_name_lists_the_choices_in_order(path, value):
    # one row kind checks every name a config gives, so every unknown name,
    # a non-string too, gets the same message
    text, choices = _NAMES[path]
    _, errors = validate_config(text % json.dumps(value))
    assert errors == ["%s: unknown %r (available: %s)" % (path, value, ", ".join(choices))]
    assert validate_config(text % choices[0])[1] == []


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_default_nuclide_is_checked_against_the_registry(scenario):
    # a config without a nuclide runs Fe-57, which a registry may lack
    reg = {"Dy-161": registry()["Dy-161"]}
    text = "scenario: %s\n%s%s" % (scenario, "" if scenario == "nuclide-info" else _PROBE,
                                    "params: {sweep_values: [0.5]}\n"
                                    if scenario == "single-sweep" else "")
    config, errors = validate_config(text, reg)
    assert (config, errors) == (None, ["nuclide: unknown 'Fe-57' (available: Dy-161, all)"])
    config, errors = validate_config("nuclide: Dy-161\n" + text, reg)
    assert errors == [] and config.nuclide == "Dy-161"


def test_window_ceiling_is_inclusive():
    edge = MAX_WINDOW_SHARE * registry()["Fe-57"].e0_eV
    text = ("scenario: single-sweep\n" + _PROBE
            + "params: {sweep_values: [0.5], br_window_eV: %r}\n")
    assert validate_config(text % edge)[1] == []
    assert validate_config(text % math.nextafter(edge, math.inf))[1] == [
        "params.br_window_eV: must be at most %g eV (0.0002 of the line energy)" % edge]


def test_null_sweep_values_is_required():
    _, errors = validate_config("scenario: single-sweep\n" + _PROBE
                                + "params: {sweep_values: null}\n")
    assert errors == ["params.sweep_values: required"]


def test_null_allowed_where_default_is_null():
    config = _cfg("scenario: crystal-yield\n" + _PROBE
                  + "params: {betas: null, r_min_nm: 0.004}\n")
    assert config.params["betas"] is None


def test_grid_cap_counts_the_grid_that_is_built():
    # the cap once took the half-width as radius a / (2 pi), which rounds
    # differently from floor(radius / (2 pi / a)): this bcc100 cutoff builds
    # a 1413 x 1413 grid, under the cap, and was rejected
    r_min = 0.0007715075261167521
    film, policy = make_film("bcc100"), CutoffPolicy(r_min, smooth=True)
    g = crystal_sp._enumerate_g(film, policy, None)
    assert round(g[:, 0].max() * film.a_nm / (2.0 * math.pi)) == 706
    assert (2 * 706 + 1) ** 2 <= MAX_G_GRID
    cfg = ("scenario: crystal-yield\n" + _PROBE
           + "params: {lattice: bcc100, smooth_cutoff: true, r_min_nm: %r}\n")
    _cfg(cfg % r_min)
    # one step past it the grid is 1415 x 1415, over the cap
    assert validate_config(cfg % (r_min * 706.5 / 707.0))[1] == [
        "params.r_min_nm: reciprocal grid exceeds %d entries per stacking class" % MAX_G_GRID]


@pytest.mark.parametrize("preset", sorted(builtin_presets()))
def test_grid_cap_admits_presets_at_smooth_default_cutoff(preset):
    _cfg("scenario: crystal-yield\n" + _PROBE
         + "params: {lattice: %s, r_min_nm: 0.001, smooth_cutoff: true}\n" % preset)


@pytest.mark.parametrize("scenario,key", [
    (scenario, row.name) for scenario, table in PARAMS.items() for row in table
    if row.kind == "positive"])
def test_infinite_float_parameter_is_rejected(scenario, key):
    _, errors = validate_config("scenario: %s\n%sparams:\n%s  %s: .inf\n"
                                % (scenario, _PROBE, _REQUIRED_PARAMS.get(scenario, ""), key))
    assert errors == ["params.%s: must be finite" % key]


@pytest.mark.parametrize("config", [
    "scenario: array-pattern\nparams: {n_nuclei: 1000000, n_points: 10}\n",
    "scenario: array-pattern\nparams: {n_nuclei: 500, n_points: 20000}\n",
    "scenario: brems-compare\nparams: {n_energy: 10000, n_time: 100000}\n",
    "scenario: crystal-yield\nparams: {order_cap: 100, r_min_nm: 0.004}\n",
])
def test_size_caps_admit_their_limits(config):
    _cfg(_PROBE + config)


@pytest.mark.parametrize("path", sorted((Path(__file__).resolve().parents[1] / "configs")
                                        .glob("*.yaml")), ids=lambda p: p.name)
def test_shipped_configs_validate(path):
    _cfg(path.read_text())


def _readme_params():
    """{scenario: [(param, default text or None)]} from the README table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    out = {}
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and re.fullmatch(r"`[a-z-]+`", cells[0]):
            out[cells[0].strip("`")] = re.findall(r"`(\w+)`(?: \(([^)]*)\))?", cells[2])
    return out


def test_readme_parameter_table_matches_scenario_tables():
    readme = _readme_params()
    assert list(readme) == list(SCENARIOS)
    for scenario, table in PARAMS.items():
        shown = readme[scenario]
        assert [name for name, _ in shown] == [row.name for row in table], scenario
        for row, (name, text) in zip(table, shown):
            if row.default is REQUIRED:
                assert text == "", name
            elif row.default is None:
                assert text, "%s: describe the null default in words" % name
            else:
                value = yaml.safe_load(text)
                assert (type(value), value) == (type(row.default), row.default), name


# ---------------------------------------------------------------------------
# the beta floor: beta^4 leaves the normal-double range near 1.2e-77

_FLOOR = "%.1e" % BETA_MIN
_SWEEP_AT = "scenario: single-sweep\nprobe: {}\nparams: {{sweep_values: {}}}\n"
_HEAVY = "{species: custom, beta: %s, rest_energy_eV: 1.0e+12, z_charge: 92}" % _FLOOR


@pytest.mark.parametrize("config", [
    "scenario: single-sweep\nprobe: {species: electron, beta: 0.9}\n"
    "params: {sweep_values: [%s, 0.5]}\n" % _FLOOR,
    "scenario: single-sweep\nprobe: %s\n"
    "params: {sweep_variable: r_perp_nm, sweep_values: [0.001, 1.0]}\n" % _HEAVY,
    "scenario: array-pattern\nprobe: {species: electron, beta: %s}\n"
    "params: {n_points: 21}\n" % _FLOOR,
    "scenario: crystal-yield\nprobe: {species: proton, beta: %s}\n"
    "params: {betas: [0.94], r_min_nm: 0.004}\n" % _FLOOR,
    "scenario: brems-compare\nprobe: {species: electron, beta: %s}\n"
    "params: {n_energy: 5, n_time: 5}\n" % _FLOOR,
    "scenario: brems-compare\nprobe: %s\nparams: {n_energy: 5, n_time: 5}\n" % _HEAVY,
], ids=["sweep-beta", "sweep-r-heavy", "array", "crystal", "brems", "brems-heavy"])
def test_every_scenario_runs_at_the_beta_floor(config):
    for table in run_scenario(_cfg(config)):
        assert table.to_csv()  # raises on a non-finite cell


@pytest.mark.parametrize("config,message", [
    (_SWEEP_AT.format("{species: electron, beta: 1.0e-71}", "[0.5]"),
     "probe.beta: must be a number in [1e-70, 1)"),
    (_SWEEP_AT.format("{species: electron, kinetic_energy_eV: 1.0e-140}", "[0.5]"),
     "probe.kinetic_energy_eV: gives beta = 1.97836e-73, outside [1e-70, 1)"),
    (_SWEEP_AT.format("{species: electron, beta: 0.9}", "[1.0e-71, 0.5]"),
     "params.sweep_values[0]: must be a number in [1e-70, 1)"),
    ("scenario: crystal-yield\n" + _PROBE + "params: {betas: [1.0e-71, 0.9]}\n",
     "params.betas[0]: must be a number in [1e-70, 1)"),
])
def test_beta_below_the_floor_is_rejected(config, message):
    assert validate_config(config)[1] == [message]


# ---------------------------------------------------------------------------
# the distance floor (a nucleus's size) and the rest-energy range: every
# config at their limits runs to a finite table, at both ends of beta

_LIMIT_PROBES = [
    "{species: electron, beta: %s}",
    "{species: custom, beta: %s, rest_energy_eV: 1.0e+5, z_charge: 118}",
    "{species: custom, beta: %s, rest_energy_eV: 1.0e+15, z_charge: -118}",
]


@pytest.mark.parametrize("beta", [_FLOOR, "0.9999999999999999"])
@pytest.mark.parametrize("probe", _LIMIT_PROBES, ids=["electron", "light", "heavy"])
@pytest.mark.parametrize("params", [
    "scenario: single-sweep\nparams: {sweep_values: [BETA], r_perp_nm: 1.0e-5, "
    "br_z_nucleus: 118}\n",
    "scenario: single-sweep\nparams: {sweep_variable: r_perp_nm, "
    "sweep_values: [1.0e-5, 0.001], br_z_nucleus: -118}\n",
    "scenario: brems-compare\nparams: {r_perp_nm: 1.0e-5, br_z_nucleus: 118, "
    "n_energy: 5, n_time: 5}\n",
    "scenario: array-pattern\nparams: {standoff_nm: 1.0e-5, n_points: 11}\n",
], ids=["sweep", "sweep-r", "brems", "array"])
def test_distance_floor_and_rest_energy_range_run_to_finite_tables(params, probe, beta):
    config = _cfg("nuclide: Dy-161\nprobe: %s\n" % (probe % beta) + params.replace("BETA", beta))
    for table in run_scenario(config):
        assert table.to_csv()  # raises on a non-finite cell


# ---------------------------------------------------------------------------
# every row of every table, against values of the wrong type or range

_VALUES = [[1, 2], {"a": 1}, True, "x", math.nan, math.inf, -math.inf, 0, -1, None, [],
           10 ** 400]
# (kind, value) pairs that a row of that kind admits
_ADMITTED = [("bool", True), ("nonzero", -1), ("prefix", "x")]


def _table_rows():
    yield from (("probe", "array-pattern", row) for row in PROBE)
    yield from (("params", scenario, row) for scenario, table in PARAMS.items()
                for row in table)
    yield from (("output", "nuclide-info", row) for row in OUTPUT)


@pytest.mark.parametrize("block,scenario,row", list(_table_rows()),
                         ids=lambda v: v.name if hasattr(v, "kind") else v)
def test_every_table_row_names_its_key_for_a_bad_value(block, scenario, row):
    base = {"scenario": scenario,
            "probe": {"species": "custom", "beta": 0.9, "rest_energy_eV": 9.4e8,
                      "z_charge": 2},
            "params": {"sweep_values": [0.5]} if scenario == "single-sweep" else {},
            "output": {}}
    if scenario == "nuclide-info":  # which takes no probe block
        del base["probe"]
    for value in _VALUES:
        doc = copy.deepcopy(base)
        doc[block][row.name] = value
        _, errors = validate_config(yaml.safe_dump(doc))
        if value is None and row.default is None:
            # null means the same as leaving the key out
            del doc[block][row.name]
            assert errors == validate_config(yaml.safe_dump(doc))[1], value
        elif any(kind == row.kind and type(v) is type(value) and v == value
                 for kind, v in _ADMITTED):
            assert errors == [], (value, errors)
        else:
            assert any(e.startswith("%s.%s" % (block, row.name)) for e in errors), \
                (value, errors)
