import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from nucsp import crystal_sp
from nucsp.cli import build_parser, main
from nucsp.crystal_sp import (LATTICE, CutoffPolicy, LatticeFilm, emission_cones, make_film,
                              parse_lattice_file)
from nucsp.nuclide import NUCLIDE, parse_nuclide_file, registry
from nucsp.probe import electron
from nucsp.rows import REQUIRED, DataFileError
from nucsp.scenarios import parse_result_table, run_scenario, validate_config
from nucsp.single_nucleus import coherent_yield


GOOD_CONFIG = """
scenario: crystal-yield
nuclide: Fe-57
probe: {species: electron, beta: 0.9}
params: {betas: [0.94], r_min_nm: 0.004}
output: {prefix: film}
"""


@pytest.fixture
def config_file(tmp_path):
    p = tmp_path / "config.yaml"
    p.write_text(GOOD_CONFIG)
    return p


def test_run_writes_tables(config_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(["run", str(config_file), "--out", str(out_dir)])
    assert code == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert printed == [str(out_dir / "film.csv")]
    body = (out_dir / "film.csv").read_text()
    assert body.startswith("# scenario = crystal-yield")
    assert "yield_per_layer_per_z2" in body


def test_run_invalid_config_exits_1(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text("scenario: warp-drive\n")
    code = main(["run", str(p)])
    assert code == 1
    err = capsys.readouterr().err
    assert "warp-drive" in err


def test_run_missing_file_exits_2(tmp_path, capsys):
    code = main(["run", str(tmp_path / "absent.yaml")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_validate_ok(config_file, capsys):
    assert main(["validate", str(config_file)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_reports_every_error(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text("scenario: single-sweep\n"
                 "nuclide: Pu-239\n"
                 "probe: {species: electron}\n")
    assert main(["validate", str(p)]) == 1
    err = capsys.readouterr().err
    assert "nuclide:" in err
    assert "probe:" in err


def test_list_nuclides(capsys):
    assert main(["list-nuclides"]) == 0
    out = capsys.readouterr().out
    assert "Fe-57" in out and "Dy-161" in out
    assert "2/3" in out and "4/9" in out


def test_list_lattices(capsys):
    assert main(["list-lattices"]) == 0
    out = capsys.readouterr().out
    assert "bcc100" in out and "fcc100" in out and "sc100" in out


@pytest.mark.parametrize("command, fields, derived", [
    ("list-nuclides", NUCLIDE, ["tau_rad_s", "f"]),
    ("list-lattices", LATTICE, ["d_nm", "planes"]),
])
def test_list_header_names_the_data_file_keys(command, fields, derived, capsys):
    # a data file written from the printed header must parse
    assert main([command]) == 0
    header = capsys.readouterr().out.splitlines()[0].split()
    assert header == [row.name for row in fields] + derived


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_pipe_exits_quietly(unbuffered):
    # the read end is closed before the command writes, as `| head -1` does
    # once it has its line; both stdout buffering modes must end quietly
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "nucsp.cli", "list-nuclides"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_empty_stacking_class_is_named_on_stderr(tmp_path):
    # at r_min = 0.05 nm the odd bcc100 orders keep no reciprocal vector: the
    # run still succeeds and writes 0.0 for them, and stderr names each one
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    cfg = tmp_path / "c.yaml"
    cfg.write_text("scenario: crystal-yield\nprobe: {species: electron, beta: 0.94}\n"
                   "params: {lattice: bcc100, r_min_nm: 0.05}\n")
    out_dir = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "nucsp.cli", "run", str(cfg),
                           "--out", str(out_dir)],
                          capture_output=True, env=env, text=True, timeout=120)
    assert proc.returncode == 0
    named = re.findall(r"RuntimeWarning: no reciprocal vectors pass the cutoff for order (\d+)",
                       proc.stderr)
    assert named == ["1", "3", "5"]
    (path,) = out_dir.iterdir()
    _, _, rows = parse_result_table(path.read_text())
    assert [float(r[3]) == 0.0 for r in rows[:-1]] == [True, False] * 3


def test_data_dir_overlay(tmp_path, capsys, monkeypatch):
    (tmp_path / "nuclides.dat").write_text(
        "name = Tm-169\n"
        "e0_keV = 8.410\n"
        "lifetime_s = 5.9e-9\n"
        "alpha_ic = 285.0\n"
        "jg2 = 1\n"
        "je2 = 3\n")
    (tmp_path / "lattices.dat").write_text(
        "name = tetra\n"
        "a_nm = 0.30\n"
        "b_par_x_nm = 0.15\n"
        "b_par_y_nm = 0.15\n"
        "b_z_nm = 0.21\n")
    monkeypatch.setenv("NUCSP_DATA_DIR", str(tmp_path))
    assert main(["list-nuclides"]) == 0
    assert "Tm-169" in capsys.readouterr().out
    assert main(["list-lattices"]) == 0
    assert "tetra" in capsys.readouterr().out
    # the new entries are usable in configs
    cfg = tmp_path / "c.yaml"
    cfg.write_text("scenario: single-sweep\n"
                   "nuclide: Tm-169\n"
                   "probe: {species: electron, beta: 0.9}\n"
                   "params: {sweep_values: [0.9]}\n")
    assert main(["validate", str(cfg)]) == 0


def test_data_dir_parse_error_exits_2(tmp_path, capsys, monkeypatch):
    (tmp_path / "nuclides.dat").write_text("name only line\n")
    monkeypatch.setenv("NUCSP_DATA_DIR", str(tmp_path))
    assert main(["list-nuclides"]) == 2
    err = capsys.readouterr().err
    assert "nuclides.dat:1" in err



@pytest.mark.parametrize("jg2, je2, exact", [(2001, 2003, "334/1001"), (2003, 2001, "1/3"),
                                             (9997, 9999, "5000/14997"), (9999, 9997, "1/3")])
def test_data_file_large_spin_runs(jg2, je2, exact, tmp_path, capsys, monkeypatch):
    # a data-file spin may reach the jg2/je2 cap of 9999; the coherent
    # fraction's cost must not grow with it
    (tmp_path / "nuclides.dat").write_text(
        "name = Big\ne0_keV = 8.410\nlifetime_s = 5.9e-9\nalpha_ic = 285.0\n"
        "jg2 = %d\nje2 = %d\n" % (jg2, je2))
    monkeypatch.setenv("NUCSP_DATA_DIR", str(tmp_path))
    cfg = tmp_path / "info.yaml"
    cfg.write_text("scenario: nuclide-info\nnuclide: Big\noutput: {prefix: info}\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    _, cols, rows = parse_result_table((tmp_path / "out" / "info.csv").read_text())
    row = dict(zip(cols, rows[0]))
    assert row["coherent_fraction_exact"] == exact
    assert (row["j_ground"], row["j_excited"]) == ("%d/2" % jg2, "%d/2" % je2)

_DATA_FILES = {
    "nuclides.dat": ("list-nuclides", "name = Tm-169\ne0_keV = 8.410\nlifetime_s = 5.9e-9\n"
                     "alpha_ic = 285.0\njg2 = 1\nje2 = 3\nbranch_divisor = 1.0\n"),
    "lattices.dat": ("list-lattices", "name = tetra\na_nm = 0.30\nb_par_x_nm = 0.15\n"
                     "b_par_y_nm = 0.15\nb_z_nm = 0.21\n"),
}


def _bad_value(filename, key, value, named=None, id=None):
    """A data-file case: key set to value in the second block, which the
    error must name at that block's line (named is the key it names)."""
    return pytest.param(filename, key, value, named or key,
                        id=id or "%s-%s-%s" % (filename, key, value))


@pytest.mark.parametrize("filename, key, value, named", [
    *(_bad_value(filename, key, value) for value in ("inf", "nan") for filename, key in [
        ("nuclides.dat", "e0_keV"), ("nuclides.dat", "lifetime_s"),
        ("nuclides.dat", "alpha_ic"), ("nuclides.dat", "branch_divisor"),
        ("lattices.dat", "a_nm"), ("lattices.dat", "b_par_x_nm"),
        ("lattices.dat", "b_par_y_nm"), ("lattices.dat", "b_z_nm"),
    ]),
    # extremes that once ended in a traceback, a non-finite table or a film
    # stacked after one plane, names a CSV cell or a selector cannot hold, a
    # lattice length above 1 mm, and a name given to two blocks
    _bad_value("nuclides.dat", "e0_keV", "1e300"),
    _bad_value("nuclides.dat", "lifetime_s", "1e-300"),
    _bad_value("nuclides.dat", "lifetime_s", "1e300"),
    _bad_value("lattices.dat", "b_par_x_nm", "1e300"),
    _bad_value("nuclides.dat", "name", "Fe,57"),
    _bad_value("nuclides.dat", "name", "all"),
    _bad_value("lattices.dat", "a_nm", "2e6"),
    _bad_value("lattices.dat", "b_z_nm", "2e6"),
    _bad_value("nuclides.dat", "e0_keV", "9.0", "name", id="nuclides.dat-repeated-name"),
    _bad_value("lattices.dat", "b_z_nm", "0.3", "name", id="lattices.dat-repeated-name"),
])
def test_data_file_non_finite_value_exits_2(filename, key, value, named, tmp_path, capsys,
                                            monkeypatch):
    command, text = _DATA_FILES[filename]
    # a good block first, so the error must point at the second block's first line
    bad = re.sub(r"(?m)^%s = .*$" % key, "%s = %s" % (key, value), text)
    assert bad != text
    (tmp_path / filename).write_text(text + "\n" + bad)
    monkeypatch.setenv("NUCSP_DATA_DIR", str(tmp_path))
    assert main([command]) == 2
    line = text.count("\n") + 2
    err = capsys.readouterr().err
    assert err.startswith("error: %s:%d: " % (tmp_path / filename, line))
    # both blocks share a name unless name is the key changed, so the named
    # key tells the bound apart from the repeat
    assert "%s: " % named in err


_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))


def _edges():
    """(filename, rows, key, value at the bound, value just outside) for every
    finite bound of the data-file tables."""
    for filename, rows in (("nuclides.dat", NUCLIDE), ("lattices.dat", LATTICE)):
        for row in rows:
            if row.kind in ("int", "positive", "number"):
                for edge, away in zip(row.bound, (-math.inf, math.inf)):
                    outside = edge + (1 if away > 0 else -1) if row.kind == "int" \
                        else math.nextafter(edge, away)
                    yield pytest.param(filename, rows, row.name, edge, outside,
                                       id="%s-%s-%r" % (filename, row.name, edge))


def _sweep_record(filename, rows, key, value):
    """Fe-57's or tetra's block with key set to value, written by repr so it
    reads back bit for bit."""
    base = ({row.name: getattr(registry()["Fe-57"], row.name) for row in rows}
            if filename == "nuclides.dat" else
            dict(line.split(" = ") for line in _TETRA.splitlines()))
    base[key] = value
    return "".join("%s = %s\n" % (k, v if isinstance(v, str) else repr(v))
                   for k, v in base.items())


def _numbers(csv_text):
    _, _, rows = parse_result_table(csv_text)
    for cell in (c for r in rows for c in r):
        try:
            yield float(cell)
        except ValueError:  # a name, a fraction or an empty cell
            pass


@pytest.mark.parametrize("filename, rows, key, edge, outside", list(_edges()))
def test_data_file_bounds_admit_runs_and_reject_beyond(filename, rows, key, edge, outside,
                                                       tmp_path, capsys, monkeypatch):
    # one field at a time at its bound, the others at Fe-57's or tetra's
    # values: every shipped config runs on that nuclide and lattice to finite
    # tables, or exits 1 naming a config key; just outside, every run exits 2
    # at the block's line, naming the key
    monkeypatch.setenv("NUCSP_DATA_DIR", str(tmp_path))
    (tmp_path / "lattices.dat").write_text(_TETRA)
    data = tmp_path / filename

    def run_all():
        for path in _CONFIGS:
            text = re.sub(r"(?m)^nuclide: .*$", "nuclide: Fe-57", path.read_text())
            cfg = tmp_path / path.name
            cfg.write_text(re.sub(r"(?m)^  lattice: .*$", "  lattice: tetra", text))
            out_dir = tmp_path / path.stem
            code = main(["run", str(cfg), "--out", str(out_dir)])
            yield code, capsys.readouterr().err, sorted(out_dir.glob("*.csv"))

    data.write_text(_sweep_record(filename, rows, key, edge))
    try:
        (parse_nuclide_file if filename == "nuclides.dat" else parse_lattice_file)(data)
    except DataFileError as exc:
        # the bound admits the value but a rule across the record's fields
        # does not: a spin a dipole step from none of Fe-57's, or a 1 mm
        # period whose 0.15 nm offset never stacks; the error names the rule's
        # keys, not a bound of this one
        assert "%s: must be" % key not in str(exc)
        assert re.search(r": (jg2/je2|b_par_x_nm/b_par_y_nm): ", str(exc)), exc
    else:
        for code, err, tables in run_all():
            assert code in (0, 1), err
            if code == 1:
                assert err and all(re.match(r"(params|probe)[.:]", line)
                                   for line in err.splitlines()), err
            else:
                assert tables and all(math.isfinite(x) for csv in tables
                                      for x in _numbers(csv.read_text()))

    data.write_text(_sweep_record(filename, rows, key, outside))
    for code, err, _ in run_all():
        assert code == 2
        assert err.startswith("error: %s:1: %s: must be at " % (data, key)), err


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split()[1:] for line in block.splitlines() if line.startswith("nucsp ")]
    assert commands
    for argv in commands:
        assert build_parser().parse_args(argv).command == argv[0]


def test_readme_lattice_block_is_the_rescaled_preset(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = [b.split("```", 1)[0] for b in readme.split("```\n")[1:]
                if b.startswith("name = ")]
    (tmp_path / "lattices.dat").write_text(block)
    assert parse_lattice_file(tmp_path / "lattices.dat") == {
        "bcc100": make_film("bcc100", 0.29)}


def test_readme_data_file_table_matches_the_row_tables():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    shown = {}
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0] in ("`nuclides.dat`", "`lattices.dat`"):
            shown.setdefault(cells[0].strip("`"), []).append((cells[1].strip("`"), cells[2]))
    for filename, rows in (("nuclides.dat", NUCLIDE), ("lattices.dat", LATTICE)):
        assert [key for key, _ in shown[filename]] == [row.name for row in rows]
        for row, (key, text) in zip(rows, shown[filename]):
            if row.kind == "prefix":
                assert "letters, digits" in text and all("`%s`" % w in text for w in row.bound)
                continue
            lo, hi = re.match(r"\[(\S+), (\S+)\]", text).groups()
            assert (float(lo), float(hi)) == row.bound, key
            default = "" if row.default is REQUIRED else ", default %g" % row.default
            assert text == "[%s, %s]%s" % (lo, hi, default), key


def test_threads_flag_is_rejected(config_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(config_file), "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# cross-field rules, non-finite floats and size caps: caught by validate and
# by run (exit 1, nothing written)

_TETRA = ("name = tetra\na_nm = 0.30\nb_par_x_nm = 0.15\n"
          "b_par_y_nm = 0.15\nb_z_nm = 0.21\n")
_SWEEP = "scenario: single-sweep\nprobe: {species: electron, beta: 0.9}\n"
_ARRAY = "scenario: array-pattern\nprobe: {species: electron, beta: 0.94}\n"
_BREMS = "scenario: brems-compare\nprobe: {species: electron, beta: 0.9}\n"


@pytest.mark.parametrize("filename, block, message", [
    pytest.param("nuclides.dat", _DATA_FILES["nuclides.dat"][1].replace("jg2 = 1", "jg2 = 9999"),
                 "jg2/je2: only |j_e - j_g| = 1 dipole pairs are supported", id="spins"),
    pytest.param("lattices.dat", _TETRA.replace("a_nm = 0.30", "a_nm = 1.0e+6"),
                 "b_par_x_nm/b_par_y_nm: stacking offset does not close within 16 planes",
                 id="stacking"),
])
def test_data_file_cross_field_rule_names_its_keys(filename, block, message, tmp_path,
                                                   capsys, monkeypatch):
    # a rule across a record's fields names the keys it reads, as a bound
    # names its key, at the block's first line
    (tmp_path / filename).write_text(block)
    monkeypatch.setenv("NUCSP_DATA_DIR", str(tmp_path))
    assert main([_DATA_FILES[filename][0]]) == 2
    assert capsys.readouterr().err == "error: %s:1: %s\n" % (tmp_path / filename, message)


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("config,message", [
    # a rescaled preset is a lattices.dat block, not a config key
    pytest.param("scenario: crystal-yield\nprobe: {species: electron, beta: 0.9}\n"
                 "params: {lattice: bcc100, a_nm: 0.29}\n",
                 "params.a_nm: unknown key", id="a_nm-unknown"),
    pytest.param("scenario: single-sweep\nprobe: {species: electron, beta: 0.9}\n"
                 "params: {sweep_values: [0.9], br_window_eV: 3.0e+4}\n",
                 "params.br_window_eV: must be at most 2.88258 eV (0.0002 of the line energy)",
                 id="window-2E0"),
    pytest.param("scenario: brems-compare\nprobe: {species: electron, beta: 0.9}\n"
                 "params: {half_span_line_widths: 1.0e+13}\n",
                 "omega must be positive", id="half-span-E0"),
    pytest.param("scenario: crystal-yield\nprobe: {species: electron, beta: 0.9}\n"
                 "params: {lattice: bcc100, r_min_nm: 1.0e-5}\n",
                 "params.r_min_nm: reciprocal grid exceeds", id="grid-cap"),
    pytest.param(_SWEEP + "params: {sweep_values: [0.9], r_perp_nm: .inf}\n",
                 "params.r_perp_nm: must be finite", id="r_perp-inf"),
    pytest.param(_SWEEP + "params: {sweep_variable: r_perp_nm, sweep_values: [0.001, .inf]}\n",
                 "params.sweep_values[1]: must be finite", id="sweep-value-inf"),
    # distances below a nucleus's size: near 1e-160 nm K1^2 overflows
    pytest.param(_SWEEP + "params: {sweep_values: [0.9], r_perp_nm: 1.0e-160}\n",
                 "params.r_perp_nm: must be at least 1e-05", id="r_perp-below-floor"),
    pytest.param(_SWEEP + "params: {sweep_variable: r_perp_nm, sweep_values: [1.0e-160, 0.001]}\n",
                 "params.sweep_values[0]: must be at least 1e-05", id="sweep-r-below-floor"),
    pytest.param(_BREMS + "params: {r_perp_nm: 1.0e-300}\n",
                 "params.r_perp_nm: must be at least 1e-05", id="brems-r_perp-below-floor"),
    pytest.param(_ARRAY + "params: {standoff_nm: 1.0e-300}\n",
                 "params.standoff_nm: must be at least 1e-05", id="standoff-below-floor"),
    # distances above 1 mm: near 1e236 nm the Bessel argument overflows
    pytest.param(_SWEEP + "params: {sweep_values: [0.9], r_perp_nm: 1.0e+300}\n",
                 "params.r_perp_nm: must be at most 1e+06", id="r_perp-above-ceiling"),
    pytest.param(_SWEEP + "params: {sweep_variable: r_perp_nm, sweep_values: [0.001, 1.0e+300]}\n",
                 "params.sweep_values[1]: must be at most 1e+06", id="sweep-r-above-ceiling"),
    pytest.param(_BREMS + "params: {r_perp_nm: 1.0e+300}\n",
                 "params.r_perp_nm: must be at most 1e+06", id="brems-r_perp-above-ceiling"),
    pytest.param(_ARRAY + "params: {standoff_nm: 1.0e+300}\n",
                 "params.standoff_nm: must be at most 1e+06", id="standoff-above-ceiling"),
    # M^2 in the bremsstrahlung prefactor overflows, or 1/M^2 does
    pytest.param("scenario: single-sweep\nparams: {sweep_values: [0.9]}\nprobe:\n"
                 "  {species: custom, beta: 0.9, rest_energy_eV: 1.0e+200, z_charge: 1}\n",
                 "probe.rest_energy_eV: must be at most 1e+15", id="rest-energy-huge"),
    pytest.param("scenario: single-sweep\nparams: {sweep_values: [0.9]}\nprobe:\n"
                 "  {species: custom, beta: 0.9, rest_energy_eV: 1.0e-300, z_charge: 1}\n",
                 "probe.rest_energy_eV: must be at least 100000", id="rest-energy-tiny"),
    pytest.param("scenario: single-sweep\nparams: {sweep_values: [0.9]}\nprobe:\n"
                 "  {species: custom, beta: 0.9, rest_energy_eV: .inf, z_charge: 1}\n",
                 "probe.rest_energy_eV: must be finite", id="rest-energy-inf"),
    pytest.param("scenario: single-sweep\nparams: {sweep_values: [0.9]}\nprobe:\n"
                 "  {species: electron, beta: 0.9, rest_energy_eV: 9.4e+8, z_charge: 3}\n",
                 "probe.rest_energy_eV: only custom species take it", id="non-custom-rest-energy"),
    pytest.param("scenario: array-pattern\nprobe: {species: electron, beta: 1.0e-71}\n",
                 "probe.beta: must be a number in [1e-70, 1)", id="beta-below-floor"),
    pytest.param("scenario: array-pattern\n"
                 "probe: {species: electron, kinetic_energy_eV: 1.0e-140}\n",
                 "probe.kinetic_energy_eV: gives beta = 1.97836e-73, outside [1e-70, 1)",
                 id="kinetic-energy-below-floor"),
    # beta rounds to 1 for an electron from about 1e14 eV; at the largest
    # double, beta_from_kinetic's T (T + 2 m) overflows and beta is inf
    pytest.param("scenario: array-pattern\n"
                 "probe: {species: electron, kinetic_energy_eV: 1.0e+15}\n",
                 "probe.kinetic_energy_eV: gives beta = 1, outside [1e-70, 1)",
                 id="kinetic-energy-beta-1"),
    pytest.param("scenario: array-pattern\nprobe: {species: custom, rest_energy_eV: 9.4e+8, "
                 "z_charge: 1, kinetic_energy_eV: 1.7976931348623157e+308}\n",
                 "probe.kinetic_energy_eV: gives beta = inf, outside [1e-70, 1)",
                 id="kinetic-energy-largest-double"),
    pytest.param(_SWEEP + "params: {sweep_values: [1.0e-71, 0.9]}\n",
                 "params.sweep_values[0]: must be a number in [1e-70, 1)",
                 id="sweep-beta-below-floor"),
    pytest.param("scenario: single-sweep\nparams: {sweep_values: [0.9]}\n"
                 "probe: {species: electron, kinetic_energy_eV: .inf}\n",
                 "probe.kinetic_energy_eV: must be finite", id="kinetic-energy-inf"),
    pytest.param(_BREMS + "params: {time_max_lifetimes: .inf}\n",
                 "params.time_max_lifetimes: must be finite", id="time-max-inf"),
    pytest.param(_ARRAY + "params: {spacing_nm: .inf}\n",
                 "params.spacing_nm: must be finite", id="spacing-inf"),
    pytest.param(_ARRAY + "params: {spacing_nm: 1.0e+300}\n",
                 "params.spacing_nm: must be at most 1e+06", id="spacing-huge"),
    pytest.param(_ARRAY + "params: {n_nuclei: 100000000, n_points: 2}\n",
                 "params.n_nuclei: must be at most 1000000", id="n_nuclei-cap"),
    pytest.param(_ARRAY + "params: {n_points: 20001}\n",
                 "params.n_points: must be at most 20000", id="n_points-cap"),
    pytest.param(_SWEEP + "params: {sweep_values: [0.9], br_z_nucleus: 1%s}\n" % ("0" * 200),
                 "params.br_z_nucleus: must be at most 118 in magnitude", id="br_z-huge"),
    pytest.param("scenario: array-pattern\nprobe:\n"
                 "  {species: custom, beta: 0.9, rest_energy_eV: 9.4e+8, z_charge: 1%s}\n"
                 % ("0" * 200), "probe.z_charge: must be at most 118 in magnitude",
                 id="z_charge-huge"),
    pytest.param("scenario: crystal-yield\nprobe: {species: electron, beta: 0.9}\n"
                 "params: {n_layers: 1%s}\n" % ("0" * 400),
                 "params.n_layers: unknown key", id="n_layers-huge"),
    pytest.param("scenario: nuclide-info\nprobe: {species: muon, beta: 7}\n",
                 "probe: nuclide-info takes no probe block", id="info-probe"),
    pytest.param(_BREMS + "params: {n_energy: 10001}\n",
                 "params.n_energy: must be at most 10000", id="n_energy-cap"),
    pytest.param(_BREMS + "params: {n_time: 100001}\n",
                 "params.n_time: must be at most 100000", id="n_time-cap"),
    pytest.param("scenario: crystal-yield\nprobe: {species: electron, beta: 0.9}\n"
                 "params: {order_cap: 101}\n",
                 "params.order_cap: must be at most 100", id="order_cap-cap"),
    pytest.param("scenario: crystal-yield\nprobe: {species: electron, beta: 0.9}\n"
                 "params: {lattice: bcc100, betas: [0.2, 0.9]}\n",
                 "params.order_cap: 12 drops every radiating order at beta = 0.2 "
                 "(the first is n = 14)", id="order_cap-drops-all"),
])
def test_cross_field_rules_exit_1(command, config, message, tmp_path, capsys,
                                  monkeypatch):
    (tmp_path / "lattices.dat").write_text(_TETRA)
    monkeypatch.setenv("NUCSP_DATA_DIR", str(tmp_path))

    def no_grid(*args):
        raise AssertionError("reciprocal grid built for a rejected config")

    monkeypatch.setattr(crystal_sp, "_enumerate_g", no_grid)
    cfg = tmp_path / "c.yaml"
    cfg.write_text(config)
    out_dir = tmp_path / "out"
    assert main([command, str(cfg)] + (["--out", str(out_dir)] if command == "run" else [])) == 1
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("config,message", [
    pytest.param("scenario: single-sweep\nparams: {sweep_values: [0.9]}\n",
                 "probe: required for this scenario", id="no-probe"),
    pytest.param("scenario: single-sweep\nprobe: [electron]\nparams: {sweep_values: [0.9]}\n",
                 "probe: must be a mapping", id="probe-list"),
    pytest.param(_SWEEP + "params: 0.9\n", "params: must be a mapping", id="params-number"),
    pytest.param(_SWEEP + "params: {sweep_values: [0.9]}\noutput: film\n",
                 "output: must be a mapping", id="output-string"),
    pytest.param("scenario: crystal-yield\nprobe: {species: electron, beta: 0.9}\n"
                 "params: {betas: [1.0e-13]}\n",
                 "params.betas[0]: beta = 1e-13 puts the first radiating order "
                 "beyond n = 2^40", id="betas-beyond-2^40"),
    # no order_cap reaches such an order: the key that set the speed is named
    pytest.param("scenario: crystal-yield\nprobe: {species: electron, beta: 1.0e-13}\n",
                 "probe.beta: beta = 1e-13 puts the first radiating order beyond n = 2^40",
                 id="probe-beta-beyond-2^40"),
    pytest.param("scenario: crystal-yield\n"
                 "probe: {species: electron, kinetic_energy_eV: 1.0e-20}\n",
                 "probe.kinetic_energy_eV: beta = 1.97836e-13 puts the first radiating order "
                 "beyond n = 2^40", id="kinetic-energy-beyond-2^40"),
    # a sweep owns the quantity it sweeps: an r_perp_nm beside it was ignored
    pytest.param("scenario: single-sweep\nprobe: {species: electron, beta: 0.9}\n"
                 "params: {sweep_variable: r_perp_nm, sweep_values: [0.001], r_perp_nm: 0.5}\n",
                 "params.r_perp_nm: not taken with params.sweep_variable: r_perp_nm, "
                 "whose sweep_values give the distances", id="r_perp-beside-its-sweep"),
    # a key given twice is an error at its second copy, not a silent override
    pytest.param("scenario: nuclide-info\nnuclide: Fe-57\nnuclide: Dy-161\n",
                 "config: invalid YAML (line 3, column 1): found duplicate key 'nuclide'",
                 id="top-level-key-twice"),
    pytest.param("scenario: single-sweep\nparams: {sweep_values: [0.9]}\n"
                 "probe: {species: electron, beta: 0.9, beta: 0.5}\n",
                 "config: invalid YAML (line 3, column 39): found duplicate key 'beta'",
                 id="probe-key-twice"),
    pytest.param("scenario: crystal-yield\nprobe: {species: electron, beta: 0.9}\n"
                 "params:\n  r_min_nm: 0.004\n  r_min_nm: 0.002\n",
                 "config: invalid YAML (line 5, column 3): found duplicate key 'r_min_nm'",
                 id="params-key-twice"),
])
def test_config_shape_errors_exit_1_with_their_message(command, config, message, tmp_path,
                                                       capsys):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(config)
    out_dir = tmp_path / "out"
    assert main([command, str(cfg)] + (["--out", str(out_dir)] if command == "run" else [])) == 1
    assert capsys.readouterr().err == message + "\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_data_file_fractional_spin_exits_2(command, tmp_path, capsys, monkeypatch):
    nuclides = tmp_path / "nuclides.dat"
    nuclides.write_text(_DATA_FILES["nuclides.dat"][1].replace("jg2 = 1", "jg2 = 1.5"))
    monkeypatch.setenv("NUCSP_DATA_DIR", str(tmp_path))
    cfg = tmp_path / "c.yaml"
    cfg.write_text(GOOD_CONFIG)
    out_dir = tmp_path / "out"
    assert main([command, str(cfg)] + (["--out", str(out_dir)] if command == "run" else [])) == 2
    assert capsys.readouterr().err == "error: %s:1: jg2: must be an integer\n" % nuclides
    assert not out_dir.exists()


@pytest.mark.parametrize("nuclide", ["Fe-57", "Dy-161"])
@pytest.mark.parametrize("scenario,params", [
    ("single-sweep", "{sweep_values: [1.0e-70], r_perp_nm: 1.0e+6}"),
    ("single-sweep", "{sweep_variable: r_perp_nm, sweep_values: [0.001, 1.0e+6]}"),
    ("brems-compare", "{r_perp_nm: 1.0e+6}"),
])
def test_distance_ceiling_runs_without_warnings(scenario, params, nuclide, tmp_path, capsys):
    # at the 1 mm ceiling and the slowest beam every cell is computed without
    # an overflow: nothing reaches stderr
    cfg = tmp_path / "c.yaml"
    cfg.write_text("scenario: %s\nnuclide: %s\nprobe: {species: electron, beta: 1.0e-70}\n"
                   "params: %s\n" % (scenario, nuclide, params))
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert [str(w.message) for w in record] == []
    assert capsys.readouterr().err == ""


def test_temporal_table_decays_past_700_lifetimes(tmp_path, capsys):
    # the decay exponent is not clipped: past 700 lifetimes the cells are
    # exp(-kappa t) as libm rounds it, subnormal and then 0, not a constant
    cfg = tmp_path / "c.yaml"
    cfg.write_text(_BREMS + "params: {r_perp_nm: 0.001, time_max_lifetimes: 1000}\n")
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(cfg), "--out", str(out_dir)]) == 0
    assert capsys.readouterr().err == ""
    _, columns, rows = parse_result_table(
        (out_dir / "result_temporal.csv").read_text())
    assert columns == ["time_s", "excited_fraction", "emission_rate_per_s"]
    fe = registry()["Fe-57"]
    rate, y = fe.kappa_s, coherent_yield(electron(beta=0.9), fe, 0.001)
    late = [[float(c) for c in r] for r in rows if float(r[0]) * rate > 700.0]
    assert len(late) == 16 and late[-1][1:] == [0.0, 0.0]
    for t, fraction, emission in late:
        assert fraction == math.exp(-(rate * t))
        assert emission == y * (rate * math.exp(-(rate * t)))


def test_lattice_floor_runs_to_a_finite_table(tmp_path, capsys, monkeypatch):
    # an sc block at the floor: a and b_z are both 10 fm, far below the
    # wavelength, so no order radiates at any beta and every yield is 0
    (tmp_path / "lattices.dat").write_text(
        "name = sc100\na_nm = 1.0e-5\nb_par_x_nm = 0\nb_par_y_nm = 0\nb_z_nm = 1.0e-5\n")
    monkeypatch.setenv("NUCSP_DATA_DIR", str(tmp_path))
    cfg = tmp_path / "c.yaml"
    cfg.write_text("scenario: crystal-yield\nprobe: {species: electron, beta: 0.9}\n"
                   "params: {lattice: sc100, betas: [0.5, 0.9, 0.999999]}\n")
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    _, columns, rows = parse_result_table((out_dir / "result.csv").read_text())
    assert columns == ["beta", "order_n", "cos_theta", "yield_per_layer_per_z2"]
    assert [r[1:] for r in rows] == [["0", "", "0.0"]] * 3


@pytest.mark.parametrize("lattice_key", ["a_nm", "b_z_nm"])
def test_data_file_lattice_below_floor_exits_2(lattice_key, tmp_path, capsys, monkeypatch):
    command, text = _DATA_FILES["lattices.dat"]
    bad = re.sub(r"(?m)^%s = .*$" % lattice_key, "%s = 9.0e-6" % lattice_key, text)
    assert bad != text
    (tmp_path / "lattices.dat").write_text(bad)
    monkeypatch.setenv("NUCSP_DATA_DIR", str(tmp_path))
    assert main([command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: %s:1: " % (tmp_path / "lattices.dat"))
    assert "%s: must be at least 1e-05" % lattice_key in err


@pytest.mark.parametrize("nuclide", ["Fe-57", "Dy-161"])
def test_spacing_cap_runs_to_a_finite_table(nuclide, tmp_path, capsys):
    # the phase step at the 1 mm cap stays far inside the double range, also
    # for the registry's highest line energy
    cfg = tmp_path / "c.yaml"
    cfg.write_text(_ARRAY + "nuclide: %s\nparams: {spacing_nm: 1.0e+6, n_points: 101}\n"
                   % nuclide)
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    _, _, rows = parse_result_table((out_dir / "result.csv").read_text())
    assert len(rows) == 101
    assert all(math.isfinite(float(x)) for r in rows for x in r)


@pytest.mark.parametrize("command", ["validate", "run"])
def test_array_caps_admit_their_product(command, tmp_path, capsys):
    # the grating factor costs nothing per nucleus, so both caps at once
    # validate and run in bounded time
    cfg = tmp_path / "c.yaml"
    cfg.write_text(_ARRAY + "params: {n_nuclei: 1000000, n_points: 20000}\n")
    out_dir = tmp_path / "out"
    start = time.perf_counter()
    assert main([command, str(cfg)] + (["--out", str(out_dir)] if command == "run" else [])) == 0
    assert time.perf_counter() - start < 10.0
    capsys.readouterr()
    if command == "run":
        _, _, rows = parse_result_table((out_dir / "result.csv").read_text())
        assert len(rows) == 20_000 and max(float(r[2]) for r in rows) > 0.0


def test_data_file_lattice_overrides_preset(config_file, tmp_path, capsys, monkeypatch):
    (tmp_path / "lattices.dat").write_text(
        "name = bcc100\na_nm = 0.40\nb_par_x_nm = 0.20\nb_par_y_nm = 0.20\nb_z_nm = 0.20\n")
    monkeypatch.setenv("NUCSP_DATA_DIR", str(tmp_path))
    out_dir = tmp_path / "out"
    assert main(["run", str(config_file), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    _, _, rows = parse_result_table((out_dir / "film.csv").read_text())

    def cone_rows(film):
        cones = emission_cones(electron(beta=0.94), registry()["Fe-57"], film,
                               CutoffPolicy(0.004), order_cap=12)
        return [(c.n, c.cos_theta, c.weight) for c in cones]

    written = [(int(r[1]), float(r[2]), float(r[3])) for r in rows[:-1]]
    assert written == cone_rows(LatticeFilm("bcc100", 0.40, (0.20, 0.20), 0.20))
    assert written != cone_rows(make_film("bcc100"))


def test_near_rational_data_file_offset_writes_the_exact_offsets_total(tmp_path, capsys,
                                                                       monkeypatch):
    # a/3 + 2e-11 nm closes at three planes within 1e-9, and from then on the
    # selection is exact, so the film writes the total of the offset a/3
    (tmp_path / "lattices.dat").write_text(
        "name = near\na_nm = 0.3\nb_par_x_nm = 0.10000000002\nb_par_y_nm = 0\nb_z_nm = 0.1\n\n"
        "name = third\na_nm = 0.3\nb_par_x_nm = 0.1\nb_par_y_nm = 0\nb_z_nm = 0.1\n")
    monkeypatch.setenv("NUCSP_DATA_DIR", str(tmp_path))
    totals = []
    for lattice in ("near", "third"):
        cfg = tmp_path / ("%s.yaml" % lattice)
        cfg.write_text("scenario: crystal-yield\nprobe: {species: electron, beta: 0.94}\n"
                       "params: {lattice: %s}\n" % lattice)
        assert main(["run", str(cfg), "--out", str(tmp_path / lattice)]) == 0
        _, _, rows = parse_result_table((tmp_path / lattice / "result.csv").read_text())
        assert rows[-1][1] == "0" and len(rows) > 4
        totals.append(float(rows[-1][3]))
    assert capsys.readouterr().err == ""
    assert totals[0] == pytest.approx(totals[1], rel=1e-9, abs=0.0)


@pytest.mark.parametrize("preset, a_nm, block", [
    pytest.param("bcc100", 0.29, "b_par_x_nm = 0.145\nb_par_y_nm = 0.145\nb_z_nm = 0.145\n",
                 id="bcc100"),
    pytest.param("fcc100", 0.37,
                 "b_par_x_nm = 0.185\nb_par_y_nm = 0.185\nb_z_nm = 0.26162950903902255\n",
                 id="fcc100"),
])
def test_lattices_dat_block_writes_the_rows_of_a_rescaled_preset(preset, a_nm, block, tmp_path,
                                                                  capsys, monkeypatch):
    # a preset at another lattice constant is a lattices.dat block under the
    # preset's name: the same film as make_film(preset, a_nm), so the same rows
    (tmp_path / "lattices.dat").write_text("name = %s\na_nm = %r\n%s" % (preset, a_nm, block))
    monkeypatch.setenv("NUCSP_DATA_DIR", str(tmp_path))
    (shipped,) = [path for path in _CONFIGS if path.name == "crystal_yield.yaml"]
    text = shipped.read_text().replace("bcc100", preset)
    cfg = tmp_path / "c.yaml"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    written = (tmp_path / "out" / "crystal_yield.csv").read_text()
    config, errors = validate_config(text)
    assert errors == []
    (table,) = run_scenario(config, films={preset: make_film(preset, a_nm)})

    def data_rows(csv_text):
        return [line for line in csv_text.splitlines() if not line.startswith("#")]

    assert data_rows(written) == data_rows(table.to_csv())
    assert data_rows(written) != data_rows(run_scenario(config)[0].to_csv())
