"""The package's public surface: the modules' own export lists, and README's
library examples run as written."""

import ast
import inspect
import re
from pathlib import Path

import pytest

import nucsp
from nucsp import (brems, crystal_sp, finite_array, nuclide, numerics, probe, rows, scenarios,
                   single_nucleus)
from nucsp.crystal_sp import CutoffPolicy, LatticeFilm
from nucsp.nuclide import NuclideRecord
from nucsp.probe import Probe

_MODULES = (rows, numerics, nuclide, probe, single_nucleus, finite_array, crystal_sp, brems,
            scenarios)
_EXPORTS = [name for module in _MODULES for name in module.__all__]
ROOT = Path(__file__).resolve().parents[1]


def test_package_exports_are_the_modules_exports_in_order():
    assert nucsp.__all__ == ["__version__", *_EXPORTS]


def test_no_name_is_exported_by_two_modules():
    # A clash would let one star-import silently shadow another.
    assert len(set(_EXPORTS)) == len(_EXPORTS)


@pytest.mark.parametrize("name", _EXPORTS)
def test_export_is_listed_by_its_defining_module(name):
    (module,) = [m for m in _MODULES if name in m.__all__]
    obj = getattr(nucsp, name)
    assert obj is getattr(module, name)
    if inspect.isfunction(obj) or inspect.isclass(obj):
        assert obj.__module__ == module.__name__


def _src_references():
    """Names that src/nucsp loads, imports or reads as attributes, outside
    the definitions of those names and outside __all__ lists."""
    refs = set()

    def visit(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return
        field = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}.get(type(node))
        if field is not None and getattr(node, field) not in owners:
            refs.add(getattr(node, field))
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    for path in (ROOT / "src" / "nucsp").glob("*.py"):
        visit(ast.parse(path.read_text()), frozenset())
    return refs


def _readme_names():
    """Identifiers in README's code spans and Python examples."""
    text = (ROOT / "README.md").read_text()
    code = re.findall(r"`([^`\n]+)`", text) + text.split("```python\n")[1:]
    return {word for span in code for word in re.findall(r"\w+", span)}


def test_every_export_has_a_caller_in_src_or_is_named_in_readme():
    # the public-surface rule: a name that nothing in src/ uses and README
    # does not document is not shipped, so it is not exported either
    shipped = _src_references() | _readme_names()
    assert [name for name in _EXPORTS if name not in shipped] == []


def test_readme_python_examples_run(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [b.split("```", 1)[0] for b in readme.split("```python\n")[1:]]
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    printed = capsys.readouterr().out.split()
    assert len(printed) == 2 and all(float(v) > 0.0 for v in printed)
    assert namespace["density"].shape == (181,)


def test_modules_import_only_modules_before_them_in_the_readme_map():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    paragraph = readme.split("Module map, bottom up:", 1)[1].split("\n\n", 1)[0]
    order = re.findall(r"`(\w+)`", paragraph)
    package = root / "src" / "nucsp"
    assert sorted(order) == sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    for i, name in enumerate(order):
        tree = ast.parse((package / (name + ".py")).read_text())
        imported = {node.module.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module}
        assert imported <= set(order[:i]), (name, sorted(imported - set(order[:i])))


@pytest.mark.parametrize("build, message", [
    # numeric text, which a config or data file may hold, is read into a
    # number before a record is built; a record given it refuses it
    (lambda: NuclideRecord("X", "14.4", 1e-7, 1.0, 1, 3), "e0_keV: must be a number"),
    (lambda: NuclideRecord("X", 14.4, 1e-7, "1.0", 1, 3), "alpha_ic: must be a number"),
    (lambda: LatticeFilm("x", "0.3", (0.0, 0.0), 0.3), "a_nm: must be a number"),
    (lambda: Probe(-1, "9.4e8", 0.9), "rest_energy_eV: must be a number"),
    (lambda: Probe(-1, 9.4e8, "0.9"), "beta: must be a number"),
    (lambda: CutoffPolicy("0.001"), "r_min_nm: must be a number"),
    # every field is required, whatever default a config row gives it
    (lambda: NuclideRecord("X", 14.4, 1e-7, 1.0, 1, 3, None), "branch_divisor: required"),
    (lambda: LatticeFilm("x", 0.3, (None, 0.0), 0.3), "b_par_x_nm: required"),
    (lambda: Probe(-1, 9.4e8, None), "beta: required"),
    (lambda: CutoffPolicy(0.001, None), "smooth: required"),
])
def test_records_refuse_text_and_none(build, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        build()
