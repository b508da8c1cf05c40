"""The package's public surface: the modules' own export lists, and README's
library examples run as written."""

import ast
import inspect
import re
from pathlib import Path

import pytest

import nucsp
from nucsp import (brems, crystal_sp, finite_array, nuclide, numerics, probe, scenarios,
                   single_nucleus)

_MODULES = (numerics, nuclide, probe, single_nucleus, finite_array, crystal_sp, brems,
            scenarios)
_EXPORTS = [name for module in _MODULES for name in module.__all__]


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
