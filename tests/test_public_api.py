"""The package's public surface: one consistent export list, and README's
library examples run as written."""

import importlib
from pathlib import Path

import pytest

import nucsp


@pytest.mark.parametrize("name", [n for n in nucsp.__all__ if n != "__version__"])
def test_export_is_listed_by_its_defining_module(name):
    obj = getattr(nucsp, name)
    module = importlib.import_module(obj.__module__)
    assert name in module.__all__
    assert getattr(module, name) is obj


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
