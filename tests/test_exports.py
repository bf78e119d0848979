"""Export-list tests: the package exports exactly the public names of its five
library modules, every public name has one home module, and every function
the perfbench tracer wraps still exists, so a deletion cannot leave a dangling
re-export or trace target behind."""

import ast
import importlib
import pkgutil
import warnings
from pathlib import Path

import pytest

import qcr

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
LIBRARY_MODULES = ("instances", "linalg", "solver", "certificate", "experiments")


def submodule_exports():
    """{submodule name: its __all__} for every module of the qcr package."""
    out = {}
    for info in pkgutil.iter_modules(qcr.__path__):
        mod = importlib.import_module(f"qcr.{info.name}")
        out[info.name] = list(getattr(mod, "__all__", ()))
    return out


def traced_names():
    """The TRACED tuple of perfbench/spans.py, read from its source without
    importing it."""
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {SPANS}")


def test_package_exports_have_one_home_module():
    exports = submodule_exports()
    for name in qcr.__all__:
        if name == "__version__":
            continue
        homes = [mod for mod, names in exports.items() if name in names]
        assert len(homes) == 1, f"{name} is exported by {homes}"
        home = importlib.import_module(f"qcr.{homes[0]}")
        assert getattr(qcr, name) is getattr(home, name)


def test_package_exports_are_the_library_modules_exports():
    names = {"__version__"}
    for module in LIBRARY_MODULES:
        mod = importlib.import_module(f"qcr.{module}")
        names.update(mod.__all__)
        for name in mod.__all__:
            assert getattr(qcr, name) is getattr(mod, name)
    assert set(qcr.__all__) == names
    assert len(qcr.__all__) == len(names)


def test_traced_names_resolve_to_callables():
    traced = traced_names()
    assert traced
    for dotted in traced:
        module, func = dotted.split(".")
        target = getattr(importlib.import_module(f"qcr.{module}"), func, None)
        assert callable(target), f"{dotted} does not resolve to a callable"


def test_distribution_version_is_the_package_version():
    # pyproject.toml reads its version from qcr.__version__, not a copy
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config = pyprojecttoml.read_configuration(ROOT / "pyproject.toml", expand=True)
    assert config["project"]["dynamic"] == ["version"]
    assert config["project"]["version"] == qcr.__version__
