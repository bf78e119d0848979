"""Export-list tests: the package exports exactly the public names of its five
library modules, every public name has one home module, every name in the
__all__ of any qcr module has a reader in the program's own code, every
function the perfbench tracer wraps still exists, and every name the
acceptance module imports from qcr resolves, so a deletion cannot leave a
dangling re-export, trace target or import behind, and a public name that
only tests read cannot stay."""

import ast
import importlib
import pkgutil
import warnings
from pathlib import Path

import pytest

import qcr

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
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


def code_readers():
    """The names read as code in src/qcr, scripts/ and perfbench/: loads of a
    bare name, attribute reads, and the function of each TRACED string.
    Strings such as the __all__ entries, assignments, and a function's or
    class's reads of its own name inside its own body do not count."""
    readers = {dotted.split(".")[1] for dotted in traced_names()}

    def visit(node, own):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own = own | {node.name}
        read = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read = node.attr
        if read is not None and read not in own:
            readers.add(read)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    for folder in ("src/qcr", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            visit(ast.parse(path.read_text()), frozenset())
    return readers


def test_every_export_has_a_code_reader():
    # a public name that only tests read is a second definition of something
    # the program no longer needs
    readers = code_readers()
    unread = [
        f"{module}.{name}"
        for module, names in submodule_exports().items()
        for name in names
        if name not in readers
    ]
    assert not unread, f"exported names no code outside their definition reads: {unread}"


def test_acceptance_module_imports_resolve():
    # the module skips whole without cvxpy, so a name it imports from qcr
    # can vanish without any collected test failing
    imported = []
    for node in ast.walk(ast.parse(ACCEPTANCE.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "qcr":
            imported += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [(alias.name, None) for alias in node.names if alias.name.split(".")[0] == "qcr"]
    assert imported
    for module, name in imported:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{module}.{name} does not resolve"


def test_distribution_version_is_the_package_version():
    # pyproject.toml reads its version from qcr.__version__, not a copy
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config = pyprojecttoml.read_configuration(ROOT / "pyproject.toml", expand=True)
    assert config["project"]["dynamic"] == ["version"]
    assert config["project"]["version"] == qcr.__version__
