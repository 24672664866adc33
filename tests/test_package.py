"""The package surface: every exported name exists, and the README's
Python example runs as written."""

import ast
import importlib
import re
from pathlib import Path

import ellipticity_lab as el
from ellipticity_lab import errors

PACKAGE = Path(el.__file__).resolve().parent
README = PACKAGE.parents[1] / "README.md"


def test_every_all_entry_exists():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__main__":
            continue  # importing it runs the CLI
        module = importlib.import_module(f"ellipticity_lab.{path.stem}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (path.stem, name)


def test_package_names_are_public_names_of_their_modules():
    # every `from .module import name` in the package is a name the module
    # lists in its __all__, where it has one
    found = 0
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"ellipticity_lab.{node.module}")
            public = getattr(module, "__all__", None)
            for alias in node.names:
                found += 1
                assert getattr(el, alias.name) is getattr(module, alias.name)
                assert public is None or alias.name in public, (node.module, alias.name)
    assert found > 0


def test_every_error_is_raised_by_name_and_exported():
    # an error type that no code raises by name only widens what callers
    # must catch
    classes = [
        node.name
        for node in ast.parse((PACKAGE / "errors.py").read_text()).body
        if isinstance(node, ast.ClassDef) and node.name != "EllipticityError"
    ]
    raised = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert classes
    assert [name for name in classes if name not in raised] == []
    assert [name for name in classes if getattr(el, name, None) is not getattr(errors, name)] == []


def test_readme_python_example_runs():
    text = README.read_text()
    section = text[text.index("## Python API") :]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None
    exec(compile(block.group(1), "README.md", "exec"), {})


def test_eigensolves_go_through_the_two_kernels():
    # numpy's symmetric eigensolvers, public or LAPACK gufunc, are named in
    # spectral._eigh (every solve of the package, the oracle's included) and
    # nowhere else
    solvers = {"eigh", "eigvalsh", "eigh_lo", "eigh_up", "eigvalsh_lo", "eigvalsh_up"}
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    owner[inner] = node.name
        for node in ast.walk(tree):
            name = None
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.alias):
                name = node.asname or node.name
            if name in solvers:
                found.add((path.stem, owner.get(node)))
    assert found == {("spectral", "_eigh")}


def test_the_3_vector_helpers_live_only_in_spheres():
    # dot, cross and unit on Python floats have one implementation, shared
    # by the oracle's refinement and the case ascent
    helpers = {"dot", "cross", "unit", "_dot", "_cross", "_unit"}
    owners = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
            elif isinstance(node, ast.Assign):
                name = next((t.id for t in node.targets if isinstance(t, ast.Name)), None)
            else:
                continue
            if name in helpers:
                owners.add((path.stem, name))
    assert owners == {("spheres", "dot"), ("spheres", "cross"), ("spheres", "unit")}
