"""Design rules of the package that a test can state."""

import ast
import importlib
import inspect
import os
import pathlib
import pkgutil
import subprocess
import sys

import freelie
from freelie.exactalg import TermMap


def _package_classes():
    """(qualified name, class) for every class defined in a freelie module."""
    for info in pkgutil.iter_modules(freelie.__path__):
        module = importlib.import_module(f"freelie.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                yield f"{module.__name__}.{name}", cls


def test_every_arithmetic_class_is_a_term_map():
    # one container for exact values: a class with its own + or * that is not
    # a TermMap is a second copy of the arithmetic
    offenders = [
        name
        for name, cls in _package_classes()
        if ("__add__" in vars(cls) or "__mul__" in vars(cls)) and not issubclass(cls, TermMap)
    ]
    assert offenders == []


def test_term_maps_inherit_the_shared_surface():
    # TermMap owns *, bool and repr, and a zero value is the constructor
    # called without terms: a subclass that restates one of them is a second
    # copy of it
    shared = {"__mul__", "__rmul__", "__repr__", "__bool__", "zero"}
    offenders = [
        f"{name}.{attr}"
        for name, cls in _package_classes()
        if issubclass(cls, TermMap) and cls is not TermMap
        for attr in sorted(shared & set(vars(cls)))
    ]
    assert offenders == []


def test_one_alphabet_operations_serve_both_containers():
    # multiply, plethysm_p, h_pleth, e_pleth and expand_truncated take a
    # SymFunc or a BiSymFunc; a bi_* copy of one of them is a second copy of
    # the operation.  bi_schur_expand is the exception: its result, an s-basis
    # expansion keyed by pairs, has no container.
    from freelie import symfunc

    twins = [
        name
        for name, fn in inspect.getmembers(symfunc, inspect.isfunction)
        if fn.__module__ == symfunc.__name__ and name.startswith("bi_")
    ]
    assert twins == ["bi_schur_expand"]


def test_character_table_stands_apart_from_the_tableau_routes():
    # the Schur side of kw and hook is the character table; if symfunc
    # imported the signed-tableau DP, the principal specializations or the
    # cyclic characters, the two routes of those checks could share a fault
    source = (pathlib.Path(freelie.__file__).parent / "symfunc.py").read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").removeprefix("freelie."))
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.removeprefix("freelie.") for alias in node.names)
    assert imported & {"tableau", "specialization", "cyclic"} == set()


def _unused_imports(source: str) -> list[str]:
    """The names a module imports and never references; a name in an
    annotation is a reference."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_guard_sees_stale_names():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import operator\n"
        "from x import A, B\n"
        "def f(a: A) -> int:\n"
        "    return math.floor(a)\n"
    )
    assert _unused_imports(source) == ["operator (line 3)", "B (line 4)"]


def test_no_module_imports_a_name_it_never_uses():
    # no linter runs on the package, so this is the check for stale imports
    package = pathlib.Path(freelie.__file__).parent
    unused = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if (names := _unused_imports(path.read_text()))
    }
    assert unused == {}


def test_package_names_load_on_first_use():
    # importing the package loads no submodule; each re-exported name is
    # the object its module defines, and each submodule is an attribute
    src = str(pathlib.Path(freelie.__file__).parents[1])
    code = "import sys, freelie; print(sorted(m for m in sys.modules if m.startswith('freelie.')))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert (proc.returncode, proc.stdout.strip()) == (0, "[]"), proc.stderr
    for name, module in freelie._EXPORTS.items():
        assert getattr(freelie, name) is getattr(importlib.import_module(f"freelie.{module}"), name)
    for info in pkgutil.iter_modules(freelie.__path__):
        assert freelie.__getattr__(info.name) is importlib.import_module(f"freelie.{info.name}")


class _CheckReportCalls(ast.NodeVisitor):
    """The qualified name of the innermost function or class around each
    call of CheckReport in a module."""

    def __init__(self, module: str):
        self.scope = [module]
        self.callers = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id == "CheckReport":
            self.callers.append(".".join(self.scope))
        self.generic_visit(node)


def test_only_the_route_comparison_builds_a_check_report():
    # every check is two routes compared by verify._equality; a CheckReport
    # built anywhere else is a check that decides its own outcome
    package = pathlib.Path(freelie.__file__).parent
    callers = set()
    for path in sorted(package.glob("*.py")):
        visitor = _CheckReportCalls(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        callers.update(visitor.callers)
    assert callers == {"verify._equality"}


def test_every_suite_yields_its_routes():
    # a suite yields (check, parameters, lhs, rhs) and run_suite alone
    # compares them: a suite that returns reports has its own check loop
    from freelie import verify

    offenders = [
        name for name, suite in verify.SUITES.items() if not inspect.isgeneratorfunction(suite.run)
    ]
    assert offenders == []
