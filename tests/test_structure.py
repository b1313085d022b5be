"""Design rules of the package that a test can state."""

import ast
import importlib
import inspect
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

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
    # a TermMap is a second copy of the arithmetic; the one exception is the
    # rational coefficient the term maps hold
    offenders = [
        name
        for name, cls in _package_classes()
        if ("__add__" in vars(cls) or "__mul__" in vars(cls)) and not issubclass(cls, TermMap)
    ]
    assert offenders == ["freelie.exactalg.Rational"]


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
    # the operation.  bi_schur_expand is the exception: a Schur expansion is
    # a plain dict, keyed by partitions in one alphabet and by pairs in two.
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


def test_symmetric_functions_take_rational_coefficients_only():
    # q and t enter only through the Kraskiewicz-Weyman generating function,
    # a dict of q,t-polynomials: symfunc imports no QTPoly, and a symmetric
    # function refuses one as a coefficient
    from freelie.exactalg import QTPoly
    from freelie.symfunc import BiSymFunc, SymFunc

    source = (pathlib.Path(freelie.__file__).parent / "symfunc.py").read_text()
    imported = {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "QTPoly" not in imported
    for make in (lambda c: SymFunc({(1,): c}), lambda c: BiSymFunc.term((1,), (), c)):
        with pytest.raises(TypeError):
            make(QTPoly.q())


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


class _Scopes(ast.NodeVisitor):
    """The qualified name of the innermost function or class around each
    node of a module that ``wanted`` accepts."""

    def __init__(self, module: str, wanted):
        self.scope = [module]
        self.wanted = wanted
        self.found = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef

    def generic_visit(self, node):
        if self.wanted(node):
            self.found.append(".".join(self.scope))
        super().generic_visit(node)


def _scopes(source: str, module: str, wanted) -> list[str]:
    visitor = _Scopes(module, wanted)
    visitor.visit(ast.parse(source))
    return visitor.found


def _is_check_dict(node) -> bool:
    """A dict display with a "check" key."""
    return isinstance(node, ast.Dict) and any(
        isinstance(k, ast.Constant) and k.value == "check" for k in node.keys
    )


def _check_dict_builders(source: str, module: str) -> list[str]:
    return _scopes(source, module, _is_check_dict)


def test_check_dict_guard_sees_a_suite_that_decides_its_own_outcome():
    source = (
        "def suite_demo(n):\n"
        "    yield {'check': 'demo', 'parameters': {'n': n}, 'status': 'pass'}\n"
    )
    assert _check_dict_builders(source, "verify") == ["verify.suite_demo"]


def test_only_the_route_comparison_builds_a_check_report():
    # every check is two routes compared by verify._equality; a check's
    # report built anywhere else is a check that decides its own outcome
    package = pathlib.Path(freelie.__file__).parent
    builders = set()
    for path in sorted(package.glob("*.py")):
        builders.update(_check_dict_builders(path.read_text(), path.stem))
    assert builders == {"verify._equality"}


def _calls_to_p(node) -> bool:
    return isinstance(node, ast.Call) and "to_p" in (
        getattr(node.func, "id", None),
        getattr(node.func, "attr", None),
    )


def test_a_schur_expansion_is_a_plain_dict():
    # symmetric functions live in the power sums and carry no basis tag; a
    # Schur expansion is a dict in one alphabet as in two, and to_p, which
    # takes a one-alphabet one back to the power sums, is the one Schur to
    # power-sum conversion, and only the Cauchy check needs it
    from freelie import symfunc
    from freelie.exactalg import TermMap
    from freelie.superlie import super_bi_brandt_char, super_brandt_char
    from freelie.symfunc import BiSymFunc, SymFunc

    assert SymFunc.__slots__ == () and not hasattr(symfunc, "BASES")
    assert not hasattr(SymFunc(), "basis") and not hasattr(BiSymFunc(), "basis")
    for make in (SymFunc, SymFunc.one, SymFunc.term):
        assert "basis" not in inspect.signature(make).parameters, make
    assert type(symfunc.schur_expand(super_brandt_char(2, 1))) is dict
    assert type(symfunc.bi_schur_expand(super_bi_brandt_char(2, 1))) is dict
    # a value is built in its own layout, from exact coefficients
    for method, parameters in (
        (TermMap._with, ["self", "terms"]),
        (TermMap._product, ["self", "other", "combine", "keep"]),
        (TermMap._fill, ["self", "terms", "key"]),
    ):
        assert list(inspect.signature(method).parameters) == parameters, method
    package = pathlib.Path(freelie.__file__).parent
    callers = [
        scope
        for path in sorted(package.glob("*.py"))
        for scope in _scopes(path.read_text(), path.stem, _calls_to_p)
    ]
    assert callers == ["specialization.super_cauchy_routes"]


def _unreferenced_private_names(sources: list[str]) -> list[str]:
    """The functions, methods and classes named with one leading underscore
    that no ``ast.Name`` or ``ast.Attribute`` of the sources refers to."""
    defined, referenced = [], set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.append(node.name)
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return [name for name in defined if name not in referenced]


def test_private_code_guard_sees_stale_names():
    source = (
        "def _used(n):\n"
        "    return n\n"
        "def _stale(n):\n"
        "    return n\n"
        "class _Box:\n"
        "    def _method(self):\n"
        "        return _used(1)\n"
        "def __dunder__():\n"
        "    return _Box()._method()\n"
    )
    assert _unreferenced_private_names([source]) == ["_stale"]


def test_no_private_code_is_unreferenced():
    # no linter runs on the package, so this is the check for private code
    # that nothing calls any more
    package = pathlib.Path(freelie.__file__).parent
    sources = [path.read_text() for path in sorted(package.glob("*.py"))]
    assert _unreferenced_private_names(sources) == []


def _foreign_private_reads(source: str) -> list[str]:
    """The private module-level names of other freelie modules that a
    module reads, as ``mod._x`` after ``from . import mod`` or through
    ``from .mod import _x``."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("freelie")):
            for alias in node.names:
                if node.module in (None, "freelie"):
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    found.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_private_name_guard_sees_foreign_reads():
    source = (
        "from . import tableau, verify as v\n"
        "from .exactalg import QTPoly, _qt_key\n"
        "from freelie.partition import _private\n"
        "def f(x):\n"
        "    return tableau._check_budget(x), v.SUITES, x._own, tableau.__name__\n"
    )
    assert _foreign_private_reads(source) == [
        "exactalg._qt_key", "freelie.partition._private", "tableau._check_budget"
    ]


def test_no_module_reads_another_modules_private_names():
    # a module's private names are its own: another module that needs one
    # calls it through a public name
    package = pathlib.Path(freelie.__file__).parent
    reads = {
        path.name: found
        for path in sorted(package.glob("*.py"))
        if (found := _foreign_private_reads(path.read_text()))
    }
    assert reads == {}


def test_every_suite_yields_its_routes():
    # a suite yields (check, parameters, lhs, rhs) and run_suite alone
    # compares them: a suite that returns reports has its own check loop
    from freelie import verify

    offenders = [
        name for name, suite in verify.SUITES.items() if not inspect.isgeneratorfunction(suite.run)
    ]
    assert offenders == []
