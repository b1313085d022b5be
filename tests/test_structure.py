"""Design rules of the package that a test can state."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

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
    # no linter runs on the package, so this is the check for stale imports;
    # __init__.py imports to re-export
    package = pathlib.Path(freelie.__file__).parent
    unused = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py" and (names := _unused_imports(path.read_text()))
    }
    assert unused == {}
