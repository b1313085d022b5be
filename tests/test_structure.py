"""Design rules of the package that a test can state."""

import importlib
import inspect
import pkgutil

import freelie
from freelie.exactalg import TermMap


def test_every_arithmetic_class_is_a_term_map():
    # one container for exact values: a class with its own + or * that is not
    # a TermMap is a second copy of the arithmetic
    offenders = []
    for info in pkgutil.iter_modules(freelie.__path__):
        module = importlib.import_module(f"freelie.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module.__name__:
                continue
            own = vars(cls)
            if ("__add__" in own or "__mul__" in own) and not issubclass(cls, TermMap):
                offenders.append(f"{module.__name__}.{name}")
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
