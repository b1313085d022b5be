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
