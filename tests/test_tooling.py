"""Names that nothing imports must still resolve: the benchmark tracer's
wrapped functions, and every module's ``__all__``."""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrapped_names():
    tracer = load_tracer()
    names = [(module, attr) for module, attr, *_ in tracer.FUNCTION_SPANS]
    names += [(module, attr) for module, attr, _ in tracer.FUNCTION_TIMERS]
    names += [(module, f"{cls}.{method}")
              for module, cls, method, *_ in tracer.METHOD_SPANS + tracer.METHOD_COUNTERS]
    return names


@pytest.mark.parametrize("module,attr", wrapped_names())
def test_every_traced_name_resolves(module, attr):
    target = importlib.import_module(module)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


def exported_names():
    package = importlib.import_module("braidrep")
    names = []
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"braidrep.{info.name}")
        names += [(module.__name__, name) for name in getattr(module, "__all__", ())]
    return names


@pytest.mark.parametrize("module,name", exported_names())
def test_every_exported_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)
