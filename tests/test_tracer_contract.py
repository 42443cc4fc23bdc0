"""The benchmark's tracer names deltaprime's layers by module attribute.

perfbench/tracing.py wraps each attribute in FUNCTIONS and each method in
CLASSES for a traced run, and reports one it cannot find as missing, which
leaves the layers' metrics absent.  Every name it lists must resolve to a
callable defined in src/, so a rename in the library shows here, not first
in a traced benchmark run.
"""
import importlib
import importlib.util
import inspect
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parent.parent
SRC = ROOT / "src" / "deltaprime"


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _tracing()


def _resolve(path):
    mod, attr = path.split(".")
    return getattr(importlib.import_module(f"deltaprime.{mod}"), attr)


def _in_src(obj):
    source = inspect.getsourcefile(inspect.unwrap(obj))
    return pathlib.Path(source).resolve().parent == SRC.resolve()


@pytest.mark.parametrize("path", sorted(
    p for paths in TRACING.FUNCTIONS.values() for p in paths))
def test_traced_function_is_a_callable_in_src(path):
    fn = _resolve(path)
    assert callable(fn) and _in_src(fn)


@pytest.mark.parametrize("path, method", sorted(
    (path, m) for path, methods in TRACING.CLASSES.items() for m in methods))
def test_traced_method_is_a_callable_in_src(path, method):
    cls = _resolve(path)
    assert inspect.isclass(cls) and _in_src(cls)
    # defined by the class itself or a base in src/, not inherited from
    # object (whose __init__ has no source)
    fn = getattr(cls, method)
    assert callable(fn) and _in_src(fn)
