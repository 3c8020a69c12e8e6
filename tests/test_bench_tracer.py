"""The bench tracer (bench/tracer.py) wraps library functions by name, so a
renamed or deleted function breaks `bench/run.py --trace 1`. These tests load
the tracer by path, without putting bench/ on the import path, and check that
every name it wraps still exists."""

from importlib import import_module
from pathlib import Path

import hombench

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer_namespace():
    namespace = {"__name__": "bench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), namespace)
    return namespace


def test_every_traced_function_exists():
    traced = _tracer_namespace()["TRACED"]
    missing = [(mod, fn) for mod, fns in traced for fn in fns
               if not callable(getattr(import_module("hombench." + mod), fn, None))]
    assert missing == []


def test_traced_linear_map_methods_are_defined_on_the_class():
    methods = vars(hombench.LinearMap)
    assert callable(methods.get("__matmul__"))
    assert callable(methods.get("inverse"))
