"""The bench tracer (bench/tracer.py) wraps library functions by name, so a
renamed or deleted function breaks `bench/run.py --trace 1`. These tests load
the tracer by path, without putting bench/ on the import path, and check that
every name it wraps still exists, and that calls made through the check and
construction registries reach its wrappers."""

import sys
from importlib import import_module
from pathlib import Path

import hombench
import hombench.cli
from hombench import fixtures

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


def _bindings():
    """Every global of every hombench module, every value of a module-level
    dict, and the LinearMap attributes, keyed by where they are bound."""
    bound = dict((("LinearMap", attr), value) for attr, value in vars(hombench.LinearMap).items())
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "hombench" or name.startswith("hombench.")):
            continue
        for attr, value in vars(module).items():
            bound[(name, attr)] = value
            if isinstance(value, dict):
                bound.update(((name, attr, key), entry) for key, entry in value.items())
    return bound


def test_tracer_sees_calls_made_through_the_registries():
    docs = dict(fixtures.fixture_documents())
    before = _bindings()
    tracer = _tracer_namespace()["Tracer"](hombench)
    tracer.install()
    try:
        tracer.recording = True
        hombench.run_check("double-pre-lie-equiv", [docs["nilpotent_coadjoint_pair"]])
        hombench.run_derive("double-lie", [docs["nilpotent_lie_pair"]])
        tracer.recording = False
        calls = tracer.snapshot()["calls"]
    finally:
        tracer.uninstall()
    for name in ("matched.double_pre_lie", "matched.validate_matched_pair_pre_lie",
                 "matched.double_lie", "checks.run_check", "checks.run_derive"):
        assert calls[name] >= 1, name
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
