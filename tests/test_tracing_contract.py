"""The benchmark's tracer (bench/tracing.py) wraps canal4 functions by module
and name. Every name it lists must exist, so that a refactor which deletes or
renames one fails here rather than in a traced benchmark run."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_canal4():
    tracing = _load_tracing()
    names = tracing.SPANS + tracing.COUNTS
    for module_name, attr, _ in names:
        module = importlib.import_module(module_name)
        owner, _, leaf = attr.rpartition(".")
        # install() reads a method from its class's own __dict__
        target = vars(getattr(module, owner)).get(leaf) if owner else getattr(module, attr, None)
        assert callable(target), f"{module_name}.{attr} is traced but does not exist"


def test_tracer_installs_and_restores_every_wrapper():
    tracing = _load_tracing()
    modules = {name: importlib.import_module(name)
               for name, _, _ in tracing.SPANS + tracing.COUNTS}

    def current():
        return {(name, attr): (vars(getattr(modules[name], attr.split(".")[0]))[attr.split(".")[1]]
                               if "." in attr else getattr(modules[name], attr))
                for name, attr, _ in tracing.SPANS + tracing.COUNTS}

    before = current()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = current()
        assert all(hasattr(fn, "__wrapped__") for fn in wrapped.values())
    finally:
        tracer.uninstall()
    assert current() == before


def test_a_radius_profile_records_derive_and_compile_spans():
    """Building a radius profile runs expr.differentiate and expr.compile_expr
    under the tracer, so a refactor cannot route around the wrapped names and
    read expr.compile_ms as 0."""
    from canal4.canal import RadiusProfile
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        RadiusProfile.from_expr("0.6 + 0.3*s + 0.05*s^2")
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"expr.differentiate", "expr.compile_expr"} <= names
