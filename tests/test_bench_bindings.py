"""The benchmark tracer wraps library functions by (module, name); a
renamed or removed binding would otherwise only show in the slow
benchmark smoke run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_bindings_resolve():
    tracing = _load_tracing()
    bindings = [
        *(b for layer in tracing.SPAN_LAYERS.values() for b in layer),
        *(b for layer in tracing.COUNTED_LAYERS.values() for b in layer),
        *tracing.ACT_WORD,
    ]
    missing = [
        f"{owner.__name__}.{name}"
        for owner, name in bindings
        if not callable(getattr(owner, name, None))
    ]
    assert not missing
    for family, cls, _ in tracing.FAMILIES:
        for op, _arity in tracing.FIELD_OPS:
            assert callable(cls.__dict__.get(op)), (family, op)
