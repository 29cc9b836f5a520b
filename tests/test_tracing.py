"""The benchmark harness's tracer patches module-level names of congcert
(`perfbench/tracing.py`, `BINDINGS`); a name it patches that is gone from
its module breaks every traced run.  Some of those names are imported only
for the tracer, so this checks that each one is still there."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_binding_resolves_to_a_callable():
    for module_name, attr, span_name in _tracing().BINDINGS:
        module = importlib.import_module(f"congcert.{module_name}")
        assert callable(getattr(module, attr, None)), (module_name, attr, span_name)


def test_search_binds_certificate():
    # Tracer.install counts proofs by wrapping search.Certificate
    assert callable(importlib.import_module("congcert.search").Certificate)
