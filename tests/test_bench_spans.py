"""The benchmark's traced runs time the names listed in bench/tracing.py's
SPANS, and stop with MissingName when one is gone: every listed name must
still be a function or class of its treeloc module."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _spans() -> dict:
    """SPANS of bench/tracing.py, loaded by path (it imports only sys and
    time)."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


SPANS = _spans()


@pytest.mark.parametrize("span", sorted(SPANS))
def test_every_traced_name_is_in_treeloc(span):
    modname, attr = SPANS[span]
    module = importlib.import_module(f"treeloc.{modname}")
    assert callable(getattr(module, attr, None)), f"treeloc.{modname}.{attr}"
