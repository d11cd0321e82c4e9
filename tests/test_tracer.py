"""The benchmark's tracer against the library it wraps.

``perfbench/tracer.py`` names the functions it times in ``SPANS``; a span
whose function the library no longer has breaks every traced benchmark run
with an ``AttributeError``, so each name is checked here.
"""

import importlib.util
from pathlib import Path

import renyifair
from renyifair import cli

REPO = Path(__file__).resolve().parent.parent


def _import_tracer():
    # Loaded by path: perfbench/ is not a package.
    where = importlib.util.spec_from_file_location("tracer", REPO / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(where)
    where.loader.exec_module(module)
    return module


tracer = _import_tracer()
MODULES = [cli] + [getattr(renyifair, layer) for layer in tracer.LIBRARY_LAYERS]


def span_function(span):
    layer, name = span.split(".")
    return getattr(getattr(renyifair, layer), name, None)


def test_every_span_names_a_library_function():
    for span in tracer.SPANS:
        assert span.split(".")[0] in tracer.LIBRARY_LAYERS, span
        assert callable(span_function(span)), span


def test_tracer_wraps_each_span_and_restores_every_module():
    before = [dict(vars(m)) for m in MODULES]
    originals = {span: span_function(span) for span in tracer.SPANS}
    with tracer.Tracer():
        for span, original in originals.items():
            assert span_function(span).__wrapped__ is original, span
    assert [dict(vars(m)) for m in MODULES] == before
