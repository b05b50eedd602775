"""The benchmark's traced run finds every layer it wraps, by name.

``perfbench/spans.py`` wraps boxkites functions from outside the program
and reports a layer's metrics absent when its function is gone, so a
rename would only show up as missing numbers.  This pins the names.
"""

import importlib.util
from pathlib import Path

from boxkites import emanation

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    spans = load_spans()
    tracer = spans.Tracer()
    original = emanation.find_box_kites
    tracer.install(spans.boxkites_modules())
    try:
        assert tracer.installed == set(spans.TARGETS)
    finally:
        tracer.uninstall()
    assert emanation.find_box_kites is original
    assert spans.blade_sign_info() is not None
