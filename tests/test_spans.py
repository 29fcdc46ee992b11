"""The traced benchmark run wraps each method that `perfbench/spans.py`
names in `METHODS`, read from its class's `__dict__`: a named method that is
deleted from `src/`, or moved off its class, makes every traced operation
fail with a KeyError.  This reads the list and checks each name."""
import importlib
import importlib.util
import os

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(HERE, "perfbench", "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_method_the_spans_wrap_is_defined_on_its_class():
    methods = load_spans().METHODS
    assert methods
    for (layer, clsname), names in methods.items():
        cls = getattr(importlib.import_module(f"nkoszul.{layer}"), clsname)
        missing = [m for m in names if m not in cls.__dict__]
        assert not missing, f"nkoszul.{layer}.{clsname} lacks {missing}"
