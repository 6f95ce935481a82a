"""The benchmark's traced span names resolve to functions the tracer wraps.

`perfbench/traced_cli.py` wraps every public function defined in a layer
module (plus `CampaignReport.write`), and `perfbench/run.py` sums the spans
by name.  A metric naming a function that is renamed, removed or made
private silently reads 0, so each name is checked against the package here.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
SPAN_KINDS = ("self", "calls", "unique", "incl")


def load_run():
    """perfbench/run.py as a module, read without running its main()."""
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def span_names():
    """Every function name that a span metric of PER_LAYER sums over."""
    names = set()
    for _, (kind, *targets) in load_run().PER_LAYER.values():
        if kind in SPAN_KINDS:
            names.update(t for t in targets if not t.endswith("."))  # "frames." is a layer
    return sorted(names)


def test_span_metrics_name_functions():
    assert "frames.make_frame" in span_names()
    assert "frames.canonical_parseval" in span_names()
    assert len(span_names()) == 22


@pytest.mark.parametrize("name", span_names())
def test_span_name_resolves_to_a_public_callable(name):
    layer, *path = name.split(".")
    module = importlib.import_module(f"schattenframes.{layer}")
    assert not any(part.startswith("_") for part in path), name
    obj = module
    for part in path:
        obj = getattr(obj, part)
    assert callable(obj), name
    if len(path) == 1:  # the tracer wraps module functions defined in their layer
        assert inspect.isfunction(obj) and obj.__module__ == module.__name__, name
