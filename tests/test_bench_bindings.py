"""The traced benchmark wraps package functions by name; a deletion or
rename that breaks it should fail here, in seconds, not in a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _span_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_benchmark_span_targets_resolve():
    for name, (bindings, _) in _span_targets().items():
        for binding in bindings:
            module_name, attr = binding.split(":")
            owner = importlib.import_module(module_name)
            *path, attr = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            # the tracer replaces the attribute found in the owner's __dict__
            assert callable(owner.__dict__.get(attr)), f"{name}: {binding}"
