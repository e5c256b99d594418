"""The benchmark calls package functions by name and wraps some of them; a
deletion or rename that breaks it should fail here, in seconds, not in a
benchmark run."""

import importlib
import importlib.util
import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


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


@pytest.fixture
def perfbench(monkeypatch):
    """The benchmark's `workloads` and `run` modules, imported the way
    `perfbench/run.py` imports them and forgotten afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    names = ("checks", "workloads", "run")
    assert not any(n in sys.modules for n in names)
    try:
        yield (importlib.import_module("workloads"),
               importlib.import_module("run"))
    finally:
        for name in names:
            sys.modules.pop(name, None)


def test_benchmark_workloads_run_one_cycle(perfbench, tmp_path):
    # one whole cycle of every workload at fixed seeds, every op checked
    workloads, run = perfbench
    for name, cls in workloads.WORKLOADS.items():
        workload = cls()
        workload.setup(PERFBENCH.parent, tmp_path)
        workload.in_process = True  # cli_cold: cli.main in this process
        for i in range(workload.cycle):
            _, payload = workload.op(i, 1000 + i)
            assert workload.check(i, payload) == [], name
    args = types.SimpleNamespace(seed=1, seconds=1, trace=0)
    assert run.facts(args, workload)["workload"] == name
