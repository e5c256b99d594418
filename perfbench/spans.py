"""In-memory span tracer for the traced benchmark run.

Spans are recorded from the benchmark's own files: `install` replaces
public functions with timing wrappers by setting module (or class)
attributes, and `restore` puts the originals back.  Where the package binds
a name with `from ... import`, every binding is wrapped under one span name.

A span is (name, start, end, parent span, op id, exception name, counts).
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict


def _run_condition_counts(args, kwargs, result):
    from vapornode.simulate import BLOCK_SIZE

    n = args[3] if len(args) > 3 else kwargs["n_trials"]
    return {"trials": n, "blocks": math.ceil(n / BLOCK_SIZE),
            "kept_events": result.total()}


def _run_tomography_counts(args, kwargs, result):
    return {"triggers": int(result.triggers_per_setting.sum())}


def _mle_counts(args, kwargs, result):
    return {"iterations": result.iterations,
            "not_converged": int(not result.converged)}


# span name -> (bindings as "module:attr" or "module:Class.attr", count hook)
TARGETS = {
    "config.load_config": (["vapornode.config:load_config",
                            "vapornode.cli:load_config"], None),
    "config.config_hash": (["vapornode.config:NodeConfig.config_hash"], None),
    "simulate.run_condition": (["vapornode.simulate:run_condition"],
                               _run_condition_counts),
    "simulate.run_solo": (["vapornode.simulate:run_solo"], None),
    "simulate.run_source": (["vapornode.simulate:run_source"], None),
    "simulate.run_tomography": (["vapornode.simulate:run_tomography"],
                                _run_tomography_counts),
    "analysis.centered_window": (["vapornode.analysis:centered_window"], None),
    "analysis.extract_snr": (["vapornode.analysis:extract_snr"], None),
    "analysis.internal_storage_efficiency": (
        ["vapornode.analysis:internal_storage_efficiency"], None),
    "analysis.window_sweep": (["vapornode.analysis:window_sweep"], None),
    "analysis.fit_exponential": (["vapornode.analysis:fit_exponential"], None),
    "analysis.utility_time": (["vapornode.analysis:utility_time"], None),
    "tomography.mle_tomography": (["vapornode.tomography:mle_tomography"],
                                  _mle_counts),
    "tomography.linear_inversion": (["vapornode.tomography:linear_inversion"],
                                    None),
    "spectra.select_operating_point": (
        ["vapornode.spectra:select_operating_point"], None),
    "spectra.heralding_vs_cavity_detuning": (
        ["vapornode.spectra:heralding_vs_cavity_detuning"], None),
    "spectra.memory_efficiency_vs_detuning": (
        ["vapornode.spectra:memory_efficiency_vs_detuning"], None),
    "optics.cascade_suppression_db": (["vapornode.optics:cascade_suppression_db"],
                                      None),
    "optics.cascade_transmission": (["vapornode.optics:cascade_transmission"],
                                    None),
    "optics.cascade_effective_fwhm": (["vapornode.optics:cascade_effective_fwhm"],
                                      None),
    "states.fidelity": (["vapornode.states:fidelity"], None),
    "states.outcome_probability": (["vapornode.states:outcome_probability"],
                                   None),
    "states.fidelity_from_snr": (["vapornode.states:fidelity_from_snr",
                                  "vapornode.analysis:fidelity_from_snr",
                                  "vapornode.experiments:fidelity_from_snr"],
                                 None),
    "experiments.solo_metrics": (["vapornode.experiments:solo_metrics"], None),
    "experiments.source_metrics": (["vapornode.experiments:source_metrics"],
                                   None),
    "experiments.storage_time_scan": (["vapornode.experiments:storage_time_scan"],
                                      None),
    "experiments.detection_window_sweep": (
        ["vapornode.experiments:detection_window_sweep"], None),
    "experiments.model_fidelity_curve": (
        ["vapornode.experiments:model_fidelity_curve"], None),
    "histograms.to_csv": (["vapornode.histograms:Histogram.to_csv"], None),
    "cli.main": (["vapornode.cli:main"], None),
}


class Tracer:
    """Records spans; the op id is set by the benchmark loop."""

    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, op, exc, counts]
        self._stack = []
        self._patched = []
        self.op = None

    def _wrap(self, name, fn, count_hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), name, time.perf_counter(), None,
                    self._stack[-1][0] if self._stack else None, self.op,
                    None, None]
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if count_hook is not None:
                span[7] = count_hook(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every binding whose module is already imported."""
        for name, (bindings, hook) in TARGETS.items():
            for binding in bindings:
                module_name, attr = binding.split(":")
                owner = sys.modules.get(module_name)
                if owner is None:
                    continue
                *path, attr = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, original, hook))
                self._patched.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "op", "exc", "counts")
        with open(path, "w") as f:
            json.dump({"keys": keys, "spans": self.spans}, f)
            f.write("\n")

    def summary(self, select) -> dict:
        """Per span name over the spans `select` accepts: calls, raised,
        inclusive and self seconds, and the summed counts; plus each op's
        seconds covered by top-level spans."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s[4] is not None:
                child_time[s[4]] += s[3] - s[2]
        per_name = defaultdict(lambda: {"calls": 0, "raised": 0, "total_s": 0.0,
                                        "self_s": 0.0, "counts": defaultdict(int)})
        covered = defaultdict(float)
        for s in filter(select, self.spans):
            d = s[3] - s[2]
            agg = per_name[s[1]]
            agg["calls"] += 1
            agg["raised"] += s[6] is not None
            agg["total_s"] += d
            agg["self_s"] += d - child_time[s[0]]
            for k, v in (s[7] or {}).items():
                agg["counts"][k] += v
            if s[4] is None:
                covered[s[5]] += d
        return {"names": per_name, "covered_s": covered}
