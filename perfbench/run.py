"""vapornode benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src, nothing is installed.  One run measures one workload (workloads.py)
for S seconds as a closed loop with one client and checks every operation
(checks.py).  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the line before it holds the
machine and run facts.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json.
--trace 1 is the separate traced run: half of S untraced, half with spans
(spans.py), and reports the per-layer metrics of layers.json, including the
tracing overhead between the two halves and a determinism check.

Run records and spans are written to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPS = 5
IMPORT_REPS = 3
TAIL_BEYOND = 10  # ops beyond the reported tail latency
DETERMINISM_TRIALS = 1_000_000
POOL_TRIALS = 10_000_000
CHILD_TIMEOUT_S = 120

E2E_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s",
             "trials_per_s": "1/s", "peak_rss_mb": "MB"}


def fresh_python(args):
    """A fresh interpreter that imports the package from ./src."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)


def measure_setup(modules) -> list:
    """Seconds a fresh process takes to import the workload's modules and
    load the packaged config; the first process warms the bytecode and file
    caches and is not counted."""
    code = ("import time\nt0 = time.perf_counter()\n"
            + "".join(f"import {m}\n" for m in modules)
            + "from vapornode.config import load_config\nload_config()\n"
            "print(time.perf_counter() - t0)\n")
    times = []
    for _ in range(SETUP_REPS + 1):
        times.append(float(fresh_python(["-c", code]).stdout.strip()))
    return times[1:]


def _import_tree(stderr: str) -> dict:
    """Cumulative seconds of vapornode.cli, numpy and scipy from
    `-X importtime` output (children are printed before their parent)."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = len(name) - len(name.lstrip())
        rows.append((depth, name.strip(), int(cumulative) * 1e-6))
    totals = {"vapornode.cli": 0.0, "numpy": 0.0, "scipy": 0.0}
    stack = []  # ancestors of the current row, walking parents first
    for depth, name, cum in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if name == "vapornode.cli":
            totals[name] += cum
        elif top in ("numpy", "scipy") and not any(
                a.split(".")[0] == top for _, a in stack):
            totals[top] += cum
        stack.append((depth, name))
    return totals


def measure_imports() -> dict:
    runs = [_import_tree(fresh_python(["-X", "importtime", "-c",
                                       "import vapornode.cli"]).stderr)
            for _ in range(IMPORT_REPS + 1)][1:]
    med = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
    return {"startup.import_cli_s": med["vapornode.cli"],
            "startup.import_numpy_floor_s": med["numpy"],
            "startup.import_scipy_s": med["scipy"]}


def cpu_reference_ms() -> float:
    """Median time of a fixed pure-Python loop.  Shared virtual machines
    drift in speed by tens of percent over minutes, interpreted code most;
    recording this next to a result shows which speed the run saw."""
    times = []
    for _ in range(9):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i & 7
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def determinism(config) -> dict:
    """Same seed twice, and workers=1 against workers=nproc, must give
    bit-identical histograms; the pool's speed-up is recorded with it."""
    import numpy as np
    from vapornode import simulate

    def same(a, b):
        return (np.array_equal(a.counts, b.counts)
                and a.duration_accumulated_s == b.duration_accumulated_s
                and a.n_trials == b.n_trials)

    first = simulate.run_source(config, "memory", DETERMINISM_TRIALS, 1)
    again = simulate.run_source(config, "memory", DETERMINISM_TRIALS, 1)
    nproc = os.cpu_count() or 1
    t0 = time.perf_counter()
    one = simulate.run_solo(config, "memory", POOL_TRIALS, 1)
    t1 = time.perf_counter()
    pool = simulate.run_solo(config, "memory", POOL_TRIALS, nproc)
    t2 = time.perf_counter()
    return {"simulate.same_seed_identical": int(same(first, again)),
            "simulate.workers_identical": int(same(one, pool)),
            "simulate.pool_speedup": (t1 - t0) / (t2 - t1),
            "pool_workers": nproc}


class Op(NamedTuple):
    index: int
    latency: float
    trials: int
    failures: list


def run_ops(workload, seconds, seeds, first, tracer=None) -> list:
    """Closed loop: one op at a time, in whole cycles, stopping at the cycle
    boundary nearest to `seconds` (always at least one cycle)."""
    ops = []
    cycle_start = time.perf_counter()
    end = cycle_start + seconds
    i = first
    while True:
        seed = seeds.getrandbits(32)
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            trials, payload = workload.op(i, seed)
        except Exception as exc:  # a failed op is counted, not fatal
            trials, payload = 0, exc
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = None
        if isinstance(payload, Exception):
            failures = [f"op {i}: {type(payload).__name__}: {payload}"]
        else:
            try:
                failures = workload.check(i, payload)
            except Exception as exc:  # unreadable output fails the op
                failures = [f"op {i} check: {type(exc).__name__}: {exc}"]
        ops.append(Op(i, latency, trials, failures))
        for f in failures:
            print(f"check failed: {f}", file=sys.stderr)
        i += 1
        if (i - first) % workload.cycle == 0:
            now = time.perf_counter()
            if now + (now - cycle_start) / 2.0 >= end:
                return ops
            cycle_start = now


def tail(latencies) -> tuple:
    """(latency, percentile): the highest percentile with at least
    TAIL_BEYOND ops beyond it, or the maximum when there are too few ops."""
    lat = sorted(latencies)
    n = len(lat)
    if n <= TAIL_BEYOND:
        return lat[-1], 100.0
    return lat[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload, ops, setup_times) -> tuple:
    lat = [o.latency for o in ops]
    tail_s, tail_pct = tail(lat)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_s,
        "trials_per_s": sum(o.trials for o in ops) / sum(lat),
        "peak_rss_mb": peak_rss_mb(children=workload.name == "cli_cold"),
    }
    extra = {"op_tail_percentile": tail_pct, "ops": len(ops),
             "setup_samples_s": setup_times}
    return metrics, extra


def per_layer(workload, tracer, traced, untraced, setup_extra) -> dict:
    """Per-layer metrics from the traced half.  `_s` and count metrics are
    per traced op unless layers.json says per call."""
    from workloads import CLI_COMMANDS

    traced_ids = {o.index for o in traced}
    ops = len(traced)
    summ = tracer.summary(lambda s: s[5] in traced_ids)
    every = tracer.summary(lambda s: True)["names"]
    names = summ["names"]

    def agg(name, field="total_s"):
        return names[name][field] if name in names else 0.0

    def count(name, key):
        return names[name]["counts"].get(key, 0) if name in names else 0

    def per_call(name):  # over every span, set-up included
        a = every.get(name)
        return a["total_s"] / a["calls"] if a else 0.0

    m = dict(setup_extra)
    m["config.load_config_s"] = per_call("config.load_config")
    m["config.config_hash_s"] = per_call("config.config_hash")

    trials = count("simulate.run_condition", "trials")
    m["simulate.run_condition_s"] = agg("simulate.run_condition") / ops
    m["simulate.run_condition_calls"] = agg("simulate.run_condition",
                                            "calls") / ops
    m["simulate.ns_per_trial"] = (agg("simulate.run_condition") / trials * 1e9
                                  if trials else 0.0)
    m["simulate.blocks"] = count("simulate.run_condition", "blocks") / ops
    m["simulate.kept_events_per_trial"] = (
        count("simulate.run_condition", "kept_events") / trials
        if trials else 0.0)
    m["simulate.run_tomography_s"] = agg("simulate.run_tomography") / ops

    for fn in ("centered_window", "extract_snr", "internal_storage_efficiency",
               "window_sweep", "fit_exponential", "utility_time"):
        m[f"analysis.{fn}_s"] = agg(f"analysis.{fn}") / ops
        m[f"analysis.{fn}_calls"] = agg(f"analysis.{fn}", "calls") / ops

    mle_calls = agg("tomography.mle_tomography", "calls")
    m["tomography.mle_tomography_s"] = agg("tomography.mle_tomography") / ops
    m["tomography.linear_inversion_s"] = agg("tomography.linear_inversion") / ops
    m["tomography.mle_iterations"] = (
        count("tomography.mle_tomography", "iterations") / mle_calls
        if mle_calls else 0.0)
    m["tomography.mle_not_converged"] = count("tomography.mle_tomography",
                                              "not_converged") / ops

    herald = "spectra.heralding_vs_cavity_detuning"
    accept = "spectra.memory_efficiency_vs_detuning"
    m["spectra.select_operating_point_s"] = agg(
        "spectra.select_operating_point") / ops
    m[f"{herald}_s"] = agg(herald) / ops
    m[f"{herald}_calls"] = agg(herald, "calls") / ops
    m[f"{herald}_raised"] = agg(herald, "raised") / ops
    m[f"{accept}_s"] = agg(accept) / ops
    m[f"{accept}_calls"] = agg(accept, "calls") / ops
    # every acceptance call re-normalises over an 8001-point grid
    m["spectra.acceptance_grid_points"] = agg(accept, "calls") * 8001 / ops

    for fn in ("cascade_suppression_db", "cascade_transmission",
               "cascade_effective_fwhm"):
        m[f"optics.{fn}_s"] = agg(f"optics.{fn}") / ops
    m["states.fidelity_s"] = agg("states.fidelity") / ops
    m["states.outcome_probability_s"] = agg("states.outcome_probability") / ops
    m["states.fidelity_from_snr_calls"] = agg("states.fidelity_from_snr",
                                              "calls") / ops
    for fn in ("solo_metrics", "source_metrics", "storage_time_scan",
               "detection_window_sweep", "model_fidelity_curve"):
        m[f"experiments.{fn}_self_s"] = agg(f"experiments.{fn}", "self_s") / ops
    m["histograms.to_csv_s"] = agg("histograms.to_csv") / ops

    by_cmd = {c[0]: [] for c in CLI_COMMANDS}
    for s in tracer.spans:
        if s[1] == "cli.main" and s[5] in traced_ids:
            by_cmd[CLI_COMMANDS[s[5] % len(CLI_COMMANDS)][0]].append(s[3] - s[2])
    for cmd, durations in by_cmd.items():
        m[f"cli.main.{cmd}_s"] = statistics.mean(durations) if durations else 0.0
    written = [workload.bytes_written[i] for i in sorted(traced_ids)
               if i in getattr(workload, "bytes_written", {})]
    m["cli.bytes_written"] = statistics.mean(written) if written else 0
    m["cli.nonzero_exits"] = sum(getattr(workload, "exits", {}).get(i, 0) != 0
                                 for i in traced_ids)

    # both halves are whole cycles, so their mean latencies compare like mixes
    m["trace.overhead_frac"] = (statistics.mean(o.latency for o in traced)
                                / statistics.mean(o.latency for o in untraced)
                                - 1.0)
    m["trace.span_coverage_min"] = min(summ["covered_s"].get(o.index, 0.0)
                                       / o.latency for o in traced)
    m["trace.spans_per_op"] = sum(a["calls"] for a in names.values()) / ops
    return m


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "vapornode").rglob("*")):
        if p.is_file() and p.suffix in (".py", ".yaml"):
            h.update(str(p.relative_to(SRC)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True, check=False)
    return res.stdout.strip() or None


def facts(args, workload) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": workload.name,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "clients": 1,
        "workers": workload.config.workers,
        "sizes": workload.sizes,
    }


def traced_run(args, workload, seeds) -> tuple:
    """Untraced half, then traced half of the same loop; returns (per-layer
    metrics, all ops, facts, whether the determinism checks held)."""
    import spans
    from vapornode import config as config_module

    setup_extra = measure_imports()
    det = determinism(workload.config_for(seeds.getrandbits(32)))
    pool_workers = det.pop("pool_workers")
    setup_extra.update(det)
    # CLI commands run in-process here so that spans can see inside them
    workload.in_process = True
    untraced = run_ops(workload, args.seconds / 2.0, seeds, 0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for _ in range(SETUP_REPS):
            config_module.load_config()
        traced = run_ops(workload, args.seconds / 2.0, seeds, len(untraced),
                         tracer)
    finally:
        tracer.restore()
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    ops = untraced + traced
    metrics = per_layer(workload, tracer, traced, untraced, setup_extra)
    metrics["failed_ops_frac"] = sum(bool(o.failures) for o in ops) / len(ops)
    extra = {"ops": len(ops), "traced_ops": len(traced),
             "pool_workers": pool_workers}
    correct = bool(det["simulate.same_seed_identical"]
                   and det["simulate.workers_identical"])
    return metrics, ops, extra, correct


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "vapornode" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'vapornode'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        return 64

    from workloads import WORKLOADS

    load_start, ref_start = os.getloadavg(), cpu_reference_ms()
    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"ops-{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload]()
    seeds = random.Random(args.seed)
    try:
        workload.setup(ROOT, run_dir)
        run_dir.mkdir(exist_ok=True)
        run_facts = facts(args, workload)
        if args.trace:
            metrics, ops, extra, correct = traced_run(args, workload, seeds)
            layers = json.loads((HERE / "layers.json").read_text())
            units = {m["name"]: m["unit"] for m in layers["metrics"]}
        else:
            setup_times = measure_setup(workload.modules)
            ops = run_ops(workload, args.seconds, seeds, 0)
            metrics, extra = end_to_end(workload, ops, setup_times)
            units, correct = E2E_UNITS, True
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(bool(o.failures) for o in ops)
    run_facts.update(extra, loadavg_start=load_start,
                     loadavg_end=os.getloadavg(), cpu_reference_ms_start=ref_start,
                     cpu_reference_ms_end=cpu_reference_ms())
    record = {"facts": run_facts,
              "latencies_s": [o.latency for o in ops],
              "failures": [f for o in ops for f in o.failures]}
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record) + "\n")
    result = {
        "correct": correct and failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps({"facts": run_facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
