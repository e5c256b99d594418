"""Quick self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Checks that BENCHMARK.json parses and keeps to its schema and limits, that
its per-layer list matches layers.json, and runs every workload for one
second, untraced and traced, confirming that each run prints a result line
with every metric named in BENCHMARK.json, with its unit.  Finally runs the
benchmark in a copy that holds only BENCHMARK.json and the benchmark's own
files, where it must fail without printing a result.  Takes about two
minutes; prints each problem found and exits non-zero if there is any.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
METRIC_KEYS = {"end_to_end": {"name", "unit", "better", "bound"},
               "per_layer": {"name", "unit", "better"}}


def check_spec(spec: dict) -> list:
    from workloads import WORKLOADS

    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        return [f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}"]
    cmd = spec["command"]
    if not (1 <= len(cmd) <= 32 and all(isinstance(c, str) and len(c) <= 200
                                        for c in cmd)):
        errors.append("command: 1 to 32 strings of at most 200 characters")
    for p in spec["paths"]:
        if not PATH.fullmatch(p) or p.startswith("/") or ".." in p.split("/"):
            errors.append(f"paths: bad path {p!r}")
        elif not (ROOT / p).is_dir():
            errors.append(f"paths: {p} is not a directory")
    if not 1 <= len(spec["paths"]) <= 16:
        errors.append("paths: 1 to 16 entries")
    rs = spec["run_seconds"]
    if not (isinstance(rs, int) and 1 <= rs <= 60):
        errors.append("run_seconds: a whole number from 1 to 60")
    names = [w["name"] for w in spec["workloads"]]
    if names != list(WORKLOADS):
        errors.append(f"workloads {names} != {list(WORKLOADS)}")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            errors.append(f"workload {w.get('name')}: name and a one-line why")
    seen = set(names)
    for kind, want in METRIC_KEYS.items():
        for m in spec[kind]:
            if set(m) != want:
                errors.append(f"{kind} {m.get('name')}: keys {sorted(m)}")
                continue
            if not NAME.fullmatch(m["name"]) or m["name"] in seen:
                errors.append(f"{kind}: bad or repeated name {m['name']!r}")
            seen.add(m["name"])
            if not UNIT.fullmatch(m["unit"]):
                errors.append(f"{m['name']}: bad unit {m['unit']!r}")
            if m["better"] not in ("lower", "higher"):
                errors.append(f"{m['name']}: better is lower or higher")
            if kind == "end_to_end" and not 0 < m["bound"] <= 0.25:
                errors.append(f"{m['name']}: bound must be in (0, 0.25]")
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    setup = e2e.get("setup_s", {})
    if (setup.get("unit"), setup.get("better")) != ("s", "lower"):
        errors.append("end_to_end: setup_s with unit s, better lower")
    elif setup["bound"] < max(m["bound"] for m in e2e.values()):
        errors.append("end_to_end: setup_s must have the largest bound")
    layers = json.loads((HERE / "layers.json").read_text())["metrics"]
    want_layers = [{k: m[k] for k in ("name", "unit", "better")} for m in layers]
    if spec["per_layer"] != want_layers:
        errors.append("per_layer differs from layers.json")
    if len((ROOT / "BENCHMARK.json").read_bytes()) > 64 * 1024:
        errors.append("BENCHMARK.json is over 64 KiB")
    return errors


def run(cwd: Path, spec: dict, workload: str, trace: int):
    argv = [*spec["command"], "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_result(proc, spec: dict, workload: str, trace: int) -> list:
    where = f"{workload} --trace {trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"{where}: result keys {sorted(result)}"]
    errors = []
    if result["correct"] is not True or result["failed"] != 0:
        errors.append(f"{where}: correct={result['correct']} "
                      f"failed={result['failed']}: {proc.stderr[-2000:]}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        errors.append(f"{where}: attempted {result['attempted']}")
    want = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in want}:
        errors.append(f"{where}: metrics {sorted(set(got) ^ {m['name'] for m in want})} "
                      "missing or extra")
    for m in want:
        v = got.get(m["name"], {})
        if v.get("unit") != m["unit"]:
            errors.append(f"{where}: {m['name']} unit {v.get('unit')!r}")
        value = v.get("value")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            errors.append(f"{where}: {m['name']} value {value!r}")
        elif not trace and value == 0:
            errors.append(f"{where}: end-to-end {m['name']} is 0")
    return errors


def check_bare(spec: dict) -> list:
    """Without the package source next to it the benchmark must fail."""
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in spec["paths"]:
            shutil.copytree(ROOT / p, bare / p,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        return ["bare directory: the benchmark did not fail without the source"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_spec(spec)
    if not errors:
        for w in spec["workloads"]:
            for trace in (0, 1):
                errors += check_result(run(ROOT, spec, w["name"], trace), spec,
                                       w["name"], trace)
                print(f"ran {w['name']} --trace {trace}", file=sys.stderr)
        errors += check_bare(spec)
    for e in errors:
        print(f"FAIL {e}")
    print("selfcheck:", "FAIL" if errors else "PASS")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
