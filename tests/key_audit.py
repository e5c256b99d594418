"""Every numeric config leaf reaches an output: a sensitivity audit, not
collected by pytest.

Each numeric leaf of the packaged `defaults.yaml` (list entries included)
is moved by 1 %: up, or down where up does not load, and by 0.01 from a
zero; an integer moves by at least 1.  A change to one of the two pathway
weights takes the other along, so that they still sum to 1.  For each
perturbed config the seven README commands run in-process at small sizes,
and each command's files are hashed, `manifest.json` aside, together with
its exit code.  A leaf that moves no command's files fails the audit,
unless it is in ALLOWED.  An allowed leaf fails it too if it does move one
of the seven, or if it does not move the extra command its entry names.
Run from the repository root (about 15 s on a 2-core machine):

    PYTHONPATH=src python tests/key_audit.py

Exit status 0 when every leaf passes, 1 otherwise.
"""

from __future__ import annotations

import copy
import hashlib
import importlib.resources
import io
import shutil
import sys
import tempfile
import time
from contextlib import redirect_stderr
from pathlib import Path

import yaml

from vapornode import cli
from vapornode.config import ConfigError, parse_config

# the seven README commands at small sizes
SMALL = {
    "solo": ("--trials", "200000"),
    "source": ("--trials", "200000"),
    "tomography": ("--duration", "5"),
    "sweep-window": ("--trials", "200000"),
    "utility": ("--points", "41"),
    "spectral-scan": ("--points", "21"),
    "filter-design": ("--points", "41"),
}
_WIDE_SCAN = ("spectral-scan", "--points", "21", "--band-ghz", "9")
_WIDE_FILTER = ("filter-design", "--points", "41", "--band-ghz", "70")

# leaf -> (None, or an extra command that it must move; why the seven do
# not move)
ALLOWED = {
    "workers": (None, "outputs are bit-identical for any worker count"),
    "timing.clock_period_us": (
        None, "sets only the clocked histograms' duration_accumulated_s, "
        "which no output file holds (the frame ends 30 ns after the noise "
        "span in both modes)"),
    "source.telecom_cavity.fsr_ghz": (
        _WIDE_SCAN, "at the README band every telecom detuning is within "
        "7.5 GHz of a resonance, inside FSR/2 = 7.6 GHz"),
    **{f"filter_cascade.stages[{i}].fsr_ghz": (
        _WIDE_FILTER, "at the README band every detuning is within 8 GHz "
        "of a resonance, inside FSR/2 = 30.1 GHz") for i in range(3)},
}


def numeric_leaves(node, path=""):
    """(dotted path, key path) of every int or float leaf, in file order."""
    if isinstance(node, dict):
        items = ((f"{path}.{k}" if path else k, k) for k in node)
    elif isinstance(node, list):
        items = ((f"{path}[{i}]", i) for i in range(len(node)))
    else:
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            yield path, ()
        return
    for name, key in items:
        for leaf, keys in numeric_leaves(node[key], name):
            yield leaf, (key, *keys)


def perturbed(raw: dict, keys: tuple, sign: int) -> dict:
    """raw with one leaf moved up (sign 1) or down (sign -1)."""
    data = copy.deepcopy(raw)
    parent = data
    for k in keys[:-1]:
        parent = parent[k]
    v = parent[keys[-1]]
    if isinstance(v, int):
        v += sign * max(1, round(0.01 * abs(v)))
    else:
        v = v * (1 + 0.01 * sign) if v else 0.01 * sign
    parent[keys[-1]] = v
    if keys[:-1] == ("spectra", "pathway_weights"):
        parent[1 - keys[-1]] = 1.0 - v
    return data


def loadable(data: dict) -> bool:
    try:
        parse_config(data)
    except ConfigError:
        return False
    return True


def fingerprint(data: dict, work: Path, argv: tuple) -> str:
    """Hash of the exit code and the files (manifest.json aside) of one
    command run on config data."""
    config, out = work / "config.yaml", work / "out"
    config.write_text(yaml.safe_dump(data, sort_keys=False))
    with redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--config", str(config), "--out", str(out)])
    h = hashlib.sha256(str(code).encode())
    if out.exists():
        for p in sorted(out.iterdir()):
            if p.name != "manifest.json":
                h.update(p.name.encode() + b"\0" + p.read_bytes())
        shutil.rmtree(out)
    return h.hexdigest()


def audit(raw: dict, work: Path) -> list[str]:
    """Failure messages, one per failing leaf; prints a line per leaf."""
    runs = {name: (name, *args) for name, args in SMALL.items()}
    runs.update({" ".join(argv): argv for argv, _ in ALLOWED.values() if argv})
    base = {name: fingerprint(raw, work, argv) for name, argv in runs.items()}
    failures = []
    for leaf, keys in numeric_leaves(raw):
        data = next((d for d in (perturbed(raw, keys, s) for s in (1, -1))
                     if loadable(d)), None)
        if data is None:
            failures.append(f"{leaf}: no 1 % step either way loads")
            continue
        extra, why = ALLOWED.get(leaf, (None, None))
        names = list(SMALL) + ([" ".join(extra)] if extra else [])
        moved = [n for n in names
                 if fingerprint(data, work, runs[n]) != base[n]]
        print(f"{leaf}: moves {', '.join(moved) or 'nothing'}")
        if why is None and not moved:
            failures.append(f"{leaf}: moves no output")
        elif why is not None and set(moved) & set(SMALL):
            failures.append(f"{leaf}: allowed as inert ({why}), but moves "
                            f"{', '.join(sorted(set(moved) & set(SMALL)))}")
        elif extra and " ".join(extra) not in moved:
            failures.append(f"{leaf}: does not move {' '.join(extra)}")
    return failures


def main() -> int:
    raw = yaml.safe_load(importlib.resources.files("vapornode")
                         .joinpath("defaults.yaml").read_text())
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        failures = audit(raw, Path(tmp))
    n = sum(1 for _ in numeric_leaves(raw))
    print(f"{n} numeric leaves, {len(failures)} failing, "
          f"{time.perf_counter() - t0:.1f} s")
    for line in failures:
        print(f"FAIL {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
