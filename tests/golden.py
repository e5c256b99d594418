"""Golden outputs of the seven README commands, and their regenerator.

Each command runs in-process through `cli.main` at the packaged config and
seed and at its README size.  Its CSV and JSON files are kept under
`tests/golden/<command>/`.  Of `manifest.json` only the keys that depend on
neither the clock nor the output path are kept: `config_hash`, `seed`,
`outputs` and `warnings`.  `tests/test_golden.py` reruns the commands and
compares the files byte for byte.

After a change that is meant to move an output, rewrite the files from the
repository root with

    PYTHONPATH=src python tests/golden.py --regen

and list each rewritten file, with the reason, in CHANGES.md.  For each
JSON file the regenerator prints the largest relative change of any number
in it, so a round-off move is measured, not estimated.
"""

from __future__ import annotations

import argparse
import json
import shutil
from pathlib import Path

from vapornode import cli

GOLDEN_DIR = Path(__file__).parent / "golden"

# subcommand -> its README arguments, --out aside
COMMANDS = {
    "solo": ["--trials", "1000000"],
    "source": ["--trials", "1000000"],
    "tomography": ["--duration", "25"],
    "sweep-window": ["--trials", "2000000"],
    "utility": [],
    "spectral-scan": [],
    "filter-design": [],
}
MANIFEST_KEYS = ("config_hash", "outputs", "seed", "warnings")


def run(command: str, out: Path) -> None:
    """Run one README command into out, then cut its manifest down to the
    stable keys.  A run that does not finish (exit 0, or 4 with warnings)
    raises RuntimeError."""
    code = cli.main([command, *COMMANDS[command], "--out", str(out)])
    if code not in (cli.EXIT_OK, cli.EXIT_WARNINGS):
        raise RuntimeError(f"vapornode {command} exited {code}")
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    path.write_text(json.dumps({k: manifest[k] for k in MANIFEST_KEYS},
                               indent=2, sort_keys=True) + "\n")


def mismatch(want: Path, got: Path) -> str | None:
    """None if the two directories hold the same files with the same
    bytes; otherwise a message naming the first file that differs and its
    first differing line."""
    names = sorted(p.name for p in want.iterdir())
    got_names = sorted(p.name for p in got.iterdir())
    if names != got_names:
        return f"{got}: files {got_names}, expected {names}"
    for name in names:
        a, b = (want / name).read_bytes(), (got / name).read_bytes()
        if a == b:
            continue
        a_lines, b_lines = a.splitlines(), b.splitlines()
        for i, (x, y) in enumerate(zip(a_lines, b_lines), start=1):
            if x != y:
                return (f"{got.name}/{name} line {i}: got {y.decode()!r}, "
                        f"expected {x.decode()!r}")
        return (f"{got.name}/{name}: {len(b_lines)} lines, expected "
                f"{len(a_lines)} (the shorter is a prefix of the longer)")
    return None


def _numbers(value):
    """The numbers of a parsed JSON value, in document order."""
    if isinstance(value, dict):
        return [x for k in sorted(value) for x in _numbers(value[k])]
    if isinstance(value, list):
        return [x for v in value for x in _numbers(v)]
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return [value] if is_number else []


def largest_relative_change(old, new) -> float:
    """Largest |new - old| / |old| over the numbers of two parsed JSON
    values of the same shape (inf where a zero moved); nan if the shapes
    differ."""
    a, b = _numbers(old), _numbers(new)
    if len(a) != len(b):
        return float("nan")
    return max((0.0 if x == y else abs(y - x) / abs(x) if x else float("inf")
                for x, y in zip(a, b)), default=0.0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--regen", action="store_true",
                        help="rewrite tests/golden/ from the current code")
    if not parser.parse_args().regen:
        parser.error("nothing to do without --regen; the check is "
                     "tests/test_golden.py")
    for command in COMMANDS:
        out = GOLDEN_DIR / command
        old = {p.name: json.loads(p.read_text()) for p in out.glob("*.json")}
        shutil.rmtree(out, ignore_errors=True)
        run(command, out)
        print(f"wrote {out}")
        for path in sorted(out.glob("*.json")):
            if path.name in old:
                change = largest_relative_change(old[path.name],
                                                 json.loads(path.read_text()))
                print(f"  {path.name}: largest relative change {change:.3g}")


if __name__ == "__main__":
    main()
