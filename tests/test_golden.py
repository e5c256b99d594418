"""The seven README commands write the files committed under tests/golden/,
byte for byte (see tests/golden.py)."""

import math

import golden
import pytest


@pytest.mark.parametrize("command", list(golden.COMMANDS))
def test_readme_outputs_match_golden(tmp_path, command):
    out = tmp_path / command
    golden.run(command, out)
    problem = golden.mismatch(golden.GOLDEN_DIR / command, out)
    assert problem is None, problem


def test_mismatch_names_file_and_first_differing_line(tmp_path):
    want, got = tmp_path / "want" / "solo", tmp_path / "got" / "solo"
    for d, rows in ((want, "a,b\n1.000000,2\n3,4\n"),
                    (got, "a,b\n1.00000,2\n3,5\n")):
        d.mkdir(parents=True)
        (d / "hist.csv").write_text(rows)
        (d / "same.json").write_text("{}\n")
    assert golden.mismatch(want, got) == (
        "solo/hist.csv line 2: got '1.00000,2', expected '1.000000,2'")
    (got / "hist.csv").write_text("a,b\n1.000000,2\n")
    assert "2 lines, expected 3" in golden.mismatch(want, got)
    (got / "extra.csv").write_text("")
    assert "files" in golden.mismatch(want, got)
    assert golden.mismatch(want, want) is None


def test_largest_relative_change_reads_every_number():
    old = {"a": 2.0, "b": [1, 4.0], "c": {"d": True, "e": "x"}}
    assert golden.largest_relative_change(old, old) == 0.0
    new = {"a": 2.0, "b": [1, 4.000004], "c": {"d": False, "e": "y"}}
    assert golden.largest_relative_change(old, new) == pytest.approx(1e-6)
    assert golden.largest_relative_change({"a": 0}, {"a": 1e-300}) == (
        float("inf"))
    assert math.isnan(golden.largest_relative_change(old, {"a": 2.0}))
