import copy
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from vapornode import cli
from vapornode.config import ConfigError, load_config


@pytest.fixture(scope="module")
def raw():
    return load_config().raw


def _write(tmp_path, data, name="cfg.yaml"):
    path = tmp_path / name
    with open(path, "w") as f:
        yaml.safe_dump(data, f)
    return str(path)


def _set(data, key, value):
    """Set a dotted key in a raw config mapping."""
    *parents, leaf = key.split(".")
    for name in parents:
        data = data[name]
    data[leaf] = value


def test_no_scipy_at_import():
    # scipy is a test dependency only; the CLI must start without it
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, vapornode.cli, vapornode.experiments\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "[]"


def test_no_process_pool_at_import():
    # the pool module is imported only when a run asks for workers
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, vapornode.cli, vapornode.experiments\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'concurrent'))")
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "[]"


def test_defaults_load():
    cfg = load_config()
    assert cfg.seed == 20250823
    assert cfg.workers >= 1
    assert 0.0 < cfg.source.heralding_eta <= 1.0
    assert len(cfg.config_hash()) == 64


# a made-up key, then the keys that no computation read and were removed
_UNKNOWN_KEYS = {
    "memory.bogus_knob": 1.0,
    "detectors.telecom": {"label": "SNSPD", "efficiency": 0.90,
                          "jitter_ps": 94.0, "jitter_convention": "fwhm"},
    "detectors.nir.label": "SPAD",
    "memory.interface_transmission": 0.66,
    "memory.control_rabi_peak_mhz_2pi": 152.0,
    "timing.write_pulse_len_ns": 5.0,
    "timing.write_fall_ns": 0.3,
    "analysis.measured_filter_bandwidth_mhz_2pi": 182.0,
    "source.telecom_cavity.center_detuning_ghz": 1.1,
    "detectors.nir.jitter_convention": "fwhm",
    "memory.filter_transmission": 0.35,
    "analysis.tomography_window_ns": 2.82,
}


@pytest.mark.parametrize("key", list(_UNKNOWN_KEYS))
def test_unknown_key_rejected(tmp_path, raw, capsys, key):
    data = copy.deepcopy(raw)
    _set(data, key, _UNKNOWN_KEYS[key])
    path = _write(tmp_path, data, "old.yaml")
    with pytest.raises(ConfigError, match=re.escape(f"unknown key: {key}")):
        load_config(path)
    assert cli.main(["solo", "--config", path,
                     "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


def test_unknown_keys_of_mixed_types_rejected(tmp_path, raw, capsys):
    # YAML keys need not be strings: an int and a str unknown key together
    # are a config error, not a TypeError from ordering them
    data = copy.deepcopy(raw)
    data["memory"].update({1: "x", "bogus_knob": 2.0})
    path = tmp_path / "mixed.yaml"
    path.write_text(yaml.safe_dump(data, sort_keys=False))
    assert cli.main(["filter-design", "--points", "3", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: unknown key: memory.")


def test_missing_key_rejected(tmp_path, raw):
    data = copy.deepcopy(raw)
    del data["source"]["heralding_eta"]
    with pytest.raises(ConfigError, match="source.heralding_eta"):
        load_config(_write(tmp_path, data))


def test_wrong_type_rejected(tmp_path, raw):
    data = copy.deepcopy(raw)
    data["seed"] = "not-a-number"
    with pytest.raises(ConfigError, match="seed"):
        load_config(_write(tmp_path, data))


def test_invalid_value_becomes_config_error(tmp_path, raw):
    data = copy.deepcopy(raw)
    data["memory"]["eta0_internal"] = 2.0
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, data))


def test_config_hash_stable_under_key_order(tmp_path, raw):
    cfg = load_config()
    again = load_config(_write(tmp_path, cfg.raw))  # sorted keys on output
    assert again.config_hash() == cfg.config_hash()


@pytest.mark.parametrize("text", ["", "# comments only\n", "- 1\n- 2\n",
                                  "just a string\n", "seed: [1, 2\n",
                                  "a: b: c\n"])
def test_empty_malformed_or_non_mapping_yaml_rejected(tmp_path, text):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match="config|YAML"):
        load_config(str(path))
    with pytest.raises(ConfigError):
        load_config(str(path), overrides={"seed": 3})


_STAGE = {"fwhm_ghz": 1.55, "fsr_ghz": 60.2, "passes": 2}


# A config error exits 2 and names the dotted key.  A number that is finite
# as written but not in SI units (1e300 GHz) is a config error too.  A
# config that loads but makes an output non-finite exits 3 and names the
# file and the column.
@pytest.mark.parametrize("key, value, message", [
    ("spectra.pathway_weights", ["a", "b"],
     "config error: spectra.pathway_weights[0]:"),
    ("spectra.memory_acceptance.hyperfine_centers_ghz", ["x", 0.408],
     "config error: spectra.memory_acceptance.hyperfine_centers_ghz[0]:"),
    ("spectra.memory_acceptance.amplitudes", [1.0, None],
     "config error: spectra.memory_acceptance.amplitudes[1]:"),
    ("spectra.pathway_centers_ghz", [-0.408, -math.inf],
     "config error: spectra.pathway_centers_ghz[1]:"),
    ("analysis.sweep_windows_ns", [math.nan, 1.024],
     "config error: analysis.sweep_windows_ns[0]:"),
    ("source.telecom_rate_hz", math.inf,
     "config error: source.telecom_rate_hz:"),
    ("source.telecom_rate_hz", 10**400,
     "config error: source.telecom_rate_hz:"),
    ("memory.eta0_internal", True, "config error: memory.eta0_internal:"),
    ("memory.tau_coherence_us", math.nan,
     "config error: memory.tau_coherence_us:"),
    ("filter_cascade.stages", [{**_STAGE, "fsr_ghz": math.inf}],
     "config error: filter_cascade.stages[0].fsr_ghz:"),
    ("filter_cascade.stages", [{**_STAGE, "fsr_ghz": 1.0e300}],
     "config error: filter_cascade.stages[0].fsr_ghz:"),
    ("spectra.pairing_sum_ghz", 1.0e300,
     "config error: spectra.pairing_sum_ghz:"),
    ("spectra.memory_acceptance.linewidth_ghz", 1.0e300,
     "config error: spectra.memory_acceptance.linewidth_ghz:"),
    ("spectra.doppler_fwhm_ghz", 1.0e300,
     "config error: spectra.doppler_fwhm_ghz:"),
    ("spectra.doppler_fwhm_ghz", 1.0e-300,
     "runtime error: spectral.csv: heralding_eta"),
], ids=["weights-str", "hyperfine-str", "amplitudes-null", "centers-inf",
        "windows-nan", "rate-inf", "rate-huge-int", "eta-bool", "tau-nan",
        "stage-inf", "stage-overflow", "pairing-overflow",
        "linewidth-overflow", "doppler-overflow", "doppler-underflow"])
def test_bad_numbers_and_list_entries_rejected(tmp_path, raw, capsys, key,
                                               value, message):
    data = copy.deepcopy(raw)
    _set(data, key, value)
    rc = cli.main(["spectral-scan", "--points", "3", "--config",
                   _write(tmp_path, data), "--out", str(tmp_path / "out")])
    assert rc == (2 if message.startswith("config error") else 3)
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert not list((tmp_path / "out").glob("*.csv"))  # not even a partial one


def test_narrow_cavity_error_names_detuning_and_fwhm(tmp_path, raw):
    # a 1 Hz telecom cavity passes nothing between the heralding grid points
    data = copy.deepcopy(raw)
    _set(data, "source.telecom_cavity.fwhm_mhz", 1e-9)
    out = tmp_path / "out"
    src = Path(__file__).resolve().parents[1] / "src"
    res = subprocess.run(
        [sys.executable, "-m", "vapornode.cli", "spectral-scan", "--band-ghz",
         "2.9", "--points", "5", "--config", _write(tmp_path, data), "--out",
         str(out)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True)
    assert res.returncode == 3
    assert res.stderr.splitlines()[0] == (
        "runtime error: rate below numeric floor at cavity detuning -0.725 GHz"
        " (cavity FWHM 1e-09 MHz); heralding efficiency undefined")
    assert not out.exists()


def test_error_line_before_numpy_warnings(tmp_path, raw):
    # outside pytest numpy's RuntimeWarnings reach stderr; they come after
    # the error line
    data = copy.deepcopy(raw)
    _set(data, "spectra.doppler_fwhm_ghz", 1.0e-300)
    out = tmp_path / "out"
    src = Path(__file__).resolve().parents[1] / "src"
    res = subprocess.run(
        [sys.executable, "-m", "vapornode.cli", "spectral-scan", "--points",
         "3", "--config", _write(tmp_path, data), "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True)
    assert res.returncode == 3
    lines = res.stderr.splitlines()
    assert lines[0].startswith("runtime error: spectral.csv: heralding_eta")
    assert all(line.startswith("warning: ") for line in lines[1:])
    assert not out.exists()


def test_failed_run_leaves_existing_out_as_it_is(tmp_path, raw, capsys):
    data = copy.deepcopy(raw)
    _set(data, "spectra.doppler_fwhm_ghz", 1.0e-300)
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("kept\n")
    rc = cli.main(["spectral-scan", "--points", "3", "--config",
                   _write(tmp_path, data), "--out", str(out)])
    assert rc == 3
    capsys.readouterr()
    assert [p.name for p in out.iterdir()] == ["keep.txt"]
    assert (out / "keep.txt").read_text() == "kept\n"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_pool_worker_warnings_reach_stderr(tmp_path, raw, workers):
    # a 1e300 s envelope overflows the tag cast inside _simulate_block; a
    # forked worker inherits the CLI's warning hook and must still print
    data = copy.deepcopy(raw)
    _set(data, "memory.retrieved_pulse.core_fwhm_ns", 1.0e300)
    src = Path(__file__).resolve().parents[1] / "src"
    res = subprocess.run(
        [sys.executable, "-m", "vapornode.cli", "solo", "--trials", "70000",
         "--workers", workers, "--config", _write(tmp_path, data), "--out",
         str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True)
    assert res.returncode == 0
    lines = res.stderr.splitlines()
    assert lines
    assert all(line.startswith("warning: simulate.py:") for line in lines)


@pytest.mark.parametrize("key", ["memory.retrieved_pulse.core_fwhm_ns",
                                 "memory.retrieved_pulse.pedestal_fwhm_ns",
                                 "detectors.nir.jitter_ps"])
@pytest.mark.parametrize("argv", [["tomography", "--duration", "1"],
                                  ["utility", "--points", "41"]],
                         ids=["tomography", "utility"])
def test_huge_pulse_widths_do_not_overflow(tmp_path, raw, capsys, key, argv):
    # squaring a width of 1e300 s overflows: the capture is 0, not an error
    data = copy.deepcopy(raw)
    _set(data, key, 1.0e300)
    rc = cli.main(argv + ["--config", _write(tmp_path, data),
                          "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "runtime error:" not in capsys.readouterr().err


def test_workers_not_in_hash():
    one = load_config(overrides={"workers": 1})
    two = load_config(overrides={"workers": 2})
    assert two.workers == 2
    assert one.config_hash() == two.config_hash()


def test_overrides_change_hash():
    base = load_config()
    other = load_config(overrides={"seed": base.seed + 7})
    assert other.seed == base.seed + 7
    assert other.config_hash() != base.config_hash()


# --- CLI ---------------------------------------------------------------


def test_cli_usage_errors(capsys):
    assert cli.main(["not-a-command"]) == 64
    assert cli.main(["solo", "--trials", "0"]) == 64
    assert cli.main(["solo", "--workers", "0"]) == 64
    assert cli.main(["solo", "--format", "json"]) == 64
    capsys.readouterr()


def test_cli_config_errors(tmp_path, raw, capsys):
    assert cli.main(["solo", "--config", str(tmp_path / "missing.yaml")]) == 2
    data = copy.deepcopy(raw)
    data["extra_section"] = {}
    assert cli.main(["solo", "--config", _write(tmp_path, data)]) == 2
    err = capsys.readouterr().err
    assert "extra_section" in err
    # empty, non-mapping and malformed YAML, with and without overrides
    for i, text in enumerate(["", "- 1\n- 2\n", "seed: [1, 2\n"]):
        path = tmp_path / f"bad{i}.yaml"
        path.write_text(text)
        for extra in ([], ["--seed", "3"]):
            rc = cli.main(["solo", "--trials", "1000", "--config", str(path),
                           "--out", str(tmp_path / "out")] + extra)
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:")
            assert "Traceback" not in err


def test_cli_tiny_trial_counts(tmp_path, capsys):
    # one trial: the window sweep still runs, and its empty noise window
    # makes the SNR a lower bound; efficiency is undefined because the
    # input histogram stays empty
    assert cli.main(["sweep-window", "--trials", "1",
                     "--out", str(tmp_path / "sweep")]) == 4
    assert "empty noise window" in capsys.readouterr().err
    for cmd in ("solo", "source"):
        capsys.readouterr()
        rc = cli.main([cmd, "--trials", "1", "--out", str(tmp_path / cmd)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "input histogram has no counts" in err
        assert "outside the histogram span" not in err


def test_cli_solo_run(tmp_path):
    out = tmp_path / "solo"
    rc = cli.main(["solo", "--trials", "50000", "--out", str(out)])
    assert rc == 0
    for name in ("hist_memory.csv", "hist_input.csv", "hist_no_input.csv",
                 "metrics.json", "manifest.json"):
        assert (out / name).exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["mode"] == "solo"
    assert metrics["snr"] > 5.0
    assert metrics["mean_photon_number"] == pytest.approx(0.32, rel=0.15)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 20250823
    assert manifest["config_hash"] == load_config().config_hash()
    assert "metrics.json" in manifest["outputs"]
    assert manifest["warnings"] == []


def test_cli_outputs_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out, workers in ((a, "1"), (b, "4")):
        argv = ["source", "--trials", "100000", "--out", str(out),
                "--workers", workers]
        assert cli.main(argv) == 0
        # the manifest records the arguments given to main, not the host's
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == argv
    assert (a / "hist_memory.csv").read_bytes() == (
        b / "hist_memory.csv"
    ).read_bytes()
    assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()
    hashes = [json.loads((d / "manifest.json").read_text())["config_hash"]
              for d in (a, b)]
    assert hashes[0] == hashes[1] == load_config().config_hash()


def test_cli_seed_override_changes_histograms(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["solo", "--trials", "50000", "--out", str(a)]) == 0
    assert cli.main(["solo", "--trials", "50000", "--out", str(b),
                     "--seed", "7"]) == 0
    assert (a / "hist_memory.csv").read_bytes() != (
        b / "hist_memory.csv"
    ).read_bytes()


def test_cli_tomography(tmp_path, capsys):
    out = tmp_path / "tomo"
    rc = cli.main(["tomography", "--duration", "5.0", "--out", str(out)])
    assert rc == 0
    lines = (out / "counts.csv").read_text().splitlines()
    assert lines[0] == "setting,triggers,coincidences"
    assert len(lines) == 17
    result = json.loads((out / "tomography.json").read_text())
    assert 0.25 <= result["fidelity_to_target"] <= 1.0
    capsys.readouterr()


def test_cli_tomography_bad_settings(tmp_path, capsys):
    # the last two are well-formed but informationally incomplete: H + V =
    # D + A = I, so the 16 settings of {H, V, D, A} span only 9 dimensions
    for i, (text, message) in enumerate([
        ("HH,HQ", "settings[1]: malformed setting 'HQ'"),
        ("", "settings[0]: malformed setting ''"),
        ("HH,HV,VH,VV", "settings: not informationally complete"),
        (",".join(a + b for a in "HVDA" for b in "HVDA"),
         "settings: not informationally complete"),
    ]):
        out = tmp_path / f"t{i}"
        rc = cli.main(["tomography", "--settings", text, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()  # checked before any sampling or output


@pytest.mark.parametrize("cmd, error", [
    ("solo", "metrics.json: snr is not finite"),
    ("source", "metrics.json: snr is not finite"),
    ("sweep-window", "sweep.csv: fidelity is not finite"),
], ids=["solo", "source", "sweep-window"])
def test_cli_non_finite_metrics_leave_no_files(tmp_path, raw, capsys, cmd,
                                               error):
    # a vanishing noise window makes the SNR non-finite: the run stops
    # before it writes its first file, and so makes no output directory
    data = copy.deepcopy(raw)
    _set(data, "analysis.noise_window_ns", 1.0e-300)
    out = tmp_path / "out"
    rc = cli.main([cmd, "--trials", "20000", "--config",
                   _write(tmp_path, data), "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err.startswith(f"runtime error: {error}")
    assert not out.exists()


def test_cli_tomography_zero_duration_is_runtime_error(tmp_path, capsys):
    rc = cli.main(["tomography", "--duration", "0.0",
                   "--out", str(tmp_path / "t3")])
    assert rc == 3
    capsys.readouterr()
    assert not (tmp_path / "t3").exists()


def test_cli_warning_exit_code(tmp_path, raw, capsys):
    # no background at all -> the noise window is empty -> lower-bound warning
    data = copy.deepcopy(raw)
    data["memory"]["noise_per_trial"] = 0.0
    out = tmp_path / "quiet"
    rc = cli.main(["solo", "--trials", "50000",
                   "--config", _write(tmp_path, data), "--out", str(out)])
    assert rc == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["warnings"]
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["snr_lower_bound"] is True
    capsys.readouterr()


def test_cli_filter_design(tmp_path):
    out = tmp_path / "filt"
    rc = cli.main(["filter-design", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "filter.json").read_text())
    assert summary["suppression_db_at_query"] == pytest.approx(113.8, abs=1.0)
    header = (out / "filter.csv").read_text().splitlines()[0]
    assert header == "detuning_ghz,suppression_db,transmission"


def test_cli_filter_design_query_near_resonance_is_positive_zero(tmp_path):
    out = tmp_path / "filt"
    assert cli.main(["filter-design", "--points", "3", "--query-ghz=-1e-9",
                     "--out", str(out)]) == 0
    text = (out / "filter.json").read_text()
    assert '"suppression_db_at_query": 0.0' in text
    assert json.loads(text)["suppression_db_at_query"] == 0.0


def test_cli_utility(tmp_path):
    out = tmp_path / "util"
    rc = cli.main(["utility", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "utility.json").read_text())
    assert 1.0 <= summary["utility_time_us_at_0.775"] <= 3.0
    assert summary["utility_time_us_at_0.5"] > 3.0
    assert summary["bounded_at_0.5"] is True


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _assert_finite_outputs(out):
    """Every JSON output parses strictly and every numeric CSV field is
    finite."""
    for path in out.glob("*.json"):
        json.loads(path.read_text(), parse_constant=_reject_constant)
    for path in out.glob("*.csv"):
        for line in path.read_text().splitlines()[1:]:
            for field in line.split(","):
                try:
                    value = float(field)
                except ValueError:  # a label, bool or None
                    continue
                assert math.isfinite(value), (path.name, line)


def test_cli_utility_without_background(tmp_path, raw, capsys):
    # no background: the model SNR is unbounded and the fidelity stays at 1
    data = copy.deepcopy(raw)
    data["memory"]["noise_per_trial"] = 0.0
    out = tmp_path / "util0"
    rc = cli.main(["utility", "--config", _write(tmp_path, data),
                   "--out", str(out)])
    assert rc == 4
    assert "fidelity stays above a threshold" in capsys.readouterr().err
    summary = json.loads((out / "utility.json").read_text(),
                         parse_constant=_reject_constant)
    for thr in ("0.775", "0.5"):
        assert summary[f"bounded_at_{thr}"] is False
        assert math.isfinite(summary[f"utility_time_us_at_{thr}"])
    lines = (out / "utility.csv").read_text().splitlines()
    assert lines[0] == "time_us,fidelity"
    for line in lines[1:]:
        fields = line.split(",")
        assert all(math.isfinite(float(v)) for v in fields)
        assert fields[1] == "1.000000"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["warnings"]


def test_cli_sweep_window_empty_noise_window_warns(tmp_path, raw, capsys):
    # every window shares the noise window: without background the SNRs
    # and fidelities are lower bounds, as for solo and source
    data = copy.deepcopy(raw)
    data["memory"]["noise_per_trial"] = 0.0
    out = tmp_path / "quiet"
    rc = cli.main(["sweep-window", "--trials", "50000",
                   "--config", _write(tmp_path, data), "--out", str(out)])
    assert rc == 4
    assert "empty noise window" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["warnings"] == ["empty noise window: SNR is a lower bound"]
    header = (out / "sweep.csv").read_text().splitlines()[0]
    assert header == "window_ns,rate_pairs_per_s,fidelity,per_trial"
    assert set(json.loads((out / "sweep.json").read_text())) == {
        "window_ns", "rate_pairs_per_s", "fidelity", "per_trial"}


def test_cli_spectral_scan(tmp_path):
    out = tmp_path / "spec"
    rc = cli.main(["spectral-scan", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "spectral.json").read_text())
    assert abs(summary["operating_point_ghz"] - 1.1) < 0.3
    header = (out / "spectral.csv").read_text().splitlines()[0]
    assert header == (
        "cavity_detuning_ghz,heralding_eta,relative_rate,memory_acceptance"
    )


def test_cli_sweep_window(tmp_path):
    out = tmp_path / "sweep"
    rc = cli.main(["sweep-window", "--trials", "200000", "--out", str(out)])
    assert rc == 0
    data = json.loads((out / "sweep.json").read_text())
    assert len(data["window_ns"]) == len(data["fidelity"])
    header = (out / "sweep.csv").read_text().splitlines()[0]
    assert header == "window_ns,rate_pairs_per_s,fidelity,per_trial"


@pytest.mark.parametrize("argv, flag", [
    (["spectral-scan", "--band-ghz", "nan"], "--band-ghz"),
    (["spectral-scan", "--band-ghz", "inf"], "--band-ghz"),
    (["spectral-scan", "--band-ghz", "0"], "--band-ghz"),
    (["spectral-scan", "--band-ghz", "1e300"], "--band-ghz"),
    (["filter-design", "--band-ghz", "nan"], "--band-ghz"),
    (["filter-design", "--band-ghz=-2"], "--band-ghz"),
    (["filter-design", "--query-ghz", "inf"], "--query-ghz"),
    (["filter-design", "--query-ghz", "nan"], "--query-ghz"),
    (["spectral-scan", "--points", "0"], "--points"),
    (["spectral-scan", "--points", "-3"], "--points"),
    (["filter-design", "--points", "0"], "--points"),
    (["utility", "--points", "0"], "--points"),
    (["utility", "--max-time-us", "0"], "--max-time-us"),
    (["utility", "--max-time-us", "nan"], "--max-time-us"),
    (["utility", "--max-time-us", "inf"], "--max-time-us"),
    (["tomography", "--duration", "nan"], "--duration"),
    (["tomography", "--duration", "inf"], "--duration"),
    (["tomography", "--duration", "-1"], "--duration"),
])
def test_cli_rejects_invalid_numeric_flags(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 64
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} must be")
    assert not out.exists()


_SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0,
                            1e-300, 1e200])
_FLOAT = st.one_of(_SPECIAL, st.floats())
_FLAGS = {
    "spectral-scan": {"--band-ghz": _FLOAT,
                      "--points": st.integers(-3, 40)},
    "filter-design": {"--band-ghz": _FLOAT, "--points": st.integers(-3, 40),
                      "--query-ghz": _FLOAT},
    "utility": {"--max-time-us": _FLOAT, "--points": st.integers(-3, 40)},
    "tomography": {"--duration": _FLOAT},
}


@pytest.mark.parametrize("cmd", list(_FLAGS))
@hyp_settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_cli_numeric_flags_property(cmd, data):
    argv = [cmd]
    for flag, values in _FLAGS[cmd].items():
        if data.draw(st.booleans(), label=f"set {flag}"):
            argv.append(f"{flag}={data.draw(values, label=flag)}")
    with tempfile.TemporaryDirectory() as tmp:
        rc = cli.main(argv + ["--out", tmp])
        assert rc in (0, 2, 3, 4, 64)
        if rc == 0:
            for path in Path(tmp).glob("*.csv"):
                assert "nan" not in path.read_text().lower(), path.name


def _paths(node, path=()):
    """Every mapping key and list entry below node, as a tuple of keys."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


_DEFAULTS = load_config().raw
_CONFIG_PATHS = list(_paths(_DEFAULTS))
_MUTANTS = st.sampled_from([math.nan, math.inf, -math.inf, 0, 0.0, -1, -2.5,
                            1e300, 1e-300, "x", None, True, [], {}])
_SMALL_RUNS = [
    ["solo", "--trials", "2000"],
    ["source", "--trials", "2000"],
    ["sweep-window", "--trials", "2000"],
    ["tomography", "--duration", "0.5"],
    ["utility", "--points", "5"],
    ["spectral-scan", "--points", "3"],
    ["filter-design", "--points", "3"],
]


@hyp_settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_config_mutation_property(data):
    # drop a key or list entry, or write a wrong type, nan, inf, 0, a
    # negative, huge or tiny value: every command exits with a documented
    # code, and a run that completes writes only finite numbers
    raw = copy.deepcopy(_DEFAULTS)
    *parents, leaf = data.draw(st.sampled_from(_CONFIG_PATHS), label="key")
    node = raw
    for key in parents:
        node = node[key]
    if data.draw(st.booleans(), label="drop"):
        del node[leaf]
    else:
        node[leaf] = data.draw(_MUTANTS, label="value")
    argv = data.draw(st.sampled_from(_SMALL_RUNS), label="command")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.yaml"
        path.write_text(yaml.safe_dump(raw))
        rc = cli.main(argv + ["--config", str(path), "--out", f"{tmp}/out"])
        assert rc in (0, 2, 3, 4, 64)
        if rc in (0, 4):
            _assert_finite_outputs(Path(tmp) / "out")
