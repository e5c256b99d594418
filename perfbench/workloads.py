"""The four benchmark workloads.

Each runs as a closed loop with one client: the next operation starts when
the previous one has returned, as for a script or a person at the CLI.  An
operation's config seed is drawn from the workload seed, so the same
workload seed gives the same inputs.  Sizes are the README's.

`op(i, seed)` runs operation i and returns (trials, payload); `check(i,
payload)` returns the list of correctness failures for it and is called
outside the timed region.  Ops cycle with period `cycle`; a run always
ends on a whole cycle so every run has the same mix.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks

MC_TRIALS = 1_000_000
SCAN_DELAYS_S = tuple(np.linspace(0.0, 3e-6, 8))
SCAN_TRIALS = 300_000
SCAN_DURATION_S = 6.0
SPECTRAL_BAND_GHZ, SPECTRAL_POINTS = 7.0, 141
FILTER_BAND_GHZ, FILTER_POINTS = 16.0, 321
UTILITY_MAX_US, UTILITY_POINTS = 8.0, 401
TOMOGRAPHY_DURATION_S = 25.0

CLI_COMMANDS = (
    ("solo", "--trials", str(MC_TRIALS)),
    ("source", "--trials", str(MC_TRIALS)),
    ("tomography", "--duration", f"{TOMOGRAPHY_DURATION_S:g}"),
    ("sweep-window", "--trials", str(2 * MC_TRIALS)),
    ("utility", "--max-time-us", f"{UTILITY_MAX_US:g}",
     "--points", str(UTILITY_POINTS)),
    ("spectral-scan", "--band-ghz", f"{SPECTRAL_BAND_GHZ:g}",
     "--points", str(SPECTRAL_POINTS)),
    ("filter-design", "--band-ghz", f"{FILTER_BAND_GHZ:g}",
     "--points", str(FILTER_POINTS)),
)


class Workload:
    name = ""
    cycle = 1
    modules = ()  # what a fresh process imports for setup_s
    sizes = {}
    in_process = True  # ops run in this process

    def setup(self, root: Path, out_dir: Path) -> None:
        """In-process set-up: import the modules and load the config."""
        for m in self.modules:
            importlib.import_module(m)
        from vapornode.config import load_config

        self.config = load_config()
        self.model = checks.Model(self.config)
        self.root, self.out_dir = root, out_dir

    def config_for(self, seed: int):
        cfg = self.config
        return dataclasses.replace(cfg, seed=seed, raw={**cfg.raw, "seed": seed})


class McHistograms(Workload):
    name = "mc_histograms"
    cycle = 2
    modules = ("vapornode.experiments", "vapornode.config")
    sizes = {"trials_per_condition": MC_TRIALS,
             "ops": "solo_metrics | source_metrics + detection_window_sweep"}

    def op(self, i, seed):
        from vapornode import experiments

        cfg = self.config_for(seed)
        if i % 2 == 0:
            metrics, runs = experiments.solo_metrics(cfg, MC_TRIALS)
            return 3 * MC_TRIALS, ("solo", metrics, runs, None)
        metrics, runs = experiments.source_metrics(cfg, MC_TRIALS)
        sweep = experiments.detection_window_sweep(cfg, MC_TRIALS,
                                                   hist=runs.memory)
        return 3 * MC_TRIALS, ("source", metrics, runs, sweep)

    def check(self, i, payload):
        mode, metrics, runs, sweep = payload
        where = f"op {i} {mode}"
        out = checks.check_metrics(self.model, metrics, MC_TRIALS, where)
        out += checks.check_runs(self.model, mode, runs, MC_TRIALS, where)
        if sweep is not None:
            out += checks.check_sweep(self.model, sweep.window_sizes_s,
                                      sweep.per_trial_success,
                                      sweep.fidelities, where)
        return out


class StorageScan(Workload):
    name = "storage_scan"
    modules = ("vapornode.experiments", "vapornode.config")
    sizes = {"delays_us": [round(float(d) * 1e6, 6) for d in SCAN_DELAYS_S],
             "triggers_per_delay": SCAN_TRIALS,
             "tomography_s_per_setting": SCAN_DURATION_S}

    def op(self, i, seed):
        from vapornode import experiments

        scan = experiments.storage_time_scan(
            self.config_for(seed), SCAN_DELAYS_S, SCAN_TRIALS,
            duration_per_setting_s=SCAN_DURATION_S)
        return 2 * len(SCAN_DELAYS_S) * SCAN_TRIALS, scan

    def check(self, i, scan):
        return checks.check_scan(self.model, scan, SCAN_TRIALS, f"op {i}")


class ModelDesign(Workload):
    """In-process equivalent of spectral-scan, filter-design, utility and
    tomography, through the public functions those commands call.  Its
    trials are the heralded triggers the tomography run draws, the only
    sampling it does."""

    name = "model_design"
    modules = ("vapornode.experiments", "vapornode.spectra", "vapornode.optics",
               "vapornode.tomography", "vapornode.config")
    sizes = {"spectral_points": SPECTRAL_POINTS,
             "spectral_band_ghz": SPECTRAL_BAND_GHZ,
             "filter_points": FILTER_POINTS, "filter_band_ghz": FILTER_BAND_GHZ,
             "utility_points": UTILITY_POINTS, "utility_max_us": UTILITY_MAX_US,
             "tomography_s_per_setting": TOMOGRAPHY_DURATION_S}

    def op(self, i, seed):
        from vapornode import analysis, experiments, optics, simulate, spectra
        from vapornode import tomography

        cfg = self.config_for(seed)
        model, cavity = cfg.spectral_model, cfg.source.telecom_cavity
        acceptance, cascade = cfg.memory_acceptance, cfg.filter_cascade

        band = SPECTRAL_BAND_GHZ * 1e9
        scan = []
        for d in np.linspace(-band / 2.0, band / 2.0, SPECTRAL_POINTS):
            eta, _ = spectra.heralding_vs_cavity_detuning(model, cavity, d)
            mem = spectra.memory_efficiency_vs_detuning(
                acceptance, model.paired_nir_detuning(d))
            scan.append((eta, mem))
        best = spectra.select_operating_point(model, cavity, acceptance,
                                              scan_band_hz=band)
        best_eta, _ = spectra.heralding_vs_cavity_detuning(model, cavity, best)

        fband = FILTER_BAND_GHZ * 1e9
        for d in np.linspace(-fband / 2.0, fband / 2.0, FILTER_POINTS):
            optics.cascade_suppression_db(cascade, d)
            optics.cascade_transmission(cascade, d)
        query_db = optics.cascade_suppression_db(cascade,
                                                 checks.FILTER_QUERY_HZ)
        fwhm = optics.cascade_effective_fwhm(cascade)

        times = np.linspace(0.0, UTILITY_MAX_US * 1e-6, UTILITY_POINTS)
        fids = experiments.model_fidelity_curve(cfg, times)
        utility = [analysis.utility_time(times, fids, thr)
                   for thr in (experiments.DISTILLATION_THRESHOLD,
                               experiments.SEPARABILITY_THRESHOLD)]

        counts = simulate.run_tomography(
            cfg, duration_per_setting_s=TOMOGRAPHY_DURATION_S)
        result = tomography.mle_tomography(counts.counts, counts.settings)
        payload = (scan, best, best_eta, query_db, fwhm, times, fids, utility,
                   counts, result)
        return int(counts.triggers_per_setting.sum()), payload

    def check(self, i, payload):
        (scan, best, best_eta, query_db, fwhm, times, fids, utility,
         counts, result) = payload
        where = f"op {i}"
        out = []
        if not all(0.0 <= v <= 1.0 for pair in scan + [(best_eta, 0.0)]
                   for v in pair):
            out.append(f"{where}: heralding or acceptance outside [0, 1]")
        if not abs(best) <= SPECTRAL_BAND_GHZ * 1e9 / 2.0:
            out.append(f"{where}: operating point outside the band")
        out += checks.check_filter(query_db, where)
        if not fwhm > 0.0:
            out.append(f"{where}: effective FWHM {fwhm}")
        out += checks.check_utility(self.model, times, fids, utility[0].time_s,
                                    where)
        out += checks.check_tomography(counts.counts,
                                       counts.triggers_per_setting,
                                       result.rho, where)
        return out


class CliCold(Workload):
    """Each op is one fresh `python -m vapornode.cli` process, or with
    `in_process` set, one `cli.main` call in this process."""

    name = "cli_cold"
    cycle = len(CLI_COMMANDS)
    modules = ("vapornode.cli",)
    sizes = {"commands": [" ".join(c) for c in CLI_COMMANDS]}
    in_process = False

    def setup(self, root, out_dir):
        super().setup(root, out_dir)
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.bytes_written = {}  # op index -> bytes of all outputs
        self.exits = {}  # op index -> exit code

    def op(self, i, seed):
        cmd = CLI_COMMANDS[i % len(CLI_COMMANDS)]
        out = self.out_dir / f"op{i:05d}"
        argv = [*cmd, "--seed", str(seed), "--out", str(out)]
        if self.in_process:
            from vapornode import cli

            code = cli.main(argv)
        else:
            code = subprocess.run(
                [sys.executable, "-m", "vapornode.cli", *argv],
                cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, timeout=120).returncode
        conditions = {"solo": 3, "source": 3, "sweep-window": 1}.get(cmd[0], 0)
        return conditions * int(cmd[2]) if conditions else 0, (argv, out, code,
                                                               seed)

    def check(self, i, payload):
        argv, out, code, seed = payload
        self.exits[i] = code
        self.bytes_written[i] = (sum(p.stat().st_size for p in out.iterdir())
                                 if out.is_dir() else 0)
        try:
            failures = checks.check_cli_run(self.model, argv[0], argv, out,
                                            code, seed)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return [f"op {i} {f}" for f in failures]


WORKLOADS = {w.name: w for w in (McHistograms, StorageScan, ModelDesign,
                                 CliCold)}
