"""Correctness gate: every benchmark operation is checked here.

Statistical checks compare a Monte Carlo result with the closed-form model
at Z_LIMIT standard deviations.  The standard deviation comes from the
model's own expected counts (Poisson statistics propagated through each
estimator), never from the sample, so a correct sampler on any random
stream fails a check with probability of order 1e-6.

Deterministic checks cover bookkeeping (trial counts, non-negative counts,
clocked durations), the filter suppression at the hyperfine splitting,
CLI exit codes and the run manifest.

Each function returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

Z_LIMIT = 5.0
FILTER_QUERY_HZ = 6.8347e9
FILTER_SUPPRESSION_DB = 113.8
FILTER_TOLERANCE_DB = 1.0
CLI_OK_EXITS = (0, 4)


def _z(name: str, measured: float, model: float, sigma: float) -> list:
    z = (measured - model) / sigma
    if not math.isfinite(z) or abs(z) > Z_LIMIT:
        return [f"{name}: measured {measured:.6g}, model {model:.6g} "
                f"+/- {sigma:.3g} (z={z:.2f})"]
    return []


class Model:
    """Closed-form expectations for one config, built from the package's
    public predictors."""

    def __init__(self, config):
        from vapornode import experiments, simulate

        self.config = config
        self._experiments = experiments
        self._simulate = simulate
        t, a = config.timing, config.analysis
        self.span_s = t.op_on_s - t.retrieve_at_s
        self.noise_rate = simulate.noise_rate_hz(config)  # per trial per s
        self.full_window_s = 2.0 * a.full_signal_halfwidth_s
        # the full window is centred on the retrieved pulse; the flat noise
        # exists only from the retrieval onwards
        overlap = config.memory.retrieval_delay_s + a.full_signal_halfwidth_s
        self.full_overlap_s = min(max(overlap, 0.0), self.full_window_s)

    def eta(self, mode: str, extra_storage_s: float = 0.0) -> float:
        mem = self.config.memory
        eta0 = mem.eta0_internal if mode == "solo" else mem.eta0_source
        return eta0 * math.exp(-extra_storage_s / mem.tau_coherence_s)

    def snr(self, mode: str, n: int):
        """(model SNR, sigma) in the configured signal window."""
        a = self.config.analysis
        p_sig = self._simulate.detected_signal_probability(self.config, mode)
        s = n * p_sig * self._simulate.window_capture(self.config,
                                                       a.signal_window_s)
        b = n * self.noise_rate * a.signal_window_s
        nn = n * self.noise_rate * a.noise_window_s
        model = self._experiments.predicted_window_snr(self.config, mode)
        sigma = (s + b) / b * math.sqrt(1.0 / (s + b) + 1.0 / nn)
        return model, sigma

    def efficiency(self, mode: str, n: int, extra_storage_s: float = 0.0):
        """(model internal storage efficiency, sigma) in the full window."""
        cfg, sim = self.config, self._simulate
        a = cfg.analysis
        cap = sim.window_capture(cfg, self.full_window_s)
        model = self.eta(mode, extra_storage_s) * cap
        s = n * sim.detected_signal_probability(cfg, mode, extra_storage_s) * cap
        b = n * self.noise_rate * self.full_overlap_s
        nn = n * self.noise_rate * a.noise_window_s
        inp = n * sim.passthrough_probability(cfg, mode)
        var_net = s + b + (self.full_overlap_s / a.noise_window_s) ** 2 * nn
        sigma = model * math.sqrt(var_net / s**2 + 1.0 / inp)
        return model, sigma

    def floor(self, n: int):
        """(model noise floor per trial in the signal window, sigma)."""
        w = self.config.analysis.signal_window_s
        lam = self.config.memory.noise_per_trial
        scale = w / self.span_s
        return lam * scale, math.sqrt(n * lam) / n * scale

    def utility_time_s(self) -> float:
        """Closed-form storage time at which fidelity hits the distillation
        threshold."""
        return self._experiments.model_utility_time(self.config)

    def tau_sigma(self, mode: str, n: int, delays_s) -> float:
        """Standard deviation of the unweighted exponential fit's tau, from
        the model's per-delay efficiency variances (linearised fit)."""
        tau = self.config.memory.tau_coherence_s
        t = np.asarray(delays_s, dtype=float)
        amp = self.efficiency(mode, n)[0]
        var = np.array([self.efficiency(mode, n, d)[1] ** 2 for d in t])
        e = np.exp(-t / tau)
        jac = np.column_stack([e, amp * t / tau**2 * e])
        inv = np.linalg.inv(jac.T @ jac)
        cov = inv @ (jac.T * var) @ jac @ inv
        return float(math.sqrt(cov[1, 1]))


def check_metrics(model: Model, metrics, n: int, where: str) -> list:
    """SNR, storage efficiency and noise floor of a NodeMetrics record
    (or its JSON form) against the model."""
    get = metrics.get if isinstance(metrics, dict) else (
        lambda k: getattr(metrics, k))
    mode = get("mode")
    out = []
    if get("n_trials") != n:
        out.append(f"{where}: n_trials {get('n_trials')} != {n}")
    if get("snr_lower_bound"):
        out.append(f"{where}: empty noise window")
    out += _z(f"{where} snr", get("snr"), *model.snr(mode, n))
    out += _z(f"{where} storage_efficiency", get("storage_efficiency"),
              *model.efficiency(mode, n))
    out += _z(f"{where} noise_floor", get("noise_floor_per_trial"),
              *model.floor(n))
    return out


def check_runs(model: Model, mode: str, runs, n: int, where: str) -> list:
    """Trial bookkeeping of the three condition histograms."""
    out = []
    cfg = model.config
    for cond in ("memory", "input", "no_input"):
        h = getattr(runs, cond)
        tag = f"{where} {cond}"
        if h.n_trials != n:
            out.append(f"{tag}: n_trials {h.n_trials} != {n}")
        if (np.asarray(h.counts) < 0).any():
            out.append(f"{tag}: negative counts")
        if mode == "solo":
            want = n * cfg.timing.clock_period_s
            if not math.isclose(h.duration_accumulated_s, want, rel_tol=1e-9):
                out.append(f"{tag}: duration {h.duration_accumulated_s} != {want}")
        else:
            rate = cfg.source.telecom_rate_hz
            out += _z(f"{tag} duration", h.duration_accumulated_s, n / rate,
                      math.sqrt(n) / rate)
    return out


def check_sweep(model: Model, windows_s, per_trial, fidelities,
                where: str) -> list:
    """Detection-window sweep: the configured windows, all centred on one
    peak, so captured detections per trial cannot fall as the window grows.

    Not compared with the model: each window is centred on the argmax bin,
    whose position wanders by several bins between streams, which biases
    narrow-window captures by about a standard deviation."""
    want = np.sort(np.asarray(model.config.analysis.sweep_windows_s))
    windows_s = np.asarray(windows_s, dtype=float)
    if windows_s.shape != want.shape or not np.allclose(windows_s, want,
                                                        rtol=1e-9):
        return [f"{where}: sweep windows differ from the config"]
    out = []
    per_trial = np.asarray(per_trial, dtype=float)
    if not ((per_trial >= 0.0) & (per_trial <= 1.0)).all():
        out.append(f"{where}: detections per trial outside [0, 1]")
    if (np.diff(per_trial) < -1e-12 * per_trial[1:]).any():
        out.append(f"{where}: detections per trial fall as the window grows")
    fids = np.asarray(fidelities, dtype=float)
    if not ((fids >= 0.25) & (fids <= 1.0)).all():
        out.append(f"{where}: fidelity outside [0.25, 1]")
    return out


def check_scan(model: Model, scan, n: int, where: str) -> list:
    """Per-delay efficiencies, the fitted coherence time and the
    reconstructed fidelities of a storage-time scan."""
    out = []
    for d, eff in zip(scan.delays_s, scan.efficiencies):
        out += _z(f"{where} efficiency@{d * 1e6:.3f}us", eff,
                  *model.efficiency("source", n, d))
    fit = scan.efficiency_fit
    if fit.non_decaying:
        out.append(f"{where}: efficiency fit non-decaying")
    else:
        out += _z(f"{where} tau", fit.tau_s,
                  model.config.memory.tau_coherence_s,
                  model.tau_sigma("source", n, scan.delays_s))
    fids = np.asarray(scan.fidelities)
    if not ((fids >= 0.0) & (fids <= 1.0)).all():
        out.append(f"{where}: fidelity outside [0, 1]")
    return out


def check_filter(suppression_db: float, where: str) -> list:
    if abs(suppression_db - FILTER_SUPPRESSION_DB) > FILTER_TOLERANCE_DB:
        return [f"{where}: suppression at {FILTER_QUERY_HZ / 1e9} GHz is "
                f"{suppression_db:.3f} dB, want {FILTER_SUPPRESSION_DB} "
                f"+/- {FILTER_TOLERANCE_DB}"]
    return []


def check_tomography(counts, triggers, rho, where: str) -> list:
    out = []
    counts = np.asarray(counts)
    triggers = np.asarray(triggers)
    if (counts < 0).any() or (counts > triggers).any():
        out.append(f"{where}: coincidences outside [0, triggers]")
    rho = np.asarray(rho)
    if not math.isclose(float(np.real(np.trace(rho))), 1.0, abs_tol=1e-9):
        out.append(f"{where}: reconstructed state trace != 1")
    if np.linalg.eigvalsh((rho + rho.conj().T) / 2.0).min() < -1e-9:
        out.append(f"{where}: reconstructed state not PSD")
    return out


def check_utility(model: Model, times_s, fids, utility_s: float,
                  where: str) -> list:
    """Model fidelity curve is a valid non-increasing Werner curve and its
    interpolated utility time matches the closed form within a grid step."""
    out = []
    fids = np.asarray(fids)
    if not ((fids >= 0.25) & (fids <= 1.0)).all() or (np.diff(fids) > 1e-12).any():
        out.append(f"{where}: fidelity curve not in [0.25, 1] and non-increasing")
    exact = model.utility_time_s()
    step = float(times_s[1] - times_s[0])
    if not abs(utility_s - exact) <= step:
        out.append(f"{where}: utility time {utility_s:.6g} s vs closed form "
                   f"{exact:.6g} s")
    return out


def _read_json(path: Path):
    with open(path) as f:
        return json.load(f)


def check_cli_run(model: Model, cmd: str, argv: list, out_dir: Path,
                  exit_code: int, seed: int) -> list:
    """Exit code, manifest and per-command outputs of one CLI run."""
    where = f"cli {cmd}"
    if exit_code not in CLI_OK_EXITS:
        return [f"{where}: exit code {exit_code}"]
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.is_file():
        return [f"{where}: no manifest.json"]
    manifest = _read_json(manifest_path)
    out = []
    if manifest.get("seed") != seed:
        out.append(f"{where}: manifest seed {manifest.get('seed')} != {seed}")
    listed = set(manifest.get("outputs", []))
    present = {p.name for p in out_dir.iterdir()} - {"manifest.json"}
    if listed != present:
        out.append(f"{where}: manifest lists {sorted(listed)}, "
                   f"directory has {sorted(present)}")
    empty = [n for n in sorted(listed & present)
             if (out_dir / n).stat().st_size == 0]
    if empty:
        out.append(f"{where}: empty outputs {empty}")
    if out:
        return out

    if cmd in ("solo", "source"):
        n = int(argv[argv.index("--trials") + 1])
        out += check_metrics(model, _read_json(out_dir / "metrics.json"), n,
                             where)
    elif cmd == "sweep-window":
        sweep = _read_json(out_dir / "sweep.json")
        out += check_sweep(model, np.asarray(sweep["window_ns"]) * 1e-9,
                           sweep["per_trial"], sweep["fidelity"], where)
    elif cmd == "tomography":
        with open(out_dir / "counts.csv") as f:
            rows = list(csv.DictReader(f))
        if len(rows) != 16:
            out.append(f"{where}: {len(rows)} settings in counts.csv")
        tomo = _read_json(out_dir / "tomography.json")
        from vapornode.states import density_matrix_from_pairs

        rho = density_matrix_from_pairs(tomo["rho_pairs_row_major"])
        out += check_tomography([int(r["coincidences"]) for r in rows],
                                [int(r["triggers"]) for r in rows], rho, where)
    elif cmd == "utility":
        util = _read_json(out_dir / "utility.json")
        with open(out_dir / "utility.csv") as f:
            rows = list(csv.DictReader(f))
        times = np.array([float(r["time_us"]) for r in rows]) * 1e-6
        fids = [float(r["fidelity"]) for r in rows]
        out += check_utility(model, times, fids,
                             util["utility_time_us_at_0.775"] * 1e-6, where)
    elif cmd == "spectral-scan":
        spec = _read_json(out_dir / "spectral.json")
        band = float(argv[argv.index("--band-ghz") + 1])
        if not abs(spec["operating_point_ghz"]) <= band / 2.0:
            out.append(f"{where}: operating point outside the band")
        if not 0.0 <= spec["heralding_eta_at_operating_point"] <= 1.0:
            out.append(f"{where}: heralding efficiency outside [0, 1]")
    elif cmd == "filter-design":
        out += check_filter(_read_json(out_dir / "filter.json")
                            ["suppression_db_at_query"], where)
    return out
