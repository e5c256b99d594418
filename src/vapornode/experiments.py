"""End-to-end experiment orchestration.

Each routine runs the Monte Carlo conditions it needs, applies the histogram
analysis, and returns a plain result record that the CLI can serialize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis, simulate, tomography
from .config import NodeConfig
from .histograms import Histogram
from .states import fidelity_from_snr, snr_from_fidelity

# fidelity thresholds of interest for the utility-time figure of merit:
# distillation with two-copy purification, and any entanglement at all
DISTILLATION_THRESHOLD = 0.775
SEPARABILITY_THRESHOLD = 0.50


@dataclass
class ConditionRuns:
    memory: Histogram
    input: Histogram
    no_input: Histogram


def run_conditions(config: NodeConfig, mode: str,
                   n_trials: int) -> ConditionRuns:
    """The three standard histograms: storage+retrieval, memory bypassed
    (pass-through pulse), and no input light (noise only)."""
    # looked up per call, so that a replaced module attribute is used
    run = {"solo": simulate.run_solo, "source": simulate.run_source}.get(mode)
    if run is None:
        raise ValueError(f"unknown mode {mode!r}")
    return ConditionRuns(*(run(config, c, n_trials)
                           for c in simulate.CONDITIONS))


@dataclass
class NodeMetrics:
    mode: str
    n_trials: int
    snr: float
    snr_lower_bound: bool
    storage_efficiency: float
    noise_floor_per_trial: float
    mean_photon_number: float | None = None
    snr_photon_normalized: float | None = None


def _full_window_efficiency(config: NodeConfig, memory: Histogram,
                            inp: Histogram,
                            extra_storage_s: float = 0.0) -> float:
    """Internal storage efficiency in the full retrieval window; a storage
    delay shifts the noise window and the control-on (background) region."""
    a, t = config.analysis, config.timing
    full = analysis.centered_window(
        memory, 2.0 * a.full_signal_halfwidth_s,
        a.noise_window_start_s + extra_storage_s, a.noise_window_s,
    )
    on = t.retrieve_at_s + extra_storage_s
    return analysis.internal_storage_efficiency(
        memory, inp, full, noise_region_s=(on, on + t.control_on_s)
    )


def _metrics(config: NodeConfig, mode: str, runs: ConditionRuns) -> NodeMetrics:
    a = config.analysis
    window = analysis.centered_window(
        runs.memory, a.signal_window_s, a.noise_window_start_s, a.noise_window_s
    )
    snr = analysis.extract_snr(runs.memory, window)
    eff = _full_window_efficiency(config, runs.memory, runs.input)

    # flat background per trial, referred to the signal window width
    floor = (runs.no_input.total() / runs.no_input.n_trials
             * (a.signal_window_s / config.timing.control_on_s))

    metrics = NodeMetrics(
        mode=mode,
        n_trials=runs.memory.n_trials,
        snr=snr.snr,
        snr_lower_bound=snr.lower_bound,
        storage_efficiency=eff,
        noise_floor_per_trial=floor,
    )
    if mode == "solo":
        nbar = analysis.mean_photon_number(
            runs.input,
            config.filter_cascade.broadband_transmission * a.qst_transmission,
            config.detector_nir.efficiency,
        )
        metrics.mean_photon_number = nbar
        metrics.snr_photon_normalized = snr.snr / nbar
    return metrics


def solo_metrics(config: NodeConfig, n_trials: int) -> tuple:
    """Clocked weak-coherent-pulse characterization.

    Returns (NodeMetrics, ConditionRuns); the metrics include the input
    photon number and the SNR normalized to one photon per pulse.
    """
    runs = run_conditions(config, "solo", n_trials)
    return _metrics(config, "solo", runs), runs


def source_metrics(config: NodeConfig, n_trials: int) -> tuple:
    """Heralded-photon characterization; n_trials counts telecom triggers."""
    runs = run_conditions(config, "source", n_trials)
    return _metrics(config, "source", runs), runs


def detection_window_sweep(config: NodeConfig, n_trials: int,
                           hist: Histogram | None = None) -> analysis.SweepResult:
    """Pair rate and fidelity vs detection-window size (triggered mode).

    The detected coincidence rate is referred back to generated pairs by the
    analyzer transmission, NIR detector efficiency and the unmeasured |VV>
    half of the coincidences.
    """
    if hist is None:
        hist = simulate.run_source(config, "memory", n_trials)
    a = config.analysis
    return analysis.window_sweep(
        hist,
        a.noise_window_start_s,
        a.noise_window_s,
        a.sweep_windows_s,
        correction=(a.qst_transmission * config.detector_nir.efficiency
                    * a.vv_fraction),
        trial_rate_hz=config.source.telecom_rate_hz,
    )


@dataclass
class StorageScan:
    delays_s: np.ndarray
    efficiencies: np.ndarray
    fidelities: np.ndarray
    efficiency_fit: analysis.ExponentialFit
    utility: analysis.UtilityTime


def storage_time_scan(
    config: NodeConfig,
    delays_s,
    n_trials: int,
    duration_per_setting_s: float = 12.5,
) -> StorageScan:
    """Efficiency and reconstructed fidelity vs storage time.

    Each delay gets its own triggered memory/input runs (efficiency) and a
    full tomography pass (fidelity).  The efficiency decay is fit to a
    single exponential; the fidelity curve yields the utility time at the
    distillation threshold.
    """
    delays = np.sort(np.asarray(list(delays_s), dtype=float))
    if delays.size < 3:
        raise ValueError("need at least 3 storage delays")
    effs, fids = [], []
    for d in delays:
        mem = simulate.run_source(config, "memory", n_trials, extra_storage_s=d)
        inp = simulate.run_source(config, "input", n_trials, extra_storage_s=d)
        effs.append(_full_window_efficiency(config, mem, inp, d))
        counts = simulate.run_tomography(
            config, duration_per_setting_s=duration_per_setting_s,
            extra_storage_s=d,
        )
        result = tomography.mle_tomography(counts.counts, counts.settings)
        fids.append(result.fidelity_to_target)
    effs = np.asarray(effs)
    fids = np.asarray(fids)
    fit = analysis.fit_exponential(delays, effs)
    utility = analysis.utility_time(delays, fids, DISTILLATION_THRESHOLD)
    return StorageScan(
        delays_s=delays,
        efficiencies=effs,
        fidelities=fids,
        efficiency_fit=fit,
        utility=utility,
    )


def predicted_window_snr(config: NodeConfig, mode: str,
                         extra_storage_s: float = 0.0) -> float:
    """Model SNR in the peak-centered signal window, no Monte Carlo.

    Without background the SNR is unbounded (inf), or 0 with no signal
    either.
    """
    w = config.analysis.signal_window_s
    signal = simulate.detected_signal_probability(
        config, mode, extra_storage_s
    ) * simulate.window_capture(config, w)
    noise = simulate.noise_rate_hz(config) * w
    if noise == 0:
        return math.inf if signal > 0 else 0.0
    return signal / noise


def model_fidelity_curve(config: NodeConfig, times_s) -> np.ndarray:
    """Werner-model fidelity vs storage time.

    The stored signal decays as exp(-t/tau) while the background stays
    flat, so the SNR inherits the efficiency decay directly.
    """
    snr0 = predicted_window_snr(config, "source")
    t = np.asarray(times_s, dtype=float)
    return fidelity_from_snr(snr0 * np.exp(-t / config.memory.tau_coherence_s))


def model_utility_time(config: NodeConfig,
                       threshold: float = DISTILLATION_THRESHOLD,
                       snr0: float | None = None) -> float:
    """Closed-form storage time at which the model fidelity hits a threshold."""
    if not 0.25 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0.25, 1), got {threshold}")
    if snr0 is None:
        snr0 = predicted_window_snr(config, "source")
    snr_at = snr_from_fidelity(threshold)
    if snr0 <= snr_at:
        return 0.0
    return config.memory.tau_coherence_s * math.log(snr0 / snr_at)
