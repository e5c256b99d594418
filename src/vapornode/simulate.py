"""Monte Carlo generation of time-tagged detection events.

Reproducibility scheme: trials are split into fixed-size blocks; block b of
condition c uses Generator(Philox(key=(seed, c), counter=[0, 0, b, 0])),
the same state as Generator(Philox(key=(seed, c)).jumped(b)), since a jump
adds one to the third counter word, but built without the jump.  A block's
events depend only on (seed, condition, block index, block size), so the
event stream is bit-identical for any worker count, and histograms merge by
commutative integer addition.

Events, not trials, are sampled.  Per block of n trials the signal count is
Binomial(n, p_signal) on distinct trials (at most one signal detection per
trial), the noise count is Poisson(n * lambda) on independently drawn
trials, and in triggered mode the block duration is Gamma(n, 1/rate), the
sum of n exponential trigger gaps.  Timestamps are drawn for those events
only, so the cost scales with the detections kept, not with the trials.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import states
from .config import NodeConfig
from .histograms import Histogram
from .optics import FWHM_TO_SIGMA

BLOCK_SIZE = 1 << 16

# condition stream ids
_COND_IDS = {"memory": 0, "input": 1, "no_input": 2, "tomography": 3}

CONDITIONS = ("memory", "input", "no_input")


@dataclass(frozen=True)
class RunSpec:
    """Everything one block of trials needs; cheap to pickle."""

    p_signal: float  # detection probability per trial (full pulse)
    signal_center_s: float
    # (sigma_s, fraction) mixture components of the timing envelope
    signal_sigmas_s: tuple
    signal_fractions: tuple
    jitter_sigma_s: float
    noise_lambda: float  # expected noise counts per trial
    noise_start_s: float
    noise_end_s: float
    frame_origin_s: float
    frame_end_s: float
    tag_resolution_s: float
    bin_width_s: float
    trial_period_s: float  # fixed clock period, or 0 for Poisson triggers
    trigger_rate_hz: float = 0.0

    @property
    def n_bins(self) -> int:
        return int(
            math.ceil((self.frame_end_s - self.frame_origin_s) / self.bin_width_s)
        )


def _delay_key(extra_storage_s: float) -> int:
    """Integer stream key of a storage delay, in picoseconds mod 2**40."""
    return int(round(extra_storage_s * 1e12)) % (2**40)


def _block_rng(seed: int, condition_id: int, block_index: int) -> np.random.Generator:
    # uint64 key: a tuple key goes through float outside [0, 2**63)
    key = np.array([seed & (2**64 - 1), condition_id], dtype=np.uint64)
    return np.random.Generator(
        np.random.Philox(key=key, counter=[0, 0, block_index, 0]))


def _simulate_block(spec: RunSpec, seed, condition_id, block_index, n):
    """One block of trials -> (timestamps in tag units, trial indices,
    duration); events are in draw order, not sorted by trial."""
    rng = _block_rng(seed, condition_id, block_index)

    if spec.trial_period_s > 0:
        duration = n * spec.trial_period_s
    else:
        duration = float(rng.gamma(n, 1.0 / spec.trigger_rate_hz))

    # signal photon: which trials detect it, then its timestamp
    if spec.p_signal > 0:
        # the linear link budget can exceed 1: then every trial detects
        k_sig = int(rng.binomial(n, min(spec.p_signal, 1.0)))
        idx_sig = rng.choice(n, k_sig, replace=False)
        comp = rng.random(k_sig)
        z_env = rng.standard_normal(k_sig)
        z_jit = rng.standard_normal(k_sig)
        cuts = np.cumsum(spec.signal_fractions[:-1])
        sigma = np.asarray(spec.signal_sigmas_s)[
            np.searchsorted(cuts, comp, side="right")
        ]
        t_sig = spec.signal_center_s + z_env * sigma + z_jit * spec.jitter_sigma_s
    else:
        t_sig = np.empty(0)
        idx_sig = np.empty(0, dtype=np.int64)

    # noise counts, uniform over the control-on span
    if spec.noise_lambda > 0:
        total = int(rng.poisson(n * spec.noise_lambda))
        idx_noise = rng.integers(0, n, total)
        t_noise = spec.noise_start_s + rng.random(total) * (
            spec.noise_end_s - spec.noise_start_s
        )
    else:
        t_noise = np.empty(0)
        idx_noise = np.empty(0, dtype=np.int64)

    t = np.concatenate([t_sig, t_noise])
    idx = np.concatenate([idx_sig, idx_noise]) + block_index * BLOCK_SIZE
    tags = np.rint(t / spec.tag_resolution_s).astype(np.int64)

    lo = int(math.ceil(spec.frame_origin_s / spec.tag_resolution_s))
    hi = int(math.floor(spec.frame_end_s / spec.tag_resolution_s))
    keep = (tags >= lo) & (tags < hi)
    return tags[keep], idx[keep], duration


def _block_worker(args):
    spec, seed, condition_id, block_index, n = args
    tags, idx, duration = _simulate_block(spec, seed, condition_id, block_index, n)
    counts = _bin_tags(spec, tags)
    return counts, duration


def _bin_tags(spec: RunSpec, tags: np.ndarray) -> np.ndarray:
    t = tags * spec.tag_resolution_s - spec.frame_origin_s
    bins = (t / spec.bin_width_s).astype(np.int64)
    return np.bincount(bins, minlength=spec.n_bins)[: spec.n_bins]


def _blocks(n_trials: int):
    full, rem = divmod(n_trials, BLOCK_SIZE)
    sizes = [BLOCK_SIZE] * full + ([rem] if rem else [])
    return list(enumerate(sizes))


def run_condition(
    spec: RunSpec, seed: int, condition_id: int, n_trials: int, workers: int = 1
) -> Histogram:
    """Simulate n_trials and return the merged histogram."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    jobs = [(spec, seed, condition_id, b, n) for b, n in _blocks(n_trials)]
    # a forked pool starts all its processes at the first submit: never more
    # than there are blocks to run or CPUs to run them
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        results = [_block_worker(j) for j in jobs]
    else:
        # imported here: the module costs every fresh process ~25 ms
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_block_worker, jobs, chunksize=1))
    counts = np.zeros(spec.n_bins, dtype=np.int64)
    duration = 0.0
    for c, d in results:
        counts += c
        duration += d
    return Histogram(
        spec.bin_width_s, counts, spec.frame_origin_s, duration, n_trials
    )


def envelope_components(config: NodeConfig):
    """(sigmas, fractions) of the retrieved-photon timing mixture."""
    pulse = config.memory.retrieved_pulse
    return (
        (pulse.core_fwhm_s * FWHM_TO_SIGMA, pulse.pedestal_fwhm_s * FWHM_TO_SIGMA),
        (pulse.core_fraction, 1.0 - pulse.core_fraction),
    )


def window_capture(config: NodeConfig, window_s: float) -> float:
    """Fraction of the retrieved pulse (jitter included) inside a window
    centered on the pulse peak."""
    sigmas, fractions = envelope_components(config)
    jit = config.detector_nir.jitter_sigma_s
    cap = 0.0
    for s, frac in zip(sigmas, fractions):
        # a product overflows to inf (capture 0) where ** would raise
        s_eff = math.sqrt(s * s + jit * jit)
        cap += frac * math.erf(window_s / (2.0 * math.sqrt(2.0) * s_eff))
    return cap


def _link_budget(config: NodeConfig, amp: float, eta: float) -> float:
    """Detection chain amp * eta * T_filter * T_qst * eta_det.  T_filter is
    the cascade's broadband transmission: its transmission at the signal
    frequency, where every stage transmits 1."""
    return (
        amp
        * eta
        * config.filter_cascade.broadband_transmission
        * config.analysis.qst_transmission
        * config.detector_nir.efficiency
    )


def _check_delay(extra_storage_s: float) -> None:
    if not (math.isfinite(extra_storage_s) and extra_storage_s >= 0):
        raise ValueError(
            f"extra_storage_s must be finite and >= 0, got {extra_storage_s}"
        )


@dataclass(frozen=True)
class _Mode:
    """What separates the two operating modes."""

    amp: float  # mean photon number (solo) or heralding efficiency (source)
    eta0: float  # storage efficiency at the nominal retrieval
    input_fwhm_s: float  # pass-through input pulse
    period_s: float  # fixed clock period, or 0 for Poisson triggers
    rate_hz: float  # trigger rate, or 0 for a clock


def _mode(config: NodeConfig, mode: str) -> _Mode:
    if mode == "solo":
        solo = config.solo
        return _Mode(solo.mean_photon_number, config.memory.eta0_internal,
                     solo.input_pulse_fwhm_s, config.timing.clock_period_s, 0.0)
    if mode == "source":
        src = config.source
        return _Mode(src.heralding_eta, config.memory.eta0_source,
                     src.input_pulse_fwhm_s, 0.0, src.telecom_rate_hz)
    raise ValueError(f"unknown mode {mode!r}")


def detected_signal_probability(config: NodeConfig, mode: str,
                                extra_storage_s: float = 0.0) -> float:
    """Full-pulse detection probability per trial for the memory condition."""
    _check_delay(extra_storage_s)
    m = _mode(config, mode)
    eta = m.eta0 * math.exp(-extra_storage_s / config.memory.tau_coherence_s)
    return _link_budget(config, m.amp, eta)


def passthrough_probability(config: NodeConfig, mode: str) -> float:
    """Detection probability per trial for the input condition (vapor
    removed, control and OP blocked)."""
    return _link_budget(config, _mode(config, mode).amp, 1.0)


def noise_rate_hz(config: NodeConfig) -> float:
    """Noise detection rate per trial while the control field is on."""
    return config.memory.noise_per_trial / config.timing.control_on_s


def build_spec(
    config: NodeConfig,
    mode: str,
    condition: str,
    extra_storage_s: float = 0.0,
) -> RunSpec:
    """RunSpec for one (mode, condition) pair.

    extra_storage_s delays the retrieval beyond the nominal retrieve_at and
    scales the storage efficiency by exp(-t/tau).
    """
    if condition not in CONDITIONS:
        raise ValueError(f"unknown condition {condition!r}")
    _check_delay(extra_storage_s)
    m = _mode(config, mode)
    t = config.timing
    mem = config.memory
    retrieve_at = t.retrieve_at_s + extra_storage_s
    # the control-on duration is fixed; it starts at the delayed retrieval
    noise_start, noise_end = retrieve_at, retrieve_at + t.control_on_s
    sigmas, fractions = envelope_components(config)

    if condition == "memory":
        p = detected_signal_probability(config, mode, extra_storage_s)
        center = retrieve_at + mem.retrieval_delay_s
        lam = mem.noise_per_trial
    elif condition == "input":
        p = passthrough_probability(config, mode)
        sigmas, fractions = (m.input_fwhm_s * FWHM_TO_SIGMA,), (1.0,)
        center = 0.0
        lam = 0.0
    else:  # no_input
        p = 0.0
        center = retrieve_at
        lam = mem.noise_per_trial

    return RunSpec(
        p_signal=p,
        signal_center_s=center,
        signal_sigmas_s=sigmas,
        signal_fractions=fractions,
        jitter_sigma_s=config.detector_nir.jitter_sigma_s,
        noise_lambda=lam,
        noise_start_s=noise_start,
        noise_end_s=noise_end,
        frame_origin_s=t.op_off_s,
        frame_end_s=noise_end + 30e-9,
        tag_resolution_s=t.tag_resolution_s,
        bin_width_s=t.bin_width_s,
        trial_period_s=m.period_s,
        trigger_rate_hz=m.rate_hz,
    )


def run_solo(config: NodeConfig, condition: str, n_trials: int,
             workers: int | None = None) -> Histogram:
    """Clocked weak-coherent-pulse operation under one of the three
    experimental conditions (memory / input / no_input)."""
    spec = build_spec(config, "solo", condition)
    w = config.workers if workers is None else workers
    return run_condition(spec, config.seed, _COND_IDS[condition], n_trials, w)


def run_source(config: NodeConfig, condition: str, n_trials: int,
               workers: int | None = None,
               extra_storage_s: float = 0.0) -> Histogram:
    """Triggered operation: each trial is the detection of a telecom photon;
    the histogram axis is time since trigger."""
    spec = build_spec(config, "source", condition, extra_storage_s)
    w = config.workers if workers is None else workers
    # offset the block stream so different storage delays are independent
    cond = _COND_IDS[condition] + 16 * (1 + _delay_key(extra_storage_s))
    return run_condition(spec, config.seed, cond, n_trials, w)


@dataclass
class TomographyCounts:
    settings: list
    counts: np.ndarray
    triggers_per_setting: np.ndarray


def run_tomography(
    config: NodeConfig,
    settings=None,
    duration_per_setting_s: float = 12.5,
    extra_storage_s: float = 0.0,
) -> TomographyCounts:
    """Coincidence counts for each polarization setting.

    Per trigger that passed the telecom projector, the NIR outcome is drawn
    from the Born-rule probability of the configured source state, with the
    flat noise floor adding projector-independent coincidences inside the
    detection window.
    """
    if settings is None:
        settings = states.tomography_settings()
    rho = states.werner_state(config.source.werner_a)
    w = config.analysis.signal_window_s
    p_chain = detected_signal_probability(config, "source", extra_storage_s)
    p_window = p_chain * window_capture(config, w)
    p_noise = noise_rate_hz(config) * w

    rng = _block_rng(config.seed, _COND_IDS["tomography"],
                     _delay_key(extra_storage_s))
    counts = np.zeros(len(settings), dtype=np.int64)
    triggers = np.zeros(len(settings), dtype=np.int64)
    for i, setting in enumerate(settings):
        # trigger rate through the telecom projector
        p_trig = float(np.real(np.trace(setting.marginal_a() @ rho)))
        n_trig = rng.poisson(
            config.source.telecom_rate_hz * duration_per_setting_s * p_trig
        )
        if p_trig <= 0:
            continue
        born = states.outcome_probability(rho, setting) / p_trig
        p_coinc = born * p_window + p_noise
        counts[i] = rng.binomial(n_trig, min(p_coinc, 1.0))
        triggers[i] = n_trig
    return TomographyCounts(
        settings=list(settings),
        counts=counts,
        triggers_per_setting=triggers,
    )

