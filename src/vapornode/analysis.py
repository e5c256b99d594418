"""Histogram-level analysis: SNR extraction, storage efficiency, photon
number, exponential fits, detection-window sweeps, and utility time."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .histograms import Histogram, write_csv
from .states import fidelity_from_snr


@dataclass(frozen=True)
class WindowSpec:
    """A signal window, or an array of them, and the noise window they
    share."""

    signal_start_s: float
    signal_width_s: float
    noise_start_s: float
    noise_width_s: float

    def __post_init__(self):
        if np.any(self.signal_width_s <= 0) or self.noise_width_s <= 0:
            raise ValueError("window widths must be > 0")
        s0, s1 = self.signal_start_s, self.signal_start_s + self.signal_width_s
        n0, n1 = self.noise_start_s, self.noise_start_s + self.noise_width_s
        if np.any((s0 < n1) & (n0 < s1)):
            raise ValueError("signal and noise windows must be disjoint")


def window_counts(hist: Histogram, start_s, width_s):
    """Counts inside [start, start+width), for one window or an array of
    windows: the difference of the cumulative count interpolated linearly
    at the two edges, so a bin straddling an edge counts by the fraction of
    it inside the window."""
    edges = np.stack(np.broadcast_arrays(start_s, np.add(start_s, width_s)))
    lo, hi = hist.span_s
    if np.any(edges[0] < lo - 1e-15) or np.any(edges[1] > hi + 1e-15):
        raise ValueError("window extends outside the histogram span")
    counts = hist.counts
    x = np.clip((edges - hist.origin_s) / hist.bin_width_s, 0.0, counts.size)
    i = np.minimum(x.astype(np.int64), counts.size - 1)
    below = np.concatenate(([0], np.cumsum(counts)))[i] + (x - i) * counts[i]
    c = below[1] - below[0]
    return c if c.ndim else float(c)


def peak_time(hist: Histogram) -> float:
    """Center of the highest bin."""
    i = int(np.argmax(hist.counts))
    return hist.origin_s + (i + 0.5) * hist.bin_width_s


def centered_window(hist: Histogram, width_s, noise_start_s: float,
                    noise_width_s: float) -> WindowSpec:
    """Signal window of the given width, or one per entry of an array of
    widths, centered on the histogram peak bin.

    A peak near the edge of the histogram (a nearly empty histogram peaks
    anywhere) shifts the window just far enough to lie inside the span.
    """
    lo, hi = hist.span_s
    start = np.minimum(np.maximum(peak_time(hist) - width_s / 2.0, lo),
                       hi - width_s)
    return WindowSpec(start if start.ndim else float(start), width_s,
                      noise_start_s, noise_width_s)


@dataclass
class SnrResult:
    snr: float
    signal_counts: float  # noise-subtracted counts in the signal window
    lower_bound: bool = False  # True when the noise window was empty


def extract_snr(hist: Histogram, window: WindowSpec) -> SnrResult:
    """Signal-to-noise from a signal window and a (larger) noise window.

    The flat noise level is estimated from the noise window and subtracted
    from the signal-window counts; snr = net signal / expected noise in the
    signal window.  An empty noise window yields a lower bound (one
    count-equivalent noise floor) with a flag.
    """
    noise_counts, raw = window_counts(
        hist, (window.noise_start_s, window.signal_start_s),
        (window.noise_width_s, window.signal_width_s)).tolist()
    noise_rate = max(noise_counts, 1.0) / window.noise_width_s
    expected_noise = noise_rate * window.signal_width_s
    signal = raw - expected_noise
    return SnrResult(
        snr=signal / expected_noise,
        signal_counts=signal,
        lower_bound=noise_counts == 0,
    )


def internal_storage_efficiency(
    hist_memory: Histogram,
    hist_input: Histogram,
    window: WindowSpec,
    noise_region_s: tuple,
) -> float:
    """Retrieved photons (noise-subtracted, full retrieval window) over
    input photons, both per trial; both traverse the same optical chain.

    noise_region_s bounds the span where the flat background exists (the
    control-on interval); the subtraction covers only its overlap with the
    signal window.
    """
    if hist_memory.n_trials < 1 or hist_input.n_trials < 1:
        raise ValueError("histograms must carry their trial counts")
    input_counts = float(hist_input.counts.sum())
    if input_counts <= 0:
        raise ValueError("input histogram has no counts")
    noise_counts, raw = window_counts(
        hist_memory, (window.noise_start_s, window.signal_start_s),
        (window.noise_width_s, window.signal_width_s)).tolist()
    noise_rate = noise_counts / window.noise_width_s
    overlap = max(
        0.0,
        min(window.signal_start_s + window.signal_width_s, noise_region_s[1])
        - max(window.signal_start_s, noise_region_s[0]),
    )
    retrieved_per_trial = (raw - noise_rate * overlap) / hist_memory.n_trials
    input_per_trial = input_counts / hist_input.n_trials
    return retrieved_per_trial / input_per_trial


def mean_photon_number(
    hist_input: Histogram,
    transmissions: float,
    detector_efficiency: float,
) -> float:
    """Input photon number per trial, backtracked through the pass-through
    transmission and the detector efficiency."""
    for name, v in (("transmissions", transmissions),
                    ("detector_efficiency", detector_efficiency)):
        if not 0.0 < v <= 1.0:
            raise ValueError(f"{name} must be in (0, 1], got {v}")
    if hist_input.n_trials < 1:
        raise ValueError("histogram must carry its trial count")
    return float(hist_input.counts.sum()) / (
        hist_input.n_trials * transmissions * detector_efficiency
    )


@dataclass
class ExponentialFit:
    amplitude: float
    tau_s: float
    tau_sigma_s: float
    non_decaying: bool = False
    excluded_points: int = 0


def fit_exponential(t, y) -> ExponentialFit:
    """Fit y = A exp(-t/tau) by least squares on log y, refined with a
    direct nonlinear fit.  Non-positive y points are excluded with a count.

    The nonlinear fit uses variable projection (Golub & Pereyra, SIAM J.
    Numer. Anal. 10, 413, 1973): A is closed-form for each tau, and the
    stationary point of the projected residual in log tau is bracketed from
    the log-linear estimate and bisected.  The covariance comes from the
    Jacobian, scaled by chi^2/dof.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.size != y.size:
        raise ValueError("t and y length mismatch")
    if np.any(np.diff(t) <= 0):
        raise ValueError("t must be strictly increasing")
    keep = y > 0
    excluded = int((~keep).sum())
    t, y = t[keep], y[keep]
    if t.size < 3:
        raise ValueError("need at least 3 usable points")

    # linear fit of log y = log A - t/tau
    log_y = np.log(y)
    lm = log_y.mean()
    dt = t - t.mean()
    slope = (dt * (log_y - lm)).sum() / (dt * dt).sum()
    non_decaying = ExponentialFit(
        amplitude=float(np.exp(lm)),
        tau_s=math.inf,
        tau_sigma_s=math.inf,
        non_decaying=True,
        excluded_points=excluded,
    )
    if slope >= 0:
        return non_decaying

    def amplitude(s):
        e = np.exp(-t / math.exp(s))
        return (e * y).sum() / (e * e).sum(), e

    def descending(s):
        # True while the projected residual still falls as log tau grows
        a, e = amplitude(s)
        return (e * t * (y - a * e)).sum() > 0.0

    # bracket the minimum from the log-linear estimate, doubling the step;
    # 50 e-folds away exp(-t/tau) has reached 1 or 0 at every point
    s0 = lo = hi = math.log(-1.0 / slope)
    step = 0.5
    while descending(hi):
        lo, hi, step = hi, hi + step, 2.0 * step
        if hi - s0 > 50.0:  # no finite minimum: a constant fits best
            return non_decaying
    while lo == hi or not descending(lo):
        hi, lo, step = lo, lo - step, 2.0 * step
        if s0 - lo > 50.0:
            raise ValueError("no finite decay time fits the data")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # converged: no later step changes lo or hi
            break
        if descending(mid):
            lo = mid
        else:
            hi = mid
    s = 0.5 * (lo + hi)
    a, e = amplitude(s)
    tau = math.exp(s)

    # covariance of (A, log tau) from the Jacobian
    ja, js = e, a * e * t / tau
    faa, fas, fss = (ja * ja).sum(), (ja * js).sum(), (js * js).sum()
    var_s = faa / (faa * fss - fas * fas)
    var_s *= ((y - a * e) ** 2).sum() / (t.size - 2)
    return ExponentialFit(
        amplitude=float(a),
        tau_s=tau,
        tau_sigma_s=tau * math.sqrt(var_s),
        excluded_points=excluded,
    )


@dataclass
class SweepResult:
    window_sizes_s: np.ndarray
    rates_pairs_per_s: np.ndarray
    fidelities: np.ndarray
    per_trial_success: np.ndarray
    lower_bound: bool  # the shared noise window was empty: SNRs are bounds

    def to_csv(self, path) -> None:
        write_csv(path, "window_ns,rate_pairs_per_s,fidelity,per_trial",
                  (".4f", ".6g", ".6f", ".6g"), (
                      (w * 1e9, r, fi, p) for w, r, fi, p in zip(
                          self.window_sizes_s, self.rates_pairs_per_s,
                          self.fidelities, self.per_trial_success)))


def window_sweep(
    hist_signal: Histogram,
    noise_window_start_s: float,
    noise_window_s: float,
    window_sizes_s,
    correction: float,
    trial_rate_hz: float,
) -> SweepResult:
    """Rate and predicted fidelity vs detection-window size.

    Each window is centered on the histogram peak, and every window is
    counted with the shared noise window in one pass.  The pair rate counts
    every detection in the window (the noise ones degrade fidelity, not the
    rate) divided by `correction`, the product of analyzer transmission,
    detector efficiency and the detected (non-|VV>) fraction; the fidelity
    comes from the noise-subtracted SNR through the Werner model.
    """
    if not 0.0 < correction <= 1.0:
        raise ValueError(f"correction must be in (0, 1], got {correction}")
    if hist_signal.n_trials < 1:
        raise ValueError("histogram must carry its trial count")
    windows = np.sort(np.asarray(list(window_sizes_s), dtype=float))
    spec = centered_window(hist_signal, windows, noise_window_start_s,
                           noise_window_s)
    counts = window_counts(
        hist_signal, np.append(noise_window_start_s, spec.signal_start_s),
        np.append(noise_window_s, windows))
    noise, captured = counts[0], counts[1:]
    expected_noise = max(noise, 1.0) / noise_window_s * windows
    snr = (captured - expected_noise) / expected_noise
    per_trial = captured / hist_signal.n_trials
    return SweepResult(
        window_sizes_s=windows,
        rates_pairs_per_s=per_trial * trial_rate_hz / correction,
        fidelities=fidelity_from_snr(np.maximum(snr, 0.0)),
        per_trial_success=per_trial,
        lower_bound=bool(noise == 0),
    )


def _isotonic_non_increasing(y: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators fit of a non-increasing sequence."""
    blocks = []  # (mean, length) of each pooled run
    for v in y.astype(float).tolist():
        blocks.append((v, 1))
        while len(blocks) > 1 and blocks[-2][0] < blocks[-1][0]:
            (v2, w2), (v1, w1) = blocks.pop(), blocks.pop()
            blocks.append(((v1 * w1 + v2 * w2) / (w1 + w2), w1 + w2))
    return np.repeat([v for v, _ in blocks], [w for _, w in blocks])


@dataclass
class UtilityTime:
    time_s: float
    bounded: bool  # False when the curve never crosses the threshold


def utility_time(times_s, fidelities, threshold: float) -> UtilityTime:
    """First crossing of the (isotonically smoothed) fidelity curve below a
    threshold, by linear interpolation."""
    if not 0.25 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0.25, 1), got {threshold}")
    t = np.asarray(times_s, dtype=float)
    f = _isotonic_non_increasing(np.asarray(fidelities, dtype=float))
    if f[0] <= threshold:
        return UtilityTime(time_s=float(t[0]), bounded=True)
    below = np.nonzero(f <= threshold)[0]
    if below.size == 0:
        return UtilityTime(time_s=float(t[-1]), bounded=False)
    i = below[0]
    frac = (f[i - 1] - threshold) / (f[i - 1] - f[i])
    return UtilityTime(time_s=float(t[i - 1] + frac * (t[i] - t[i - 1])),
                       bounded=True)
