"""Optical cavity transfer functions, multi-pass filter cascades, and
time/frequency pulse analysis.

Cavity responses are modeled as FSR-periodized Lorentzians rather than the
full Airy function; at the finesses used here (>= 39) the difference near
resonance is below 1%.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Transform-limited Gaussian time-bandwidth product (intensity FWHMs).
GAUSSIAN_TBP = 2.0 * math.log(2.0) / math.pi
FWHM_TO_SIGMA = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))  # 1/2.3548


@dataclass(frozen=True)
class CavitySpec:
    """Lorentzian cavity: FWHM and free spectral range in Hz."""

    fwhm_hz: float
    fsr_hz: float

    def __post_init__(self):
        if not (0.0 < self.fwhm_hz < self.fsr_hz and math.isfinite(self.fsr_hz)):
            raise ValueError(
                f"need 0 < fwhm < fsr, got fwhm={self.fwhm_hz}, fsr={self.fsr_hz}"
            )


@dataclass(frozen=True)
class FilterCascade:
    """Ordered cavity stages with pass counts, plus a broadband loss factor."""

    stages: tuple  # of (CavitySpec, passes)
    broadband_transmission: float = 1.0

    def __post_init__(self):
        if not self.stages or sum(p for _, p in self.stages) < 1:
            raise ValueError("cascade needs at least one pass")
        if not 0.0 < self.broadband_transmission <= 1.0:
            raise ValueError("broadband_transmission must be in (0, 1]")
        for _, passes in self.stages:
            if passes < 1:
                raise ValueError("pass count must be >= 1")


def cavity_transmission(cavity: CavitySpec, detuning_hz: float):
    """Single-pass intensity transmission T = 1 / (1 + (2 d'/fwhm)^2).

    The detuning is wrapped to within fsr/2 of a resonance, exactly at any
    finite detuning (fmod is exact).  A scalar runs as a Python float, at a
    fraction of a numpy scalar's cost, and the square is a product, which
    rounds alike for floats and arrays: a scalar gives its array entry's bits.
    """
    d = np.asarray(detuning_hz, dtype=float)
    scalar = not d.ndim
    d, big = (float(d), abs(float(d))) if scalar else (d, np.abs(d).max(initial=0.0))
    # each wrap step leaves |d| below its bound as it is: fmod exactly, and
    # round(d / fsr) is +-0 below fsr/2; a nan takes both
    if not big < cavity.fsr_hz:
        d = np.fmod(d, cavity.fsr_hz)
    if not big < 0.5 * cavity.fsr_hz:
        d = d - cavity.fsr_hz * np.round(d / cavity.fsr_hz)
    x = 2.0 * d / cavity.fwhm_hz
    t = 1.0 / (1.0 + x * x)
    return float(t) if scalar else t


def cascade_transmission(cascade: FilterCascade, detuning_hz: float):
    """Intensity transmission through every pass of every stage.  A
    stage's passes are a product, not a power: numpy's array power and C
    pow round differently, a product alike."""
    t = cascade.broadband_transmission
    for cavity, passes in cascade.stages:
        stage = cavity_transmission(cavity, detuning_hz)
        t = t * math.prod([stage] * (passes - 1), start=stage)
    return t


def cascade_suppression_db(cascade: FilterCascade, detuning_hz: float):
    """Total suppression in dB, summed over all passes (excludes the
    broadband loss, which is frequency independent).  Scalars use np.log10
    too, which rounds as the array loop does; math.log10 does not."""
    db = 0.0  # +0.0, never -0.0; a numpy value after the first stage
    for cavity, passes in cascade.stages:
        db = db - 10.0 * passes * np.log10(cavity_transmission(cavity, detuning_hz))
    return db if db.ndim else float(db)


def cascade_effective_fwhm(cascade: FilterCascade) -> float:
    """FWHM of cascade_transmission, found by bisecting for the point where
    it falls to half its peak, the broadband transmission.  For N identical
    co-centered Lorentzian passes this equals fwhm * sqrt(2^(1/N) - 1)."""
    # every stage falls monotonically below 1/2 on [0, its fsr/2] (fwhm < fsr);
    # past the smallest fsr/2 lie the next orders of the periodized response
    lo, hi = 0.0, 0.5 * min(c.fsr_hz for c, _ in cascade.stages)
    half = 0.5 * cascade.broadband_transmission
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # converged: no later step changes lo or hi
            break
        if cascade_transmission(cascade, mid) > half:
            lo = mid
        else:
            hi = mid
    return lo + hi  # half-width at half maximum, doubled


@dataclass(frozen=True)
class PulseShape:
    """Sampled real amplitude envelope vs time."""

    samples: np.ndarray
    dt_s: float
    t0_s: float = 0.0

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.size < 16:
            raise ValueError("need at least 16 samples")
        if (samples < 0).any():
            raise ValueError("amplitude samples must be non-negative")
        energy = float(np.sum(samples**2) * self.dt_s)
        if not (np.isfinite(energy) and energy > 0):
            raise ValueError("pulse energy must be finite and positive")
        object.__setattr__(self, "samples", samples)

    @property
    def times_s(self) -> np.ndarray:
        return self.t0_s + self.dt_s * np.arange(self.samples.size)

    def energy(self) -> float:
        return float(np.sum(self.samples**2) * self.dt_s)


@dataclass(frozen=True)
class Spectrum:
    """One-sided power density vs frequency offset (Hz)."""

    frequencies_hz: np.ndarray
    power_density: np.ndarray

    def energy(self) -> float:
        df = float(self.frequencies_hz[1] - self.frequencies_hz[0])
        return float(np.sum(self.power_density) * df)


def gaussian_pulse(fwhm_t_s: float, dt_s: float, span_s: float) -> PulseShape:
    """Gaussian amplitude envelope whose *intensity* FWHM is fwhm_t_s."""
    if dt_s >= fwhm_t_s / 8.0:
        raise ValueError(f"dt {dt_s} too coarse for fwhm {fwhm_t_s}, need dt < fwhm/8")
    if span_s <= 4.0 * fwhm_t_s:
        raise ValueError(f"span {span_s} too short, need span > 4 fwhm")
    n = int(round(span_s / dt_s))
    t = (np.arange(n) - (n - 1) / 2.0) * dt_s
    sigma_i = fwhm_t_s * FWHM_TO_SIGMA  # intensity std
    amp = np.exp(-(t**2) / (4.0 * sigma_i**2))
    return PulseShape(amp, dt_s, t0_s=float(t[0]))


def spectrum_of(pulse: PulseShape) -> Spectrum:
    """Power spectrum |FFT|^2, normalized so Parseval holds.

    The transform is zero-padded to the next power of two with at least
    4x oversampling in frequency for stable FWHM interpolation.
    """
    n = pulse.samples.size
    nfft = 1 << max(int(math.ceil(math.log2(4 * n))), 4)
    amp = np.fft.rfft(pulse.samples, n=nfft) * pulse.dt_s
    freq = np.fft.rfftfreq(nfft, d=pulse.dt_s)
    # one-sided density: double everything except DC (and Nyquist)
    power = np.abs(amp) ** 2
    power[1:] *= 2.0
    if nfft % 2 == 0:
        power[-1] /= 2.0
    return Spectrum(freq, power)


def fwhm_of(frequencies, values) -> float:
    """FWHM by linear interpolation between the samples straddling half max.

    Works on any sampled curve; for one-sided spectra of real pulses the
    peak sits at zero frequency and the width is twice the half-width.
    """
    x = np.asarray(frequencies, dtype=float)
    y = np.asarray(values, dtype=float)
    ipk = int(np.argmax(y))
    half = y[ipk] / 2.0

    def cross(idx_range):
        prev = ipk
        for i in idx_range:
            if y[i] <= half:
                frac = (y[prev] - half) / (y[prev] - y[i])
                return x[prev] + frac * (x[i] - x[prev])
            prev = i
        return None

    right = cross(range(ipk + 1, x.size))
    left = cross(range(ipk - 1, -1, -1))
    if right is None or (left is None and ipk != 0):
        raise ValueError("half-maximum crossing outside sampled band")
    if ipk == 0 and left is None:
        return 2.0 * (right - x[0])  # symmetric one-sided spectrum
    return right - left


def spectral_fwhm(pulse: PulseShape) -> float:
    spec = spectrum_of(pulse)
    # undo the one-sided doubling: the raw |FFT|^2 is symmetric about zero
    # frequency, so the peak sits at DC and the width is twice the half-width
    power = spec.power_density.copy()
    power[1:] /= 2.0
    return fwhm_of(spec.frequencies_hz, power)


def temporal_fwhm(pulse: PulseShape) -> float:
    """FWHM of the intensity profile samples^2."""
    return fwhm_of(pulse.times_s, pulse.samples**2)

