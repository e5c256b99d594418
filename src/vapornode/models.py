"""Parametric models of source, memory, detectors, and trigger timing, plus
the solo-to-source SNR scaling.  The link budget, window capture and noise
rate built from these parameters live in `simulate`, next to the sampler."""

from __future__ import annotations

from dataclasses import dataclass

from .optics import FWHM_TO_SIGMA, CavitySpec


def _check_fraction(name: str, value: float, allow_zero: bool = False) -> None:
    lo_ok = value >= 0.0 if allow_zero else value > 0.0
    if not (lo_ok and value <= 1.0):
        raise ValueError(f"{name} must be a fraction in (0, 1], got {value}")


@dataclass(frozen=True)
class PulseMixture:
    """Retrieved-photon timing envelope: narrow core plus broad pedestal,
    both Gaussian, centered on the nominal retrieval time."""

    core_fwhm_s: float
    pedestal_fwhm_s: float
    core_fraction: float

    def __post_init__(self):
        if self.core_fwhm_s <= 0 or self.pedestal_fwhm_s <= 0:
            raise ValueError("pulse widths must be > 0")
        _check_fraction("core_fraction", self.core_fraction, allow_zero=True)


@dataclass(frozen=True)
class SourceParams:
    telecom_rate_hz: float
    heralding_eta: float
    werner_a: float
    telecom_cavity: CavitySpec
    input_pulse_fwhm_s: float

    def __post_init__(self):
        if self.telecom_rate_hz <= 0:
            raise ValueError("telecom_rate must be > 0")
        _check_fraction("heralding_eta", self.heralding_eta)
        if not 0.0 <= self.werner_a <= 1.0:
            raise ValueError(f"werner_a must be in [0, 1], got {self.werner_a}")
        if self.input_pulse_fwhm_s <= 0:
            raise ValueError("input_pulse_fwhm must be > 0")


@dataclass(frozen=True)
class MemoryParams:
    eta0_internal: float  # internal storage efficiency at first retrieval (solo)
    source_efficiency_ratio: float  # heralded-photon efficiency / solo efficiency
    tau_coherence_s: float
    retrieval_delay_s: float
    noise_per_trial: float  # noise probability per trial over the control-on span
    retrieved_pulse: PulseMixture

    def __post_init__(self):
        _check_fraction("eta0_internal", self.eta0_internal)
        _check_fraction("source_efficiency_ratio", self.source_efficiency_ratio)
        if self.tau_coherence_s <= 0:
            raise ValueError("tau_coherence must be > 0")
        if not 0.0 <= self.noise_per_trial <= 1e-2:
            raise ValueError(
                f"noise_per_trial must be in [0, 1e-2], got {self.noise_per_trial}"
            )
        if self.retrieval_delay_s < 0:
            raise ValueError("retrieval_delay must be >= 0")

    @property
    def eta0_source(self) -> float:
        return self.eta0_internal * self.source_efficiency_ratio


@dataclass(frozen=True)
class DetectorParams:
    efficiency: float
    jitter_s: float  # timing jitter, FWHM

    def __post_init__(self):
        _check_fraction("efficiency", self.efficiency)
        if self.jitter_s < 0:
            raise ValueError("jitter must be >= 0")

    @property
    def jitter_sigma_s(self) -> float:
        return self.jitter_s * FWHM_TO_SIGMA


@dataclass(frozen=True)
class TimingConfig:
    op_off_s: float
    retrieve_at_s: float
    op_on_s: float
    clock_period_s: float
    tag_resolution_s: float
    bin_width_s: float

    def __post_init__(self):
        if not (self.op_off_s < 0.0 < self.retrieve_at_s < self.op_on_s < self.clock_period_s):
            raise ValueError(
                "timing must satisfy op_off < 0 < retrieve_at < op_on < clock_period"
            )
        if self.tag_resolution_s <= 0 or self.bin_width_s <= 0:
            raise ValueError("tag_resolution and bin_width must be > 0")

    @property
    def control_on_s(self) -> float:
        """Duration of the control-on span [retrieve_at, op_on)."""
        return self.op_on_s - self.retrieve_at_s


def predict_source_snr(snr_n1: float, eta: float, efficiency_ratio: float = 1.0) -> float:
    """Triggered-operation SNR from the photon-number-normalized solo SNR:
    SNR = SNR_(n=1) * eta, times the storage-efficiency ratio between the
    two operating modes."""
    if snr_n1 <= 0 or eta <= 0 or efficiency_ratio <= 0:
        raise ValueError("all factors must be positive")
    return snr_n1 * eta * efficiency_ratio
