"""Node configuration: loading, strict validation, hashing, round-trip.

The config file is YAML with explicit units in key names.  Unknown keys are
rejected with a field-path diagnostic; every sub-record's invariants are
checked at load time.
"""

from __future__ import annotations

import hashlib
import importlib.resources
import json
import math
from dataclasses import dataclass

import yaml

from .models import (
    DetectorParams,
    MemoryParams,
    PulseMixture,
    SourceParams,
    TimingConfig,
)
from .optics import CavitySpec, FilterCascade
from .spectra import (
    AbsorptionFeature,
    JointSpectralModel,
    MemoryAcceptanceModel,
    PathwaySpectrumModel,
)


class ConfigError(ValueError):
    """Invalid configuration; message carries the offending field path."""


@dataclass(frozen=True)
class SoloParams:
    mean_photon_number: float
    input_pulse_fwhm_s: float

    def __post_init__(self):
        if self.mean_photon_number <= 0:
            raise ValueError("mean_photon_number must be > 0")
        if self.input_pulse_fwhm_s <= 0:
            raise ValueError("input_pulse_fwhm must be > 0")


@dataclass(frozen=True)
class AnalysisParams:
    qst_transmission: float
    vv_fraction: float
    signal_window_s: float
    noise_window_start_s: float
    noise_window_s: float
    full_signal_halfwidth_s: float
    tomography_window_s: float
    sweep_windows_s: tuple

    def __post_init__(self):
        for name in ("qst_transmission", "vv_fraction"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {v}")
        for name in (
            "signal_window_s",
            "noise_window_s",
            "full_signal_halfwidth_s",
            "tomography_window_s",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if not self.sweep_windows_s or any(w <= 0 for w in self.sweep_windows_s):
            raise ValueError("sweep windows must be positive")


@dataclass(frozen=True)
class NodeConfig:
    seed: int
    workers: int
    source: SourceParams
    memory: MemoryParams
    solo: SoloParams
    detector_nir: DetectorParams
    timing: TimingConfig
    analysis: AnalysisParams
    filter_cascade: FilterCascade
    spectral_model: JointSpectralModel
    memory_acceptance: MemoryAcceptanceModel
    raw: dict  # the validated raw mapping, for hashing / round-trip

    def config_hash(self) -> str:
        """sha256 of the canonical JSON form; stable under key reordering.

        workers is left out: outputs are bit-identical for any worker count.
        """
        hashed = {k: v for k, v in self.raw.items() if k != "workers"}
        canon = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


class _Section:
    """Mapping view that tracks consumed keys and reports dotted paths."""

    def __init__(self, data, path=""):
        if not isinstance(data, dict):
            raise ConfigError(f"{path or 'config'}: expected a mapping")
        self.data = data
        self.path = path
        self.seen = set()

    def _key(self, name):
        return f"{self.path}.{name}" if self.path else name

    def get(self, name, kind=None):
        if name not in self.data:
            raise ConfigError(f"missing required key: {self._key(name)}")
        self.seen.add(name)
        return _typed(self.data[name], kind, self._key(name))

    def get_list(self, name) -> tuple:
        """A list whose entries are each checked like a float scalar."""
        key = self._key(name)
        return tuple(_typed(v, float, f"{key}[{i}]")
                     for i, v in enumerate(self.get(name, list)))

    def section(self, name):
        return _Section(self.get(name), self._key(name))

    def finish(self):
        unknown = set(self.data) - self.seen
        if unknown:
            key = sorted(unknown)[0]
            raise ConfigError(f"unknown key: {self._key(key)}")


def _typed(value, kind, key):
    """value checked against kind: never a bool where a number is expected,
    an int is accepted as a float, and a float must be finite."""
    if kind is None:
        return value
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(
            f"{key}: expected {kind.__name__}, got {type(value).__name__}"
        )
    if kind is float:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{key}: {value} does not fit a float") from None
        if not math.isfinite(value):
            raise ConfigError(f"{key}: expected a finite number, got {value}")
    return value


def _cavity(sec: _Section) -> CavitySpec:
    cav = CavitySpec(
        fwhm_hz=sec.get("fwhm_mhz", float) * 1e6,
        fsr_hz=sec.get("fsr_ghz", float) * 1e9,
        center_detuning_hz=sec.get("center_detuning_ghz", float) * 1e9,
    )
    sec.finish()
    return cav


def _feature(entry, path) -> AbsorptionFeature:
    sec = _Section(entry, path)
    feat = AbsorptionFeature(
        center_hz=sec.get("center_ghz", float) * 1e9,
        width_hz=sec.get("width_ghz", float) * 1e9,
        depth=sec.get("depth", float),
        applies_to=sec.get("applies_to", str),
    )
    sec.finish()
    return feat


def parse_config(data: dict) -> NodeConfig:
    """Validate a raw mapping and build the typed config."""
    root = _Section(data)
    try:
        seed = root.get("seed", int)
        workers = root.get("workers", int)
        if workers < 1:
            raise ConfigError("workers: must be >= 1")

        src_sec = root.section("source")
        source = SourceParams(
            telecom_rate_hz=src_sec.get("telecom_rate_hz", float),
            heralding_eta=src_sec.get("heralding_eta", float),
            werner_a=src_sec.get("werner_a", float),
            input_pulse_fwhm_s=src_sec.get("input_pulse_fwhm_ns", float) * 1e-9,
            telecom_cavity=_cavity(src_sec.section("telecom_cavity")),
        )
        src_sec.finish()

        mem_sec = root.section("memory")
        pulse_sec = mem_sec.section("retrieved_pulse")
        pulse = PulseMixture(
            core_fwhm_s=pulse_sec.get("core_fwhm_ns", float) * 1e-9,
            pedestal_fwhm_s=pulse_sec.get("pedestal_fwhm_ns", float) * 1e-9,
            core_fraction=pulse_sec.get("core_fraction", float),
        )
        pulse_sec.finish()
        memory = MemoryParams(
            eta0_internal=mem_sec.get("eta0_internal", float),
            source_efficiency_ratio=mem_sec.get("source_efficiency_ratio", float),
            tau_coherence_s=mem_sec.get("tau_coherence_us", float) * 1e-6,
            retrieval_delay_s=mem_sec.get("retrieval_delay_ns", float) * 1e-9,
            noise_per_trial=mem_sec.get("noise_per_trial", float),
            retrieved_pulse=pulse,
            filter_transmission=mem_sec.get("filter_transmission", float),
        )
        mem_sec.finish()

        solo_sec = root.section("solo")
        solo = SoloParams(
            mean_photon_number=solo_sec.get("mean_photon_number", float),
            input_pulse_fwhm_s=solo_sec.get("input_pulse_fwhm_ns", float) * 1e-9,
        )
        solo_sec.finish()

        det_sec = root.section("detectors")
        nir_sec = det_sec.section("nir")
        det_nir = DetectorParams(
            efficiency=nir_sec.get("efficiency", float),
            jitter_s=nir_sec.get("jitter_ps", float) * 1e-12,
            jitter_convention=nir_sec.get("jitter_convention", str),
        )
        nir_sec.finish()
        det_sec.finish()

        t_sec = root.section("timing")
        timing = TimingConfig(
            op_off_s=t_sec.get("op_off_ns", float) * 1e-9,
            retrieve_at_s=t_sec.get("retrieve_at_ns", float) * 1e-9,
            op_on_s=t_sec.get("op_on_ns", float) * 1e-9,
            clock_period_s=t_sec.get("clock_period_us", float) * 1e-6,
            tag_resolution_s=t_sec.get("tag_resolution_ps", float) * 1e-12,
            bin_width_s=t_sec.get("bin_width_ps", float) * 1e-12,
        )
        t_sec.finish()

        a_sec = root.section("analysis")
        analysis = AnalysisParams(
            qst_transmission=a_sec.get("qst_transmission", float),
            vv_fraction=a_sec.get("vv_fraction", float),
            signal_window_s=a_sec.get("signal_window_ns", float) * 1e-9,
            noise_window_start_s=a_sec.get("noise_window_start_ns", float) * 1e-9,
            noise_window_s=a_sec.get("noise_window_ns", float) * 1e-9,
            full_signal_halfwidth_s=a_sec.get("full_signal_halfwidth_ns", float)
            * 1e-9,
            tomography_window_s=a_sec.get("tomography_window_ns", float) * 1e-9,
            sweep_windows_s=tuple(
                w * 1e-9 for w in a_sec.get_list("sweep_windows_ns")
            ),
        )
        a_sec.finish()

        f_sec = root.section("filter_cascade")
        stages = []
        for i, entry in enumerate(f_sec.get("stages", list)):
            s = _Section(entry, f"filter_cascade.stages[{i}]")
            stages.append(
                (
                    CavitySpec(
                        fwhm_hz=s.get("fwhm_ghz", float) * 1e9,
                        fsr_hz=s.get("fsr_ghz", float) * 1e9,
                    ),
                    s.get("passes", int),
                )
            )
            s.finish()
        cascade = FilterCascade(
            stages=tuple(stages),
            broadband_transmission=f_sec.get("broadband_transmission", float),
        )
        f_sec.finish()

        sp_sec = root.section("spectra")
        pathways = PathwaySpectrumModel(
            pathway_centers_hz=tuple(
                c * 1e9 for c in sp_sec.get_list("pathway_centers_ghz")
            ),
            pathway_weights=sp_sec.get_list("pathway_weights"),
            doppler_fwhm_hz=sp_sec.get("doppler_fwhm_ghz", float) * 1e9,
        )
        features = tuple(
            _feature(entry, f"spectra.features[{i}]")
            for i, entry in enumerate(sp_sec.get("features", list))
        )
        spectral_model = JointSpectralModel(
            pathways=pathways,
            features=features,
            pairing_sum_hz=sp_sec.get("pairing_sum_ghz", float) * 1e9,
            nir_baseline_survival=sp_sec.get("nir_baseline_survival", float),
        )
        ma_sec = sp_sec.section("memory_acceptance")
        acceptance = MemoryAcceptanceModel(
            hyperfine_centers_hz=tuple(
                c * 1e9 for c in ma_sec.get_list("hyperfine_centers_ghz")
            ),
            amplitudes=ma_sec.get_list("amplitudes"),
            linewidth_hz=ma_sec.get("linewidth_ghz", float) * 1e9,
        )
        ma_sec.finish()
        sp_sec.finish()

        root.finish()
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return NodeConfig(
        seed=seed,
        workers=workers,
        source=source,
        memory=memory,
        solo=solo,
        detector_nir=det_nir,
        timing=timing,
        analysis=analysis,
        filter_cascade=cascade,
        spectral_model=spectral_model,
        memory_acceptance=acceptance,
        raw=data,
    )


def load_config(path=None, overrides: dict | None = None) -> NodeConfig:
    """Load a YAML config file (the packaged defaults when path is None)."""
    if path is None:
        text = (
            importlib.resources.files("vapornode")
            .joinpath("defaults.yaml")
            .read_text()
        )
    else:
        with open(path) as f:
            text = f.read()
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML: {exc}") from exc
    if data is None:
        raise ConfigError("config: file is empty")
    if not isinstance(data, dict):
        raise ConfigError(
            f"config: expected a mapping at the top level, "
            f"got {type(data).__name__}"
        )
    if overrides:
        data = {**data, **overrides}
    return parse_config(data)

