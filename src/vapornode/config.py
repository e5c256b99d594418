"""Node configuration: loading, strict validation, hashing, round-trip.

The config file is YAML with explicit units in key names.  Each section's
keys are listed once, in `parse_config`; a key's unit suffix gives both its
field name and its scale to SI units (`tau_coherence_us` fills the field
`tau_coherence_s`, in seconds; see `_UNITS`).  Every number must be finite
once scaled, so `pairing_sum_ghz: 1.0e+300` fails to load.  Missing and
unknown keys, wrong types and non-finite numbers raise ConfigError with the
dotted key, list entries included (`spectra.pathway_weights[0]`); every
sub-record's invariants are checked at load time.
"""

from __future__ import annotations

import hashlib
import importlib.resources
import json
import math
from dataclasses import dataclass

import yaml

from .models import (DetectorParams, MemoryParams, PulseMixture, SourceParams,
                     TimingConfig)
from .optics import CavitySpec, FilterCascade
from .spectra import (AbsorptionFeature, JointSpectralModel,
                      MemoryAcceptanceModel, PathwaySpectrumModel)


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
    sweep_windows_s: tuple

    def __post_init__(self):
        for name in ("qst_transmission", "vv_fraction"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {v}")
        for name in ("signal_window_s", "noise_window_s",
                     "full_signal_halfwidth_s"):
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


# unit suffix of a config key -> (suffix of the SI field, scale to SI)
_UNITS = {
    "ps": ("s", 1e-12), "ns": ("s", 1e-9), "us": ("s", 1e-6),
    "mhz": ("hz", 1e6), "ghz": ("hz", 1e9),
}
_KINDS = {"int": int, "str": str, "list": list}


class _Section:
    """Mapping view that tracks consumed keys and reports dotted paths."""

    def __init__(self, data, path=""):
        if not isinstance(data, dict):
            raise ConfigError(f"{path or 'config'}: expected a mapping")
        self.data = data
        self.path = path
        self.seen = set()
        self.children = []

    def _key(self, name):
        return f"{self.path}.{name}" if self.path else name

    def _raw(self, name):
        if name not in self.data:
            raise ConfigError(f"missing required key: {self._key(name)}")
        self.seen.add(name)
        return self.data[name]

    def fields(self, keys: str) -> dict:
        """Field name -> value for space-separated keys, in SI units.

        A key is a float unless it ends in `:int`, `:str` or `:list` (a list
        of floats).  A unit suffix (`_ns`, `_ghz`, ...) is replaced by the SI
        one (`_s`, `_hz`) in the field name and scales the value.
        """
        out = {}
        for token in keys.split():
            name, _, kind = token.partition(":")
            stem, _, unit = name.rpartition("_")
            si, scale = _UNITS.get(unit, (unit, 1.0))
            field = f"{stem}_{si}" if stem else si
            key = self._key(name)
            value = _typed(self._raw(name), _KINDS.get(kind, float), key, scale)
            if kind == "list":
                value = tuple(_typed(v, float, f"{key}[{i}]", scale)
                              for i, v in enumerate(value))
            out[field] = value
        return out

    def section(self, name) -> _Section:
        child = _Section(self._raw(name), self._key(name))
        self.children.append(child)
        return child

    def entries(self, name) -> list:
        """One section per entry of a list of mappings."""
        key = self._key(name)
        children = [_Section(entry, f"{key}[{i}]")
                    for i, entry in enumerate(_typed(self._raw(name), list, key))]
        self.children.extend(children)
        return children

    def finish(self):
        """Reject unknown keys here and in every section read below."""
        unknown = set(self.data) - self.seen
        if unknown:
            key = sorted(unknown, key=str)[0]
            raise ConfigError(f"unknown key: {self._key(key)}")
        for child in self.children:
            child.finish()


def _typed(value, kind, key, scale=1.0):
    """value checked against kind: never a bool where a number is expected,
    an int is accepted as a float, and a float is scaled to SI units and
    must then be finite."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(
            f"{key}: expected {kind.__name__}, got {type(value).__name__}"
        )
    if kind is not float:
        return value
    try:
        si = float(value) * scale
    except OverflowError:
        raise ConfigError(f"{key}: {value} does not fit a float") from None
    if not math.isfinite(si):
        raise ConfigError(f"{key}: expected a number finite in SI units, "
                          f"got {value}")
    return si


def parse_config(data: dict) -> NodeConfig:
    """Validate a raw mapping and build the typed config."""
    root = _Section(data)
    try:
        top = root.fields("seed:int workers:int")
        if top["workers"] < 1:
            raise ConfigError("workers: must be >= 1")
        src, mem = root.section("source"), root.section("memory")
        fc, sp = root.section("filter_cascade"), root.section("spectra")
        config = NodeConfig(
            **top,
            source=SourceParams(
                **src.fields("telecom_rate_hz heralding_eta werner_a "
                             "input_pulse_fwhm_ns"),
                telecom_cavity=CavitySpec(**src.section("telecom_cavity").fields(
                    "fwhm_mhz fsr_ghz"))),
            memory=MemoryParams(
                **mem.fields("eta0_internal source_efficiency_ratio "
                             "tau_coherence_us retrieval_delay_ns "
                             "noise_per_trial"),
                retrieved_pulse=PulseMixture(**mem.section(
                    "retrieved_pulse").fields(
                    "core_fwhm_ns pedestal_fwhm_ns core_fraction"))),
            solo=SoloParams(**root.section("solo").fields(
                "mean_photon_number input_pulse_fwhm_ns")),
            detector_nir=DetectorParams(**root.section("detectors").section(
                "nir").fields("efficiency jitter_ps")),
            timing=TimingConfig(**root.section("timing").fields(
                "op_off_ns retrieve_at_ns op_on_ns clock_period_us "
                "tag_resolution_ps bin_width_ps")),
            analysis=AnalysisParams(**root.section("analysis").fields(
                "qst_transmission vv_fraction signal_window_ns "
                "noise_window_start_ns noise_window_ns "
                "full_signal_halfwidth_ns sweep_windows_ns:list")),
            filter_cascade=FilterCascade(
                stages=tuple((CavitySpec(**s.fields("fwhm_ghz fsr_ghz")),
                              s.fields("passes:int")["passes"])
                             for s in fc.entries("stages")),
                **fc.fields("broadband_transmission")),
            spectral_model=JointSpectralModel(
                pathways=PathwaySpectrumModel(**sp.fields(
                    "pathway_centers_ghz:list pathway_weights:list "
                    "doppler_fwhm_ghz")),
                features=tuple(AbsorptionFeature(**f.fields(
                    "center_ghz width_ghz depth applies_to:str"))
                    for f in sp.entries("features")),
                **sp.fields("pairing_sum_ghz nir_baseline_survival")),
            memory_acceptance=MemoryAcceptanceModel(
                **sp.section("memory_acceptance").fields(
                    "hyperfine_centers_ghz:list amplitudes:list "
                    "linewidth_ghz")),
            raw=data,
        )
        root.finish()
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return config


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

