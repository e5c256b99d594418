"""Source photon spectra, absorption notches, heralding efficiency vs
cavity detuning, and the two-peak memory acceptance curve.

Line shapes are phenomenological: Gaussian (Doppler-dominated) pathway
profiles with multiplicative Gaussian notches.  Telecom detunings are
quoted relative to the mid-point of the two intermediate-state pathways;
NIR detunings relative to the mid-point of the two hyperfine lines on the
NIR side.  Energy conservation pairs a telecom detuning d_T with the NIR
detuning d_N = pairing_sum - d_T.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .optics import FWHM_TO_SIGMA, CavitySpec, cavity_transmission

# heralding integrals: telecom band and grid, and a double-passed cavity,
# which tames the Lorentzian tails that would wash out the survival structure
_HERALD_BAND_HZ = 8e9
_HERALD_GRID = 4001
_PASSES = 2
_SCAN_POINTS = 701  # operating-point candidates


def _as_tuples(obj, *names):
    """Freeze sequence fields so every model is hashable (and cacheable)."""
    for name in names:
        object.__setattr__(obj, name, tuple(getattr(obj, name)))


@dataclass(frozen=True)
class AbsorptionFeature:
    """Multiplicative Gaussian notch: transmission 1 - depth * g(d)."""

    center_hz: float
    width_hz: float  # FWHM
    depth: float
    applies_to: str = "telecom_rate"  # or "nir_survival"

    def __post_init__(self):
        if not 0.0 <= self.depth <= 1.0:
            raise ValueError(f"depth must be in [0, 1], got {self.depth}")
        if self.width_hz <= 0:
            raise ValueError("width must be > 0")
        if self.applies_to not in ("telecom_rate", "nir_survival"):
            raise ValueError(f"unknown applies_to {self.applies_to!r}")

    def attenuation(self, detuning_hz):
        d = np.asarray(detuning_hz, dtype=float) - self.center_hz
        sigma = self.width_hz * FWHM_TO_SIGMA
        return 1.0 - self.depth * np.exp(-(d**2) / (2.0 * sigma**2))


@dataclass(frozen=True)
class PathwaySpectrumModel:
    """Two Doppler-broadened decay pathways via the intermediate states."""

    pathway_centers_hz: tuple  # (lower, upper)
    pathway_weights: tuple
    doppler_fwhm_hz: float

    def __post_init__(self):
        _as_tuples(self, "pathway_centers_hz", "pathway_weights")
        if len(self.pathway_centers_hz) != 2 or len(self.pathway_weights) != 2:
            raise ValueError("exactly two pathways expected")
        w1, w2 = self.pathway_weights
        if w1 < 0 or w2 < 0 or abs(w1 + w2 - 1.0) > 1e-9:
            raise ValueError("pathway weights must be non-negative and sum to 1")
        if self.doppler_fwhm_hz <= 0:
            raise ValueError("doppler width must be > 0")

    def bare_spectrum(self, detuning_hz):
        d = np.asarray(detuning_hz, dtype=float)
        sigma = self.doppler_fwhm_hz * FWHM_TO_SIGMA
        s = 0.0
        for c, w in zip(self.pathway_centers_hz, self.pathway_weights):
            s = s + w * np.exp(-((d - c) ** 2) / (2.0 * sigma**2))
        return s


@dataclass(frozen=True)
class JointSpectralModel:
    """Telecom spectrum, absorption features, and the telecom<->NIR pairing."""

    pathways: PathwaySpectrumModel
    features: tuple = ()
    pairing_sum_hz: float = 0.0
    nir_baseline_survival: float = 1.0

    def __post_init__(self):
        _as_tuples(self, "features")
        if not 0.0 < self.nir_baseline_survival <= 1.0:
            raise ValueError("nir_baseline_survival must be in (0, 1]")

    def paired_nir_detuning(self, telecom_detuning_hz):
        return self.pairing_sum_hz - np.asarray(telecom_detuning_hz, dtype=float)

    def nir_survival(self, nir_detuning_hz):
        s = np.asarray(nir_detuning_hz, dtype=float) * 0.0 + self.nir_baseline_survival
        for feat in self.features:
            if feat.applies_to == "nir_survival":
                s = s * feat.attenuation(nir_detuning_hz)
        return s


def telecom_spectrum(model: JointSpectralModel, detuning_hz):
    """Relative telecom photon rate vs detuning: pathway profiles times the
    telecom-side notches."""
    s = model.pathways.bare_spectrum(detuning_hz)
    for feat in model.features:
        if feat.applies_to == "telecom_rate":
            s = s * feat.attenuation(detuning_hz)
    return s


@functools.lru_cache(maxsize=16)
def _herald_grid(model: JointSpectralModel):
    """Everything in the heralding integrals that does not depend on the
    cavity: (nu, s_tel * w, integral of s_tel, s_tel * surv * w), w the
    trapezoid weights of the telecom grid nu and surv the NIR survival at
    the paired detuning.  The arrays are shared between calls, so
    read-only."""
    nu = np.linspace(-_HERALD_BAND_HZ / 2.0, _HERALD_BAND_HZ / 2.0, _HERALD_GRID)
    s = telecom_spectrum(model, nu)
    w = np.full(nu.size, nu[1] - nu[0])
    w[[0, -1]] /= 2.0
    s_w = s * w
    s_surv_w = s_w * model.nir_survival(model.paired_nir_detuning(nu))
    for a in (nu, s_w, s_surv_w):
        a.flags.writeable = False
    return nu, s_w, float(np.trapezoid(s, nu)), s_surv_w


def _herald(model: JointSpectralModel, cavity: CavitySpec, detunings):
    """(eta, rate, feasible) arrays for a 1-D array of cavity detunings.

    rate = integral of T_cav(nu - d_c)^passes s_tel(nu) over the heralding
    band; the efficiency weights the same integrand with the survival of the
    paired NIR photon.  A detuning is feasible where its rate is above the
    numeric floor; elsewhere eta is nan.

    The integrals are a lattice correlation: with d = m * step + f on the
    telecom grid, T_cav(nu_j - d) = K(j - m), K(q) = T_cav((q - c) * step -
    f)^passes and c the grid's centre index.  Rows of one f whose m fall by
    a fixed stride share one kernel, and two matrix-vector products of its
    strided windows with the weighted columns integrate them, no window
    copied.  An off-lattice detuning is a run of one row.
    """
    nu, s_w, s_total, s_surv_w = _herald_grid(model)
    n, step = nu.size, nu[1] - nu[0]
    d = np.asarray(detunings, dtype=float)
    m = np.rint(d / step)
    m[~(np.abs(m) < 2.0**52)] = 0.0  # f = d where m is not a finite integer
    f = d - m * step
    runs, ml, fl = [], m.tolist(), f.tolist()
    for i in np.lexsort((-m, f)).tolist():  # by f, then by m falling
        run = runs[-1] if runs else [i]
        gap = ml[run[-1]] - ml[i]
        if fl[i] == fl[run[-1]] and 0 < gap <= n and (
                len(run) == 1 or gap == ml[run[-2]] - ml[run[-1]]):
            run.append(i)
        else:
            runs.append([i])
    rate, weighted = np.empty(d.size), np.empty(d.size)
    for run in runs:
        stride = int(ml[run[0]] - ml[run[1]]) if len(run) > 1 else 1
        q = np.arange(n + (len(run) - 1) * stride) - (n // 2 + ml[run[0]])
        kernel = cavity_transmission(cavity, q * step - fl[run[0]]) ** _PASSES
        # row k of the run is the kernel from k * stride on, not copied
        windows = np.ndarray((len(run), n), buffer=kernel, strides=(8 * stride, 8))
        rate[run] = windows @ s_w
        weighted[run] = windows @ s_surv_w
    # a nan rate is not below the floor: it passes on to be reported as a
    # non-finite output
    feasible = ~(rate <= 1e-30 * s_total)
    eta = np.divide(weighted, rate, out=np.full(d.size, np.nan), where=feasible)
    return np.clip(eta, 0.0, 1.0), rate, feasible


def heralding_vs_cavity_detuning(model: JointSpectralModel, cavity: CavitySpec,
                                 cavity_detuning_hz):
    """(heralding efficiency, relative rate) for a scalar or a 1-D array of
    cavity positions: floats for a scalar, arrays for an array, from one
    call of the lattice correlation in _herald, where a scalar is a run of
    one row (equal to an array's entry to round-off).  Only the cavity
    kernels are built per call.  Raises ValueError naming the first
    detuning, in input order, whose rate is below the numeric floor."""
    d = np.asarray(cavity_detuning_hz, dtype=float)
    eta, rate, feasible = _herald(model, cavity, d.reshape(-1))
    if not feasible.all():
        bad = d.reshape(-1)[np.argmin(feasible)]
        raise ValueError(
            f"rate below numeric floor at cavity detuning "
            f"{bad / 1e9:g} GHz (cavity FWHM "
            f"{cavity.fwhm_hz / 1e6:g} MHz); heralding efficiency undefined")
    return (eta, rate) if d.ndim else (float(eta[0]), float(rate[0]))


@dataclass(frozen=True)
class MemoryAcceptanceModel:
    """Two interfering hyperfine pathways; efficiency has two peaks and one
    interior zero for opposite-sign amplitudes."""

    hyperfine_centers_hz: tuple
    amplitudes: tuple  # signed (or complex) weights
    linewidth_hz: float

    def __post_init__(self):
        _as_tuples(self, "hyperfine_centers_hz", "amplitudes")
        if len(self.hyperfine_centers_hz) != 2 or len(self.amplitudes) != 2:
            raise ValueError("exactly two hyperfine pathways expected")
        if self.linewidth_hz <= 0:
            raise ValueError("linewidth must be > 0")

    def raw_response(self, detuning_hz):
        """|a1 (d - c2) - a2 (d - c1)|^2 / (|d - c1 + iG/2|^2 |d - c2 + iG/2|^2).

        Two damped resonances a1/(d-c1) - a2/(d-c2) with the pole damping
        kept only in the denominator; opposite-sign amplitudes interfere
        destructively between the lines, giving an exact dark point at
        d0 = (a1 c2 - a2 c1) / (a1 - a2).  The squares are written as
        products, which numpy rounds alike for scalars and arrays, so a
        scalar detuning gives the same bits as the same entry of an array.
        """
        d = np.asarray(detuning_hz, dtype=float)
        g = self.linewidth_hz / 2.0
        c1, c2 = self.hyperfine_centers_hz
        a1, a2 = self.amplitudes
        with np.errstate(over="ignore", invalid="ignore"):
            x1, x2 = d - c1, d - c2
            u = a1 * x2 - a2 * x1
            num = u.real * u.real + u.imag * u.imag
            den = (x1 * x1 + g * g) * (x2 * x2 + g * g)
            # the response falls as 1/d^2: where den overflows it is 0, not
            # inf/inf
            return np.where(np.isinf(den), 0.0, num / den)


@functools.lru_cache(maxsize=64)
def _acceptance_peak(model: MemoryAcceptanceModel):
    """Peak of the raw response over the band spanning both hyperfine
    lines, on an 8001-point grid; computed once per model."""
    c1, c2 = model.hyperfine_centers_hz
    span = 6.0 * (abs(c2 - c1) + model.linewidth_hz)
    grid = np.linspace(-span, span, 8001)
    return model.raw_response(grid).max()


def memory_efficiency_vs_detuning(model: MemoryAcceptanceModel, detuning_hz):
    """Relative storage efficiency, normalized to unit peak over the band
    spanning both hyperfine lines."""
    out = model.raw_response(detuning_hz) / _acceptance_peak(model)
    return out if np.ndim(detuning_hz) else float(out)


def select_operating_point(model: JointSpectralModel, cavity: CavitySpec,
                           memory_model: MemoryAcceptanceModel,
                           scan_band_hz: float = 7e9) -> float:
    """Cavity detuning maximizing operating_point_score over the scanned
    band.  Ties break toward smaller |detuning|; candidates whose rate is
    below the numeric floor are skipped.  All candidates are scored in one
    call of _herald and one acceptance call; candidates on the telecom
    grid's lattice (the 7 GHz default, 10 MHz apart) share one kernel."""
    candidates = np.linspace(-scan_band_hz / 2.0, scan_band_hz / 2.0, _SCAN_POINTS)
    eta, rate, feasible = _herald(model, cavity, candidates)
    mem = memory_efficiency_vs_detuning(memory_model,
                                        model.paired_nir_detuning(candidates))
    scores = eta * rate * mem
    best = None
    for i in sorted(np.flatnonzero(feasible), key=lambda i: abs(candidates[i])):
        if best is None or scores[i] > best[0] * (1.0 + 1e-12):
            best = (scores[i], candidates[i])
    if best is None:
        raise ValueError("no feasible operating point in the scanned band")
    return best[1]


def operating_point_score(model, cavity, memory_model, cavity_detuning_hz) -> float:
    """eta * rate * memory acceptance at the paired NIR detuning."""
    eta, rate = heralding_vs_cavity_detuning(model, cavity, cavity_detuning_hz)
    mem = memory_efficiency_vs_detuning(
        memory_model, model.paired_nir_detuning(cavity_detuning_hz))
    return eta * rate * mem
