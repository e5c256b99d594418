import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vapornode import spectra
from vapornode.config import load_config
from vapornode.optics import CavitySpec, cavity_transmission


@pytest.fixture(scope="module")
def cfg():
    return load_config()


def test_absorption_feature_depth1_zeroes():
    feat = spectra.AbsorptionFeature(0.0, 0.5e9, 1.0)
    assert feat.attenuation(0.0) == pytest.approx(0.0, abs=1e-12)
    assert feat.attenuation(50e9) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        spectra.AbsorptionFeature(0.0, 0.5e9, 1.5)
    with pytest.raises(ValueError):
        spectra.AbsorptionFeature(0.0, 0.5e9, 0.5, applies_to="other")


def test_pathway_model_invariants():
    with pytest.raises(ValueError):
        spectra.PathwaySpectrumModel((0.0, 1e9), (0.7, 0.7), 1e9)
    with pytest.raises(ValueError):
        spectra.PathwaySpectrumModel((0.0,), (1.0,), 1e9)


def test_pathway_center_is_local_max():
    pw = spectra.PathwaySpectrumModel((-2e9, 2e9), (0.5, 0.5), 0.8e9)
    model = spectra.JointSpectralModel(pathways=pw)
    d = np.linspace(-4e9, 4e9, 4001)
    s = spectra.telecom_spectrum(model, d)
    for c in (-2e9, 2e9):
        i = int(np.argmin(abs(d - c)))
        assert s[i] >= s[i - 5] and s[i] >= s[i + 5]


def test_telecom_spectrum_three_dips(cfg):
    model = cfg.spectral_model
    d = np.linspace(-3.5e9, 3.5e9, 7001)
    s = spectra.telecom_spectrum(model, d)
    minima = [
        d[i] for i in range(1, d.size - 1) if s[i] < s[i - 1] and s[i] < s[i + 1]
    ]
    assert len(minima) == 3
    for found, expected in zip(sorted(minima), (-1.7e9, 0.0, 2.0e9)):
        assert abs(found - expected) < 0.15e9


def test_pairing_map(cfg):
    model = cfg.spectral_model
    assert model.paired_nir_detuning(1.1e9) == pytest.approx(-0.7e9)
    # bijective: applying twice returns the input
    for d in (-2e9, 0.0, 1.1e9):
        assert model.paired_nir_detuning(
            model.paired_nir_detuning(d)
        ) == pytest.approx(d)


def test_heralding_lossless_limit():
    pw = spectra.PathwaySpectrumModel((-0.4e9, 0.4e9), (0.5, 0.5), 1.0e9)
    model = spectra.JointSpectralModel(pathways=pw, nir_baseline_survival=1.0)
    cav = CavitySpec(266e6, 15.2e9)
    for dc in (-1e9, 0.0, 1.1e9):
        eta, rate = spectra.heralding_vs_cavity_detuning(model, cav, dc)
        assert eta == pytest.approx(1.0, abs=1e-9)
        assert rate > 0


def test_heralding_dips_at_absorbing_partner():
    pw = spectra.PathwaySpectrumModel((-0.4e9, 0.4e9), (0.5, 0.5), 2.0e9)
    # depth-1 NIR dip at nir detuning 0 <-> telecom detuning 0.4 GHz
    feat = spectra.AbsorptionFeature(0.0, 0.4e9, 1.0, applies_to="nir_survival")
    model = spectra.JointSpectralModel(
        pathways=pw, features=(feat,), pairing_sum_hz=0.4e9
    )
    cav = CavitySpec(100e6, 15.2e9)
    eta_dip, _ = spectra.heralding_vs_cavity_detuning(model, cav, 0.4e9)
    eta_off, _ = spectra.heralding_vs_cavity_detuning(model, cav, 2.0e9)
    assert eta_dip < 0.1 * eta_off


def test_heralding_scale_invariance(cfg):
    class Scaled(spectra.PathwaySpectrumModel):
        def bare_spectrum(self, d):
            return 7.0 * super().bare_spectrum(d)

    base = cfg.spectral_model
    scaled_pw = Scaled(
        base.pathways.pathway_centers_hz,
        base.pathways.pathway_weights,
        base.pathways.doppler_fwhm_hz,
    )
    scaled = spectra.JointSpectralModel(
        pathways=scaled_pw,
        features=base.features,
        pairing_sum_hz=base.pairing_sum_hz,
        nir_baseline_survival=base.nir_baseline_survival,
    )
    cav = cfg.source.telecom_cavity
    for dc in (-1e9, 0.0, 1.1e9):
        eta0, rate0 = spectra.heralding_vs_cavity_detuning(base, cav, dc)
        eta7, rate7 = spectra.heralding_vs_cavity_detuning(scaled, cav, dc)
        assert abs(eta7 - eta0) < 1e-9
        assert rate7 == pytest.approx(7.0 * rate0, rel=1e-9)


def test_heralding_bounded(cfg):
    cav = cfg.source.telecom_cavity
    for dc in np.linspace(-3e9, 3e9, 41):
        eta, _ = spectra.heralding_vs_cavity_detuning(cfg.spectral_model, cav, dc)
        assert 0.0 <= eta <= 1.0


def test_memory_curve_two_peaks_one_zero(cfg):
    model = cfg.memory_acceptance
    c1, c2 = model.hyperfine_centers_hz
    d = np.linspace(-3e9, 3e9, 10001)
    e = spectra.memory_efficiency_vs_detuning(model, d)
    # normalization comes from an internal grid, so the peak is 1 up to
    # that grid's resolution
    assert (e >= 0).all() and e.max() == pytest.approx(1.0, abs=1e-4)
    maxima = [
        d[i] for i in range(1, d.size - 1) if e[i] > e[i - 1] and e[i] > e[i + 1]
    ]
    assert len(maxima) == 2
    # exactly one interior dark point between the hyperfine lines
    interior = (d > min(c1, c2)) & (d < max(c1, c2))
    a1, a2 = model.amplitudes
    d0 = (a1 * c2 - a2 * c1) / (a1 - a2)
    assert min(c1, c2) < d0 < max(c1, c2)
    assert model.raw_response(d0) < 1e-25 * model.raw_response(c1)
    assert e[interior].min() < 1e-6


def test_memory_curve_symmetric_case():
    model = spectra.MemoryAcceptanceModel((-1e9, 1e9), (1.0, -1.0), 0.5e9)
    d = np.linspace(-3e9, 3e9, 2001)
    e = spectra.memory_efficiency_vs_detuning(model, d)
    assert np.allclose(e, e[::-1], atol=1e-9)
    assert spectra.memory_efficiency_vs_detuning(model, 0.0) < 1e-12
    # vanishes far away
    assert spectra.memory_efficiency_vs_detuning(model, 1e12) < 1e-6


def test_select_operating_point_toy_single_pathway():
    pw = spectra.PathwaySpectrumModel((0.7e9, 0.7e9), (0.5, 0.5), 1.0e9)
    model = spectra.JointSpectralModel(pathways=pw)
    cav = CavitySpec(100e6, 15.2e9)
    # acceptance lines far away and a dark point at +100 GHz: effectively
    # flat over the scanned few-GHz band
    flat_memory = spectra.MemoryAcceptanceModel(
        (-100e9, 300e9), (1.0, -1.0), 500e9
    )
    best = spectra.select_operating_point(model, cav, flat_memory)
    assert abs(best - 0.7e9) < 0.05e9


def test_operating_point_beats_random_candidates(cfg):
    model, cav, mem = (
        cfg.spectral_model,
        cfg.source.telecom_cavity,
        cfg.memory_acceptance,
    )
    best = spectra.select_operating_point(model, cav, mem)
    best_score = spectra.operating_point_score(model, cav, mem, best)
    rng = np.random.default_rng(20250823)
    candidates = rng.uniform(-3.5e9, 3.5e9, 300)
    for dc in candidates:
        # slack covers the finite scan grid of select_operating_point
        assert spectra.operating_point_score(model, cav, mem, dc) <= (
            best_score * (1.0 + 1e-3)
        )


def test_operating_point_near_expected(cfg):
    best = spectra.select_operating_point(
        cfg.spectral_model, cfg.source.telecom_cavity, cfg.memory_acceptance
    )
    assert abs(best - 1.1e9) < 0.3e9


def _heralding_reference(model, cavity, dc):
    """The heralding integrals computed inline, with no shared grid: an
    8 GHz band on 4001 points, double-passed, summed by np.trapezoid.  The
    package sums the same products as a lattice correlation, in another
    order, so the two agree to round-off (about 1e-14), not bit for bit."""
    nu = np.linspace(-4e9, 4e9, 4001)
    t = cavity_transmission(cavity, nu - dc) ** 2
    s = spectra.telecom_spectrum(model, nu)
    rate = float(np.trapezoid(t * s, nu))
    surv = model.nir_survival(model.paired_nir_detuning(nu))
    eta = float(np.trapezoid(t * s * surv, nu)) / rate
    return min(max(eta, 0.0), 1.0), rate


def test_heralding_matches_uncached_reference(cfg):
    model, cav = cfg.spectral_model, cfg.source.telecom_cavity
    for _ in range(2):  # the second pass reads the cached grid
        for dc in (-2.3e9, 0.0, 0.92e9, 1.1e9):
            got = spectra.heralding_vs_cavity_detuning(model, cav, dc)
            assert got == pytest.approx(_heralding_reference(model, cav, dc),
                                        rel=1e-12)
            assert all(type(v) is float for v in got)


@pytest.mark.parametrize("detunings", [
    np.linspace(-3.5e9, 3.5e9, 141),  # on the 2 MHz grid's lattice: one kernel
    np.linspace(-1.5e9, 1.5e9, 141),  # off it: a kernel per row
    # lattice runs that break (strides of 50, 10 and 460 MHz, a repeat)
    # and off-lattice rows sorted next to them, in no order
    np.array([1.1e9, 0.92e9, -2.3e9, 0.92e9, 0.93e9, 0.95e9, 0.5e9 + 0.3,
              1e9, 1.2e9, 0.0, 1.5e9 - 0.3]),
])
def test_heralding_scalar_matches_array_entry(cfg, detunings):
    # a scalar is a run of one row, whatever runs its array splits into
    model, cav = cfg.spectral_model, cfg.source.telecom_cavity
    eta, rate = spectra.heralding_vs_cavity_detuning(model, cav, detunings)
    for i, dc in enumerate(detunings):
        got = spectra.heralding_vs_cavity_detuning(model, cav, dc)
        assert got == pytest.approx((eta[i], rate[i]), rel=1e-12)
        assert got == pytest.approx(_heralding_reference(model, cav, dc),
                                    rel=1e-12)


def test_heralding_array_names_first_infeasible_detuning(cfg):
    # a 1 mHz cavity: 0 and 1.1 GHz sit on telecom grid points, the other
    # two pass almost nothing
    cav = CavitySpec(1e-3, 15.2e9)
    d = np.array([0.0, 0.7251e9, -0.3333e9, 1.1e9])
    for order, name in ((d, "0.7251"), (d[::-1], "-0.3333")):
        with pytest.raises(ValueError, match=(
                f"rate below numeric floor at cavity detuning {name} GHz")):
            spectra.heralding_vs_cavity_detuning(cfg.spectral_model, cav,
                                                 order)


def test_cached_grids_read_only(cfg):
    nu, s_w, _, s_surv_w = spectra._herald_grid(cfg.spectral_model)
    for a in (nu, s_w, s_surv_w):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_cache_tells_models_apart(cfg):
    base, cav = cfg.spectral_model, cfg.source.telecom_cavity
    first, *rest = base.features
    deeper = dataclasses.replace(first, depth=min(1.0, first.depth + 0.2))
    other = dataclasses.replace(base, features=(deeper, *rest))
    assert other != base
    for model in (base, other, base):
        got = spectra.heralding_vs_cavity_detuning(model, cav, 0.5e9)
        assert got == pytest.approx(_heralding_reference(model, cav, 0.5e9),
                                    rel=1e-12)
    assert spectra.heralding_vs_cavity_detuning(base, cav, 0.5e9) != (
        spectra.heralding_vs_cavity_detuning(other, cav, 0.5e9)
    )
    mem = cfg.memory_acceptance
    wider = dataclasses.replace(mem, linewidth_hz=2.0 * mem.linewidth_hz)
    assert spectra.memory_efficiency_vs_detuning(mem, 0.3e9) != (
        spectra.memory_efficiency_vs_detuning(wider, 0.3e9)
    )


def test_list_fields_become_hashable_tuples(cfg):
    # models built from lists equal (and hash like) the tuple-built ones, so
    # they share the cached grids
    base, cav = cfg.spectral_model, cfg.source.telecom_cavity
    pw = base.pathways
    listed = spectra.JointSpectralModel(
        spectra.PathwaySpectrumModel(list(pw.pathway_centers_hz),
                                     list(pw.pathway_weights),
                                     pw.doppler_fwhm_hz),
        list(base.features), base.pairing_sum_hz, base.nir_baseline_survival)
    assert listed == base and hash(listed) == hash(base)
    assert spectra.heralding_vs_cavity_detuning(listed, cav, 1.1e9) == (
        spectra.heralding_vs_cavity_detuning(base, cav, 1.1e9)
    )
    mem = cfg.memory_acceptance
    listed_mem = spectra.MemoryAcceptanceModel(
        list(mem.hyperfine_centers_hz), list(mem.amplitudes), mem.linewidth_hz)
    assert listed_mem == mem and hash(listed_mem) == hash(mem)


def test_memory_curve_far_detuning_is_zero(cfg):
    # the squares overflow beyond ~1e154 Hz; the response is 0 there
    model = cfg.memory_acceptance
    e = spectra.memory_efficiency_vs_detuning(model, np.array([-1e200, 1e300]))
    assert e.tolist() == [0.0, 0.0]
    assert spectra.memory_efficiency_vs_detuning(model, 1e200) == 0.0


# operating points of the default config before the heralding grid was shared
@pytest.mark.parametrize("band_hz, expected", [
    (3e9, 917142857.1428571),
    (7e9, 920000000.0),
    (12e9, 908571428.5714283),
])
def test_operating_point_values_pinned(cfg, band_hz, expected):
    best = spectra.select_operating_point(
        cfg.spectral_model, cfg.source.telecom_cavity, cfg.memory_acceptance,
        scan_band_hz=band_hz,
    )
    assert best == expected


def _select_reference(model, cavity, memory_model, scan_band_hz):
    """The selection as a per-candidate loop over operating_point_score:
    |d|-ordered, candidates below the numeric floor skipped."""
    candidates = np.linspace(-scan_band_hz / 2.0, scan_band_hz / 2.0, 701)
    best = None
    for dc in sorted(candidates, key=abs):
        try:
            score = spectra.operating_point_score(model, cavity, memory_model,
                                                  dc)
        except ValueError:
            continue
        if best is None or score > best[0] * (1.0 + 1e-12):
            best = (score, dc)
    if best is None:
        raise ValueError("no feasible operating point in the scanned band")
    return best[1]


def test_memory_efficiency_scalar_matches_array(cfg):
    model, mem = cfg.spectral_model, cfg.memory_acceptance
    arr = model.paired_nir_detuning(np.linspace(-3.5e9, 3.5e9, 701))
    batch = spectra.memory_efficiency_vs_detuning(mem, arr)
    for i, d in enumerate(arr):
        assert batch[i] == spectra.memory_efficiency_vs_detuning(mem, d)


_acceptance_models = st.builds(
    lambda c1, gap, a1, a2, width: spectra.MemoryAcceptanceModel(
        (c1, c1 + gap), (a1, a2), width),
    st.floats(-1e10, 1e10), st.floats(1e8, 1e10), st.floats(0.1, 2.0),
    st.floats(-2.0, 2.0), st.floats(1e6, 1e10))
# mostly near the lines, and any finite double, overflowing ones included
_detunings = st.lists(st.one_of(st.floats(-5e10, 5e10),
                                st.floats(allow_nan=False, allow_infinity=False)),
                      min_size=1, max_size=16)


@settings(max_examples=100, deadline=None)
@given(_acceptance_models, _detunings)
def test_acceptance_scalar_is_its_array_entry(mem, detunings):
    batch = spectra.memory_efficiency_vs_detuning(mem, np.array(detunings))
    scalars = [spectra.memory_efficiency_vs_detuning(mem, x) for x in detunings]
    assert all(type(v) is float for v in scalars)
    # bit patterns: == on them tells the sign of a zero too
    assert batch.view(np.uint64).tolist() == (
        np.array(scalars).view(np.uint64).tolist())


@pytest.mark.parametrize("d, expected", [
    (math.nan, math.nan), (math.inf, 0.0), (-math.inf, 0.0), (1e300, 0.0),
    (-1e300, 0.0)])
def test_acceptance_non_finite_scalars_match_array_entries(cfg, d, expected):
    # past the overflow of the squares the response is 0, a nan stays nan;
    # neither raises nor warns
    mem = cfg.memory_acceptance
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scalar = spectra.memory_efficiency_vs_detuning(mem, d)
        entry = spectra.memory_efficiency_vs_detuning(mem, np.array([0.0, d]))[1]
    for got in (scalar, entry):
        assert got == expected or (math.isnan(got) and math.isnan(expected))


@pytest.mark.parametrize("band_hz", [3e9, 7e9, 12e9])
def test_batched_scores_match_per_candidate_reference(cfg, band_hz):
    model, cav, mem = (cfg.spectral_model, cfg.source.telecom_cavity,
                       cfg.memory_acceptance)
    candidates = np.linspace(-band_hz / 2.0, band_hz / 2.0, 701)
    eta, rate = spectra.heralding_vs_cavity_detuning(model, cav, candidates)
    for i, dc in enumerate(candidates):
        assert (eta[i], rate[i]) == pytest.approx(
            _heralding_reference(model, cav, dc), rel=1e-12)
    assert spectra.select_operating_point(model, cav, mem, band_hz) == (
        _select_reference(model, cav, mem, band_hz))


def test_selection_skips_candidates_below_floor(cfg):
    # a 1 mHz cavity passes almost nothing between the telecom grid points
    model, mem = cfg.spectral_model, cfg.memory_acceptance
    cav = CavitySpec(1e-3, 15.2e9)
    _, _, feasible = spectra._herald(model, cav,
                                     np.linspace(-1.5e9, 1.5e9, 701))
    assert (~feasible).sum() == 600
    best = spectra.select_operating_point(model, cav, mem, scan_band_hz=3e9)
    assert best == 930000000.0 == _select_reference(model, cav, mem, 3e9)


def test_selection_raises_with_no_feasible_candidate(cfg):
    # a 1 micro-Hz cavity off every grid point, and a notch at the one
    # candidate that sits on the grid
    notch = spectra.AbsorptionFeature(0.0, 1e6, 1.0)
    model = dataclasses.replace(cfg.spectral_model, features=(notch,))
    cav, mem = CavitySpec(1e-6, 15.2e9), cfg.memory_acceptance
    for select in (spectra.select_operating_point, _select_reference):
        with pytest.raises(ValueError, match="no feasible operating point"):
            select(model, cav, mem, 3.0001e9)



def test_operating_point_scan_keeps_peak_memory_flat():
    # a BLAS gemm buffer or a gathered copy of the windows raises the peak
    # RSS by over 20 MB, and tracemalloc sees neither: measure ru_maxrss
    # (KiB on Linux) in a fresh process across one 7 GHz scan
    code = (
        "import resource\n"
        "from vapornode import spectra\n"
        "from vapornode.config import load_config\n"
        "cfg = load_config()\n"
        "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "before = peak()\n"
        "spectra.select_operating_point(cfg.spectral_model,\n"
        "    cfg.source.telecom_cavity, cfg.memory_acceptance, 7e9)\n"
        "print(peak() - before)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    res = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True)
    assert int(res.stdout) < 8 * 1024


def test_selection_ties_break_toward_zero(cfg):
    # an open cavity and acceptance lines 1e23 Hz away: every score agrees
    # to about 1e-13, inside the 1e-12 tie tolerance, so the candidate
    # nearest zero wins
    cav = CavitySpec(1e30, 1e31)
    flat = spectra.MemoryAcceptanceModel((-1e23, 3e23), (1.0, -1.0), 5e23)
    assert spectra.select_operating_point(cfg.spectral_model, cav, flat) == 0.0
