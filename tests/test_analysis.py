import math

import numpy as np
import pytest
from scipy.optimize import curve_fit

from vapornode import analysis, states
from vapornode.histograms import Histogram


def _hist(counts, bin_ns=1.0, origin_ns=0.0, n_trials=1000):
    return Histogram(bin_ns * 1e-9, np.asarray(counts), origin_ns * 1e-9,
                     0.0, n_trials)


# the whole 100 ns frame: a background region that covers every window
_FRAME = (0.0, 100e-9)


def _peaked(signal=400, floor=2, n_bins=100, peak_bin=20):
    counts = np.full(n_bins, floor)
    counts[peak_bin] += signal
    return _hist(counts)


def test_window_spec_disjoint():
    with pytest.raises(ValueError):
        analysis.WindowSpec(0.0, 10e-9, 5e-9, 10e-9)
    with pytest.raises(ValueError):
        analysis.WindowSpec(0.0, -1e-9, 20e-9, 10e-9)
    # touching windows are fine
    analysis.WindowSpec(0.0, 10e-9, 10e-9, 10e-9)


def test_window_counts_fractional():
    h = _hist([10, 20, 30])
    assert analysis.window_counts(h, 0.0, 3e-9) == pytest.approx(60.0)
    # half of the first bin plus half of the second
    assert analysis.window_counts(h, 0.5e-9, 1e-9) == pytest.approx(15.0)
    assert analysis.window_counts(h, 0.25e-9, 0.5e-9) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        analysis.window_counts(h, -1e-9, 1e-9)
    with pytest.raises(ValueError):
        analysis.window_counts(h, 2.5e-9, 1e-9)


def test_window_counts_array_equals_scalar_calls():
    rng = np.random.default_rng(7)
    h = _hist(rng.integers(0, 1000, size=257), bin_ns=0.128, origin_ns=-3.0)
    lo, hi = h.span_s
    starts = rng.uniform(lo, hi - 5e-9, size=40)
    widths = rng.uniform(1e-12, 5e-9, size=40)
    many = analysis.window_counts(h, starts, widths)
    assert many.shape == (40,)
    assert many.tolist() == [analysis.window_counts(h, a, w)
                             for a, w in zip(starts, widths)]
    assert isinstance(analysis.window_counts(h, starts[0], widths[0]), float)
    # one width broadcast over many starts
    assert analysis.window_counts(h, starts, 1e-9).tolist() == [
        analysis.window_counts(h, a, 1e-9) for a in starts]


def test_window_counts_exact_on_representable_fractions():
    # quarter-unit bins: every edge below is an exact binary fraction of a bin
    h = Histogram(0.25, np.array([3, 7, 11, 13, 17]), 1.0, 0.0, 10)
    assert analysis.window_counts(h, 1.0, 1.25) == 51.0
    assert analysis.window_counts(h, 1.125, 0.25) == 1.5 + 3.5
    assert analysis.window_counts(h, 1.3125, 0.5625) == 0.75 * 7 + 11 + 0.5 * 13
    assert analysis.window_counts(h, [1.0, 1.5, 2.0], [0.25, 0.0625, 0.25]
                                  ).tolist() == [3.0, 0.25 * 11, 17.0]


def test_window_counts_outside_span_raises_for_any_entry():
    h = _hist([10, 20, 30])
    for start, width in ((-1e-9, 1e-9), (2.5e-9, 1e-9)):
        with pytest.raises(ValueError, match="outside the histogram span"):
            analysis.window_counts(h, start, width)
        with pytest.raises(ValueError, match="outside the histogram span"):
            analysis.window_counts(h, [0.0, start, 1e-9], [1e-9, width, 1e-9])
        with pytest.raises(ValueError, match="outside the histogram span"):
            analysis.window_counts(h, [0.0, 1e-9], [1e-9, width + 3e-9])


def test_peak_and_centered_window():
    h = _peaked(peak_bin=20)
    assert analysis.peak_time(h) == pytest.approx(20.5e-9)
    spec = analysis.centered_window(h, 4e-9, 60e-9, 30e-9)
    assert spec.signal_start_s == pytest.approx(18.5e-9)
    assert spec.signal_width_s == 4e-9
    # a peak at either edge shifts the window inside the histogram span
    for peak_bin, start in ((0, 0.0), (99, 96e-9)):
        h = _peaked(peak_bin=peak_bin)
        spec = analysis.centered_window(h, 4e-9, 60e-9, 30e-9)
        assert spec.signal_start_s == pytest.approx(start)
        assert analysis.extract_snr(h, spec).signal_counts > 0


def test_extract_snr_peaked():
    h = _peaked(signal=400, floor=2)
    spec = analysis.centered_window(h, 1e-9, 60e-9, 30e-9)
    res = analysis.extract_snr(h, spec)
    # 402 raw counts, 2 expected background -> snr = 400/2
    assert res.snr == pytest.approx(200.0)
    assert res.signal_counts == pytest.approx(400.0)
    assert not res.lower_bound


def test_extract_snr_scale_invariant():
    h1 = _peaked(signal=400, floor=2)
    h3 = _hist(h1.counts * 3)
    spec = analysis.centered_window(h1, 1e-9, 60e-9, 30e-9)
    assert analysis.extract_snr(h3, spec).snr == pytest.approx(
        analysis.extract_snr(h1, spec).snr
    )


def test_extract_snr_flat_noise_is_zero():
    # pure flat background: noise-subtracted signal vanishes on average
    h = _hist(np.full(100, 50))
    spec = analysis.WindowSpec(10e-9, 5e-9, 60e-9, 30e-9)
    assert analysis.extract_snr(h, spec).snr == pytest.approx(0.0, abs=1e-9)


def test_extract_snr_window_doubling():
    # all signal inside the small window: doubling the window halves the snr
    h = _peaked(signal=1000, floor=4)
    small = analysis.centered_window(h, 1e-9, 60e-9, 30e-9)
    big = analysis.centered_window(h, 2e-9, 60e-9, 30e-9)
    s_small = analysis.extract_snr(h, small).snr
    s_big = analysis.extract_snr(h, big).snr
    assert s_big == pytest.approx(s_small / 2.0, rel=1e-6)


def test_extract_snr_empty_noise_window_flags_lower_bound():
    counts = np.zeros(100, dtype=int)
    counts[20] = 300
    h = _hist(counts)
    spec = analysis.WindowSpec(20e-9, 1e-9, 60e-9, 30e-9)
    res = analysis.extract_snr(h, spec)
    assert res.lower_bound
    # one count-equivalent floor over 30 ns -> expected noise = 1/30
    assert res.snr == pytest.approx(300.0 / (1.0 / 30.0) - 1.0, rel=1e-9)


def test_storage_efficiency_identical_histograms():
    h = _peaked(signal=500, floor=0)
    spec = analysis.WindowSpec(15e-9, 11e-9, 60e-9, 30e-9)
    assert analysis.internal_storage_efficiency(h, h, spec, _FRAME) == (
        pytest.approx(1.0))


def test_storage_efficiency_ratio_and_transmissions():
    mem = _peaked(signal=120, floor=0, peak_bin=20)
    inp = _peaked(signal=400, floor=0, peak_bin=5)
    spec = analysis.WindowSpec(15e-9, 11e-9, 60e-9, 30e-9)
    assert analysis.internal_storage_efficiency(mem, inp, spec, _FRAME) == (
        pytest.approx(0.30))
    # both per trial: halving the input flux, or the memory run's trial
    # count, doubles the ratio
    half = _peaked(signal=200, floor=0, peak_bin=5)
    assert analysis.internal_storage_efficiency(mem, half, spec, _FRAME) == (
        pytest.approx(0.60))
    fewer = Histogram(mem.bin_width_s, mem.counts, mem.origin_s, 0.0, 500)
    assert analysis.internal_storage_efficiency(fewer, inp, spec, _FRAME) == (
        pytest.approx(0.60))


def test_storage_efficiency_noise_region_clipping():
    # flat noise in [18, 48] ns; the noise window sees the same 10/bin level
    counts = np.zeros(100, dtype=int)
    counts[18:48] += 10
    counts[60:90] += 10
    counts[20] += 600
    mem = _hist(counts)
    inp = _peaked(signal=1000, floor=0, peak_bin=5)
    spec = analysis.WindowSpec(10e-9, 30e-9, 60e-9, 30e-9)
    naive = analysis.internal_storage_efficiency(mem, inp, spec, _FRAME)
    clipped = analysis.internal_storage_efficiency(
        mem, inp, spec, noise_region_s=(18e-9, 48e-9)
    )
    assert clipped == pytest.approx(0.60, rel=1e-6)
    assert naive < clipped  # full-width subtraction over-corrects


def test_storage_efficiency_rejects_empty_input():
    h = _peaked()
    empty = _hist(np.zeros(100, dtype=int))
    spec = analysis.WindowSpec(15e-9, 11e-9, 60e-9, 30e-9)
    with pytest.raises(ValueError):
        analysis.internal_storage_efficiency(h, empty, spec, _FRAME)
    with pytest.raises(ValueError):
        analysis.internal_storage_efficiency(
            h, _hist([1, 2], n_trials=0), spec, _FRAME)


def test_mean_photon_number():
    h = _hist(np.array([320]), n_trials=1000)
    assert analysis.mean_photon_number(h, 1.0, 1.0) == pytest.approx(0.32)
    assert analysis.mean_photon_number(h, 0.5, 0.64) == pytest.approx(1.0)
    # the trial count comes from the histogram
    assert analysis.mean_photon_number(
        _hist(np.array([320]), n_trials=500), 1.0, 1.0) == pytest.approx(0.64)
    with pytest.raises(ValueError):
        analysis.mean_photon_number(h, 0.0, 0.5)
    with pytest.raises(ValueError):
        analysis.mean_photon_number(h, 0.5, 1.5)
    with pytest.raises(ValueError, match="trial count"):
        analysis.mean_photon_number(_hist([320], n_trials=0), 1.0, 1.0)


def test_fit_exponential_exact():
    t = np.linspace(0.0, 6e-6, 12)
    y = 0.095 * np.exp(-t / 2.6e-6)
    fit = analysis.fit_exponential(t, y)
    assert fit.tau_s == pytest.approx(2.6e-6, rel=1e-6)
    assert fit.amplitude == pytest.approx(0.095, rel=1e-6)
    assert not fit.non_decaying
    assert fit.excluded_points == 0


def test_fit_exponential_noisy_coverage():
    # the fit is unweighted: least squares is the estimator for noise of
    # one size at every point, here 10% of the mean level
    t = np.linspace(0.0, 5e-6, 8)
    clean = 0.095 * np.exp(-t / 2.6e-6)
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        y = clean + 0.10 * clean.mean() * rng.standard_normal(t.size)
        fit = analysis.fit_exponential(t, y)
        if abs(fit.tau_s - 2.6e-6) < 0.15 * 2.6e-6:
            hits += 1
    assert hits >= 95


def _converged_curve_fit(t, y, p0):
    """scipy's curve_fit on the same model in microseconds, converged to
    working precision (with its default tolerances in seconds it stops up
    to ~1e-5 short of the optimum)."""
    model = lambda tt, a, tau: a * np.exp(-tt / tau)
    popt, pcov = curve_fit(model, t * 1e6, y, p0=(p0[0], p0[1] * 1e6),
                           xtol=1e-14, ftol=1e-14, gtol=1e-14, maxfev=10000)
    return popt[0], popt[1] * 1e-6, math.sqrt(pcov[1, 1]) * 1e-6


def test_fit_exponential_matches_curve_fit():
    t = np.linspace(0.0, 5e-6, 8)
    clean = 0.095 * np.exp(-t / 2.6e-6)
    compared = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        y = clean * (1.0 + 0.10 * rng.standard_normal(t.size))
        fit = analysis.fit_exponential(t, y)
        if fit.non_decaying:
            continue
        a, tau, tau_sigma = _converged_curve_fit(t, y, (0.095, 2.6e-6))
        if not math.isfinite(tau_sigma):
            continue
        compared += 1
        assert fit.amplitude == pytest.approx(a, rel=1e-6)
        assert fit.tau_s == pytest.approx(tau, rel=1e-6)
        assert fit.tau_sigma_s == pytest.approx(tau_sigma, rel=1e-6)
    assert compared >= 195


def test_fit_exponential_finite_sigma_where_curve_fit_gave_inf():
    # a well-posed unweighted decay on which curve_fit in seconds (the
    # previous implementation) returned tau_sigma_s = inf
    t = np.linspace(0.0, 5e-6, 8)
    y = np.array([0.10884451932363423, 0.07110765366407196,
                  0.05339223918723605, 0.0370128230878104,
                  0.02553151517578636, 0.024269939453245185,
                  0.020021224385568, 0.012761284257699084])
    fit = analysis.fit_exponential(t, y)
    assert not fit.non_decaying
    assert math.isfinite(fit.tau_sigma_s)
    assert 0.0 < fit.tau_sigma_s < 0.2 * fit.tau_s
    a, tau, tau_sigma = _converged_curve_fit(t, y, (0.095, 2.6e-6))
    assert fit.tau_s == pytest.approx(tau, rel=1e-6)
    assert fit.tau_sigma_s == pytest.approx(tau_sigma, rel=1e-6)


def test_fit_exponential_constant_flagged():
    t = np.linspace(0.0, 5e-6, 8)
    fit = analysis.fit_exponential(t, np.full(8, 0.07))
    assert fit.non_decaying
    assert math.isinf(fit.tau_s)


def test_fit_exponential_excludes_nonpositive():
    t = np.linspace(0.0, 6e-6, 10)
    y = 0.1 * np.exp(-t / 2e-6)
    y[3] = 0.0
    y[7] = -1e-4
    fit = analysis.fit_exponential(t, y)
    assert fit.excluded_points == 2
    assert fit.tau_s == pytest.approx(2e-6, rel=1e-6)


def test_fit_exponential_errors():
    with pytest.raises(ValueError):
        analysis.fit_exponential([0.0, 1.0], [1.0, 0.5])
    with pytest.raises(ValueError):
        analysis.fit_exponential([0.0, 1.0, 1.0], [1.0, 0.5, 0.3])
    with pytest.raises(ValueError):
        analysis.fit_exponential([0.0, 1.0, 2.0], [1.0, 0.5])


def _gaussian_hist(n_bins=400, center=100.0, sigma=3.0, amp=5e5, floor=30):
    x = np.arange(n_bins) + 0.5
    mean = amp * np.exp(-0.5 * ((x - center) / sigma) ** 2)
    mean /= mean.sum() / amp
    return _hist(np.round(mean).astype(int) + floor, n_trials=10_000_000)


def test_window_sweep_monotone():
    h = _gaussian_hist()
    res = analysis.window_sweep(
        h,
        noise_window_start_s=250e-9,
        noise_window_s=100e-9,
        window_sizes_s=[w * 1e-9 for w in (2, 4, 8, 16, 24)],
        correction=0.9 * 0.65 * 0.5,
        trial_rate_hz=2.1e5,
    )
    assert (np.diff(res.rates_pairs_per_s) > 0).all()
    assert (np.diff(res.fidelities) < 0).all()
    assert (np.diff(res.per_trial_success) > 0).all()
    # rate identity: per-trial counts scaled by trigger rate over correction
    expected = res.per_trial_success * 2.1e5 / (0.9 * 0.65 * 0.5)
    assert np.allclose(res.rates_pairs_per_s, expected, rtol=1e-12)
    assert not res.lower_bound


def test_window_sweep_rejects_bad_corrections():
    h = _gaussian_hist()
    for correction in (1.5, 0.0):
        with pytest.raises(ValueError, match="correction"):
            analysis.window_sweep(h, 250e-9, 100e-9, [4e-9], correction, 2.1e5)


def _sweep_reference(h, noise_start_s, noise_width_s, windows_s, correction,
                     trial_rate_hz):
    """One window at a time: (rates, fidelities, per-trial captures)."""
    rows = []
    for w in sorted(windows_s):
        spec = analysis.centered_window(h, w, noise_start_s, noise_width_s)
        snr = analysis.extract_snr(h, spec).snr
        pt = analysis.window_counts(h, spec.signal_start_s, w) / h.n_trials
        rows.append((pt * trial_rate_hz / correction,
                     states.fidelity_from_snr(max(snr, 0.0)), pt))
    return np.array(rows).T


@pytest.mark.parametrize("counts, noise", [
    (_gaussian_hist().counts, (250e-9, 100e-9)),
    # the peak in the first bin: every window is shifted inside the span
    (_peaked(signal=900, floor=3, peak_bin=0).counts, (60e-9, 30e-9)),
    # an empty noise window: the SNRs are lower bounds
    (_peaked(signal=900, floor=0, peak_bin=30).counts, (60e-9, 30e-9)),
], ids=["gaussian", "edge-peak", "empty-noise"])
def test_window_sweep_matches_per_window_reference(counts, noise):
    h = _hist(counts, n_trials=3_000_000)
    windows = [w * 1e-9 for w in (16, 0.512, 2.816, 7.68, 1.0, 24, 4.096)]
    res = analysis.window_sweep(h, *noise, windows, 0.29, 2.1e5)
    want = _sweep_reference(h, *noise, windows, 0.29, 2.1e5)
    assert res.window_sizes_s.tolist() == sorted(windows)
    for got, ref in zip((res.rates_pairs_per_s, res.fidelities,
                         res.per_trial_success), want):
        assert np.allclose(got, ref, rtol=1e-12, atol=0.0)
    empty = analysis.window_counts(h, *noise) == 0
    assert res.lower_bound is empty


def test_window_sweep_rejects_bad_windows():
    h = _gaussian_hist()  # peak at 100 ns
    for windows in ([4e-9, 0.0], [-1e-9, 4e-9]):
        with pytest.raises(ValueError, match="widths must be > 0"):
            analysis.window_sweep(h, 250e-9, 100e-9, windows, 0.29, 2.1e5)
    with pytest.raises(ValueError, match="widths must be > 0"):
        analysis.window_sweep(h, 250e-9, 0.0, [4e-9], 0.29, 2.1e5)
    # the 8 ns window reaches past the noise window's start at 103 ns
    with pytest.raises(ValueError, match="disjoint"):
        analysis.window_sweep(h, 103e-9, 100e-9, [2e-9, 8e-9], 0.29, 2.1e5)


def test_window_sweep_csv(tmp_path):
    h = _gaussian_hist()
    res = analysis.window_sweep(
        h, 250e-9, 100e-9, [4e-9, 8e-9], 0.9 * 0.65 * 0.5, 2.1e5,
    )
    path = tmp_path / "sweep.csv"
    res.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "window_ns,rate_pairs_per_s,fidelity,per_trial"
    assert len(lines) == 3


def test_utility_time_interpolation():
    t = np.array([0.0, 1.0, 2.0, 3.0]) * 1e-6
    f = np.array([0.9, 0.8, 0.7, 0.6])
    res = analysis.utility_time(t, f, 0.75)
    assert res.bounded
    assert res.time_s == pytest.approx(1.5e-6)


def test_utility_time_trivial_cases():
    t = np.array([0.0, 1.0, 2.0]) * 1e-6
    below = analysis.utility_time(t, [0.70, 0.6, 0.5], 0.775)
    assert below.bounded and below.time_s == 0.0
    above = analysis.utility_time(t, [0.95, 0.93, 0.90], 0.775)
    assert not above.bounded
    assert above.time_s == pytest.approx(2e-6)
    with pytest.raises(ValueError):
        analysis.utility_time(t, [0.9, 0.8, 0.7], 0.2)


def test_utility_time_robust_to_noise():
    # a non-monotone wiggle must not create a spurious early crossing
    t = np.linspace(0.0, 6e-6, 13)
    f = 0.25 + 0.65 * np.exp(-t / 3e-6)
    noisy = f.copy()
    noisy[3] -= 0.04
    noisy[4] += 0.04
    clean = analysis.utility_time(t, f, 0.775).time_s
    wiggly = analysis.utility_time(t, noisy, 0.775).time_s
    assert wiggly == pytest.approx(clean, rel=0.15)


def test_isotonic_projection():
    y = np.array([5.0, 3.0, 4.0, 1.0])
    fit = analysis._isotonic_non_increasing(y)
    assert (np.diff(fit) <= 1e-12).all()
    assert fit.sum() == pytest.approx(y.sum())  # pooling preserves the mean
    dec = np.array([4.0, 3.0, 2.0])
    assert np.allclose(analysis._isotonic_non_increasing(dec), dec)
