import concurrent.futures
import dataclasses
import math
import os
import warnings

import numpy as np
import pytest

from vapornode import experiments, simulate, states
from vapornode.config import load_config
from vapornode.histograms import Histogram


@pytest.fixture(scope="module")
def cfg():
    return load_config()


def run_events(spec, seed, condition_id, n_trials):
    """The reference the binned histograms are checked against: every
    block's events as (trial index, timestamp in tag units) arrays, ordered
    by trial index (stable, so a trial's events keep their draw order)."""
    all_tags, all_idx = [], []
    for b, n in simulate._blocks(n_trials):
        tags, idx, _ = simulate._simulate_block(spec, seed, condition_id, b, n)
        all_tags.append(tags)
        all_idx.append(idx)
    idx, tags = np.concatenate(all_idx), np.concatenate(all_tags)
    order = np.argsort(idx, kind="stable")
    return idx[order], tags[order]


def test_histogram_invariants():
    with pytest.raises(ValueError):
        Histogram(256e-12, np.array([1, -2]), 0.0)
    with pytest.raises(ValueError):
        Histogram(0.0, np.array([1, 2]), 0.0)
    for fractional in ([1.7, 2.0], [np.nan, 2.0]):
        with pytest.raises(ValueError, match="integers"):
            Histogram(1e-9, np.array(fractional), 0.0)
    integral = Histogram(1e-9, np.array([1.0, 2.0]), 0.0)
    assert integral.counts.dtype == np.int64
    assert integral.counts.tolist() == [1, 2]
    h = Histogram(1e-9, np.array([1, 2, 3]), -1e-9, 2.0, 10)
    assert h.total() == 6
    assert h.span_s == pytest.approx((-1e-9, 2e-9), rel=1e-12)


def test_histogram_merge_commutative(cfg):
    # a run's histogram is the integer sum of its per-block histograms in
    # any order, and the binning of the event-level output
    spec = simulate.build_spec(cfg, "source", "memory")
    n = 3 * simulate.BLOCK_SIZE + 123
    h = simulate.run_condition(spec, cfg.seed, 0, n)
    counts = np.zeros(spec.n_bins, dtype=np.int64)
    duration = 0.0
    for b, size in reversed(simulate._blocks(n)):
        c, d = simulate._block_worker((spec, cfg.seed, 0, b, size))
        counts += c
        duration += d
    assert np.array_equal(h.counts, counts)
    assert h.duration_accumulated_s == pytest.approx(duration, rel=1e-12)
    assert h.n_trials == n
    _, tags = run_events(spec, cfg.seed, 0, n)
    assert np.array_equal(simulate._bin_tags(spec, tags), h.counts)


def test_histogram_csv_roundtrip(tmp_path, cfg):
    h = simulate.run_solo(cfg, "memory", 20_000)
    path = tmp_path / "h.csv"
    h.to_csv(path)
    header, *rows = path.read_text().splitlines()
    assert header == "bin_start_ns,counts"
    starts, counts = zip(*(row.split(",") for row in rows))
    assert [int(c) for c in counts] == h.counts.tolist()
    assert np.allclose(np.asarray(starts, dtype=float) * 1e-9,
                       h.bin_edges_s[:-1], rtol=0.0, atol=1e-13)


def test_no_input_noiseless_is_empty(cfg):
    quiet = load_config(overrides={
        "memory": {**cfg.raw["memory"], "noise_per_trial": 0.0}
    })
    h = simulate.run_solo(quiet, "no_input", 50_000)
    assert h.total() == 0


def test_lossless_source_one_detection_per_trial(cfg):
    raw = dict(cfg.raw)
    raw_mem = {**raw["memory"], "eta0_internal": 1.0,
               "source_efficiency_ratio": 1.0, "noise_per_trial": 0.0}
    raw_fc = {**raw["filter_cascade"], "broadband_transmission": 1.0}
    raw_src = {**raw["source"], "heralding_eta": 1.0}
    raw_an = {**raw["analysis"], "qst_transmission": 1.0}
    raw_det = {**raw["detectors"],
               "nir": {**raw["detectors"]["nir"], "efficiency": 1.0,
                       "jitter_ps": 0.0}}
    lossless = load_config(overrides={
        "memory": raw_mem, "source": raw_src, "analysis": raw_an,
        "detectors": raw_det, "filter_cascade": raw_fc,
    })
    n = 30_000
    h = simulate.run_source(lossless, "memory", n)
    assert h.total() == n


def test_link_budget_above_one_detects_every_trial(cfg):
    bright = load_config(overrides={
        "solo": {**cfg.raw["solo"], "mean_photon_number": 5.0}
    })
    assert simulate.build_spec(bright, "solo", "input").p_signal > 1.0
    n = 30_000
    assert simulate.run_solo(bright, "input", n).total() == n


def test_trial_count_scaling(cfg):
    h1 = simulate.run_solo(cfg, "memory", 100_000)
    h2 = simulate.run_solo(cfg, "memory", 200_000)
    ratio = h2.total() / h1.total()
    sigma = np.sqrt(1.0 / h1.total() + 1.0 / h2.total())
    assert abs(ratio - 2.0) < 3.0 * 2.0 * sigma


def test_determinism_across_workers(cfg):
    n = 200_000  # several RNG blocks
    hists = [simulate.run_solo(cfg, "memory", n, workers=w) for w in (1, 2, 8)]
    for h in hists[1:]:
        assert np.array_equal(h.counts, hists[0].counts)
        assert h.n_trials == hists[0].n_trials


def test_pool_never_larger_than_block_count(cfg, monkeypatch):
    # a fake pool that records its size and maps in-process: no process
    # starts, whatever size is asked for
    made = []

    class FakePool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    spec = simulate.build_spec(cfg, "solo", "memory")
    n = 3 * simulate.BLOCK_SIZE
    pooled = simulate.run_condition(spec, cfg.seed, 0, n, workers=10**6)
    assert made == [3]
    serial = simulate.run_condition(spec, cfg.seed, 0, n, workers=1)
    assert np.array_equal(pooled.counts, serial.counts)
    assert made == [3]  # one worker runs in-process


def test_determinism_across_runs(cfg):
    a = simulate.run_source(cfg, "memory", 100_000)
    b = simulate.run_source(cfg, "memory", 100_000)
    assert np.array_equal(a.counts, b.counts)
    assert a.duration_accumulated_s == b.duration_accumulated_s


def test_seed_changes_output(cfg):
    other = load_config(overrides={"seed": cfg.seed + 1})
    a = simulate.run_solo(cfg, "memory", 100_000)
    b = simulate.run_solo(other, "memory", 100_000)
    assert not np.array_equal(a.counts, b.counts)


def test_time_quantization_and_frame(cfg):
    spec = simulate.build_spec(cfg, "solo", "memory")
    idx, tags = run_events(spec, cfg.seed, 0, 50_000)
    t = tags * spec.tag_resolution_s
    assert (t >= spec.frame_origin_s).all()
    assert (t < spec.frame_end_s).all()
    # tags are integers in units of the 1-ps tag resolution by construction
    assert tags.dtype == np.int64
    assert spec.frame_end_s <= cfg.timing.clock_period_s


@pytest.mark.parametrize("mode", ["solo", "source"])
def test_frame_ends_30ns_after_noise_span(cfg, mode):
    # at a 2.5 us delay the noise span ends past the 2 us clock period; the
    # frame still ends 30 ns after it, in the clocked mode too
    for cond in simulate.CONDITIONS:
        spec = simulate.build_spec(cfg, mode, cond, extra_storage_s=2.5e-6)
        assert spec.noise_end_s > cfg.timing.clock_period_s
        assert spec.frame_end_s == spec.noise_end_s + 30e-9


@pytest.mark.parametrize("seeds", [(-5, -6), (2**63, 2**63 + 1)])
def test_seeds_outside_int64_keep_distinct_streams(cfg, seeds):
    # a tuple key is cast through float outside [0, 2**63) and merged these
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, b = (simulate.run_solo(dataclasses.replace(cfg, seed=s), "memory",
                                  100_000) for s in seeds)
    assert not np.array_equal(a.counts, b.counts)
    # inside [0, 2**63) the stream is the one a tuple key gave
    for seed in (0, cfg.seed, 2**63 - 1):
        ref = np.random.Philox(key=(seed, 17)).jumped(3).random_raw(4)
        got = simulate._block_rng(seed, 17, 3).bit_generator.random_raw(4)
        assert np.array_equal(got, ref)


def _state_equal(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_state_equal(a[k], b[k])
                                            for k in a)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("seed", [0, 20250823, -5, 2**63 + 1])
def test_block_rng_counter_is_the_jumped_state(seed):
    # the counter form skips the jump but must leave the same state behind
    for block in (0, 1, 7, 2**20):
        key = np.array([seed & (2**64 - 1), 5], dtype=np.uint64)
        ref = np.random.Generator(np.random.Philox(key=key).jumped(block))
        got = simulate._block_rng(seed, 5, block)
        assert _state_equal(got.bit_generator.state, ref.bit_generator.state)


def test_poisson_variance_over_seeds(cfg):
    # total noise counts over independent seeds behave Poisson-like; over
    # 1000 seeds the ratio's standard deviation is about 0.045, so the
    # bounds sit more than 6 sigma out
    totals = []
    for seed in range(1000):
        c = dataclasses.replace(cfg, seed=seed)
        totals.append(simulate.run_solo(c, "no_input", 20_000).total())
    totals = np.asarray(totals, dtype=float)
    ratio = totals.var(ddof=1) / totals.mean()
    assert 0.7 < ratio < 1.3


def test_histogram_matches_event_binning(cfg):
    # the histogram bins the same events that run_events returns, block
    # boundaries included; only the event list is sorted, by trial index
    spec = simulate.build_spec(cfg, "solo", "memory")
    n = 80_000
    h = simulate.run_condition(spec, cfg.seed, 0, n)
    idx, tags = run_events(spec, cfg.seed, 0, n)
    assert h.total() == tags.size
    t = tags * spec.tag_resolution_s - spec.frame_origin_s
    binned = np.bincount((t / spec.bin_width_s).astype(np.int64),
                         minlength=spec.n_bins)
    assert binned.size == spec.n_bins
    assert np.array_equal(binned, h.counts)
    assert idx.size == tags.size and (np.diff(idx) >= 0).all()
    assert idx.min() >= 0 and idx.max() < n


def test_signal_trials_distinct_within_block(cfg):
    # at most one signal detection per trial, even at a high probability
    spec = dataclasses.replace(simulate.build_spec(cfg, "solo", "memory"),
                               p_signal=0.5, noise_lambda=0.0)
    n = 2 * simulate.BLOCK_SIZE + 1000
    idx, _ = run_events(spec, cfg.seed, 0, n)
    assert np.unique(idx).size == idx.size
    assert idx.min() >= 0 and idx.max() < n
    # the frame holds the whole pulse, so the count is Binomial(n, 0.5)
    assert abs(idx.size - 0.5 * n) < 5.0 * math.sqrt(0.25 * n)


def test_triggered_duration_mean(cfg):
    # a block of n triggers lasts Gamma(n, 1/rate): n exponential gaps
    spec = dataclasses.replace(simulate.build_spec(cfg, "source", "no_input"),
                               noise_lambda=0.0)
    rate = cfg.source.telecom_rate_hz
    n = 3 * simulate.BLOCK_SIZE + 123
    durations = np.array([
        simulate.run_condition(spec, seed, 2, n).duration_accumulated_s
        for seed in range(200)
    ])
    sigma = math.sqrt(n) / rate
    assert abs(durations.mean() - n / rate) < 5.0 * sigma / math.sqrt(200)
    assert 0.7 < durations.std(ddof=1) / sigma < 1.3


def _model_metrics(cfg, mode, n):
    """Closed-form value and standard deviation of each NodeMetrics field.

    The standard deviation propagates Poisson statistics of the model's
    expected counts through each estimator, never the sample's.
    """
    a, mem = cfg.analysis, cfg.memory
    rate = simulate.noise_rate_hz(cfg)  # noise counts per trial per second
    p_sig = simulate.detected_signal_probability(cfg, mode)
    nn = n * rate * a.noise_window_s

    s = n * p_sig * simulate.window_capture(cfg, a.signal_window_s)
    b = n * rate * a.signal_window_s
    snr = (experiments.predicted_window_snr(cfg, mode),
           (s + b) / b * math.sqrt(1.0 / (s + b) + 1.0 / nn))

    # the full window is centred on the pulse; noise starts at the retrieval
    full = 2.0 * a.full_signal_halfwidth_s
    overlap = min(max(mem.retrieval_delay_s + a.full_signal_halfwidth_s, 0.0),
                  full)
    cap = simulate.window_capture(cfg, full)
    eta = mem.eta0_internal if mode == "solo" else mem.eta0_source
    s = n * p_sig * cap
    b = n * rate * overlap
    inp = n * simulate.passthrough_probability(cfg, mode)
    var_net = s + b + (overlap / a.noise_window_s) ** 2 * nn
    eff = (eta * cap, eta * cap * math.sqrt(var_net / s**2 + 1.0 / inp))

    scale = a.signal_window_s / (cfg.timing.op_on_s - cfg.timing.retrieve_at_s)
    lam = mem.noise_per_trial
    floor = (lam * scale, math.sqrt(n * lam) / n * scale)
    return {"snr": snr, "storage_efficiency": eff,
            "noise_floor_per_trial": floor}


@pytest.mark.parametrize("mode", ["solo", "source"])
def test_metrics_within_5_sigma_of_model(cfg, mode):
    n = 1_000_000
    run = experiments.solo_metrics if mode == "solo" else experiments.source_metrics
    for seed in range(10):
        c = dataclasses.replace(cfg, seed=seed)
        metrics, _ = run(c, n)
        for name, (model, sigma) in _model_metrics(c, mode, n).items():
            z = (getattr(metrics, name) - model) / sigma
            assert abs(z) < 5.0, f"seed {seed} {name}: z = {z:.2f}"


def test_window_capture_monotone(cfg):
    caps = [simulate.window_capture(cfg, w * 1e-9) for w in (0.5, 1, 2, 4, 8, 16)]
    assert all(a < b for a, b in zip(caps, caps[1:]))
    assert 0.0 < caps[0] < caps[-1] <= 1.0


def test_noise_floor_level(cfg):
    # counts in the signal-free window match the configured flat floor
    h = simulate.run_source(cfg, "no_input", 400_000)
    per_trial = h.total() / h.n_trials
    assert per_trial == pytest.approx(cfg.memory.noise_per_trial, rel=0.10)


def test_tomography_counts_structure(cfg):
    res = simulate.run_tomography(cfg, duration_per_setting_s=5.0)
    assert res.settings == states.tomography_settings()
    assert (res.counts >= 0).all()
    labels = {s.label: i for i, s in enumerate(res.settings)}
    # correlations: HV and RR coincidences are suppressed vs HH and DD
    assert res.counts[labels["HV"]] < 0.25 * res.counts[labels["HH"]]
    assert res.counts[labels["RR"]] < 0.25 * res.counts[labels["DD"]]


def test_tomography_deterministic(cfg):
    a = simulate.run_tomography(cfg, duration_per_setting_s=2.0)
    b = simulate.run_tomography(cfg, duration_per_setting_s=2.0)
    assert np.array_equal(a.counts, b.counts)


def test_invalid_condition_rejected(cfg):
    with pytest.raises(ValueError):
        simulate.build_spec(cfg, "solo", "bogus")
    with pytest.raises(ValueError):
        simulate.run_condition(
            simulate.build_spec(cfg, "solo", "memory"), cfg.seed, 0, 0
        )


def test_unknown_mode_rejected(cfg):
    # "Solo" is neither mode, for every condition and the pass-through
    for condition in simulate.CONDITIONS:
        with pytest.raises(ValueError, match="unknown mode"):
            simulate.build_spec(cfg, "Solo", condition)
    with pytest.raises(ValueError, match="unknown mode"):
        simulate.passthrough_probability(cfg, "Solo")
    with pytest.raises(ValueError, match="unknown mode"):
        experiments.run_conditions(cfg, "Solo", 1000)


_ENTRY_POINTS = {
    "detected_signal_probability":
        lambda cfg, t: simulate.detected_signal_probability(cfg, "source", t),
    "run_source_memory":
        lambda cfg, t: simulate.run_source(cfg, "memory", 10000, 1, t),
    "run_source_input":
        lambda cfg, t: simulate.run_source(cfg, "input", 10000, 1, t),
    "run_source_no_input":
        lambda cfg, t: simulate.run_source(cfg, "no_input", 10000, 1, t),
    "run_tomography":
        lambda cfg, t: simulate.run_tomography(cfg, extra_storage_s=t),
    "predicted_window_snr":
        lambda cfg, t: experiments.predicted_window_snr(
            cfg, "source", extra_storage_s=t),
}


@pytest.mark.parametrize("delay", [-1e-6, -1e-12, math.nan, math.inf])
@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_bad_storage_delay_rejected(cfg, entry, delay):
    with pytest.raises(ValueError, match="extra_storage_s"):
        _ENTRY_POINTS[entry](cfg, delay)


def test_positive_storage_delay_stream_unchanged(cfg):
    # values from before negative delays were rejected
    expected = {"memory": (88, 0.09468588115754846),
                "input": (825, 0.09550785478648853),
                "no_input": (61, 0.09536054357111748)}
    for cond, (total, duration) in expected.items():
        h = simulate.run_source(cfg, cond, 20000, 1, 1e-6)
        assert (int(h.counts.sum()), h.duration_accumulated_s) == (
            total, duration)
    counts = simulate.run_tomography(cfg, duration_per_setting_s=1.0,
                                     extra_storage_s=1e-6).counts
    assert counts.tolist() == [80, 5, 35, 36, 8, 76, 36, 36, 54, 39, 59, 26,
                               45, 47, 37, 12]
    assert simulate.detected_signal_probability(
        cfg, "source", 1e-6) == 0.0014495078659829085


def test_predicted_snr_without_background():
    cfg = load_config()
    quiet = dataclasses.replace(
        cfg, memory=dataclasses.replace(cfg.memory, noise_per_trial=0.0))
    assert simulate.noise_rate_hz(quiet) == 0.0
    assert experiments.predicted_window_snr(quiet, "source") == math.inf
    assert experiments.predicted_window_snr(quiet, "solo") == math.inf
    # a delay long enough for the stored signal to underflow to zero
    assert experiments.predicted_window_snr(quiet, "source", 1.0) == 0.0
    assert (experiments.model_fidelity_curve(quiet, [0.0, 1e-6]) == 1.0).all()
