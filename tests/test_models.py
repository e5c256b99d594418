import math

import numpy as np
import pytest

from vapornode import experiments, models, simulate
from vapornode.config import load_config


@pytest.fixture(scope="module")
def cfg():
    return load_config()


def test_storage_efficiency_decay(cfg):
    tau = cfg.memory.tau_coherence_s
    for mode in ("solo", "source"):
        p0 = simulate.detected_signal_probability(cfg, mode)
        assert simulate.detected_signal_probability(cfg, mode, 0.0) == p0
        assert simulate.detected_signal_probability(
            cfg, mode, tau
        ) == pytest.approx(p0 / math.e)
    with pytest.raises(ValueError, match="extra_storage_s"):
        experiments.storage_time_scan(cfg, [-1e-9, 0.0, 1e-6], n_trials=1)


def test_storage_efficiency_log_linear(cfg):
    t = np.linspace(0.0, 6e-6, 20)
    for mode in ("solo", "source"):
        y = np.array([simulate.detected_signal_probability(cfg, mode, ti)
                      for ti in t])
        slope = np.polyfit(t, np.log(y), 1)[0]
        assert slope == pytest.approx(-1.0 / cfg.memory.tau_coherence_s,
                                      rel=1e-9)


def test_source_efficiency_example(cfg):
    # eta0 5.2%, tau 2.6 us, one tau of extra storage -> 1.91%
    src_eta0 = cfg.memory.eta0_source
    assert src_eta0 == pytest.approx(0.052, abs=5e-4)
    decayed = src_eta0 * math.exp(-1.0)
    assert decayed == pytest.approx(0.0191, abs=3e-4)


def test_predict_source_snr():
    assert models.predict_source_snr(95.0, 0.2, 1.0) == pytest.approx(19.0)
    predicted = models.predict_source_snr(95.0, 0.2, 5.2 / 9.5)
    assert predicted == pytest.approx(10.4, abs=0.01)
    assert 9.0 <= predicted <= 11.0
    assert models.predict_source_snr(7.0, 1.0, 1.0) == 7.0
    # multiplicatively separable
    assert models.predict_source_snr(95.0, 0.1, 0.5) == pytest.approx(
        0.5 * models.predict_source_snr(95.0, 0.2, 0.5)
    )
    with pytest.raises(ValueError):
        models.predict_source_snr(-1.0, 0.2, 1.0)


def test_end_to_end_probability(cfg):
    p = simulate.detected_signal_probability(cfg, "source")
    # 0.20 * 0.052 * 0.35 * 0.90 * 0.65
    assert p == pytest.approx(2.13e-3, rel=0.05)
    factors = (cfg.source.heralding_eta, cfg.memory.eta0_source,
               cfg.filter_cascade.broadband_transmission,
               cfg.analysis.qst_transmission, cfg.detector_nir.efficiency)
    assert p <= min(factors)
    # the pass-through chain is the same budget without the memory
    assert simulate.passthrough_probability(cfg, "source") == pytest.approx(
        p / cfg.memory.eta0_source, rel=1e-12
    )
    assert p * simulate.window_capture(cfg, 0.0) == 0.0


def test_detector_jitter_conventions():
    # the quoted jitter is a FWHM
    fwhm = models.DetectorParams(0.65, 350e-12)
    assert fwhm.jitter_sigma_s == pytest.approx(350e-12 / 2.3548, rel=1e-4)
    with pytest.raises(ValueError):
        models.DetectorParams(1.2, 350e-12)


def test_timing_invariants(cfg):
    assert cfg.timing.control_on_s == pytest.approx(95e-9)
    with pytest.raises(ValueError):
        models.TimingConfig(
            op_off_s=20e-9,  # must be negative
            retrieve_at_s=55e-9,
            op_on_s=150e-9,
            clock_period_s=2e-6,
            tag_resolution_s=1e-12,
            bin_width_s=256e-12,
        )


def test_memory_params_invariants(cfg):
    mem = cfg.memory
    with pytest.raises(ValueError):
        models.MemoryParams(
            eta0_internal=mem.eta0_internal,
            source_efficiency_ratio=mem.source_efficiency_ratio,
            tau_coherence_s=mem.tau_coherence_s,
            retrieval_delay_s=mem.retrieval_delay_s,
            noise_per_trial=0.5,  # above the modeled regime
            retrieved_pulse=mem.retrieved_pulse,
        )
