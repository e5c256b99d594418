import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vapornode import optics
from vapornode.config import load_config


def _cavity(fwhm_ghz=1.55, fsr_ghz=60.2):
    return optics.CavitySpec(fwhm_ghz * 1e9, fsr_ghz * 1e9)


def test_cavity_spec_invariant():
    with pytest.raises(ValueError):
        optics.CavitySpec(fwhm_hz=2e9, fsr_hz=1e9)
    with pytest.raises(ValueError):
        optics.CavitySpec(fwhm_hz=2e9, fsr_hz=math.inf)


def test_cavity_transmission_values():
    cav = _cavity()
    assert optics.cavity_transmission(cav, 0.0) == pytest.approx(1.0)
    assert optics.cavity_transmission(cav, cav.fwhm_hz / 2.0) == pytest.approx(0.5)
    # closed form at the ground-hyperfine offset
    t = optics.cavity_transmission(cav, 6.8347e9)
    assert t == pytest.approx(0.01270, abs=2e-5)
    assert -10.0 * math.log10(t) == pytest.approx(18.96, abs=0.01)


def test_cavity_fsr_periodicity_and_symmetry():
    cav = _cavity()
    for d in (0.3e9, 1.0e9, 5.0e9):
        assert optics.cavity_transmission(cav, d) == pytest.approx(
            optics.cavity_transmission(cav, d + cav.fsr_hz), rel=1e-12
        )
        assert optics.cavity_transmission(cav, d) == pytest.approx(
            optics.cavity_transmission(cav, -d), rel=1e-12
        )


def test_cavity_wrap_exact_at_huge_detuning():
    # d - fsr * round(d / fsr) loses the residue once |d| / fsr passes 2**53
    cascade = _cascade()
    fsr = _cavity().fsr_hz
    for d in (5e307, -5e307, 2.5e307, 1e20):
        residue = math.fmod(d, fsr)
        db = optics.cascade_suppression_db(cascade, d)
        assert db == optics.cascade_suppression_db(cascade, residue)
        assert optics.cascade_transmission(cascade, d) == (
            optics.cascade_transmission(cascade, residue))
        assert 0.0 < db < math.inf


def _cascade(n_stages=3, passes=2, fwhm_ghz=1.55):
    stages = tuple((_cavity(fwhm_ghz), passes) for _ in range(n_stages))
    return optics.FilterCascade(stages=stages, broadband_transmission=0.35)


def test_cascade_suppression_114db():
    db = optics.cascade_suppression_db(_cascade(), 6.8347e9)
    assert db == pytest.approx(113.8, abs=1.0)
    assert optics.cascade_suppression_db(_cascade(), 0.0) == pytest.approx(0.0)


def test_cascade_suppression_positive_zero_near_resonance():
    # every stage transmits exactly 1 a hertz off resonance: the sum is +0.0
    cascade = load_config().filter_cascade
    assert math.copysign(1.0, optics.cascade_suppression_db(cascade, -1.0)) == 1.0
    db = optics.cascade_suppression_db(cascade, np.array([-1.0, 0.0, 1.0]))
    assert (np.copysign(1.0, db) == 1.0).all()


def test_cascade_suppression_additive():
    one = optics.FilterCascade(stages=((_cavity(), 1),))
    two = optics.FilterCascade(stages=((_cavity(), 1), (_cavity(), 1)))
    for d in (0.5e9, 2.0e9, 6.8347e9):
        s1 = optics.cascade_suppression_db(one, d)
        assert optics.cascade_suppression_db(two, d) == pytest.approx(2 * s1)
        assert s1 == pytest.approx(
            -10.0 * math.log10(optics.cavity_transmission(_cavity(), d))
        )


def test_cascade_effective_fwhm_closed_form():
    # N co-centered identical Lorentzian passes: fwhm * sqrt(2^(1/N) - 1)
    for n_stages, passes in ((1, 1), (1, 2), (3, 2)):
        n = n_stages * passes
        cascade = optics.FilterCascade(
            stages=tuple((_cavity(), passes) for _ in range(n_stages))
        )
        expected = 1.55e9 * math.sqrt(2.0 ** (1.0 / n) - 1.0)
        assert optics.cascade_effective_fwhm(cascade) == pytest.approx(
            expected, rel=1e-3
        )
    two_pass_1ghz = optics.FilterCascade(
        stages=((optics.CavitySpec(1.0e9, 60.2e9), 2),)
    )
    assert optics.cascade_effective_fwhm(two_pass_1ghz) == pytest.approx(
        0.6436e9, rel=1e-3
    )
    # low finesse: the half-maximum point must be sought within fsr/2, not
    # on the next order of the periodized response
    low_finesse = optics.FilterCascade(
        stages=((optics.CavitySpec(25.0e9, 30.1e9), 2),)
    )
    assert optics.cascade_effective_fwhm(low_finesse) == pytest.approx(
        25.0e9 * math.sqrt(math.sqrt(2.0) - 1.0), rel=1e-9
    )


def test_cascade_effective_fwhm_pinned():
    # the packaged cascade: the bits filter-design writes to filter.json
    assert optics.cascade_effective_fwhm(_cascade()) == 542415957.6038194


def _bits(values):
    """The IEEE-754 bit patterns of values, so == compares bits, the sign
    of a zero included."""
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


# the filter-design band (16 GHz) and a band past the 60.2 GHz FSR, where the
# wrap runs on the whole array but only on some of the scalars; the packaged
# cascade, and one stage of each pass count, whose powers C pow and numpy's
# array loop round differently
@pytest.mark.parametrize("band_hz", [16e9, 200e9])
def test_cascade_array_matches_scalars(band_hz):
    d = np.linspace(-band_hz / 2.0, band_hz / 2.0, 20001)
    for cascade in (_cascade(), *(optics.FilterCascade(stages=((_cavity(), p),))
                                  for p in (1, 2, 3, 4, 6))):
        for f in (optics.cascade_transmission, optics.cascade_suppression_db):
            assert _bits(f(cascade, d)) == _bits([f(cascade, x) for x in d])


_cavities = st.builds(lambda fsr, frac: optics.CavitySpec(frac * fsr, fsr),
                      st.floats(1e9, 1e11), st.floats(1e-3, 0.9))
_cascades = st.builds(
    lambda stages, broadband: optics.FilterCascade(tuple(stages), broadband),
    st.lists(st.tuples(_cavities, st.integers(1, 6)), min_size=1, max_size=3),
    st.floats(0.01, 1.0))
# mostly within a few FSRs, and any double: a nan or an infinity in an array
# must not keep its other entries from being wrapped
_detunings = st.lists(st.one_of(st.floats(-5e11, 5e11), st.floats()),
                      min_size=1, max_size=16)


@settings(max_examples=100, deadline=None)
@given(_cascades, _detunings)
def test_cascade_scalar_is_its_array_entry(cascade, detunings):
    d = np.array(detunings)
    cavity = cascade.stages[0][0]
    for f, model in ((optics.cavity_transmission, cavity),
                     (optics.cascade_transmission, cascade),
                     (optics.cascade_suppression_db, cascade)):
        with np.errstate(invalid="ignore"):  # fmod of an infinity
            scalars = [f(model, x) for x in detunings]
            entries = f(model, d)
        assert all(type(v) is float for v in scalars)
        assert _bits(entries) == _bits(scalars)


@pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf, 1e300, -1e300])
def test_non_finite_scalars_match_array_entries(d):
    # nan and +-inf give nan, a huge detuning its wrapped value; in an array
    # beside detunings that need fmod (past 2**53 fsr) and the fsr/2 wrap,
    # they must not keep those from being wrapped.  fmod of an infinity
    # sets numpy's invalid flag, for a scalar as for an array
    cascade, cavity = _cascade(), _cavity()
    d_all = [d, 5e307, 1e20, 40e9, 0.0]
    with np.errstate(invalid="ignore"):
        for f, model in ((optics.cavity_transmission, cavity),
                         (optics.cascade_transmission, cascade),
                         (optics.cascade_suppression_db, cascade)):
            scalars, entries = [f(model, x) for x in d_all], f(model, np.array(d_all))
            assert math.isfinite(d) == math.isfinite(scalars[0])
            assert _bits(entries) == _bits(scalars)


def test_cascade_fwhm_monotone_in_passes():
    widths = [
        optics.cascade_effective_fwhm(
            optics.FilterCascade(stages=((_cavity(), p),))
        )
        for p in (1, 2, 3, 4, 6)
    ]
    assert all(a > b for a, b in zip(widths, widths[1:]))


def test_cascade_invariants():
    with pytest.raises(ValueError):
        optics.FilterCascade(stages=())
    with pytest.raises(ValueError):
        optics.FilterCascade(stages=((_cavity(), 0),))
    with pytest.raises(ValueError):
        optics.FilterCascade(stages=((_cavity(), 1),), broadband_transmission=0.0)


def test_gaussian_pulse_temporal_fwhm():
    pulse = optics.gaussian_pulse(3.11e-9, 0.02e-9, 40e-9)
    assert optics.temporal_fwhm(pulse) == pytest.approx(3.11e-9, rel=0.01)
    with pytest.raises(ValueError):
        optics.gaussian_pulse(3.11e-9, 1.0e-9, 40e-9)  # dt too coarse
    with pytest.raises(ValueError):
        optics.gaussian_pulse(3.11e-9, 0.02e-9, 5e-9)  # span too short


def test_transform_limit_142mhz():
    pulse = optics.gaussian_pulse(3.11e-9, 0.02e-9, 60e-9)
    assert optics.spectral_fwhm(pulse) == pytest.approx(142e6, rel=0.02)


def test_time_bandwidth_product():
    for fwhm_t in (1.0e-9, 2.196e-9, 3.108e-9, 7.3e-9):
        pulse = optics.gaussian_pulse(fwhm_t, fwhm_t / 64.0, 24.0 * fwhm_t)
        tbp = optics.temporal_fwhm(pulse) * optics.spectral_fwhm(pulse)
        assert tbp == pytest.approx(optics.GAUSSIAN_TBP, rel=0.01)


def test_fwhm_halves_when_pulse_doubles():
    p1 = optics.gaussian_pulse(2.0e-9, 0.02e-9, 50e-9)
    p2 = optics.gaussian_pulse(4.0e-9, 0.02e-9, 80e-9)
    assert optics.spectral_fwhm(p1) == pytest.approx(
        2.0 * optics.spectral_fwhm(p2), rel=0.02
    )


def test_bandwidth_narrowing_ratio():
    # 201 MHz input vs 61 MHz output pulses: ~3.3x narrowing in frequency
    t_in = optics.GAUSSIAN_TBP / 201e6
    t_out = optics.GAUSSIAN_TBP / 61e6
    p_in = optics.gaussian_pulse(t_in, t_in / 64.0, 24 * t_in)
    p_out = optics.gaussian_pulse(t_out, t_out / 64.0, 24 * t_out)
    ratio = optics.spectral_fwhm(p_in) / optics.spectral_fwhm(p_out)
    assert ratio == pytest.approx(201.0 / 61.0, rel=0.03)


def test_pulse_energy_closed_form():
    fwhm = 3.0e-9
    pulse = optics.gaussian_pulse(fwhm, 0.01e-9, 60e-9)
    sigma_i = fwhm / math.sqrt(8.0 * math.log(2.0))
    analytic = math.sqrt(2.0 * math.pi) * sigma_i  # integral of unit-peak intensity
    assert pulse.energy() == pytest.approx(analytic, rel=1e-3)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.5, max_value=8.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_parseval_random_pulses(fwhm_ns, seed):
    rng = np.random.default_rng(seed)
    fwhm = fwhm_ns * 1e-9
    pulse = optics.gaussian_pulse(fwhm, fwhm / 32.0, 20.0 * fwhm)
    # random non-negative perturbation keeps the pulse valid
    samples = pulse.samples * (1.0 + 0.5 * rng.random(pulse.samples.size))
    noisy = optics.PulseShape(samples, pulse.dt_s, pulse.t0_s)
    spec = optics.spectrum_of(noisy)
    assert spec.energy() == pytest.approx(noisy.energy(), rel=1e-6)


def test_fwhm_of_peak_at_edge_errors():
    x = np.linspace(0.0, 1.0, 64)
    rising = x**2  # peak at the right edge, no crossing to the right
    with pytest.raises(ValueError):
        optics.fwhm_of(x, rising)


def test_pulse_shape_invariants():
    with pytest.raises(ValueError):
        optics.PulseShape(np.ones(8), 1e-10)  # too few samples
    with pytest.raises(ValueError):
        optics.PulseShape(-np.ones(32), 1e-10)
    with pytest.raises(ValueError):
        optics.PulseShape(np.zeros(32), 1e-10)  # zero energy

