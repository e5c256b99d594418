import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vapornode import states

RT2 = math.sqrt(2.0)


def test_basis_order_and_kets():
    assert states.BASIS_LABELS == ("HH", "HV", "VH", "VV")
    for a, b in (("H", "V"), ("D", "A"), ("R", "L")):
        assert abs(np.vdot(states.ket(a), states.ket(b))) < 1e-12
    with pytest.raises(ValueError):
        states.ket("X")


def test_projectors_idempotent_rank1():
    for lab in "HVDARL":
        p = states.projector(lab)
        assert np.allclose(p @ p, p, atol=1e-12)
        assert np.allclose(p, p.conj().T, atol=1e-12)
        assert abs(np.trace(p) - 1.0) < 1e-12


def test_bell_phi_plus_entries():
    rho = states.bell_phi_plus()
    expected = np.zeros((4, 4), dtype=complex)
    for i, j in ((0, 0), (0, 3), (3, 0), (3, 3)):
        expected[i, j] = 0.5
    assert np.allclose(rho, expected, atol=1e-15)
    assert abs(np.trace(rho @ rho) - 1.0) < 1e-12  # purity
    assert states.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)


def test_werner_limits():
    assert np.allclose(states.werner_state(1.0), states.bell_phi_plus())
    assert np.allclose(states.werner_state(0.0), states.maximally_mixed())
    with pytest.raises(ValueError):
        states.werner_state(1.5)


@pytest.mark.parametrize("a", [0.0, 0.5, 0.7, 1.0])
def test_werner_fidelity_closed_form(a):
    f = states.fidelity(states.werner_state(a), states.bell_phi_plus())
    assert f == pytest.approx((1.0 + 3.0 * a) / 4.0, abs=1e-10)


def test_fidelity_pure_vs_mixed():
    f = states.fidelity(states.bell_phi_plus(), states.maximally_mixed())
    assert f == pytest.approx(0.25, abs=1e-10)


def test_fidelity_rejects_invalid():
    bad = np.eye(4, dtype=complex)  # trace 4
    with pytest.raises(ValueError):
        states.fidelity(bad, states.maximally_mixed())
    non_psd = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        states.fidelity(non_psd, states.maximally_mixed())


def test_fidelity_from_snr_values():
    assert states.fidelity_from_snr(9.8) == pytest.approx(0.873, abs=1e-3)
    assert states.fidelity_from_snr(0.0) == pytest.approx(0.25, abs=1e-12)
    assert states.fidelity_from_snr(4.667) == pytest.approx(0.775, abs=1e-4)
    with pytest.raises(ValueError):
        states.fidelity_from_snr(-0.1)


def test_fidelity_from_snr_array():
    snr = np.array([0.0, 0.3, 1.0, 9.8, 31.0, math.inf])
    f = states.fidelity_from_snr(snr)
    assert f.tolist() == [states.fidelity_from_snr(float(x)) for x in snr]
    assert isinstance(states.fidelity_from_snr(9.8), float)
    for bad in ([1.0, -0.1], np.array([[2.0], [-1e-300]])):
        with pytest.raises(ValueError, match="snr must be >= 0"):
            states.fidelity_from_snr(bad)


def test_snr_werner_roundtrip():
    assert states.snr_from_werner_a(1.0 / 3.0) == pytest.approx(1.0, abs=1e-12)
    assert states.fidelity_from_snr(1.0) == pytest.approx(0.5, abs=1e-12)
    assert states.snr_from_werner_a(0.0) == 0.0
    assert math.isinf(states.snr_from_werner_a(1.0))
    # inverse of the closed form a = SNR / (SNR + 2)
    for snr in (0.0, 0.3, 1.0, 9.8, 31.0):
        assert states.snr_from_werner_a(snr / (snr + 2.0)) == pytest.approx(
            snr, rel=1e-12)


def test_eq2_consistency_grid():
    # fidelity_from_snr on snr(a) equals the Uhlmann fidelity on Werner states
    for a in np.linspace(0.0, 0.999, 100):
        snr = states.snr_from_werner_a(a)
        direct = states.fidelity(states.werner_state(a), states.bell_phi_plus())
        assert states.fidelity_from_snr(snr) == pytest.approx(direct, abs=1e-10)


def test_chsh_known_values():
    assert states.chsh_max(states.bell_phi_plus()) == pytest.approx(
        2.0 * RT2, abs=1e-10
    )
    assert states.chsh_max(states.werner_state(0.70)) == pytest.approx(
        1.980, abs=2e-3
    )
    assert states.chsh_max(states.maximally_mixed()) == pytest.approx(0.0, abs=1e-10)


def test_chsh_werner_linear():
    for a in np.linspace(0, 1, 21):
        assert states.chsh_max(states.werner_state(a)) == pytest.approx(
            2.0 * RT2 * a, abs=1e-9
        )


def test_outcome_probabilities():
    phi = states.bell_phi_plus()
    hh = states.MeasurementSetting("HH")
    hv = states.MeasurementSetting("HV")
    assert states.outcome_probability(phi, hh) == pytest.approx(0.5, abs=1e-12)
    assert states.outcome_probability(phi, hv) == pytest.approx(0.0, abs=1e-12)
    dd = states.MeasurementSetting("DD")
    for a in (0.0, 0.3, 1.0):
        assert states.outcome_probability(
            states.werner_state(a), dd
        ) == pytest.approx((1.0 + a) / 4.0, abs=1e-12)


def test_tomography_settings_complete():
    settings_list = states.tomography_settings()
    assert len(settings_list) == 16
    vecs = np.stack([s.joint().reshape(-1) for s in settings_list])
    assert np.linalg.matrix_rank(vecs, tol=1e-9) == 16


def test_setting_projectors_cached_read_only():
    for setting in states.tomography_settings():
        pa, pb = (states.projector(c) for c in setting.label)
        for arr, ref in ((setting.joint(), np.kron(pa, pb)),
                         (setting.marginal_a(), np.kron(pa, np.eye(2)))):
            assert np.array_equal(arr, ref)
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0
        assert setting.joint() is setting.joint()
        # built once per label, not once per setting object
        again = states.MeasurementSetting(setting.label)
        assert again.joint() is setting.joint()


def test_settings_compare_and_hash_by_label():
    defaults = states.tomography_settings()
    assert len(set(defaults)) == 16
    rebuilt = [states.MeasurementSetting(s.label) for s in defaults]
    assert states.MeasurementSetting("HV") == defaults[1]
    assert rebuilt == defaults
    assert set(rebuilt) == set(defaults)
    assert {s: i for i, s in enumerate(defaults)}[rebuilt[5]] == 5
    assert states.MeasurementSetting("HV") != states.MeasurementSetting("VH")
    for label in ("HX", "H", "HVD", "", "hv", 7):
        with pytest.raises(ValueError, match="malformed setting"):
            states.MeasurementSetting(label)


def test_tomography_settings_new_list_per_call():
    first, second = states.tomography_settings(), states.tomography_settings()
    assert first is not second
    assert all(a is b for a, b in zip(first, second))
    first.pop()
    assert len(states.tomography_settings()) == 16


def test_serialization_roundtrip():
    rng = np.random.default_rng(7)
    rho = states.random_density_matrix(rng)
    pairs = states.density_matrix_to_pairs(rho)
    back = states.density_matrix_from_pairs(pairs)
    assert np.allclose(back, rho, atol=1e-15)
    with pytest.raises(ValueError):
        states.density_matrix_from_pairs([[1.0, 0.0]])


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.booleans())
def test_random_states_valid(seed, pure):
    rho = states.random_density_matrix(np.random.default_rng(seed), pure=pure)
    states.validate_density_matrix(rho)  # must not raise


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_fidelity_symmetric_and_bounded(seed):
    rng = np.random.default_rng(seed)
    rho, sig = states.random_density_matrix(rng), states.random_density_matrix(rng)
    f1, f2 = states.fidelity(rho, sig), states.fidelity(sig, rho)
    assert abs(f1 - f2) < 1e-10
    assert 0.0 <= f1 <= 1.0


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_chsh_bounded(seed):
    rho = states.random_density_matrix(np.random.default_rng(seed))
    s = states.chsh_max(rho)
    assert 0.0 <= s <= 2.0 * RT2 + 1e-9


def test_validate_density_matrix_shapes():
    with pytest.raises(ValueError):
        states.validate_density_matrix(np.eye(2) / 2.0)
