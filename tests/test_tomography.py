import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from vapornode import simulate, states, tomography
from vapornode.config import load_config


def _counts_for(rho, total=2_000_000.0):
    sets = states.tomography_settings()
    return np.round(tomography.expected_counts(rho, sets, total)).astype(int)


def test_exact_bell_counts_reconstruct_bell():
    res = tomography.mle_tomography(_counts_for(states.bell_phi_plus()))
    assert res.converged
    assert res.fidelity_to_target > 0.999
    states.validate_density_matrix(res.rho)


def test_exact_werner_counts_reconstruct_fidelity():
    a = 0.83
    res = tomography.mle_tomography(_counts_for(states.werner_state(a)))
    expected = (1.0 + 3.0 * a) / 4.0  # 0.8725
    assert res.fidelity_to_target == pytest.approx(expected, abs=0.01)


def test_maximally_mixed_counts():
    res = tomography.mle_tomography(_counts_for(states.maximally_mixed()))
    assert res.fidelity_to_target == pytest.approx(0.25, abs=0.02)
    assert np.allclose(res.rho, np.eye(4) / 4.0, atol=0.02)


def test_reconstruction_is_deterministic():
    counts = _counts_for(states.werner_state(0.7), total=50_000.0)
    r1 = tomography.mle_tomography(counts)
    r2 = tomography.mle_tomography(counts)
    assert np.array_equal(r1.rho, r2.rho)
    assert r1.fidelity_to_target == r2.fidelity_to_target


def test_mle_not_worse_than_linear_inversion():
    rng = np.random.default_rng(11)
    sets = states.tomography_settings()
    projectors = np.stack([s.joint() for s in sets])
    for _ in range(5):
        rho_true = states.random_density_matrix(rng)
        mean = tomography.expected_counts(rho_true, sets, 20_000.0)
        counts = rng.poisson(mean)
        if counts.sum() == 0:
            continue
        res = tomography.mle_tomography(counts)
        init = tomography.linear_inversion(counts, sets)
        ll_init = -tomography._neg_log_likelihood(
            tomography._rho_to_params(init), counts.astype(float), projectors
        )
        ll_mle = -tomography._neg_log_likelihood(
            tomography._rho_to_params(res.rho), counts.astype(float), projectors
        )
        assert ll_mle >= ll_init - 1e-6


def lbfgsb_fit(counts, settings):
    """(nll, params) that scipy's L-BFGS-B (finite-difference gradient)
    reaches from the same starting point, never above the start.  Also used
    by tests/mle_parity.py."""
    counts = np.asarray(counts, dtype=float)
    projectors = np.stack([s.joint() for s in settings])
    x0 = tomography._rho_to_params(tomography.linear_inversion(counts, settings))
    res = minimize(tomography._neg_log_likelihood, x0,
                   args=(counts, projectors), method="L-BFGS-B",
                   options={"maxiter": 2000, "gtol": 1e-8, "ftol": 1e-14})
    f0 = tomography._neg_log_likelihood(x0, counts, projectors)
    return (res.fun, res.x) if res.fun <= f0 else (f0, x0)


@pytest.mark.parametrize("duration", [1.0, 6.0, 12.5])
def test_mle_matches_scipy_lbfgsb(duration):
    base = load_config()
    for seed in range(10):
        cfg = dataclasses.replace(base, seed=seed)
        tc = simulate.run_tomography(cfg, duration_per_setting_s=duration)
        res = tomography.mle_tomography(tc.counts, tc.settings)
        assert res.converged
        ref, _ = lbfgsb_fit(tc.counts, tc.settings)
        assert -res.log_likelihood <= ref + 1e-6 * abs(ref)
        states.validate_density_matrix(res.rho)


def _near_pure_counts():
    # eigenvalues 5e-10: below the 1e-9 floor of the Cholesky start, so only
    # the exact path returns this state without iterating
    eps = 2e-9
    rho = (1.0 - eps) * states.bell_phi_plus() + eps * np.eye(4) / 4.0
    return _counts_for(rho, total=1e12)


@pytest.mark.parametrize("counts", [
    _counts_for(states.werner_state(0.83), total=200_000.0),
    _near_pure_counts(),
], ids=["werner", "near_pure"])
def test_exact_path_on_positive_definite_inversion(counts):
    sets = states.tomography_settings()
    rho_ls = tomography._unclipped_inversion(
        counts.astype(float), tomography._design_matrix(sets))
    assert np.linalg.eigvalsh(rho_ls).min() > 0
    res = tomography.mle_tomography(counts)
    assert res.iterations == 0
    assert res.converged
    states.validate_density_matrix(res.rho)
    # the saturated model reproduces every count
    assert np.allclose(tomography.expected_counts(res.rho, sets, counts.sum()),
                       counts, rtol=1e-9, atol=1e-12 * counts.sum())
    ref, _ = lbfgsb_fit(counts, sets)
    assert -res.log_likelihood <= ref + 1e-12 * abs(ref)


def test_no_exact_path_without_square_complete_settings():
    # the 36 settings of all six polarizations are complete but not square:
    # the model is not saturated, so the optimizer runs even when the linear
    # inversion is positive definite
    sets = _all_six_settings()
    rng = np.random.default_rng(3)
    counts = rng.poisson(tomography.expected_counts(
        states.werner_state(0.83), sets, 200_000.0))
    rho_ls = tomography._unclipped_inversion(
        counts.astype(float), tomography._design_matrix(sets))
    assert np.linalg.eigvalsh(rho_ls).min() > 0
    res = tomography.mle_tomography(counts, sets)
    assert res.iterations > 0
    assert res.converged
    ref, _ = lbfgsb_fit(counts, sets)
    assert -res.log_likelihood <= ref + 1e-6 * abs(ref)


def test_informationally_complete():
    # H + V = D + A = I, so these 16 square settings span only 9 dimensions
    hvda = [states.MeasurementSetting(a + b) for a in "HVDA" for b in "HVDA"]
    assert tomography.informationally_complete(states.tomography_settings())
    assert tomography.informationally_complete(_all_six_settings())
    assert not tomography.informationally_complete(hvda)
    assert not tomography.informationally_complete(hvda[:4])
    # square but not complete: no exact path even where the least-squares
    # inversion is positive definite
    counts = np.random.default_rng(3).poisson(tomography.expected_counts(
        states.werner_state(0.3), hvda, 200_000.0))
    rho_ls = tomography._unclipped_inversion(
        counts.astype(float), tomography._design_matrix(hvda))
    assert np.linalg.eigvalsh(rho_ls).min() > 0
    assert tomography.mle_tomography(counts, hvda).iterations > 0


def _all_six_settings():
    labels = "HVDARL"
    return [states.MeasurementSetting(a + b) for a in labels for b in labels]


@pytest.mark.parametrize("sets", [states.tomography_settings(),
                                  _all_six_settings()], ids=["16", "36"])
def test_quadratic_forms_give_born_probabilities(sets):
    projectors = np.stack([s.joint() for s in sets])
    gmat = tomography._quadratic_forms(projectors)
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = rng.normal(size=16)
        rho = tomography._params_to_rho(p)
        q = np.real(np.einsum("kij,ji->k", projectors, rho))
        assert np.abs(gmat @ p @ p / (p @ p) - q).max() < 1e-13


@pytest.mark.parametrize("sets", [states.tomography_settings(),
                                  _all_six_settings()], ids=["16", "36"])
def test_gradient_matches_central_differences(sets):
    projectors = np.stack([s.joint() for s in sets])
    gmat = tomography._quadratic_forms(projectors)
    rng = np.random.default_rng(6)
    counts = rng.poisson(1000.0, size=len(sets)).astype(float)
    for _ in range(3):
        p = rng.normal(size=16)
        nll, grad = tomography._nll_and_gradient(p, counts, gmat)
        ref = tomography._neg_log_likelihood(p, counts, projectors)
        assert nll == pytest.approx(ref, rel=1e-12)
        h = 1e-6
        num = np.array([
            (tomography._neg_log_likelihood(p + h * e, counts, projectors)
             - tomography._neg_log_likelihood(p - h * e, counts, projectors))
            / (2.0 * h) for e in np.eye(16)])
        assert np.allclose(grad, num, rtol=1e-6, atol=1e-6 * counts.sum())


def test_noisy_counts_still_close():
    rng = np.random.default_rng(4)
    rho_true = states.werner_state(0.83)
    sets = states.tomography_settings()
    mean = tomography.expected_counts(rho_true, sets, 200_000.0)
    res = tomography.mle_tomography(rng.poisson(mean))
    assert states.fidelity(res.rho, rho_true) > 0.99


@hyp_settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_reconstruction_always_physical(seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 500, size=16)
    if counts.sum() == 0:
        counts[0] = 1
    res = tomography.mle_tomography(counts)
    states.validate_density_matrix(res.rho)  # PSD, unit trace, Hermitian
    assert 0.0 <= res.fidelity_to_target <= 1.0 + 1e-9


def test_input_validation():
    with pytest.raises(ValueError):
        tomography.mle_tomography(np.ones(15))
    with pytest.raises(ValueError):
        tomography.mle_tomography(np.append(np.ones(15), -1.0))
    with pytest.raises(ValueError):
        tomography.mle_tomography(np.zeros(16))


def test_result_serializes():
    res = tomography.mle_tomography(_counts_for(states.werner_state(0.5)))
    d = res.to_json_dict()
    back = states.density_matrix_from_pairs(d["rho_pairs_row_major"])
    assert np.allclose(back, res.rho, atol=1e-12)
    assert isinstance(d["converged"], bool)


def test_expected_counts_normalization():
    sets = states.tomography_settings()
    mean = tomography.expected_counts(states.bell_phi_plus(), sets, 1000.0)
    assert mean.sum() == pytest.approx(1000.0)
    assert (mean >= 0).all()
