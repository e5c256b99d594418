"""Maximum-likelihood two-qubit state reconstruction from projective
coincidence counts.

The state is parameterized as rho = L L^dag / Tr(L L^dag) with L lower
triangular (16 real parameters), which enforces Hermiticity, positivity and
unit trace by construction.  The Poisson log-likelihood is maximized with a
deterministic quasi-Newton optimizer; the overall flux scale is profiled
out analytically at every evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import states

_TRIL_R, _TRIL_C = np.tril_indices(4)
_OFF = _TRIL_R != _TRIL_C


@dataclass
class TomographyResult:
    rho: np.ndarray
    fidelity_to_target: float
    log_likelihood: float
    converged: bool
    iterations: int

    def to_json_dict(self) -> dict:
        return {
            "rho_pairs_row_major": states.density_matrix_to_pairs(self.rho),
            "fidelity_to_target": self.fidelity_to_target,
            "log_likelihood": self.log_likelihood,
            "converged": self.converged,
            "iterations": self.iterations,
        }


def _params_to_rho(params: np.ndarray) -> np.ndarray:
    lmat = np.zeros((4, 4), dtype=complex)
    lmat[_TRIL_R, _TRIL_C] = params[:10]
    lmat[_TRIL_R[_OFF], _TRIL_C[_OFF]] += 1j * params[10:]
    rho = lmat @ lmat.conj().T
    tr = np.real(rho.trace())
    if tr <= 0:
        return np.eye(4, dtype=complex) / 4.0
    return rho / tr


def _rho_to_params(rho: np.ndarray) -> np.ndarray:
    # Cholesky of a slightly regularized copy (reconstruction may be singular)
    lam, vec = np.linalg.eigh(rho)
    lam = np.clip(lam, 1e-9, None)
    reg = (vec * lam) @ vec.conj().T
    reg /= np.real(reg.trace())
    lmat = np.linalg.cholesky(reg)
    params = np.empty(16)
    params[:10] = np.real(lmat[_TRIL_R, _TRIL_C])
    params[10:] = np.imag(lmat[_TRIL_R[_OFF], _TRIL_C[_OFF]])
    return params


def linear_inversion(counts, settings) -> np.ndarray:
    """Least-squares state estimate projected onto the PSD cone."""
    amat = np.stack([s.joint().conj().reshape(-1) for s in settings])
    total = counts.sum()
    qsum_guess = len(settings) / 4.0  # rough normalization for product sets
    target = np.asarray(counts, dtype=float) / max(total / qsum_guess, 1e-12)
    vec, *_ = np.linalg.lstsq(amat, target, rcond=None)
    rho = vec.reshape(4, 4)
    rho = (rho + rho.conj().T) / 2.0
    lam, v = np.linalg.eigh(rho)
    lam = np.clip(lam, 0.0, None)
    if lam.sum() <= 0:
        return np.eye(4, dtype=complex) / 4.0
    rho = (v * lam) @ v.conj().T
    return rho / np.real(rho.trace())


def _neg_log_likelihood(params, counts, projectors):
    rho = _params_to_rho(params)
    q = np.real(np.einsum("kij,ji->k", projectors, rho))
    q = np.clip(q, 1e-12, None)
    scale = counts.sum() / q.sum()  # profiled flux
    mu = scale * q
    return float(np.sum(mu - counts * np.log(mu)))


def mle_tomography(counts, settings=None) -> TomographyResult:
    """Reconstruct the state behind a set of projective coincidence counts.

    counts: non-negative integers, one per setting.  The default settings
    are the 16 product projections; the fidelity is to |Phi+>.
    """
    if settings is None:
        settings = states.tomography_settings()
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (len(settings),):
        raise ValueError("counts and settings length mismatch")
    if (counts < 0).any():
        raise ValueError("counts must be non-negative")
    if counts.sum() <= 0:
        raise ValueError("total counts must be > 0")
    projectors = np.stack([s.joint() for s in settings])
    x0 = _rho_to_params(linear_inversion(counts, settings))
    result = minimize(
        _neg_log_likelihood,
        x0,
        args=(counts, projectors),
        method="L-BFGS-B",
        options={"maxiter": 2000, "gtol": 1e-8, "ftol": 1e-14},
    )
    # keep the better of init and final iterate; the optimizer already
    # guarantees monotone improvement, this is belt and braces
    best = result.x
    if _neg_log_likelihood(x0, counts, projectors) < result.fun:
        best = x0
    rho = _params_to_rho(best)
    rho = (rho + rho.conj().T) / 2.0
    return TomographyResult(
        rho=rho,
        fidelity_to_target=states.fidelity(rho, states.bell_phi_plus()),
        log_likelihood=-float(result.fun),
        converged=bool(result.success),
        iterations=int(result.nit),
    )


def expected_counts(rho, settings, total: float) -> np.ndarray:
    """Forward model: Born probabilities scaled to a given total."""
    q = np.array([states.outcome_probability(rho, s) for s in settings])
    return q * (total / q.sum())
