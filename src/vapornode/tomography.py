"""Maximum-likelihood two-qubit state reconstruction from projective
coincidence counts.

The state is parameterized as rho = L L^dag / Tr(L L^dag) with L lower
triangular (16 real parameters), which enforces Hermiticity, positivity and
unit trace by construction.  The overall flux scale is profiled out
analytically, and the Poisson likelihood is maximized on one of two paths:

- exact: with a square, full-rank set of settings (the 16 product settings
  of James et al., PRA 64, 052312, 2001) the model is saturated, so a
  strictly positive definite least-squares inversion reproduces the counts
  and is the maximum-likelihood state; it is returned with no iterations;
- boundary: otherwise BFGS with Armijo backtracking and the analytic
  gradient minimizes the negative log-likelihood in the Cholesky
  parameters p, starting from the clipped linear inversion.  Each Born
  probability is a fixed quadratic form there, Tr(P_k L L^dag) = p.G_k p
  with Tr(L L^dag) = p.p, so one fit builds G once and every evaluation
  is a few small matrix products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import states

_TRIL_R, _TRIL_C = np.tril_indices(4)
_OFF = _TRIL_R != _TRIL_C
# parameter j multiplies unit _UNIT[j] at L[_ROW[j], _COL[j]]: the ten real
# parts of the lower triangle, then the imaginary parts of the six below it
_ROW = np.concatenate([_TRIL_R, _TRIL_R[_OFF]])
_COL = np.concatenate([_TRIL_C, _TRIL_C[_OFF]])
_UNIT = np.concatenate([np.ones(10), np.full(6, 1j)])
# (L L^dag)_{ab} = sum_c L_{ac} conj(L_{bc}): two parameters meet only in
# the same column of L
_G_PHASE = np.where(_COL[:, None] == _COL[None, :],
                    _UNIT.conj()[:, None] * _UNIT[None, :], 0.0)
_Q_FLOOR = 1e-12  # smallest Born probability the likelihood evaluates
_MAX_ITERATIONS = 2000
_GTOL = 1e-9  # largest gradient entry at convergence, per count
_FTOL = 1e-15  # relative decrease per iteration that counts as converged


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


def _params_to_lmat(params: np.ndarray) -> np.ndarray:
    lmat = np.zeros((4, 4), dtype=complex)
    lmat[_TRIL_R, _TRIL_C] = params[:10]
    lmat[_TRIL_R[_OFF], _TRIL_C[_OFF]] += 1j * params[10:]
    return lmat


def _params_to_rho(params: np.ndarray) -> np.ndarray:
    lmat = _params_to_lmat(params)
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


def _design_matrix(settings) -> np.ndarray:
    return np.stack([s.joint().conj().reshape(-1) for s in settings])


def informationally_complete(settings) -> bool:
    """True when the settings' projectors span the two-qubit operators, so
    that their counts determine the state."""
    return np.linalg.matrix_rank(_design_matrix(settings), tol=1e-9) == 16


def _unclipped_inversion(counts, amat) -> np.ndarray:
    """Hermitian least-squares solution of amat @ vec(rho) = counts, scaled
    to a rough unit trace for product sets."""
    qsum_guess = amat.shape[0] / 4.0
    target = np.asarray(counts, dtype=float) / max(counts.sum() / qsum_guess,
                                                   1e-12)
    vec, *_ = np.linalg.lstsq(amat, target, rcond=None)
    rho = vec.reshape(4, 4)
    return (rho + rho.conj().T) / 2.0


def _psd_projection(rho) -> np.ndarray:
    """Unit-trace state with the negative eigenvalues of rho set to 0."""
    lam, v = np.linalg.eigh(rho)
    lam = np.clip(lam, 0.0, None)
    if lam.sum() <= 0:
        return np.eye(4, dtype=complex) / 4.0
    rho = (v * lam) @ v.conj().T
    return rho / np.real(rho.trace())


def linear_inversion(counts, settings) -> np.ndarray:
    """Least-squares state estimate projected onto the PSD cone."""
    return _psd_projection(
        _unclipped_inversion(np.asarray(counts), _design_matrix(settings)))


def _nll_of_q(q_raw, counts):
    """Negative log-likelihood of the Born probabilities q_raw with the
    flux profiled out, its derivative in each q, and the clipped q."""
    q = np.clip(q_raw, _Q_FLOOR, None)
    total, qsum = counts.sum(), q.sum()
    mu = (total / qsum) * q  # profiled flux
    nll = float(np.sum(mu - counts * np.log(mu)))
    # a clipped probability is constant and passes nothing on
    dq = np.where(q_raw > _Q_FLOOR, total / qsum - counts / q, 0.0)
    return nll, dq, q


def _profiled_nll(rho, counts, projectors):
    """_nll_of_q at the Born probabilities Re Tr(P_k rho)."""
    return _nll_of_q(np.real(np.einsum("kij,ji->k", projectors, rho)), counts)


def _neg_log_likelihood(params, counts, projectors):
    return _profiled_nll(_params_to_rho(params), counts, projectors)[0]


def _quadratic_forms(projectors) -> np.ndarray:
    """Real symmetric G with p.G_k p = Re Tr(P_k L L^dag) for the
    Cholesky parameters p of L."""
    return np.real(projectors[:, _ROW[:, None], _ROW[None, :]] * _G_PHASE)


def _nll_and_gradient(params, counts, gmat):
    """_neg_log_likelihood and its gradient in the Cholesky parameters,
    from the quadratic forms gmat of _quadratic_forms."""
    tr = params @ params  # > 0: BFGS starts at 1 and rejects a NaN step
    gp = gmat @ params
    nll, dq, q = _nll_of_q(gp @ params / tr, counts)
    # q_k = p.G_k p / p.p, so dq_k/dp = 2 (G_k p - q_k p) / p.p
    return nll, 2.0 * (dq @ gp - (dq @ q) * params) / tr


def _bfgs(fun, x0, gtol: float):
    """Minimize fun (returning value and gradient) by BFGS on the inverse
    Hessian with Armijo backtracking.  Returns (x, f, converged,
    iterations)."""
    x = x0
    f, g = fun(x)
    hinv = None  # no curvature pair yet
    for it in range(1, _MAX_ITERATIONS + 1):
        if np.abs(g).max() <= gtol:
            return x, f, True, it - 1
        p = None if hinv is None else -hinv @ g
        if p is None or g @ p >= 0:
            # steepest descent, 0.1 long (a unit-trace state has |params| = 1)
            hinv = None
            p = -0.1 * g / math.sqrt(g @ g)
        slope = g @ p
        alpha = 1.0
        for _ in range(60):
            x_new = x + alpha * p
            f_new, g_new = fun(x_new)
            if f_new <= f + 1e-4 * alpha * slope:
                break
            alpha *= 0.5
        else:  # no decrease left at working precision
            return x, f, True, it - 1
        s, y = x_new - x, g_new - g
        decrease = f - f_new
        x, f, g = x_new, f_new, g_new
        if decrease <= _FTOL * max(abs(f), 1.0):
            return x, f, True, it
        sy = s @ y
        yy = y @ y
        if sy > 1e-12 * math.sqrt(s @ s) * math.sqrt(yy):
            if hinv is None:  # the usual y.s / y.y scaling of the identity
                hinv = np.eye(x.size) * (sy / yy)
            r = 1.0 / sy
            hy = hinv @ y
            shy = np.outer(s, hy)
            hinv = (hinv - r * (shy + shy.T)
                    + (r * r * (y @ hy) + r) * np.outer(s, s))
    return x, f, False, _MAX_ITERATIONS


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
    amat = _design_matrix(settings)
    rho_ls = _unclipped_inversion(counts, amat)

    if (len(settings) == 16 and informationally_complete(settings)
            and np.linalg.eigvalsh(rho_ls).min() > 0):
        # saturated model: this state reproduces every count exactly
        rho = rho_ls / np.real(rho_ls.trace())
        nll = _profiled_nll(rho, counts, projectors)[0]
        converged, iterations = True, 0
    else:
        # BFGS only accepts decreases, so the fit is never worse than x0
        gmat = _quadratic_forms(projectors)
        x, nll, converged, iterations = _bfgs(
            lambda p: _nll_and_gradient(p, counts, gmat),
            _rho_to_params(_psd_projection(rho_ls)), _GTOL * counts.sum())
        rho = _params_to_rho(x)
        rho = (rho + rho.conj().T) / 2.0
    return TomographyResult(
        rho=rho,
        fidelity_to_target=states.fidelity(rho, states.bell_phi_plus()),
        log_likelihood=-float(nll),
        converged=bool(converged),
        iterations=int(iterations),
    )


def expected_counts(rho, settings, total: float) -> np.ndarray:
    """Forward model: Born probabilities scaled to a given total."""
    q = np.array([states.outcome_probability(rho, s) for s in settings])
    return q * (total / q.sum())
