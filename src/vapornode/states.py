"""Two-qubit polarization state algebra.

Basis ordering is fixed as (HH, HV, VH, VV) everywhere in this package;
qubit A is the telecom arm, qubit B is the NIR arm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

BASIS_LABELS = ("HH", "HV", "VH", "VV")

# Single-qubit polarization kets.  R = (H - iV)/sqrt(2), L = (H + iV)/sqrt(2).
_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2),
    "A": np.array([1.0, -1.0], dtype=complex) / math.sqrt(2),
    "R": np.array([1.0, -1.0j], dtype=complex) / math.sqrt(2),
    "L": np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2),
}

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = -1e-10


def ket(label: str) -> np.ndarray:
    """Single-qubit ket for a polarization label in {H, V, D, A, R, L}."""
    try:
        return _KETS[label].copy()
    except KeyError:
        raise ValueError(f"unknown polarization label {label!r}") from None


def projector(label: str) -> np.ndarray:
    """Rank-1 projector |label><label| on one qubit."""
    v = ket(label)
    return np.outer(v, v.conj())


@lru_cache(maxsize=None)
def _product_projectors(label: str) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (P_a (x) P_b, P_a (x) I) for a two-letter label, built
    once per label."""
    pa, pb = projector(label[0]), projector(label[1])
    arrays = (np.kron(pa, pb), np.kron(pa, np.eye(2)))
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@dataclass(frozen=True)
class MeasurementSetting:
    """One joint polarization projection, named by two kets: the telecom
    arm's, then the NIR arm's (e.g. "HV").  Settings compare and hash by
    label."""

    label: str

    def __post_init__(self):
        if not (isinstance(self.label, str) and len(self.label) == 2
                and all(c in _KETS for c in self.label)):
            raise ValueError(f"malformed setting {self.label!r}")

    def joint(self) -> np.ndarray:
        """4x4 joint projector P_a (x) P_b in the (HH, HV, VH, VV) basis."""
        return _product_projectors(self.label)[0]

    def marginal_a(self) -> np.ndarray:
        """4x4 telecom-arm marginal P_a (x) I."""
        return _product_projectors(self.label)[1]


@lru_cache(maxsize=1)
def _default_settings() -> tuple[MeasurementSetting, ...]:
    labels = "HVDR"
    return tuple(MeasurementSetting(a + b) for a in labels for b in labels)


def tomography_settings() -> list[MeasurementSetting]:
    """The 16 product settings {H, V, D, R} x {H, V, D, R}.

    This set is informationally complete for two qubits.  The settings are
    built on the first call and shared; each call returns a new list.
    """
    return list(_default_settings())


def validate_density_matrix(rho: np.ndarray) -> None:
    """Raise ValueError unless rho is a valid 4x4 two-qubit density matrix."""
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    herm = np.linalg.norm(rho - rho.conj().T)
    if herm >= HERMITICITY_TOL:
        raise ValueError(f"matrix not Hermitian: ||rho - rho^dag|| = {herm:.3e}")
    tr = rho.trace()
    if abs(tr - 1.0) >= TRACE_TOL:
        raise ValueError(f"trace is {tr}, expected 1")
    lam = np.linalg.eigvalsh(rho)
    if lam.min() < PSD_TOL:
        raise ValueError(f"matrix not PSD: min eigenvalue {lam.min():.3e}")


def bell_phi_plus() -> np.ndarray:
    """|Phi+><Phi+| with |Phi+> = (|HH> + |VV>)/sqrt(2)."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / math.sqrt(2)
    return np.outer(psi, psi.conj())


def maximally_mixed() -> np.ndarray:
    return np.eye(4, dtype=complex) / 4.0


def werner_state(a: float) -> np.ndarray:
    """Werner mixture a |Phi+><Phi+| + (1-a)/4 I."""
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"mixing parameter must be in [0, 1], got {a}")
    return a * bell_phi_plus() + (1.0 - a) * maximally_mixed()


def _sqrt_psd(mat: np.ndarray) -> np.ndarray:
    """Matrix square root by eigendecomposition, clamping small negative
    eigenvalues to zero (numerical noise from reconstruction)."""
    lam, vec = np.linalg.eigh(mat)
    lam = np.clip(lam, 0.0, None)
    return (vec * np.sqrt(lam)) @ vec.conj().T


def fidelity(rho: np.ndarray, rho0: np.ndarray) -> float:
    """Uhlmann fidelity F = (Tr sqrt(sqrt(rho0) rho sqrt(rho0)))^2."""
    validate_density_matrix(rho)
    validate_density_matrix(rho0)
    # rank-1 fast path: for a pure state the fidelity reduces to an overlap
    # trace, which avoids the eigendecomposition noise of the general route
    for a, b in ((rho0, rho), (rho, rho0)):
        if abs(np.real(np.trace(a @ a)) - 1.0) < 1e-12:
            f = float(np.real(np.trace(np.asarray(a) @ np.asarray(b))))
            return min(max(f, 0.0), 1.0)
    s = _sqrt_psd(np.asarray(rho0))
    inner = _sqrt_psd(s @ np.asarray(rho) @ s)
    f = float(np.real(inner.trace())) ** 2
    return min(max(f, 0.0), 1.0)


def fidelity_from_snr(snr):
    """Werner-model fidelity to |Phi+>: F = 1 - 3 / (2 (SNR + 2)), for a
    scalar or an array of SNRs."""
    s = np.asarray(snr, dtype=float)
    if (s < 0).any():
        raise ValueError(f"snr must be >= 0, got {s.min()}")
    f = 1.0 - 3.0 / (2.0 * (s + 2.0))
    return f if f.ndim else float(f)


def snr_from_fidelity(f: float) -> float:
    """Inverse of fidelity_from_snr; valid for f in [0.25, 1)."""
    if not 0.25 <= f < 1.0:
        raise ValueError(f"fidelity must be in [0.25, 1), got {f}")
    return 1.5 / (1.0 - f) - 2.0


def snr_from_werner_a(a: float) -> float:
    """SNR = 2a / (1 - a); a = 1 maps to +inf."""
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"mixing parameter must be in [0, 1], got {a}")
    if a == 1.0:
        return math.inf
    return 2.0 * a / (1.0 - a)


def correlation_matrix(rho: np.ndarray) -> np.ndarray:
    """3x3 matrix T_ij = Tr(rho sigma_i (x) sigma_j)."""
    rho = np.asarray(rho)
    t = np.empty((3, 3))
    for i, si in enumerate(PAULI):
        for j, sj in enumerate(PAULI):
            t[i, j] = np.real(np.trace(rho @ np.kron(si, sj)))
    return t


def chsh_max(rho: np.ndarray) -> float:
    """Maximal CHSH value by the Horodecki criterion.

    S = 2 sqrt(m1 + m2) where m1, m2 are the two largest eigenvalues of
    T^T T.  For Werner states this reduces to 2 sqrt(2) a.
    """
    validate_density_matrix(rho)
    t = correlation_matrix(rho)
    m = np.sort(np.linalg.eigvalsh(t.T @ t))
    return 2.0 * math.sqrt(max(m[-1] + m[-2], 0.0))


def outcome_probability(rho: np.ndarray, setting: MeasurementSetting) -> float:
    """Born-rule probability Tr(rho P_a (x) P_b)."""
    p = float(np.real(np.trace(np.asarray(rho) @ setting.joint())))
    return min(max(p, 0.0), 1.0)


def random_density_matrix(rng: np.random.Generator, pure: bool = False) -> np.ndarray:
    """Random two-qubit state from the Ginibre ensemble."""
    if pure:
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        return np.outer(psi, psi.conj())
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho /= rho.trace()
    # symmetrize away the last few ulps so the Hermiticity check is exact
    return (rho + rho.conj().T) / 2.0


def density_matrix_to_pairs(rho: np.ndarray) -> list[list[float]]:
    """Serialize as 16 (real, imag) pairs in row-major order."""
    flat = np.asarray(rho).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def density_matrix_from_pairs(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    if arr.shape != (16, 2):
        raise ValueError(f"expected 16 (real, imag) pairs, got shape {arr.shape}")
    return (arr[:, 0] + 1j * arr[:, 1]).reshape(4, 4)
