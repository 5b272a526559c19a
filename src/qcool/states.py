"""Initial-state builders: displaced squeezed thermal modes and qudit states.

Displacement and squeezing exponentiate the anti-Hermitian generator G
as exp(-i H t) with H = -i G and t = -1, through a Hermitian
eigendecomposition that keeps the truncated operators exactly unitary.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import TruncationError
from .hilbert import expm_hermitian, lowering


@dataclass(frozen=True)
class DSTParams:
    """Parameters of a displaced squeezed thermal state.

    alpha = alpha_mag * exp(i alpha_phase), z = r * exp(i theta).
    """
    alpha_mag: float = 0.0
    alpha_phase: float = 0.0
    r: float = 0.0
    theta: float = 0.0
    nbar: float = 0.0

    def __post_init__(self):
        if self.nbar < 0 or self.r < 0 or self.alpha_mag < 0:
            raise ValueError("alpha_mag, r, nbar must be non-negative")

    @property
    def alpha(self) -> complex:
        return self.alpha_mag * np.exp(1j * self.alpha_phase)

    @property
    def z(self) -> complex:
        return self.r * np.exp(1j * self.theta)


def _thermal_weights(nbar: float, cutoff: int) -> np.ndarray:
    """Fock populations nbar^m/(1+nbar)^(m+1), renormalized on cutoff."""
    if nbar < 0:
        raise ValueError("nbar must be non-negative")
    if nbar == 0:
        return np.eye(1, cutoff)[0]
    w = (nbar / (1.0 + nbar)) ** np.arange(cutoff) / (1.0 + nbar)
    return w / w.sum()


def thermal_state(nbar: float, cutoff: int) -> np.ndarray:
    """Thermal state, diagonal nbar^m/(1+nbar)^(m+1), renormalized on cutoff."""
    return np.diag(_thermal_weights(nbar, cutoff)).astype(complex)


def displacement_op(alpha: complex, cutoff: int) -> np.ndarray:
    """D(alpha) = exp(alpha a^dag - alpha* a) on the truncated space."""
    a = lowering(cutoff)
    return expm_hermitian(-1j * (alpha * a.conj().T - np.conj(alpha) * a), -1.0)


def squeezing_op(z: complex, cutoff: int) -> np.ndarray:
    """S(z) = exp((z* a^2 - z a^dag^2)/2); for real z > 0 squeezes x.

    S(r)|0> has Var(x) = exp(-2r)/2 and Var(p) = exp(+2r)/2 in the
    x = (a + a^dag)/sqrt(2) convention.
    """
    a = lowering(cutoff)
    gen = 0.5 * (np.conj(z) * (a @ a) - z * (a.conj().T @ a.conj().T))
    return expm_hermitian(-1j * gen, -1.0)


@lru_cache(maxsize=1)
def _gaussian_unitary(alpha: complex, z: complex, dim: int) -> np.ndarray:
    """D(alpha) S(z) on `dim` levels, read-only.

    It does not depend on nbar, and every caller that sweeps nbar keeps
    alpha and z fixed, so one entry serves a whole sweep or bisection."""
    u = displacement_op(alpha, dim) @ squeezing_op(z, dim)
    u.setflags(write=False)
    return u


def displaced_squeezed_thermal(p: DSTParams, cutoff: int,
                               leak_tol: float = 1e-6) -> np.ndarray:
    """D(alpha) S(z) rho_th(nbar) S(z)^dag D(alpha)^dag, renormalized.

    Built with a margin of extra Fock levels and truncated back, so the
    retained entries are cutoff-converged; raises TruncationError if the
    discarded tail exceeds leak_tol.
    """
    build = cutoff + 30
    u = _gaussian_unitary(p.alpha, p.z, build)
    rho = (u * _thermal_weights(p.nbar, build)) @ u.conj().T
    leak = float(np.real(np.trace(rho[cutoff:, cutoff:])))
    if leak > leak_tol:
        raise TruncationError(
            f"state leaks {leak:.3e} past cutoff {cutoff}", leakage=leak)
    rho = rho[:cutoff, :cutoff]
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.real(np.trace(rho))


def depolarized_qudit(d_s: int) -> np.ndarray:
    """Half ground state, half maximally mixed: |0><0|/2 + I/(2 d_s)."""
    if d_s < 2:
        raise ValueError("d_s must be >= 2")
    rho = np.eye(d_s, dtype=complex) / (2.0 * d_s)
    rho[0, 0] += 0.5
    return rho


def mean_energy(rho: np.ndarray) -> float:
    """<n> = Tr(rho a^dag a) for a single-mode state in the Fock basis."""
    return float(np.real(np.sum(np.diag(rho) * np.arange(rho.shape[0]))))


def dst_mean_energy(p: DSTParams) -> float:
    """Closed form |alpha|^2 + sinh^2 r + nbar cosh 2r."""
    return p.alpha_mag ** 2 + np.sinh(p.r) ** 2 + p.nbar * np.cosh(2 * p.r)
