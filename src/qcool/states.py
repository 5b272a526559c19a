"""Initial-state builders: displaced squeezed thermal modes and qudit states.

Displacement and squeezing are exponentials of real symmetric generators
in a diagonal phase gauge: with X = a + a^dag and Y = a^2 + a^dag^2,

    D(alpha) = P exp(-i |alpha| X) P^dag,  P = diag(e^{i n (arg alpha + pi/2)})
    S(z)     = Q exp(-i (r/2) Y) Q^dag,    Q = diag(e^{i n (theta/2 - pi/4)})

since P a P^dag = e^{-i(arg alpha + pi/2)} a.  The exponential is a real
eigendecomposition, which keeps the truncated operators exactly unitary.

A single mode's populations p_n = sum_j |u_nj|^2 w_j (u = D S, w the
thermal weights) are all the single-oscillator and star bright-mode
paths read, so `dst_populations` forms them without the density matrix;
`displaced_squeezed_thermal` builds the full matrix for the blocked
engine, which needs the coherences.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

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
        values = (self.alpha_mag, self.alpha_phase, self.r, self.theta,
                  self.nbar)
        if not all(math.isfinite(x) for x in values):
            raise ValueError(f"state parameters must be finite, got {values}")
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


def _gauged_expm(gen: np.ndarray, s: float, phase: float) -> np.ndarray:
    """G exp(-i s gen) G^dag with G = diag(e^{i n phase}), gen real symmetric."""
    g = np.exp(1j * phase * np.arange(gen.shape[0]))
    return expm_hermitian(gen, s) * np.outer(g, g.conj())


def displacement_op(alpha: complex, cutoff: int) -> np.ndarray:
    """D(alpha) = exp(alpha a^dag - alpha* a) on the truncated space."""
    a = lowering(cutoff).real
    return _gauged_expm(a + a.T, abs(alpha), np.angle(alpha) + np.pi / 2)


def squeezing_op(z: complex, cutoff: int) -> np.ndarray:
    """S(z) = exp((z* a^2 - z a^dag^2)/2); for real z > 0 squeezes x.

    S(r)|0> has Var(x) = exp(-2r)/2 and Var(p) = exp(+2r)/2 in the
    x = (a + a^dag)/sqrt(2) convention.
    """
    a = np.diagonal(lowering(cutoff), 1).real       # <n-1|a|n>
    a2 = np.diag(a[:-1] * a[1:], 2)
    return _gauged_expm(a2 + a2.T, abs(z) / 2, np.angle(z) / 2 - np.pi / 4)


_MARGIN = 30       # Fock levels built past the cutoff and truncated away
_LEAK_TOL = 1e-6   # largest population a builder may lose past the cutoff


@lru_cache(maxsize=1)
def _gaussian_unitary(alpha: complex, z: complex, dim: int) -> np.ndarray:
    """D(alpha) S(z) on `dim` levels, read-only.

    It does not depend on nbar, and every caller that sweeps nbar keeps
    alpha and z fixed, so one entry serves a whole sweep or bisection."""
    u = displacement_op(alpha, dim) @ squeezing_op(z, dim)
    u.setflags(write=False)
    return u


def _dst_build(p: DSTParams, cutoff: int) -> Tuple[np.ndarray, np.ndarray]:
    """D(alpha) S(z) and the thermal weights on cutoff + _MARGIN levels."""
    build = cutoff + _MARGIN
    return (_gaussian_unitary(p.alpha, p.z, build),
            _thermal_weights(p.nbar, build))


def _leak_check(leak: float, cutoff: int, leak_tol: float = _LEAK_TOL):
    if leak > leak_tol:
        raise TruncationError(
            f"state leaks {leak:.3e} past cutoff {cutoff}", leakage=leak)


def dst_populations(p: DSTParams, cutoff: int) -> np.ndarray:
    """Fock populations of `displaced_squeezed_thermal(p, cutoff)`, its
    real diagonal, without forming the density matrix.

    Same margin, leak check and renormalisation on the cutoff."""
    u, w = _dst_build(p, cutoff)
    pops = (u.real ** 2 + u.imag ** 2) @ w
    _leak_check(float(pops[cutoff:].sum()), cutoff)
    pops = pops[:cutoff]
    return pops / pops.sum()


def displaced_squeezed_thermal(p: DSTParams, cutoff: int,
                               leak_tol: float = _LEAK_TOL) -> np.ndarray:
    """D(alpha) S(z) rho_th(nbar) S(z)^dag D(alpha)^dag, renormalized.

    Built with _MARGIN extra Fock levels and truncated back, so the
    retained entries are cutoff-converged; raises TruncationError if the
    discarded tail exceeds leak_tol.
    """
    u, w = _dst_build(p, cutoff)
    rho = (u * w) @ u.conj().T
    _leak_check(float(np.real(np.trace(rho[cutoff:, cutoff:]))), cutoff,
                leak_tol)
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
