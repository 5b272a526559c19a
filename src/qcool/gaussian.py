"""Gaussian (covariance-matrix) description of the oscillator network.

Quadratures are interleaved (x1, p1, x2, p2, ...) with hbar = 1 and
vacuum covariance I/2.  Number-conserving quadratic Hamiltonians
H = sum_ij A_ij a_i^dag a_j act as symplectic rotations on the
quadratures; conditioning a subset of modes on a vacuum measurement is a
Schur-complement update.  This reproduces the one-shot cooling limit of
the measurement protocol without any Fock truncation.

The vacuum projection and the conditioning have one implementation
each (`_vacuum_weight`, `_condition`), over moments stacked along any
leading axes, so a grid of one-shot runs (`oneshot_stack`) is one pass
of (n, 2, 2) `solve`, `det` and `inv` calls, and a single state is the
unstacked case.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from .errors import ConstructionError
from .hilbert import block_diag, expm_hermitian


def _omega(modes: int) -> np.ndarray:
    blk = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(np.eye(modes), blk)


@dataclass
class GaussianState:
    """First and second moments, interleaved quadrature order."""
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.cov = np.asarray(self.cov, dtype=float)
        n = self.mean.shape[0]
        if n % 2 or self.cov.shape != (n, n):
            raise ConstructionError("moments must cover whole modes")
        if np.max(np.abs(self.cov - self.cov.T)) > 1e-10:
            raise ConstructionError("covariance matrix is not symmetric")

    @property
    def modes(self) -> int:
        return self.mean.shape[0] // 2


def vacuum(modes: int = 1) -> GaussianState:
    return GaussianState(np.zeros(2 * modes), 0.5 * np.eye(2 * modes))


def gaussian_dst(alpha: complex, r: float, nbar: float = 0.0) -> GaussianState:
    """Displaced squeezed thermal single-mode state.

    Covariance (nbar + 1/2) diag(e^{2r}, e^{-2r}): positive r widens the
    x quadrature and narrows p."""
    return GaussianState(*_dst_moments(np.real(alpha), np.imag(alpha), r, nbar))


def _dst_moments(re_alpha, im_alpha, r, nbar) -> Tuple[np.ndarray, np.ndarray]:
    """Mean (..., 2) and covariance (..., 2, 2) of `gaussian_dst`, over
    parameters of any equal shape."""
    nbar = np.asarray(nbar, dtype=float)
    if np.any(nbar < 0):
        raise ConstructionError("nbar must be >= 0")
    mean = np.sqrt(2.0) * np.stack([re_alpha, im_alpha], axis=-1)
    cov = np.zeros(nbar.shape + (2, 2))
    cov[..., 0, 0] = (nbar + 0.5) * np.exp(2 * np.asarray(r))
    cov[..., 1, 1] = (nbar + 0.5) * np.exp(-2 * np.asarray(r))
    return mean, cov


def product(states: Sequence[GaussianState]) -> GaussianState:
    """Direct sum of independent modes."""
    return GaussianState(np.concatenate([s.mean for s in states]),
                         block_diag(*[s.cov for s in states]))


def symplectic_from_hamiltonian(a_mat: np.ndarray, t: float) -> np.ndarray:
    """Quadrature transfer matrix of exp(-i H t), H = sum A_ij a_i^dag a_j.

    A must be Hermitian.  The result S satisfies r(t) = S r(0) and is
    checked to be symplectic (S Omega S^T = Omega) to 1e-9."""
    a = np.asarray(a_mat, dtype=complex)
    m = a.shape[0]
    if a.shape != (m, m) or np.max(np.abs(a - a.conj().T)) > 1e-10:
        raise ConstructionError("coupling matrix must be square Hermitian")
    e_low = expm_hermitian(a, t)                   # a(t) = e^{-iAt} a(0)
    ident = np.eye(m)
    l_half = np.block([[ident, ident], [-1j * ident, 1j * ident]]) / np.sqrt(2.0)
    e_full = np.block([[e_low, np.zeros((m, m))],
                       [np.zeros((m, m)), e_low.conj()]])
    s_stack = l_half @ e_full @ l_half.conj().T
    if np.max(np.abs(s_stack.imag)) > 1e-10:
        raise ConstructionError("transfer matrix came out complex")
    perm = np.zeros((2 * m, 2 * m))
    for k in range(m):
        perm[k, 2 * k] = 1.0
        perm[m + k, 2 * k + 1] = 1.0
    s = perm.T @ s_stack.real @ perm
    om = _omega(m)
    err = np.max(np.abs(s @ om @ s.T - om))
    if err > 1e-9:
        raise ConstructionError(f"symplectic defect {err:.3e}")
    return s


def evolve(state: GaussianState, s: np.ndarray) -> GaussianState:
    return GaussianState(s @ state.mean, s @ state.cov @ s.T)


def vacuum_projection_probability(state: GaussianState,
                                  modes: Sequence[int]) -> float:
    """Tr[rho |0><0|] over the listed modes (marginal of the rest)."""
    return float(_vacuum_weight(state.mean, state.cov, _quad_indices(modes)))


def condition_on_vacuum(state: GaussianState,
                        modes: Sequence[int]) -> Tuple[GaussianState, float]:
    """Conditional state of the remaining modes after finding the listed
    modes in vacuum, plus the outcome weight.

    The weight carries a 1/pi per measured mode on top of the projector
    expectation (the heterodyne density at the origin); the normalised
    projector probability is available separately."""
    keep = [m for m in range(state.modes) if m not in set(modes)]
    mean, cov, prob = _condition(state.mean, state.cov, _quad_indices(modes),
                                 _quad_indices(keep))
    return GaussianState(mean, cov), float(prob) / np.pi ** len(modes)


def _vacuum_weight(mean: np.ndarray, cov: np.ndarray,
                   idx: List[int]) -> np.ndarray:
    """Tr[rho |0><0|] over quadratures idx, for moments stacked over any
    leading axes: exp(-d^T sig^-1 d / 2) / sqrt(det sig) with
    sig = cov[idx, idx] + I/2 and d = mean[idx]."""
    idx = np.asarray(idx)
    sig = cov[..., idx[:, None], idx] + 0.5 * np.eye(len(idx))
    d = mean[..., idx]
    quad = d[..., None, :] @ np.linalg.solve(sig, d[..., None])
    return np.exp(-0.5 * quad[..., 0, 0]) / np.sqrt(np.linalg.det(sig))


def _condition(mean: np.ndarray, cov: np.ndarray, midx: List[int],
               kidx: List[int]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Moments of quadratures kidx conditioned on vacuum at quadratures
    midx, stacked over any leading axes, and the projector probability:
    the Schur complement cov_kk - G cov_km^T, G = cov_km (cov_mm + I/2)^-1,
    mean_k - G mean_m, with the covariance symmetrised."""
    midx, kidx = np.asarray(midx), np.asarray(kidx)
    sig_b = cov[..., midx[:, None], midx] + 0.5 * np.eye(len(midx))
    sig_ab = cov[..., kidx[:, None], midx]
    gain = sig_ab @ np.linalg.inv(sig_b)
    out = cov[..., kidx[:, None], kidx] - gain @ np.swapaxes(sig_ab, -1, -2)
    shift = (gain @ mean[..., midx, None])[..., 0]
    return (mean[..., kidx] - shift, 0.5 * (out + np.swapaxes(out, -1, -2)),
            _vacuum_weight(mean, cov, midx))


def _quad_indices(modes: Sequence[int]) -> List[int]:
    out = []
    for m in modes:
        out += [2 * m, 2 * m + 1]
    return out


# ------------------------------------------------------- one-shot result

def swap_coupling_matrix(omega: float = 1.0, lam: float = 1.0) -> np.ndarray:
    """Two resonant modes with an excitation-exchange coupling; at
    lam = omega = 1 and t = pi/2 the modes swap exactly."""
    return np.array([[omega, lam], [lam, omega]], dtype=float)


def oneshot_probability_formula(alpha1: float, alpha2: float, r: float,
                                nbar: float) -> float:
    """Closed form of the one-shot vacuum-outcome weight (with the 1/pi)."""
    e2r = np.exp(2 * r)
    num = np.exp(-2 * alpha1 ** 2 / (1 + e2r * (1 + 2 * nbar))
                 - 2 * e2r * alpha2 ** 2 / (1 + e2r + 2 * nbar))
    den = np.pi * np.sqrt((1 + nbar) ** 2 * np.cosh(r) ** 2
                          - nbar ** 2 * np.sinh(r) ** 2)
    return float(num / den)


@dataclass
class OneShotStack:
    """One-shot results at stacked points: arrays over the points, and
    the conditional system moments, mean (n, 2) and cov (n, 2, 2)."""
    fidelity: np.ndarray       # vacuum fidelity of the conditional state
    prob_formula: np.ndarray   # closed form, includes the 1/pi
    prob_projector: np.ndarray  # Tr[rho_reg |0><0|] before conditioning
    mean: np.ndarray
    cov: np.ndarray


@lru_cache(maxsize=1)
def _swap_transfer(t: float) -> np.ndarray:
    """Transfer matrix of the resonant swap at time t, read-only; a grid
    of one-shot runs at one t builds and checks it once."""
    s = symplectic_from_hamiltonian(swap_coupling_matrix(), t)
    s.setflags(write=False)
    return s


def oneshot_stack(alpha1, alpha2, r, nbar,
                  t: float = np.pi / 2) -> OneShotStack:
    """Single swap-and-measure cycle on one Gaussian mode (Theorem 3) at
    every point (alpha1[i], alpha2[i], r[i], nbar[i]) of equal-length 1-D
    inputs, in one pass over the stacked moments: one transfer matrix,
    and `_vacuum_weight` and `_condition` on (n, 2, 2) stacks.  Every
    point gives what its length-1 run gives, bit for bit.

    The system mode starts displaced-squeezed-thermal, the regulator mode
    in vacuum; after a time-t exchange the regulator is measured.  At
    t = pi/2 the kept state is exact vacuum and the outcome probability
    equals the initial vacuum population of the system mode.

    Raises ConstructionError, before any evolution, on a non-finite
    parameter, a negative nbar, or a non-finite or negative t."""
    a1, a2, r, nbar = (np.asarray(x, dtype=float).ravel()
                       for x in (alpha1, alpha2, r, nbar))
    if not len(a1) == len(a2) == len(r) == len(nbar):
        raise ConstructionError("one-shot parameters must have equal lengths")
    if not all(np.all(np.isfinite(x)) for x in (a1, a2, r, nbar)):
        raise ConstructionError("one-shot parameters must be finite")
    if not (np.isfinite(t) and t >= 0):
        raise ConstructionError(f"swap time must be finite and >= 0, got {t}")
    # the system mode's moments, then the regulator's vacuum
    sys_mean, sys_cov = _dst_moments(a1, a2, r, nbar)
    mean = np.zeros((len(a1), 4))
    cov = np.zeros((len(a1), 4, 4))
    mean[:, :2], cov[:, :2, :2] = sys_mean, sys_cov
    cov[:, 2, 2] = cov[:, 3, 3] = 0.5
    s = _swap_transfer(t)
    mean, cov = (s @ mean[..., None])[..., 0], s @ cov @ s.T
    c_mean, c_cov, proj = _condition(mean, cov, [2, 3], [0, 1])
    return OneShotStack(_vacuum_weight(c_mean, c_cov, [0, 1]), proj / np.pi,
                        proj, c_mean, c_cov)
