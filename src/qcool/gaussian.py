"""Gaussian (covariance-matrix) one-shot cooling limit.

Quadratures are interleaved (x1, p1, x2, p2, ...) with hbar = 1 and
vacuum covariance I/2.  Number-conserving quadratic Hamiltonians
H = sum_ij A_ij a_i^dag a_j act as symplectic rotations on the
quadratures; conditioning a subset of modes on a vacuum measurement is a
Schur-complement update.  This reproduces the one-shot cooling limit of
the measurement protocol without any Fock truncation.

There is one path (`oneshot_stack`): parameter arrays in, moments from
`dst_moments`, one transfer matrix, then `_vacuum_weight` and
`_condition` over moments stacked along a leading axis, so a grid of
one-shot runs is one pass of (n, 2, 2) `solve`, `det` and `inv` calls.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import ConfigError, ConstructionError
from .hilbert import expm_hermitian


def dst_moments(re_alpha, im_alpha, r, nbar) -> Tuple[np.ndarray, np.ndarray]:
    """Mean (..., 2) and covariance (..., 2, 2) of displaced squeezed
    thermal single-mode states, over parameters of any equal shape.

    The mean is sqrt(2) (Re alpha, Im alpha) and the covariance
    (nbar + 1/2) diag(e^{2r}, e^{-2r}): positive r widens the x
    quadrature and narrows p.  Raises ConfigError on a non-finite
    parameter or a negative nbar."""
    params = [np.asarray(x, dtype=float) for x in (re_alpha, im_alpha, r, nbar)]
    if not all(np.all(np.isfinite(x)) for x in params):
        raise ConfigError("alpha, r and nbar must be finite")
    re_alpha, im_alpha, r, nbar = params
    if np.any(nbar < 0):
        raise ConfigError(f"nbar must be >= 0, got {float(np.min(nbar))}")
    mean = np.sqrt(2.0) * np.stack([re_alpha, im_alpha], axis=-1)
    cov = np.zeros(nbar.shape + (2, 2))
    cov[..., 0, 0] = (nbar + 0.5) * np.exp(2 * r)
    cov[..., 1, 1] = (nbar + 0.5) * np.exp(-2 * r)
    return mean, cov


def symplectic_from_hamiltonian(a_mat: np.ndarray, t: float) -> np.ndarray:
    """Quadrature transfer matrix of exp(-i H t), H = sum A_ij a_i^dag a_j.

    A must be Hermitian.  With a(t) = U a(0), U = exp(-iAt), and
    x + ip = sqrt(2) a, r(t) = S r(0) has x(t) = Re U x - Im U p and
    p(t) = Im U x + Re U p, so S is real by construction; it is checked
    to be symplectic (S Omega S^T = Omega) to 1e-9."""
    a = np.asarray(a_mat, dtype=complex)
    m = a.shape[0]
    if a.shape != (m, m) or np.max(np.abs(a - a.conj().T)) > 1e-10:
        raise ConstructionError("coupling matrix must be square Hermitian")
    u = expm_hermitian(a, t)
    s = np.empty((2 * m, 2 * m))
    s[0::2, 0::2] = s[1::2, 1::2] = u.real
    s[0::2, 1::2] = -u.imag
    s[1::2, 0::2] = u.imag
    om = np.kron(np.eye(m), [[0.0, 1.0], [-1.0, 0.0]])
    err = np.max(np.abs(s @ om @ s.T - om))
    if err > 1e-9:
        raise ConstructionError(f"symplectic defect {err:.3e}")
    return s


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


# ------------------------------------------------------- one-shot result

@dataclass
class OneShotStack:
    """One-shot results at stacked points: arrays over the points, and
    the conditional system moments, mean (n, 2) and cov (n, 2, 2)."""
    fidelity: np.ndarray       # vacuum fidelity of the conditional state
    prob_formula: np.ndarray   # prob_projector / pi, the closed form at pi/2
    prob_projector: np.ndarray  # Tr[rho_reg |0><0|] before conditioning
    mean: np.ndarray
    cov: np.ndarray


def oneshot_stack(alpha1, alpha2, r, nbar,
                  t: float = np.pi / 2) -> OneShotStack:
    """Single swap-and-measure cycle on one Gaussian mode (Theorem 3) at
    every point (alpha1[i], alpha2[i], r[i], nbar[i]) of equal-length 1-D
    inputs, in one pass over the stacked moments: one transfer matrix,
    and `_vacuum_weight` and `_condition` on (n, 2, 2) stacks.  Every
    point gives what its length-1 run gives, bit for bit.

    The system mode starts displaced-squeezed-thermal (`dst_moments`,
    alpha = alpha1 + i alpha2), the regulator mode in vacuum; after a
    time-t exchange the regulator is measured.  At t = pi/2 the kept
    state is exact vacuum and the outcome probability equals the initial
    vacuum population of the system mode.

    Raises ConfigError, before any evolution, on unequal lengths, a
    non-finite or negative t, a non-finite parameter or a negative
    nbar."""
    a1, a2, r, nbar = (np.asarray(x, dtype=float).ravel()
                       for x in (alpha1, alpha2, r, nbar))
    if not len(a1) == len(a2) == len(r) == len(nbar):
        raise ConfigError("one-shot parameters must have equal lengths")
    if not (np.isfinite(t) and t >= 0):
        raise ConfigError(f"swap time must be finite and >= 0, got {t}")
    # the system mode's moments, then the regulator's vacuum
    sys_mean, sys_cov = dst_moments(a1, a2, r, nbar)
    mean = np.zeros((len(a1), 4))
    cov = np.zeros((len(a1), 4, 4))
    mean[:, :2], cov[:, :2, :2] = sys_mean, sys_cov
    cov[:, 2, 2] = cov[:, 3, 3] = 0.5
    # two resonant modes of frequency 1, exchange-coupled at 1: at
    # t = pi/2 they swap exactly
    s = symplectic_from_hamiltonian(np.array([[1.0, 1.0], [1.0, 1.0]]), t)
    mean, cov = (s @ mean[..., None])[..., 0], s @ cov @ s.T
    c_mean, c_cov, proj = _condition(mean, cov, [2, 3], [0, 1])
    return OneShotStack(_vacuum_weight(c_mean, c_cov, [0, 1]), proj / np.pi,
                        proj, c_mean, c_cov)
