"""Initial-state builders: displaced squeezed thermal modes and qudit states.

rho = D(alpha) S(z) rho_th(nbar) S(z)^dag D(alpha)^dag is Gaussian, so its
Fock populations and matrix elements have closed forms in the moments of
the centred state S(z) rho_th S(z)^dag,

    n_s = <a^dag a> = nbar cosh 2r + sinh^2 r,
    m_s = <a^2>     = -(nbar + 1/2) e^{i theta} sinh 2r.

`dst_populations` (Dodonov, Man'ko & Man'ko, PRA 1994): with w = 1 - z,
lam+- = n_s +- |m_s| and b = n_s |alpha|^2 - Re(m_s conj(alpha)^2), the
photon-number generating function is

    G(z) = sum_n p_n z^n
         = exp(-w (|alpha|^2 + w b) / ((1 + w lam+)(1 + w lam-)))
           / (sqrt(1 + w lam+) sqrt(1 + w lam-)),

principal roots: lam- > -1/2, so Re(1 + w lam) >= 0 on |z| = 1.  The
populations are its FFT on the unit circle, O(K log K).

`displaced_squeezed_thermal`: with P = n_s + 1, Delta = P^2 - |m_s|^2,
c = P / Delta, s = m_s / Delta and a = c alpha - s conj(alpha),

    rho_00      = exp(-c |alpha|^2 + Re(s conj(alpha)^2)) / sqrt(Delta)
    rho_0,j+1   = (conj(a) rho_0j + conj(s) sqrt(j) rho_0,j-1) / sqrt(j+1)
    rho_m+1,n   = (a rho_mn + s sqrt(m) rho_m-1,n
                   + (1 - c) sqrt(n) rho_m,n-1) / sqrt(m+1),

O(N^2) with no eigendecomposition.

Both describe the untruncated state: the population past the cutoff is
the leakage, bounded by 1e-6, and the kept levels are renormalised.  The
single-oscillator and star bright-mode paths read populations only; the
blocked engine needs the coherences.

`displacement_op` and `squeezing_op` build D and S on a truncated space,
as exponentials of real symmetric generators in a diagonal phase gauge:
with X = a + a^dag and Y = a^2 + a^dag^2,

    D(alpha) = P exp(-i |alpha| X) P^dag,  P = diag(e^{i n (arg alpha + pi/2)})
    S(z)     = Q exp(-i (r/2) Y) Q^dag,    Q = diag(e^{i n (theta/2 - pi/4)})

since P a P^dag = e^{-i(arg alpha + pi/2)} a.  State preparation uses them,
and D S rho_th S^dag D^dag on a wider space is the test oracle of both kernels.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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


def thermal_state(nbar: float, cutoff: int) -> np.ndarray:
    """Thermal state, diagonal nbar^m/(1+nbar)^(m+1), renormalized on cutoff."""
    if nbar < 0:
        raise ValueError("nbar must be non-negative")
    w = (nbar / (1.0 + nbar)) ** np.arange(cutoff)
    return np.diag(w / w.sum()).astype(complex)


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


_LEAK_TOL = 1e-6     # largest population a state may lose past the cutoff
_ALIAS_TOL = 1e-15   # population the upper half of the FFT grid may hold
# largest FFT grid: a state with population past 2^17 levels is far past
# any usable cutoff, and its folded populations still fail the leak check
_FFT_MAX = 1 << 18


def _moments(p: DSTParams) -> Tuple[float, complex]:
    """n_s = <a^dag a> and m_s = <a^2> of the centred S(z) rho_th S(z)^dag."""
    n_s = p.nbar * math.cosh(2 * p.r) + math.sinh(p.r) ** 2
    m_s = -(p.nbar + 0.5) * math.sinh(2 * p.r) * np.exp(1j * p.theta)
    return n_s, m_s


def _leak_check(leak: float, cutoff: int, leak_tol: float = _LEAK_TOL):
    if leak > leak_tol:
        raise TruncationError(
            f"state leaks {leak:.3e} past cutoff {cutoff}", leakage=leak)


def dst_populations(p: DSTParams, cutoff: int) -> np.ndarray:
    """Fock populations of `displaced_squeezed_thermal(p, cutoff)`, its
    real diagonal, without forming the density matrix.

    The inverse FFT of G on the K-point grid z_j = e^{-2 pi i j/K} gives
    the populations folded modulo K; G(conj z) = conj G(z), so half the
    grid is evaluated.  K starts at the power of two >= 4 cutoff and
    doubles while the grid's upper half [K/2, K) holds population, so
    no fold reaches the levels below the cutoff (up to _FFT_MAX, where a
    fold only lowers the leakage).  Same leak check and renormalisation
    on the cutoff as the density matrix."""
    n_s, m_s = _moments(p)
    lam = (p.nbar + 0.5) * np.exp([2 * p.r, -2 * p.r]) - 0.5   # n_s +- |m_s|
    a2 = p.alpha_mag ** 2
    b = n_s * a2 - (m_s * np.conj(p.alpha) ** 2).real
    k = 1 << int(max(4 * cutoff - 1, 1)).bit_length()
    while True:
        w = 1.0 - np.exp(-2j * np.pi / k * np.arange(k // 2 + 1))
        s_p, s_m = 1.0 + w * lam[0], 1.0 + w * lam[1]
        g = np.exp(-w * (a2 + w * b) / (s_p * s_m)) \
            / (np.sqrt(s_p) * np.sqrt(s_m))
        pops = np.fft.irfft(g, k)
        if pops[k // 2:].sum() <= _ALIAS_TOL or k >= _FFT_MAX:
            break
        k *= 2
    pops = pops[:cutoff]
    _leak_check(1.0 - float(pops.sum()), cutoff)
    return pops / pops.sum()


def displaced_squeezed_thermal(p: DSTParams, cutoff: int,
                               leak_tol: float = _LEAK_TOL) -> np.ndarray:
    """D(alpha) S(z) rho_th(nbar) S(z)^dag D(alpha)^dag on the cutoff,
    renormalized.

    Every entry is the untruncated state's, from the Hermite recursion;
    raises TruncationError if the population past the cutoff,
    1 - tr, exceeds leak_tol."""
    n_s, m_s = _moments(p)
    big = n_s + 1.0
    det = big * big - abs(m_s) ** 2
    c, s = big / det, m_s / det
    alpha = p.alpha
    a = c * alpha - s * np.conj(alpha)
    sq = np.sqrt(np.arange(cutoff))
    rho = np.zeros((cutoff, cutoff), dtype=complex)
    rho[0, 0] = np.exp(-c * p.alpha_mag ** 2
                       + (s * np.conj(alpha) ** 2).real) / math.sqrt(det)
    for j in range(1, cutoff):
        rho[0, j] = np.conj(a) * rho[0, j - 1]
        if j > 1:
            rho[0, j] += np.conj(s) * sq[j - 1] * rho[0, j - 2]
        rho[0, j] /= sq[j]
    for m in range(1, cutoff):
        row = a * rho[m - 1]
        row[1:] += (1.0 - c) * sq[1:] * rho[m - 1, :-1]
        if m > 1:
            row += s * sq[m - 1] * rho[m - 2]
        rho[m] = row / sq[m]
    _leak_check(1.0 - float(np.trace(rho).real), cutoff, leak_tol)
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
