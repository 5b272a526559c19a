"""State-preparation circuits on the cooled qudit + oscillator pair.

All circuits start from |0_s, 0_V> (qudit first, oscillator second) and
use three primitives: the qudit Fourier gate, displacements of the
oscillator conditioned on the qudit level, and heralded photon addition.
They produce multi-component cat states, hybrid entangled states and
N00N-type superpositions.

Heralding convention: branch weights are normalised by the largest
branch, so every reported success probability lies in (0, 1] and chains
multiplicatively through successive photon additions.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial
from typing import Dict, Optional

import numpy as np

from .errors import TruncationError
from .hilbert import block_diag, lowering
from .states import displacement_op, squeezing_op


@dataclass
class PrepResult:
    state: np.ndarray          # normalized ket
    success_prob: float
    target_fidelity: float
    kind: str
    d: int
    param: float
    extra: Dict = field(default_factory=dict)


# ------------------------------------------------------------ primitives

def hadamard_qudit(d: int) -> np.ndarray:
    """Fourier gate H_d |j> = (1/sqrt d) sum_k w^{jk} |k>, w = e^{2 pi i/d}."""
    if d < 2:
        raise ValueError("d must be >= 2")
    j = np.arange(d)
    return np.exp(2j * np.pi * np.outer(j, j) / d) / np.sqrt(d)


def conditional_displacement(d: int, alpha: complex, n_components: int,
                             cutoff: int = 60) -> np.ndarray:
    """Block unitary sum_k |k><k| (x) D(alpha w^k), w = e^{2 pi i/N}."""
    _coherent_tail_check(alpha, cutoff)
    omega = np.exp(2j * np.pi / n_components)
    return block_diag(*[displacement_op(alpha * omega ** k, cutoff)
                        for k in range(d)])


def _coherent_tail_check(alpha: complex, cutoff: int, tol: float = 1e-6):
    n = np.arange(cutoff)
    logw = -abs(alpha) ** 2 + 2 * n * np.log(np.maximum(abs(alpha), 1e-300)) \
        - np.array([sum(np.log(np.arange(1, m + 1))) for m in n])
    tail = 1.0 - np.exp(logw).sum() if abs(alpha) > 0 else 0.0
    if tail > tol:
        raise TruncationError(
            f"coherent amplitude |alpha|={abs(alpha):.3g} leaks {tail:.2e} "
            f"past cutoff {cutoff}", leakage=float(tail))


def coherent_ket(alpha: complex, cutoff: int) -> np.ndarray:
    return displacement_op(alpha, cutoff)[:, 0].copy()


def parity_expectation(ket: np.ndarray) -> float:
    signs = (-1.0) ** np.arange(len(ket))
    return float(np.real(np.sum(signs * np.abs(ket) ** 2)))


def _fid(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(a, b)) ** 2 / (np.vdot(a, a).real * np.vdot(b, b).real))


# ------------------------------------------------------------ cat states

def make_cat(alpha: complex, n_components: int,
             cutoff: int = 60) -> PrepResult:
    """Even cat of n_components coherent components on the circle.

    Circuit: H_d on a qudit of d = n_components levels, conditional
    displacement, then projection of the qudit on the uniform row
    (1/sqrt d) sum_k <k|.  The kept oscillator state matches the
    normalised sum_k |alpha w^k>; the success probability is the squared
    norm of the projected branch."""
    d = n_components
    if d % 2 or d < 2:
        raise ValueError("cat preparation needs an even n_components >= 2")
    dc = conditional_displacement(d, alpha, n_components, cutoff)
    joint = np.zeros(d * cutoff, dtype=complex)
    joint[::cutoff] = hadamard_qudit(d)[:, 0]    # H_d |0>, oscillator vacuum
    joint = dc @ joint
    projected = joint.reshape(d, cutoff).sum(axis=0) / np.sqrt(d)
    success = float(np.vdot(projected, projected).real)
    state = projected / np.sqrt(success)

    omega = np.exp(2j * np.pi / n_components)
    ref = np.zeros(cutoff, dtype=complex)
    for k in range(n_components):
        ref += coherent_ket(alpha * omega ** k, cutoff)
    ref /= np.linalg.norm(ref)
    return PrepResult(state, success, _fid(state, ref), "cat", d,
                      float(abs(alpha)),
                      extra={"parity": parity_expectation(state)})


def make_odd_cat(even: PrepResult) -> PrepResult:
    """Photon addition on an even cat: apply the truncated raising
    operator and renormalise.

    The relative heralding weight (<n> + 1)/(|alpha|^2 + 1) keeps the
    chained success probability inside (0, 1].  The returned fidelity is
    measured against the normalised |alpha> - |-alpha| superposition,
    which photon addition only approximates; the gap is in extra."""
    if even.kind != "cat":
        raise ValueError("input must be a cat preparation")
    ket = even.state
    cutoff = len(ket)
    raised = lowering(cutoff).T @ ket
    if np.abs(ket[-1]) ** 2 > 1e-6:
        raise TruncationError("cat support reaches the raising-operator edge",
                              leakage=float(np.abs(ket[-1]) ** 2))
    norm2 = float(np.vdot(raised, raised).real)
    if norm2 <= 0:
        raise ValueError("photon addition annihilated the state")
    state = raised / np.sqrt(norm2)
    alpha = even.param
    success = even.success_prob * norm2 / (alpha ** 2 + 1.0)

    ref = coherent_ket(alpha, cutoff) - coherent_ket(-alpha, cutoff)
    nref = np.linalg.norm(ref)
    fid = _fid(state, ref / nref) if nref > 1e-12 else 0.0
    return PrepResult(state, success, fid, "odd-cat", even.d, alpha,
                      extra={"parity": parity_expectation(state),
                             "odd_cat_gap": 1.0 - fid})


# --------------------------------------------------- entangled resources

def _photon_added_branches(d: int, r: float, cutoff: int) -> np.ndarray:
    """Rows k = 0..d-1 holding the unnormalised kets a^dag^k S(r)|0>."""
    adag = lowering(cutoff).T
    rows = np.zeros((d, cutoff), dtype=complex)
    rows[0] = squeezing_op(r, cutoff)[:, 0]
    for k in range(1, d):
        rows[k] = adag @ rows[k - 1]
    return rows


def _branch_tail_check(rows: np.ndarray, span: int = 3, tol: float = 1e-6):
    tail = np.max(np.sum(np.abs(rows[:, -span:]) ** 2, axis=1)
                  / np.sum(np.abs(rows) ** 2, axis=1))
    if tail > tol:
        raise TruncationError(
            f"branch population {tail:.2e} in the top Fock levels",
            leakage=float(tail))


def make_hybrid_entangled(d: int, r: float = 0.0,
                          cutoff: Optional[int] = None) -> PrepResult:
    """Qudit-oscillator entangled pair via conditional photon addition.

    State proportional to sum_k |k>_s (x) a^dag^k S(r)|0>.  At r = 0 the
    branches are sqrt(k!)-weighted Fock pairs; the target fidelity is
    measured against that state for r = 0 and against the normalised
    sum_k cosh^k(r) |k, k> for r > 0.  extra reports the fidelity against
    the uniform sum_k |k, k> and the Schmidt spectrum."""
    if d < 2:
        raise ValueError("d must be >= 2")
    if r < 0:
        raise ValueError("squeezing assist must be >= 0")
    if cutoff is None:
        # squeezed tail plus the d-1 level shift from photon addition
        cutoff = max(3 * (d - 1), 8 + 2 * (d - 1) + int(40 * r))
    if cutoff < 3 * (d - 1):
        raise ValueError(f"cutoff must be >= 3(d-1) = {3 * (d - 1)}")
    rows = _photon_added_branches(d, r, cutoff)
    _branch_tail_check(rows)
    joint = rows.flatten() / np.sqrt(d)          # |k>_s (x) branch_k
    norm2 = float(np.vdot(joint, joint).real)
    state = joint / np.sqrt(norm2)

    weights = np.sum(np.abs(rows) ** 2, axis=1)
    success = float(np.mean(weights) / np.max(weights))

    k = np.arange(d)
    ref_w = np.sqrt([factorial(int(m)) for m in k]) if r == 0 \
        else np.cosh(r) ** k
    ref = np.zeros(d * cutoff, dtype=complex)
    ref[k * cutoff + k] = ref_w
    ref /= np.linalg.norm(ref)
    uniform = np.zeros(d * cutoff, dtype=complex)
    uniform[k * cutoff + k] = 1.0 / np.sqrt(d)

    schmidt = np.linalg.svd(state.reshape(d, cutoff), compute_uv=False)
    return PrepResult(state, success, _fid(state, ref), "hybrid-entangled",
                      d, r,
                      extra={"fidelity_uniform": _fid(state, uniform),
                             "schmidt": schmidt,
                             "entropy": _schmidt_entropy(schmidt)})


def _schmidt_entropy(s: np.ndarray) -> float:
    p = s ** 2
    p = p[p > 1e-15]
    return float(-np.sum(p * np.log(p)))


def subspace_rotation(d: int) -> np.ndarray:
    """Two-level unitary on span{|0>, |d-1>} with |0> -> (|0>+|d-1>)/sqrt 2,
    identity on the other levels."""
    u = np.eye(d, dtype=complex)
    u[0, 0] = u[d - 1, 0] = 1 / np.sqrt(2)
    u[0, d - 1] = -1 / np.sqrt(2)
    u[d - 1, d - 1] = 1 / np.sqrt(2)
    return u


def make_noon(d: int, cutoff: Optional[int] = None) -> PrepResult:
    """(d-1)-excitation N00N-type state across the qudit and oscillator.

    A subspace rotation splits the qudit into |0> and |d-1> branches and
    d-1 heralded photon additions fill the oscillator on the |0> branch;
    both branches are renormalised, giving the balanced
    (|d-1, 0> + |0, d-1>)/sqrt 2 superposition."""
    if d < 2:
        raise ValueError("d must be >= 2")
    n_exc = d - 1
    cutoff = max(2 * n_exc + 2, 4) if cutoff is None else cutoff
    if cutoff < 2 * n_exc:
        raise ValueError(f"cutoff must be >= 2(d-1) = {2 * n_exc}")
    rot0 = subspace_rotation(d)[:, 0]            # amplitudes of the two branches
    added = np.zeros(cutoff, dtype=complex)
    added[0] = 1.0
    adag = lowering(cutoff).T
    for _ in range(n_exc):
        added = adag @ added
    w_add = float(np.vdot(added, added).real)    # (d-1)! before renormalising

    state = np.zeros(d * cutoff, dtype=complex)
    state[(d - 1) * cutoff + 0] = rot0[d - 1]    # |d-1>_s |0>_V
    state[0 * cutoff:1 * cutoff] += rot0[0] * added / np.sqrt(w_add)
    state /= np.linalg.norm(state)

    success = float((0.5 * 1.0 + 0.5 * w_add) / max(w_add, 1.0))

    ref = np.zeros(d * cutoff, dtype=complex)
    ref[(d - 1) * cutoff + 0] = 1 / np.sqrt(2)
    ref[0 * cutoff + n_exc] = 1 / np.sqrt(2)
    return PrepResult(state, success, _fid(state, ref), "noon", d,
                      float(n_exc))
