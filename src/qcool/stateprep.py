"""State-preparation circuits on the cooled qudit + oscillator pair.

All circuits start from |0_s, 0_V> (qudit first, oscillator second) and
use three primitives: the qudit Fourier gate, displacements of the
oscillator conditioned on the qudit level, and heralded photon addition.
They produce multi-component cat states, hybrid entangled states and
N00N-type superpositions.

Every circuit acts on one complex (d, cutoff) ket array whose row q is
the oscillator branch of qudit level q; no joint-space matrix is built.
A conditional displacement is the (d, cutoff, cutoff) stack of its
blocks D(alpha w^q), applied row by row.  The cat circuit takes its
reference sum_k |alpha w^k> from the same stack and keeps the branches
|alpha w^k>, from which the odd cat takes its reference
|alpha> - |-alpha>, so each D is built once.  A state is flattened,
qudit-major, only into `PrepResult.state`.

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
from .hilbert import lowering
from .states import displacement_op, squeezing_op

_TAIL_TOL = 1e-6   # largest population a Fock truncation may cut off
_TAIL_SPAN = 3     # top Fock levels whose share of a branch is bounded


@dataclass
class PrepResult:
    state: np.ndarray          # normalized ket, qudit-major when joint
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
    """The blocks of sum_k |k><k| (x) D(alpha w^k), w = e^{2 pi i/N}, as a
    (d, cutoff, cutoff) stack; `stack @ ket[..., None]` applies it to a
    (d, cutoff) ket array, block k to row k."""
    _coherent_tail_check(alpha, cutoff)
    omega = np.exp(2j * np.pi / n_components)
    return np.stack([displacement_op(alpha * omega ** k, cutoff)
                     for k in range(d)])


def _coherent_tail_check(alpha: complex, cutoff: int):
    n = np.arange(cutoff)
    log_fact = np.cumsum(np.log(np.maximum(n, 1)))     # log n!
    logw = -abs(alpha) ** 2 + 2 * n * np.log(np.maximum(abs(alpha), 1e-300)) \
        - log_fact
    tail = 1.0 - np.exp(logw).sum() if abs(alpha) > 0 else 0.0
    if tail > _TAIL_TOL:
        raise TruncationError(
            f"coherent amplitude |alpha|={abs(alpha):.3g} leaks {tail:.2e} "
            f"past cutoff {cutoff}", leakage=float(tail))


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
    norm of the projected branch.  The branches D(alpha w^k)|0> and the
    reference both come from one conditional-displacement stack; the
    branches are kept in extra["branches"], row k holding |alpha w^k>."""
    d = n_components
    if d % 2 or d < 2:
        raise ValueError("cat preparation needs an even n_components >= 2")
    if not (np.isfinite(alpha) and cutoff >= 1):
        raise ValueError(f"cat needs a finite alpha and a cutoff >= 1, got "
                         f"alpha = {alpha}, cutoff = {cutoff}")
    stack = conditional_displacement(d, alpha, n_components, cutoff)
    ket = np.zeros((d, cutoff), dtype=complex)
    ket[:, 0] = hadamard_qudit(d)[:, 0]          # H_d |0>, oscillator vacuum
    ket = (stack @ ket[..., None])[..., 0]
    projected = ket.sum(axis=0) / np.sqrt(d)
    success = float(np.vdot(projected, projected).real)
    state = projected / np.sqrt(success)

    # row k is |alpha w^k>; a copy, so the result does not hold the stack
    branches = stack[:, :, 0].copy()
    ref = branches.sum(axis=0)
    ref /= np.linalg.norm(ref)
    return PrepResult(state, success, _fid(state, ref), "cat", d,
                      float(abs(alpha)),
                      extra={"parity": parity_expectation(state),
                             "branches": branches})


def make_odd_cat(even: PrepResult) -> PrepResult:
    """Photon addition on an even cat: apply the truncated raising
    operator and renormalise.

    The relative heralding weight (<n> + 1)/(|alpha|^2 + 1) keeps the
    chained success probability inside (0, 1].  The returned fidelity is
    measured against the normalised |alpha> - |-alpha> superposition,
    which photon addition only approximates; the gap is in extra.  Its
    two coherent states are the even cat's branches 0 and N/2, so
    alpha keeps its phase and no displacement is built again."""
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

    branches = even.extra["branches"]
    ref = branches[0] - branches[len(branches) // 2]
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


def _branch_tail_check(rows: np.ndarray):
    tail = np.max(np.sum(np.abs(rows[:, -_TAIL_SPAN:]) ** 2, axis=1)
                  / np.sum(np.abs(rows) ** 2, axis=1))
    if tail > _TAIL_TOL:
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
    if not (np.isfinite(r) and r >= 0):
        raise ValueError(f"squeezing assist must be finite and >= 0, got {r}")
    if cutoff is None:
        # squeezed tail plus the d-1 level shift from photon addition
        cutoff = max(3 * (d - 1), 8 + 2 * (d - 1) + int(40 * r))
    if cutoff < 3 * (d - 1):
        raise ValueError(f"cutoff must be >= 3(d-1) = {3 * (d - 1)}")
    rows = _photon_added_branches(d, r, cutoff)
    _branch_tail_check(rows)
    ket = rows / np.sqrt(d)                      # |k>_s (x) branch_k
    norm2 = float(np.vdot(ket, ket).real)
    state = ket / np.sqrt(norm2)

    weights = np.sum(np.abs(rows) ** 2, axis=1)
    success = float(np.mean(weights) / np.max(weights))

    k = np.arange(d)
    ref_w = np.sqrt([factorial(int(m)) for m in k]) if r == 0 \
        else np.cosh(r) ** k
    ref = np.zeros((d, cutoff), dtype=complex)
    ref[k, k] = ref_w
    ref /= np.linalg.norm(ref)
    uniform = np.zeros((d, cutoff), dtype=complex)
    uniform[k, k] = 1.0 / np.sqrt(d)

    schmidt = np.linalg.svd(state, compute_uv=False)
    return PrepResult(state.ravel(), success, _fid(state, ref),
                      "hybrid-entangled", d, r,
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

    state = np.zeros((d, cutoff), dtype=complex)
    state[d - 1, 0] = rot0[d - 1]                # |d-1>_s |0>_V
    state[0] += rot0[0] * added / np.sqrt(w_add)
    state /= np.linalg.norm(state)

    success = float((0.5 * 1.0 + 0.5 * w_add) / max(w_add, 1.0))

    ref = np.zeros((d, cutoff), dtype=complex)
    ref[d - 1, 0] = ref[0, n_exc] = 1 / np.sqrt(2)
    return PrepResult(state.ravel(), success, _fid(state, ref), "noon", d,
                      float(n_exc))
