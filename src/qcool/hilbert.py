"""Primitives every layer shares: the lowering matrix, the Hermitian
exponential, the tridiagonal excitation block of one oscillator with a
ladder qudit and the block-diagonal direct sum.

Every Hamiltonian of the package conserves the total excitation number
N_e = sum_j a_j^dag a_j + sum_m sum_k k|k><k|_m, so the runners work on
one excitation block at a time and never build the product space.
"""
from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np


def lowering(dim: int, bosonic: bool = True) -> np.ndarray:
    """Truncated lowering matrix: <n-1|a|n> = sqrt(n) for an oscillator,
    1 for a qudit ladder sum_k |k-1><k|."""
    low = np.zeros((dim, dim), dtype=complex)
    low[np.arange(dim - 1), np.arange(1, dim)] = \
        np.sqrt(np.arange(1, dim)) if bosonic else 1.0
    return low


def expm_hermitian(h: np.ndarray, t: float, rows=None,
                   solver: Optional[Callable] = None) -> np.ndarray:
    """exp(-i h t) for Hermitian h through its eigendecomposition.

    `rows` keeps only the rows x rows block, so a compression <k|U|k>
    never forms the full unitary; `solver` is the eigh routine (numpy's
    when None)."""
    w, v = (solver or np.linalg.eigh)(h)
    if rows is not None:
        v = v[rows]
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def ladder_block(e, levels: int, lam: float = 1.0,
                 detuning: float = 0.0) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (w, v) of the total-excitation-e block of one oscillator
    coupled by lam * (a raise_R + h.c.) to a `levels`-level ladder qudit.

    The block is tridiagonal in |e-q>|q>, q = 0..min(levels-1, e): diagonal
    q * detuning (detuning = omega_a - omega_f, the common e * omega_f is
    left to the caller as a phase), off-diagonal lam * sqrt(e - q).  Row q
    of v is the regulator-level-q amplitude.  The block has at most
    `levels` rows, so a dense eigh is cheaper than a tridiagonal solver's
    call overhead; the sign of each column of v is arbitrary.

    An array of e gives a stack of `levels`-row blocks, diagonalised in
    one call (w[j], v[j] belong to e[j]): the off-diagonal is
    lam * sqrt(max(e - q, 0)), so a block with e < levels - 1 carries
    rows q > e that are decoupled from its q <= e rows."""
    e = np.asarray(e)
    rows = levels if e.ndim else min(levels - 1, int(e)) + 1
    q = np.arange(rows)
    off = lam * np.sqrt(np.clip(e[..., None] - q[:-1], 0, None))
    h = np.zeros(e.shape + (len(q), len(q)))
    h[..., q, q] = detuning * q
    h[..., q[:-1], q[1:]] = h[..., q[1:], q[:-1]] = off
    return np.linalg.eigh(h)


def block_diag(*blocks: np.ndarray) -> np.ndarray:
    """Direct sum of square matrices, in the common result dtype."""
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=np.result_type(*blocks))
    i = 0
    for b in blocks:
        j = i + b.shape[0]
        out[i:j, i:j] = b
        i = j
    return out
