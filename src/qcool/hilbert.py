"""Truncated composite Hilbert-space bookkeeping.

Subsystems are truncated oscillators (Fock levels 0..cutoff-1) and qudits
(levels 0..levels-1), composed row-major in the order given to SpaceSpec.
By convention the measured regulator, when present, is the LAST subsystem,
which makes the <k|U|k> compression a strided sub-block.

The excitation number N_e = sum_j a_j^dag a_j + sum_m sum_k k|k><k|_m is
conserved by every Hamiltonian built in this package.  The primitives
every layer shares live here: the lowering matrix, the Hermitian
exponential, the tridiagonal excitation block of one oscillator with a
ladder qudit and the block-diagonal direct sum.

The dense product-space operators (`annihilation`, `qudit_transition`,
`excitation_number`, `block_decompose`, `BlockedOperator`) are a test
oracle only: no runner calls them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ConservationError


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


@dataclass(frozen=True)
class Oscillator:
    """Bosonic mode truncated to Fock levels 0..cutoff-1."""
    cutoff: int = 50

    @property
    def dim(self) -> int:
        return self.cutoff


@dataclass(frozen=True)
class Qudit:
    """d-level system, levels 0..levels-1."""
    levels: int

    @property
    def dim(self) -> int:
        return self.levels


Subsystem = Union[Oscillator, Qudit]


@dataclass(frozen=True)
class SpaceSpec:
    """Ordered composition of subsystems; fixes the basis indexing."""
    subsystems: Tuple[Subsystem, ...]

    def __post_init__(self):
        if len(self.subsystems) == 0:
            raise ValueError("SpaceSpec needs at least one subsystem")
        object.__setattr__(self, "subsystems", tuple(self.subsystems))
        for s in self.subsystems:
            if s.dim < 1 or (isinstance(s, Qudit) and s.levels < 2):
                raise ValueError(f"bad subsystem {s}")

    @property
    def dims(self) -> Tuple[int, ...]:
        return tuple(s.dim for s in self.subsystems)

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    def index(self, multi: Sequence[int]) -> int:
        """Row-major flat index of a basis multi-index."""
        return int(np.ravel_multi_index(tuple(multi), self.dims))

    def multi(self, flat: int) -> Tuple[int, ...]:
        return tuple(int(x) for x in np.unravel_index(flat, self.dims))

    def basis_ket(self, multi: Sequence[int]) -> np.ndarray:
        psi = np.zeros(self.dim, dtype=complex)
        psi[self.index(multi)] = 1.0
        return psi


def _embed(space: SpaceSpec, mode: int, local: np.ndarray) -> np.ndarray:
    """I (x) ... (x) local (x) ... (x) I with `local` on subsystem `mode`."""
    out = np.eye(1, dtype=complex)
    for j, s in enumerate(space.subsystems):
        out = np.kron(out, local if j == mode else np.eye(s.dim, dtype=complex))
    return out


def annihilation(space: SpaceSpec, mode: int) -> np.ndarray:
    """Truncated ladder operator a on oscillator `mode`, <n-1|a|n> = sqrt(n).

    a^dag is taken as the matrix adjoint of this truncated a, so the top
    level annihilates upward; Hermiticity of the Hamiltonians is preserved
    at the price of an edge-level error controlled by trace-leakage checks.
    """
    sub = space.subsystems[mode]
    if not isinstance(sub, Oscillator):
        raise TypeError(f"subsystem {mode} is not an oscillator")
    return _embed(space, mode, lowering(sub.cutoff))


def qudit_transition(space: SpaceSpec, mode: int, from_level: int,
                     to_level: int) -> np.ndarray:
    """|to><from| on qudit `mode`, identity elsewhere."""
    sub = space.subsystems[mode]
    if not isinstance(sub, Qudit):
        raise TypeError(f"subsystem {mode} is not a qudit")
    d = sub.levels
    if not (0 <= from_level < d and 0 <= to_level < d):
        raise IndexError(f"levels ({from_level},{to_level}) out of range for d={d}")
    op = np.zeros((d, d), dtype=complex)
    op[to_level, from_level] = 1.0
    return _embed(space, mode, op)


def excitation_levels(space: SpaceSpec) -> np.ndarray:
    """Diagonal of N_e as an integer vector over the product basis."""
    lev = np.zeros(1, dtype=np.int64)
    for s in space.subsystems:
        lev = (lev[:, None] + np.arange(s.dim)[None, :]).ravel()
    return lev


def excitation_number(space: SpaceSpec) -> np.ndarray:
    """Total excitation number N_e as a dense diagonal matrix."""
    return np.diag(excitation_levels(space).astype(complex))


@dataclass
class ExcitationBlock:
    indices: np.ndarray   # flat basis indices belonging to this block
    block: np.ndarray     # square matrix restricted to those indices


@dataclass
class BlockedOperator:
    """Operator stored per total-excitation block."""
    space: SpaceSpec
    blocks: Dict[int, ExcitationBlock]

    def reassemble(self) -> np.ndarray:
        """Dense matrix on the full space; entries outside kept blocks are 0."""
        out = np.zeros((self.space.dim, self.space.dim), dtype=complex)
        for eb in self.blocks.values():
            out[np.ix_(eb.indices, eb.indices)] = eb.block
        return out


def block_decompose(space: SpaceSpec, op: np.ndarray, e_max: int | None = None,
                    tol: float = 1e-10) -> BlockedOperator:
    """Split an excitation-conserving operator into per-E blocks.

    Raises ConservationError (with the max off-block magnitude) when the
    operator couples different excitation sectors beyond `tol`.
    """
    lev = excitation_levels(space)
    mask = lev[:, None] != lev[None, :]
    off = np.max(np.abs(op[mask])) if mask.any() else 0.0
    if off > tol:
        raise ConservationError(
            f"operator violates excitation conservation: max off-block "
            f"magnitude {off:.3e} > {tol:.1e}", max_offblock=float(off))
    blocks = {}
    for e in np.unique(lev):
        if e_max is not None and e > e_max:
            continue
        ix = np.nonzero(lev == e)[0]
        blocks[int(e)] = ExcitationBlock(ix, op[np.ix_(ix, ix)].copy())
    return BlockedOperator(space, blocks)


def partial_trace(space: SpaceSpec, rho: np.ndarray,
                  keep: Sequence[int]) -> np.ndarray:
    """Reduced density matrix on the kept subsystems (in their given order)."""
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep set must be non-empty")
    ns = len(space.subsystems)
    if any(k < 0 or k >= ns for k in keep):
        raise IndexError("keep index out of range")
    dims = space.dims
    t = rho.reshape(dims + dims)
    # trace out the complement, highest axis first so positions stay valid
    for m in sorted(set(range(ns)) - set(keep), reverse=True):
        t = np.trace(t, axis1=m, axis2=m + t.ndim // 2)
    d_keep = int(np.prod([dims[k] for k in keep]))
    return t.reshape(d_keep, d_keep)
