"""Dense product-space reference for the tests.

The space of a `Topology` is its oscillators (Fock levels 0..cutoff-1),
the hybrid system qudit, then the regulator, composed row-major, so the
regulator is always last and <k|U|k> is a strided sub-block.  A space is
given by its tuple of subsystem sizes; `np.ravel_multi_index(levels,
dims)` is the flat index of a basis state.  The Hamiltonian is built on
that whole space, with none of the runners' excitation blocks, caps or
reductions, which is what makes it a check on them.
"""
import numpy as np

from qcool.hamiltonians import CouplingParams, Topology
from qcool.hilbert import expm_hermitian, lowering


def dims(topo: Topology, cutoff: int) -> tuple:
    """Subsystem sizes, regulator last."""
    system = (cutoff, topo.system_levels) if topo.kind == "hybrid" \
        else (cutoff,) * topo.modes
    return system + (topo.regulator_levels,)


def levels(space: tuple) -> np.ndarray:
    """Total excitation number of every basis state, in flat order."""
    return np.indices(space).reshape(len(space), -1).sum(axis=0)


def _embed(space: tuple, mode: int, local: np.ndarray) -> np.ndarray:
    """I (x) ... (x) local (x) ... (x) I with `local` on subsystem `mode`."""
    out = np.eye(1, dtype=complex)
    for j, n in enumerate(space):
        out = np.kron(out, local if j == mode else np.eye(n))
    return out


def hamiltonian(topo: Topology, params: CouplingParams,
                cutoff: int) -> tuple:
    """(dims, H): free terms omega_f a^dag a on every oscillator and
    omega_a times the level on every qudit (and on an oscillator
    regulator), plus w (lower_i raise_j + h.c.) for each coupling edge
    (i, j, w).  Oscillator ladders carry sqrt(n); qudit ladders are 1."""
    space = dims(topo, cutoff)
    n_osc = 1 if topo.kind == "hybrid" else topo.modes
    bosonic = [m < n_osc for m in range(len(space))]
    bosonic[-1] = topo.regulator_kind == "oscillator"
    freqs = params.omega_f_list(n_osc) + [params.omega_a] * (len(space) - n_osc)
    lev = np.indices(space).reshape(len(space), -1)
    h = np.diag((np.array(freqs) @ lev).astype(complex))
    low = [_embed(space, m, lowering(n, bosonic[m]))
           for m, n in enumerate(space)]
    for i, j, w in topo.coupling_edges(params):
        term = w * (low[i] @ low[j].conj().T)
        h += term + term.conj().T
    return space, h


def evolve(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t); a non-Hermitian H raises ValueError."""
    if np.max(np.abs(h - h.conj().T)) > 1e-9:
        raise ValueError("Hamiltonian is not Hermitian")
    return expm_hermitian(h, t)


def compress(u: np.ndarray, k: int, space: tuple) -> np.ndarray:
    """V = <k|U|k> on the system space, the regulator being last."""
    d = space[-1]
    n = u.shape[0] // d
    return u.reshape(n, d, n, d)[:, k, :, k]


def offblock(op: np.ndarray, space: tuple) -> float:
    """Largest |op| between states of different total excitation: 0 for
    an operator that conserves it."""
    lev = levels(space)
    mask = lev[:, None] != lev[None, :]
    return float(np.max(np.abs(op[mask]))) if mask.any() else 0.0


def partial_trace(rho: np.ndarray, space: tuple, keep) -> np.ndarray:
    """Reduced density matrix on the kept subsystems, in ascending order."""
    keep = sorted(set(int(k) for k in keep))
    t = rho.reshape(space + space)
    # trace out the rest, highest axis first so positions stay valid
    for m in sorted(set(range(len(space))) - set(keep), reverse=True):
        t = np.trace(t, axis1=m, axis2=m + t.ndim // 2)
    n = int(np.prod([space[k] for k in keep]))
    return t.reshape(n, n)
