"""Dense product-space reference and other test-only references.

The space of a `Topology` is its oscillators (Fock levels 0..cutoff-1),
the hybrid system qudit, then the regulator, composed row-major, so the
regulator is always last and <k|U|k> is a strided sub-block.  A space is
given by its tuple of subsystem sizes; `np.ravel_multi_index(levels,
dims)` is the flat index of a basis state.  The Hamiltonian is built on
that whole space, with none of the runners' excitation blocks, caps or
reductions, which is what makes it a check on them.

The other references are closed forms and structure checks the package
itself never needs: the thermal state and the Fock-basis mean energy,
the quadrature moments of a density matrix, the one-shot vacuum-outcome
weight of a Gaussian mode, the large-N fidelity of a qubit regulator,
the closed-form optimal cycle times of one oscillator and the
Hermite-root structure of its vacuum amplitude.
"""
import numpy as np
from numpy.polynomial import hermite_e

from qcool.hamiltonians import CouplingParams, Topology
from qcool.hilbert import expm_hermitian, ladder_block, lowering


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


def vacuum_amplitude(topo: Topology, params: CouplingParams, k: int,
                     t: float) -> float:
    """|<0...0, k|exp(-iHt)|0...0, k>| on the dense space, every oscillator
    cut at k + 1 levels: no state reachable from |0...0>|k> holds more."""
    space, h = hamiltonian(topo, params, k + 1)
    vac = np.ravel_multi_index((0,) * (len(space) - 1) + (k,), space)
    return float(abs(evolve(h, t)[vac, vac]))


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


# ------------------------------------------------ one-mode references

def thermal_state(nbar: float, cutoff: int) -> np.ndarray:
    """Thermal state, diagonal nbar^m/(1+nbar)^(m+1), renormalized on cutoff."""
    if nbar < 0:
        raise ValueError("nbar must be non-negative")
    w = (nbar / (1.0 + nbar)) ** np.arange(cutoff)
    return np.diag(w / w.sum()).astype(complex)


def mean_energy(rho: np.ndarray) -> float:
    """<n> = Tr(rho a^dag a) for a single-mode state in the Fock basis."""
    return float(np.real(np.sum(np.diag(rho) * np.arange(rho.shape[0]))))


def moments_from_density(rho: np.ndarray) -> tuple:
    """First and second quadrature moments (mean, cov) of a single-mode
    density matrix, for comparison against the covariance description."""
    a = lowering(rho.shape[0])
    x = (a + a.conj().T) / np.sqrt(2.0)
    p = (a - a.conj().T) / (1j * np.sqrt(2.0))
    ex = np.real(np.trace(rho @ x))
    ep = np.real(np.trace(rho @ p))
    vxx = np.real(np.trace(rho @ x @ x)) - ex ** 2
    vpp = np.real(np.trace(rho @ p @ p)) - ep ** 2
    vxp = 0.5 * np.real(np.trace(rho @ (x @ p + p @ x))) - ex * ep
    return np.array([ex, ep]), np.array([[vxx, vxp], [vxp, vpp]])


def oneshot_probability_formula(alpha1: float, alpha2: float, r: float,
                                nbar: float) -> float:
    """Closed form of the one-shot vacuum-outcome weight (with the 1/pi)."""
    e2r = np.exp(2 * r)
    num = np.exp(-2 * alpha1 ** 2 / (1 + e2r * (1 + 2 * nbar))
                 - 2 * e2r * alpha2 ** 2 / (1 + e2r + 2 * nbar))
    den = np.pi * np.sqrt((1 + nbar) ** 2 * np.cosh(r) ** 2
                          - nbar ** 2 * np.sinh(r) ** 2)
    return float(num / den)


def qubit_asymptotic_fidelity(rho_v: np.ndarray, k: int) -> float:
    """Large-N fidelity limit for a qubit regulator at its optimal time.

    Only Fock levels whose effective eigenvalue keeps unit modulus survive:
    i = 4 m^2 for k=0 (t = pi/2), i = m^2 - 1 for k=1 (t = pi)."""
    if k not in (0, 1):
        raise ValueError("qubit regulator: k must be 0 or 1")
    c = np.clip(np.real(np.diag(rho_v)), 0.0, None)
    n = len(c)
    if k == 0:
        idx = [4 * m * m for m in range(int(np.sqrt(n / 4)) + 2) if 4 * m * m < n]
    else:
        idx = [m * m - 1 for m in range(1, int(np.sqrt(n + 1)) + 2) if m * m - 1 < n]
    return float(c[0] / c[idx].sum())


# ------------------------------------------- vacuum-amplitude structure

# the optima of one oscillator's |lambda_0| at lambda = omega_a = omega_f = 1
ANALYTIC_TOPT = {0: np.pi / 2, 1: np.pi, 2: 2 * np.pi / np.sqrt(3)}


def single_modes(k: int) -> tuple:
    """Eigenfrequencies w_j and weights c_j, lambda_0(t) = exp(-i k t)
    sum_j c_j exp(-i w_j t), of one oscillator: the tridiagonal
    excitation block k holding |0>|k>, and its |k> components squared."""
    w, v = ladder_block(k, k + 1)
    return w, v[k] ** 2


class CheckFailedError(Exception):
    """A structural self-check exceeded its residual threshold."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def hermite_structure_check(d: int, residual_tol: float = 1e-6,
                            t_max: float = 20.0, n_samples: int = 4001) -> float:
    """Verify that exp(i(d-1)t) * lambda_{0,d}^{d-1}(t) is a real weighted
    sum of d cosines at the roots of the probabilists' Hermite polynomial
    He_d.  Returns the relative fit residual; raises CheckFailedError when
    it exceeds residual_tol."""
    if not (2 <= d <= 8):
        raise ValueError("supported for 2 <= d <= 8")
    t = np.linspace(0.0, t_max, n_samples)
    y = np.exp(1j * (d - 1) * t) * vacuum_series(d - 1, t)
    if np.max(np.abs(y.imag)) > 1e-9:
        raise CheckFailedError("phase-corrected vacuum amplitude is not real",
                               residual=float(np.max(np.abs(y.imag))))
    roots = hermite_e.hermegauss(d)[0]
    a = np.cos(np.outer(t, roots))
    coef, *_ = np.linalg.lstsq(a, y.real, rcond=None)
    res = float(np.linalg.norm(y.real - a @ coef) / np.linalg.norm(y.real))
    if res > residual_tol:
        raise CheckFailedError(
            f"cosine fit residual {res:.3e} above {residual_tol:g}",
            residual=res)
    return res


def vacuum_series(k: int, t: np.ndarray) -> np.ndarray:
    """lambda_0^k(t) = exp(-i k t) sum_j c_j exp(-i w_j t), unfolded."""
    w, c = single_modes(k)
    return (np.exp(-1j * np.outer(t, w)) @ c) * np.exp(-1j * k * t)


# --------------------------------------------- per-dimension chiral block

def chiral_block(joint: np.ndarray, hops, colour: np.ndarray, rows: slice,
                 end: int, t: float) -> tuple:
    """(W, D) of the first `end` rows of a bipartite excitation block,
    built from scratch at one regulator dimension: the hops with both
    ends in the prefix, the sublattices, B by np.add.at and one eigh of
    B B^T.  W = D V D^-1 is real, V = <rows|exp(-i H_int t)|rows>, and
    D = 1 on sublattice A, i on B."""
    keep = (hops[0] < end) & (hops[1] < end)
    joint = joint[:end]
    src, tgt, amp = (h[keep] for h in hops)
    on_b = joint[:, colour == 1].sum(axis=1) % 2 == 1
    n_b = np.count_nonzero(on_b)
    pos = np.empty(len(joint), dtype=np.int64)    # index within A or B
    pos[~on_b] = np.arange(len(joint) - n_b)
    pos[on_b] = np.arange(n_b)
    from_a = ~on_b[src]
    b = np.zeros((len(joint) - n_b, n_b))
    np.add.at(b, (np.where(from_a, pos[src], pos[tgt]),
                  np.where(from_a, pos[tgt], pos[src])), amp)
    mu, q = np.linalg.eigh(b @ b.T)
    x = t * np.sqrt(np.clip(mu, 0.0, None))
    f = t * np.sinc(x / np.pi)
    g = -0.5 * t * t * np.sinc(x / (2 * np.pi)) ** 2

    rk = np.arange(rows.start, rows.stop)
    in_b = on_b[rk]
    ia, ib = np.nonzero(~in_b)[0], np.nonzero(in_b)[0]
    qa = q[pos[rk[ia]]]
    cb = b[:, pos[rk[ib]]].T @ q
    w = np.empty((len(rk), len(rk)))
    w[np.ix_(ia, ia)] = (qa * np.cos(x)) @ qa.T
    w_ab = (qa * f) @ cb.T
    w[np.ix_(ia, ib)] = -w_ab
    w[np.ix_(ib, ia)] = w_ab.T
    w[np.ix_(ib, ib)] = np.eye(len(ib)) + (cb * g) @ cb.T
    return w, np.where(in_b, 1j, 1.0)
