"""Conditional-measurement cooling engine.

One cycle: evolve system (+) regulator for time t under the excitation
conserving Hamiltonian, measure the regulator projectively, keep outcome
|k>, reattach |k><k|.  Kept runs are described by the effective operator
V = <k|U(t)|k> applied repeatedly to the system state:

    P_n = Tr[V^n rho V^dag^n]          success probability after n cycles
    F_n = <vac|V^n rho V^dag^n|vac>/P_n  vacuum fidelity of the kept state

Everything is evaluated per total-excitation block, by one of two
engine paths:

- bright mode (`_bright_mode`): the regulator is a qudit and sees one
  oscillator mode.  For a single oscillator that mode is the
  oscillator; for a star of M oscillators with M equal DSTParams
  factors it is b = sum_i a_i / sqrt(M), at coupling lam sqrt(M), with
  an excitation cap e_cap <= cutoff - 1.
  Each block of that mode with the regulator is the tridiagonal
  `hilbert.ladder_block`, giving the diagonal lambda_{i,d}^k of V
  directly (`effective_lambdas`), so only one-mode weights matter:
  Fock populations (`states.dst_populations`, or a density matrix's
  diagonal) for the single oscillator, bright populations times the
  dark modes' cumulative distribution for the star, whose M-1 dark
  modes never cool, so F saturates at F_inf = p_vac(dark)^(M-1).
- blocked (`_blocked_run`): every other network, the hybrid pair and the
  oscillator regulator, over the composite basis.  It is also the test
  oracle of the bright-mode path.  Every coupling graph is a tree over
  all subsystems, so it is bipartite, and at resonance (detuning 0)
  block E is the coupling H_int = [[0, B], [B^T, 0]] between its two
  sublattices alone; the chiral sub-path (`_chiral_block`) then takes V
  from one eigh of B B^T, half the block size, in a gauge where V is
  real.  Detuned runs diagonalise
  each block whole, and that path is the chiral path's test oracle.
  Both take numpy's `eigh`, bound here as `eigh` so that the blocks
  each path diagonalises can be observed.  This is the one path that
  needs coherences, so it alone builds full initial density matrices
  (`_resolve_factors`).  It reads the system's layout from
  `Topology.subsystems` alone: each subsystem's level cap and bosonic
  flag (`_sub_caps`) and the initial factors (`_factor_inputs`).  Only
  the routing (`_bright_oscillator`), the k = 0 default times and
  `ProtocolConfig.validate` read the kind.

`run_protocol`, `sweep_dimension` and `sweep_energy` share one path
(`_run_cells`), whose cells are (d, k, initial system) triples; a
single run is the one-cell case.  It builds each initial system's
bright-mode weights once.  The bright-mode cells of one (d, k, t), such
as every nbar of an energy sweep, share one `effective_lambdas` call
and one power table |lambda_i|^(2n) (`_power_table`), and each cell
weights its own columns of it (`_trace_single`).

Total excitation is conserved, so the blocked engine's blocks are
independent.  A sweep's blocked cells of one initial system, k and
cycle time make one pass over the blocks, which serves every regulator
dimension d of the sweep: each (block, d) is one task that returns its
trace contribution.  What no d changes is built once per worker that
runs the block (with two workers only the block where they meet is built
by both), and a worker holds one block at a time: the joint basis, hops
and factor product rho, and on the chiral path from those the sublattice
split, the hops as (A, B, amplitude) triplets, each d's corner (the
prefix's A and B counts), the level-k rows' A and B positions and the
phased real rho (`_chiral_prep`), after which the basis, raw hops and
complex rho are dropped.  Each (block, d) then does its spectral step
alone: B from the triplets whose A and B positions lie inside its
corner, one eigh of B B^T and V (`_chiral_block`), or the prefix's H and
its eigh when detuned.  Each block's trace powers stop as soon as the
rest of them can no longer change a bit of P_n, measured against the
vacuum block's contribution, a floor under every partial sum
(`_block_trace_powers`); the calling thread computes that contribution
before the other blocks' tasks start.  When at least two CPUs are
available and BLAS runs one thread (OPENBLAS_NUM_THREADS, else
OMP_NUM_THREADS, is 1) the calling thread and one helper thread share
the tasks (`_block_workers`, `_map_blocks`); otherwise the caller runs
them all.  The contributions are summed in ascending block order, so F_n
and P_n are bit-identical either way, to a run of each d alone, and to a
run with no early stop.  On both paths F_n = vac_n / P_n is taken only
once every P_n is a normal double; a P_n that underflows is a QcoolError
naming its cycle (`_fidelity`), not a trace of NaNs.

A run returns (F_n, P_n) only.  The cycle count N reported for it is a
`ReportRule`'s, read off the finished trace.  The rule's mode is one of
`RULE_READS`: a report mode (converged, cooled, settled or auto) for
`report_cycles` and `sweep_dimension`, or `first_admissible`, the first
cycle at the fidelity target with P_n at the floor, for `sweep_energy`
and `max_coolable_nbar`; each call rejects a rule of the other kind
before any cell runs.  The rule holds every threshold with its default
and range check, and checks its reads when it is made: a threshold
that `RULE_READS` does not list for its mode must keep its default.
"""
from __future__ import annotations

import collections
import math
import os
import threading
import warnings
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.linalg import eigh

from .errors import ConfigError, QcoolError, SearchFailureError, TruncationError
from .hamiltonians import CouplingParams, Topology
from .hilbert import expm_hermitian, is_int, is_real, ladder_block
from .states import DSTParams, depolarized_qudit, displaced_squeezed_thermal, \
    dst_mean_energy, dst_populations
from . import opttime


# ---------------------------------------------------------------- config

@dataclass
class ProtocolConfig:
    """Inputs of one cooling run: every field changes F_n or P_n, or
    `validate` rejects it.  How a cycle count N is read off the finished
    trace is a `ReportRule`, not part of the run.

    initial_system: a DSTParams, a density matrix, or (for networks and
    the hybrid system) a per-subsystem list of these, regulator excluded.
    cycle_time None picks `default_cycle_time` for the configured
    topology, coupling and k; its k = 0 times assume the default
    coupling, so k = 0 with any other coupling needs a cycle_time.
    e_max None picks the excitation cap adaptively from the initial-state
    populations (kept tail weight <= 1e-7); a single oscillator then
    keeps every level below cutoff.  An explicit e_max caps the total
    excitation on every path, the single oscillator's included: more
    than 1e-6 of population above it raises TruncationError.
    `validate` rejects settings a run would ignore: a non-default
    coupling lam_tilde off a linear chain of M >= 2, and a non-default
    topology system_levels off the hybrid.  The coupling is stated in
    the frame rotating with the oscillators (`CouplingParams`): a
    frequency common to every subsystem changes no F_n or P_n, so only
    the detuning is a field.
    """
    topology: Topology
    initial_system: Union[DSTParams, np.ndarray, Sequence]
    regulator_level: int = 0
    cycle_time: Optional[float] = None
    n_max: int = 100
    coupling: CouplingParams = field(default_factory=CouplingParams)
    cutoff: int = 50
    e_max: Optional[int] = None

    def validate(self):
        d = self.topology.regulator_levels
        for name, lo, hi in (("regulator_level", 0, d - 1), ("n_max", 1, None),
                             ("cutoff", 1, None), ("e_max", 0, None)):
            value = getattr(self, name)
            if value is None and name == "e_max":
                continue
            if not is_int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if not lo <= value <= (value if hi is None else hi):
                bound = f"be >= {lo}" if hi is None else f"lie in {lo}..{hi}"
                raise ConfigError(f"{name} must {bound}, got {value}")
        t = self.cycle_time
        if t is not None:
            _check_real(t, "cycle time")
            if not (math.isfinite(t) and t >= 0):
                raise ConfigError(f"cycle time must be finite and >= 0, got {t}")
        if t is None and self.regulator_level == 0 \
                and self.coupling != CouplingParams():
            raise ConfigError("the k = 0 default cycle time needs the default "
                              "coupling; set [protocol] t")
        topo = self.topology
        if self.coupling.lam_tilde != CouplingParams.lam_tilde \
                and not (topo.kind == "linear" and topo.modes > 1):
            raise ConfigError(
                f"lambda_tilde is the oscillator-oscillator hop of a linear "
                f"chain; a {topo.kind} topology with {topo.modes} "
                f"oscillator(s) has none, got {self.coupling.lam_tilde}")
        if topo.system_levels != Topology.system_levels \
                and topo.kind != "hybrid":
            raise ConfigError(
                f"system_levels is the hybrid system qudit's dimension; a "
                f"{topo.kind} topology has none, got {topo.system_levels}")


def _check_real(x, name: str) -> None:
    """ConfigError unless x is a real number (no bool)."""
    if not is_real(x):
        raise ConfigError(f"{name} must be a real number, got {x!r}")


@dataclass
class ProtocolTrace:
    """Per-cycle record; index n runs 0..n_max with n=0 the initial state."""
    fidelity: np.ndarray
    probability: np.ndarray

    @property
    def n_max(self) -> int:
        return len(self.fidelity) - 1


# ------------------------------------------------------ one-mode kernel

@lru_cache(maxsize=256)
def effective_lambdas(d: int, k: int, t: float, count: int, lam: float = 1.0,
                      detuning: float = 0.0) -> np.ndarray:
    """lambda_{i,d}^k(t) for i = 0..count-1, free of Fock-cutoff edge error,
    in the frame rotating with the oscillator: the lab frame's lambda_i
    carries a further phase e^{-i E omega_f t}, which no trace sees, as
    every trace reads |lambda_i| alone.

    Block E = i + k is the tridiagonal `ladder_block`: diagonal
    q detuning, off-diagonal lam sqrt(E - q).  All blocks are diagonalised
    as one stack of d-row blocks; rows q > E of a padded block are
    decoupled from row k <= E, so lambda = <k|exp(-i H t)|k> =
    sum_j v_kj^2 e^{-i w_j t} is that of the E-block alone, also when
    the padding's eigenvalues are degenerate with it."""
    e = np.arange(k, k + count)
    w, v = ladder_block(e, d, lam, detuning)
    out = (v[:, k] ** 2 * np.exp(-1j * w * t)).sum(-1)
    out.setflags(write=False)
    return out


def _power_table(lams: np.ndarray, n_max: int) -> np.ndarray:
    """|lambda_i|^(2n) at row n, column i, for n = 0..n_max.

    One multiply.accumulate down a row of ones and n_max rows of
    |lambda|^2, so each row is the one before times |lambda|^2, as cycle
    by cycle."""
    pw = np.empty((n_max + 1, len(lams)))
    pw[0] = 1.0
    pw[1:] = np.abs(lams) ** 2
    np.multiply.accumulate(pw, axis=0, out=pw)
    return pw


def _trace_single(pw: np.ndarray,
                  cdiag: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """F_n, P_n for a diagonal effective operator and diagonal weights,
    from the first len(cdiag) columns of its power table `pw`:
    P_n = sum_i pw[n, i] c_i and F_n = pw[n, 0] c_0 / P_n.

    The weights are not zero-padded to the table's width: padding would
    regroup the pairwise sum over i, so a table shared by cells of
    different weight lengths would no longer give each cell's own run
    bit for bit."""
    w = pw[:, :len(cdiag)] * cdiag
    prob = w.sum(axis=1)
    return _fidelity(w[:, 0], prob), prob


_TINY = np.finfo(float).tiny   # the smallest normal double


def _fidelity(vac: np.ndarray, prob: np.ndarray) -> np.ndarray:
    """F_n = vac_n / P_n, on both engine paths.  A QcoolError names the
    first cycle whose P_n lies below the smallest normal double: past it
    P_n keeps ever fewer digits, then reaches 0 and F_n is NaN."""
    low = np.flatnonzero(prob < _TINY)
    if len(low):
        n = int(low[0])
        raise QcoolError(f"P_n underflows at cycle {n} (P_{n} = {prob[n]:.3g} "
                         f"< {_TINY:.3g}); lower n_max")
    return vac / prob


# --------------------------------------------------- blocked composition

def _level_tuples(total: int, caps: Sequence[int]) -> np.ndarray:
    """Rows of per-subsystem levels summing to `total`, level m capped at
    caps[m], in lexicographic order."""
    rows = np.zeros((1, 0), dtype=np.int64)
    left = np.array([total])
    room = sum(caps)                    # what the later subsystems can hold
    for cap in caps:
        room -= cap
        lo = np.maximum(left - room, 0)
        cnt = np.maximum(np.minimum(left, cap) - lo + 1, 0)
        parent = np.repeat(np.arange(len(left)), cnt)
        first = np.repeat(np.cumsum(cnt) - cnt, cnt)
        lev = np.arange(len(parent)) - first + lo[parent]
        rows = np.column_stack([rows[parent], lev])
        left = left[parent] - lev
    return rows


def _sub_caps(topology: Topology, e_cap: int) -> Tuple[List[int], List[bool]]:
    """Per-subsystem level caps and is-bosonic flags, regulator last
    (`Topology.subsystems`): e_cap, lowered to the top level of a
    subsystem with a level bound."""
    subs = topology.subsystems
    return ([e_cap if n is None else min(e_cap, n - 1) for _, n in subs],
            [bosonic for bosonic, _ in subs])


def _chiral_colours(topology: Topology,
                    params: CouplingParams) -> Optional[np.ndarray]:
    """0/1 colour per subsystem, the regulator (last) 0 and the two ends
    of every coupling edge apart, when every excitation block is chiral;
    else None.  Every `Topology.coupling_edges` graph is a tree over all
    its subsystems (single: one edge; linear: a path; star: a star;
    hybrid: qudit-oscillator-regulator), so it is bipartite and
    resonance (detuning 0) alone makes the blocks chiral; a
    breadth-first walk from the regulator colours the tree."""
    if params.detuning != 0:
        return None
    n = len(topology.subsystems)
    adj: List[List[int]] = [[] for _ in range(n)]
    for i, j, _ in topology.coupling_edges(params):
        adj[i].append(j)
        adj[j].append(i)
    colour = np.full(n, -1)
    colour[-1] = 0
    queue = [n - 1]
    for a in queue:                     # the queue grows as it is walked
        for b in adj[a]:
            if colour[b] < 0:
                colour[b] = 1 - colour[a]
                queue.append(b)
    return colour


def _joint_block(e_tot: int, k: int, caps: Sequence[int], bos: Sequence[bool],
                 edges: List[Tuple[int, int, float]]):
    """Joint basis of excitation block e_tot (one row of levels per state,
    regulator last), the slice of its regulator-level-k rows, and its
    hops (src, tgt, amp): every matrix element <tgt| w lower_i raise_j
    |src> of the exchange couplings.

    Rows are ordered by regulator level, then system levels, so the q = k
    rows are one contiguous run in the order of the system basis.
    Mixed-radix keys in that order ascend with the rows; a hop moves one
    excitation from i to j, so `searchsorted` finds its target, which
    always lies in the block."""
    order = [len(caps) - 1] + list(range(len(caps) - 1))
    radix = np.array([caps[m] + 1 for m in order])
    strides = np.empty(len(caps), dtype=np.int64)
    strides[order] = np.cumprod(np.append(1, radix[:0:-1]))[::-1]
    joint = np.roll(_level_tuples(e_tot, [caps[m] for m in order]), -1, axis=1)
    rows = slice(*np.searchsorted(joint[:, -1], [k, k + 1]))
    keys = joint @ strides

    src, tgt, amp = [], [], []
    for i, j, w in edges:
        s = np.nonzero((joint[:, i] >= 1) & (joint[:, j] < caps[j]))[0]
        a = np.full(len(s), float(w))
        if bos[i]:
            a = a * np.sqrt(joint[s, i])
        if bos[j]:
            a = a * np.sqrt(joint[s, j] + 1)
        src.append(s)
        tgt.append(np.searchsorted(keys, keys[s] - strides[i] + strides[j]))
        amp.append(a)
    return joint, rows, (np.concatenate(src), np.concatenate(tgt),
                         np.concatenate(amp))


def _block_hamiltonian(joint: np.ndarray, hops, detuning: float,
                       modes: int) -> np.ndarray:
    """Dense excitation-block matrix of free + exchange couplings in the
    oscillators' rotating frame: detuning times the levels held on the
    subsystems after the `modes` oscillators.  The hops give one
    triangle, the transpose the conjugate terms."""
    src, tgt, amp = hops
    n = len(joint)
    h = np.zeros((n, n))
    np.add.at(h, (tgt, src), amp)
    return h + h.T + np.diag(detuning * joint[:, modes:].sum(axis=1))


class _ChiralBlock(NamedTuple):
    """What no regulator dimension changes in a bipartite block
    (`_chiral_prep`).  A joint row lies on sublattice A or B, and its
    position counts the rows before it on the same one.

    hops: (A position, B position, amplitude) of every hop;
    corners: (n_a, n_b) of each d's prefix: its A and B states are the
      first n_a and n_b, its hops those with both ends among them;
    ia, ib: the level-k rows on A and on B, as indices among those rows;
    ka, kb: the same rows' positions within A and within B;
    rho: the phased initial state Re(D rho D^dag) on the level-k rows."""
    hops: Tuple[np.ndarray, np.ndarray, np.ndarray]
    corners: List[Tuple[int, int]]
    ia: np.ndarray
    ib: np.ndarray
    ka: np.ndarray
    kb: np.ndarray
    rho: np.ndarray


def _chiral_prep(joint: np.ndarray, rows: slice, hops, colour: np.ndarray,
                 rho: np.ndarray, ends: np.ndarray) -> _ChiralBlock:
    """The d-independent data of a bipartite block from its joint basis,
    level-k rows, hops, factor-product rho and the prefix end of each d.

    A state lies on B when it holds an odd number of excitations on
    colour-1 subsystems; every hop flips that parity, so
    H_int = [[0, B], [B^T, 0]].  Rows ascend with the regulator level,
    so the prefix at d holds the first A and the first B states, and a
    hop lies in every prefix that holds both its ends.  D = 1 on A and
    i on B makes V real (`_chiral_block`); W and D rho D^dag then have a
    real trace product, so the antisymmetric Im(D rho D^dag) adds no
    trace and only the real part is kept."""
    on_b = joint[:, colour == 1].sum(axis=1) % 2 == 1
    n_b = np.count_nonzero(on_b)
    pos = np.empty(len(joint), dtype=np.int64)    # index within A or B
    pos[~on_b] = np.arange(len(joint) - n_b)
    pos[on_b] = np.arange(n_b)
    src, tgt, amp = hops
    from_a = ~on_b[src]
    b_before = np.concatenate(([0], np.cumsum(on_b)))[ends]
    corners = list(zip((ends - b_before).tolist(), b_before.tolist()))
    rk = np.arange(rows.start, rows.stop)
    in_b = on_b[rk]
    ia, ib = np.nonzero(~in_b)[0], np.nonzero(in_b)[0]
    dph = np.where(in_b, 1j, 1.0)
    # a copy, not a view of the real part, so the complex product is freed
    phased = np.real(dph[:, None] * rho * dph.conj()[None, :]).copy()
    return _ChiralBlock(
        (np.where(from_a, pos[src], pos[tgt]),
         np.where(from_a, pos[tgt], pos[src]), amp),
        corners, ia, ib, pos[rk[ia]], pos[rk[ib]], phased)


def _chiral_block(blk: _ChiralBlock, corner: Tuple[int, int],
                  t: float) -> np.ndarray:
    """W = D V D^-1, real, for V = <k|exp(-i H_int t)|k> on the prefix of
    a bipartite block whose `corner` is (n_a, n_b), with D = 1 on
    sublattice A and i on B (`_chiral_prep`).

    B holds the hops with A position below n_a and B position below n_b;
    each (A, B) pair is one hop, so they are written, not summed.  With
    B B^T = Q diag(mu) Q^T,
      V_aa = Q_a cos(t sqrt(mu)) Q_a^T,
      V_ab = -i (Q_a f) (B_b^T Q)^T,
      V_bb = I + (B_b^T Q) g (B_b^T Q)^T,
    f = sin(t sqrt(mu)) / sqrt(mu), g = (cos(t sqrt(mu)) - 1) / mu, both
    written through sinc so they stay exact at the zero modes that
    |A| != |B| brings."""
    n_a, n_b = corner
    a, bpos, amp = blk.hops
    keep = (a < n_a) & (bpos < n_b)
    b = np.zeros((n_a, n_b))
    b[a[keep], bpos[keep]] = amp[keep]
    mu, q = eigh(b @ b.T)
    x = t * np.sqrt(np.clip(mu, 0.0, None))
    f = t * np.sinc(x / np.pi)
    g = -0.5 * t * t * np.sinc(x / (2 * np.pi)) ** 2

    ia, ib = blk.ia, blk.ib
    qa = q[blk.ka]
    cb = b[:, blk.kb].T @ q
    w = np.empty(blk.rho.shape)
    w[np.ix_(ia, ia)] = (qa * np.cos(x)) @ qa.T
    w_ab = (qa * f) @ cb.T          # H is real symmetric: W_ba = -W_ab^T
    w[np.ix_(ia, ib)] = -w_ab
    w[np.ix_(ib, ia)] = w_ab.T
    w[np.ix_(ib, ib)] = np.eye(len(ib)) + (cb * g) @ cb.T
    return w


_EXIT_MARGIN = 2.0 ** -58  # of the floor, where `_block_trace_powers` stops


def _baby_steps(n_max: int) -> int:
    """Baby-step count A of `_block_trace_powers`: the smallest A >= 2
    minimising its 2(A-1) + 2(ceil((n_max+1)/A) - 1) products (A = 8 at
    n_max = 100).  The minimum lies at A <= isqrt(n_max) + 2."""
    return min(range(2, math.isqrt(n_max) + 3),
               key=lambda a: a - 1 + -(-(n_max + 1) // a))


def _block_trace_powers(v: np.ndarray, rho: np.ndarray, n_max: int,
                        out_tr: np.ndarray, floor: float = 0.0) -> int:
    """Accumulate P_n = tr(V^n rho V^dag^n) for n = 0..n_max into out_tr,
    stopping early once the rest can no longer change the sum it joins;
    returns the number of cycles evaluated (from n = 0).

    Baby and giant steps (Paterson and Stockmeyer 1973): with A baby
    steps (`_baby_steps`), S_a = V^a^dag V^a (a < A), G = V^A and
    R_b = G^b rho G^b^dag, P_{a+Ab} = tr(R_b S_a) = sum (R_b * conj(S_a)),
    one product of the flattened R_b with the kept stack of conj(S_a).
    That is 2(A-1) + 2(B-1) N x N products, B = ceil((n_max+1)/A): 38 at
    n_max = 100, against 200 by iteration.  With no eigenvectors and no
    inverse there is no conditioning to guard and no fallback, and V need
    not be a contraction; a real V and rho keep every product real.

    floor > 0 is a lower bound on every partial sum of P_n this block's
    contribution c(n) is added to (the caller passes the vacuum block's
    least contribution).  When V is a contraction, as every compression
    of a unitary is, c(n) never increases with n; so once a giant step
    ends with |c| < floor 2^-58, every later c(n) lies below 2^-54 of the
    sum it joins, less than half an ulp of it, and adding it would round
    back to the same sum.  The kernel stops there and leaves the later
    cycles as they were: the summed P_n and F_n keep every bit of a run
    to n_max (the margin 2^-58 rather than 2^-54 absorbs the rounding of
    the computed c).  floor <= 0 never stops."""
    n = v.shape[0]
    if n == 1:
        mag = np.abs(v[0, 0]) ** 2
        out_tr += np.real(rho[0, 0]) * mag ** np.arange(n_max + 1)
        return n_max + 1
    steps = _baby_steps(n_max)
    stack = np.empty((steps, n * n), dtype=np.result_type(v, rho))
    stack[0] = np.eye(n).ravel()
    pw = v
    for a in range(1, steps):
        if a > 1:
            pw = pw @ v
        stack[a] = (pw.T @ pw.conj()).ravel()       # conj(S_a)
    tiny = floor * _EXIT_MARGIN
    cur = rho
    for start in range(0, n_max + 1, steps):
        if start == steps:
            giant = pw @ v              # G, once a second step is due
        if start:
            cur = giant @ cur @ giant.conj().T
        count = min(steps, n_max + 1 - start)
        part = np.real(stack[:count] @ cur.ravel())
        out_tr[start:start + count] += part
        if abs(part[-1]) < tiny:
            break
    return start + count


def _blocked_run(topologies: Sequence[Topology], params: CouplingParams, k: int,
                 t: float, factors: List[np.ndarray], e_cap: int,
                 n_max: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """F_n, P_n for a product initial state under the blocked protocol,
    one pair per topology; the topologies differ at most in
    regulator_levels.

    At regulator level q an oscillator holds up to e_s + k - q
    excitations, so the joint basis caps each at e_cap + k (and the
    factor size); the system rows, e_s <= e_cap, are unaffected.

    Every regulator dimension d runs in one pass over the blocks.  Rows
    of a joint block are ordered by regulator level first, so the basis
    at d is the prefix of the largest d's block holding levels below d,
    and its hops are those with both ends in the prefix: each d gets the
    H (or B) and V a build at d alone gives.  Each (block, d) is one
    task, and dimensions whose prefixes coincide (every d > e_s + k)
    share one V and one trace.

    Once per worker that runs the block (`build`): the joint basis,
    hops, factor product rho and each d's prefix end; on the chiral path
    also the sublattice split, the hops as (A, B, amplitude) triplets,
    each d's corner (its A and B counts), the level-k rows' A and B
    positions and the phased real rho (`_chiral_prep`), which is all
    that block then keeps.  A worker holds only the block of its current
    task and drops it before building the next.  A block's tasks are
    contiguous in either worker's order (`_map_blocks`), so one worker
    builds every block once, and with two workers only the block where
    they meet is built by both.  Once per (block, d): the chiral B of
    the triplets inside the corner, one eigh of B B^T and V
    (`_chiral_block`), or, detuned, the prefix's hops, H and its full
    eigh.

    Block 0 is the system vacuum alone, at every d the same (its
    regulator levels stop at k < d).  Its contribution p0 |lambda_0|^(2n)
    is part of every P_n, and its least value is the floor with which
    every other block's trace powers may stop early
    (`_block_trace_powers`); the calling thread computes it before the
    tasks of blocks 1..e_cap start, and the sum starts from it.

    At resonance (detuning 0) there is no free part, and the coupling
    graph, a tree over all subsystems (`_chiral_colours`), makes each
    block chiral: `_chiral_block` then needs one eigh of half size and
    a real V.  Otherwise each block is diagonalised whole."""
    dims = sorted({topo.regulator_levels for topo in topologies})
    top = max(topologies, key=lambda topo: topo.regulator_levels)
    caps, bos = _sub_caps(top, e_cap + k)
    for m, f in enumerate(factors):
        caps[m] = min(caps[m], f.shape[0] - 1)  # never index past a factor
    edges = top.coupling_edges(params)
    colour = _chiral_colours(top, params)

    def build(e_s):
        """Each d's prefix end of system block e_s and its d-independent
        data: the joint basis, level-k rows, hops and factor product rho
        on the full path, `_chiral_prep`'s on the chiral one; None if
        the block is empty."""
        joint, rows, hops = _joint_block(e_s + k, k, caps, bos, edges)
        lev = joint[rows, :-1]
        if len(lev) == 0:
            return None
        rho = np.ones((len(lev), len(lev)), dtype=complex)
        for m, f in enumerate(factors):
            rho *= f[lev[:, m][:, None], lev[:, m][None, :]]
        ends = np.searchsorted(joint[:, -1], dims)
        if colour is None:
            return ends, (joint, rows, hops, rho)
        return ends, _chiral_prep(joint, rows, hops, colour, rho, ends)

    def contribution(blk, i, floor):
        """Trace contribution of a built block's prefix at dims[i]."""
        ends, data = blk
        if colour is None:
            joint, rows, hops, rho = data
            keep = (hops[0] < ends[i]) & (hops[1] < ends[i])
            h = _block_hamiltonian(joint[:ends[i]],
                                   tuple(h[keep] for h in hops),
                                   params.detuning, top.modes)
            vk = expm_hermitian(h, t, rows=rows, solver=eigh)
        else:
            vk, rho = _chiral_block(data, data.corners[i], t), data.rho
        out = np.zeros(n_max + 1)
        _block_trace_powers(vk, rho, n_max, out, floor)
        return out

    vacuum = contribution(build(0), 0, 0.0)
    floor = vacuum.min()
    per = len(dims)
    held = threading.local()        # each worker's current block

    def task(j):
        """Contribution of block e_s >= 1 at dims[i], j = (e_s - 1) per + i;
        None when the block is empty or has dims[i - 1]'s prefix."""
        e_s, i = divmod(j + per, per)
        if getattr(held, "e_s", None) != e_s:
            held.blk = None         # drop the last block before building
            held.blk, held.e_s = build(e_s), e_s
        blk = held.blk
        if blk is None or (i and blk[0][i] == blk[0][i - 1]):
            return None
        return contribution(blk, i, floor)

    parts = _map_blocks(task, e_cap * per, _block_workers())
    tr = np.tile(vacuum, (per, 1))
    for e_s in range(e_cap):        # ascending e_s, as a serial loop adds
        part = None
        for i in range(per):
            if parts[e_s * per + i] is not None:
                part = parts[e_s * per + i]
            if part is not None:
                tr[i] += part
    # block 0 is the system vacuum alone, so its trace is the vacuum weight
    traces = {d: (_fidelity(vacuum, tr[i]), tr[i]) for i, d in enumerate(dims)}
    return [traces[topo.regulator_levels] for topo in topologies]


def _block_workers() -> int:
    """Workers for the blocked engine's excitation blocks: 2 (the caller
    and one helper thread) when at least two CPUs are available and BLAS
    runs one thread, else 1.  The BLAS budget is read as OpenBLAS reads
    it: OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, where only a positive
    integer counts.  Over a multi-threaded BLAS a second worker nests
    BLAS threads and runs slower."""
    budget = 0
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            budget = int(os.environ.get(var, ""))
        except ValueError:
            budget = 0
        if budget > 0:
            break
    if budget != 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    return 2 if cpus >= 2 else 1


def _map_blocks(fn, count: int, workers: int) -> list:
    """[fn(i) for i in range(count)], computed by the calling thread and,
    with workers >= 2, one helper thread; never more, since each thread
    that calls BLAS adds its own buffers to the peak memory.  Both take
    indices from one deque, whose pop and popleft are atomic, so no lock
    is needed: the caller from the top, where the blocks are largest,
    and the helper from the bottom, so the large blocks run next to
    small ones and two of the largest never run at once.
    An exception in either worker stops both and is raised here, after
    the helper has ended."""
    if workers < 2 or count < 2:
        return [fn(i) for i in range(count)]
    out = [None] * count
    todo = collections.deque(range(count))
    errors = []

    def work(take):
        while True:
            try:
                i = take()
            except IndexError:
                return
            try:
                out[i] = fn(i)
            except BaseException as err:    # re-raised by the caller
                errors.append(err)
                todo.clear()
                return

    helper = threading.Thread(target=work, args=(todo.popleft,))
    helper.start()
    try:
        work(todo.pop)
    finally:
        helper.join()
    if errors:
        raise errors[0]
    return out


def _factor_inputs(
        cfg: ProtocolConfig) -> List[Tuple[Union[DSTParams, np.ndarray], int]]:
    """Per-system-subsystem initial inputs, each a DSTParams or a square
    density matrix, with the number of levels a DSTParams is built on."""
    topo, init = cfg.topology, cfg.initial_system
    subs = topo.subsystems[:-1]
    init = [init] if isinstance(init, (DSTParams, np.ndarray)) else list(init)
    if len(init) == 1:
        init = init * topo.modes
    if len(init) == topo.modes:     # each qudit starts depolarized
        init += [depolarized_qudit(n) for _, n in subs[topo.modes:]]
    if len(init) != len(subs):
        raise ConfigError(
            f"{len(subs)} initial factors expected, got {len(init)}")

    out = []
    for x, (_, n) in zip(init, subs):
        if not isinstance(x, DSTParams):
            x = np.asarray(x, dtype=complex)
            if x.ndim != 2 or x.shape[0] != x.shape[1]:
                raise ConfigError("initial states must be square density matrices")
        out.append((x, cfg.cutoff if n is None else n))
    return out


def _resolve_factors(cfg: ProtocolConfig) -> List[np.ndarray]:
    """Per-system-subsystem density matrices from the configured input."""
    built = {}      # equal DSTParams factors share one build
    factors = []
    for x, dim in _factor_inputs(cfg):
        if isinstance(x, DSTParams):
            if (x, dim) not in built:
                built[x, dim] = displaced_squeezed_thermal(x, dim)
            x = built[x, dim]
        factors.append(x)
    return factors


_TAIL_TOL = 1e-7    # population an adaptive excitation cap may leave above it
_HARD_TOL = 1e-6    # population allowed above an explicit e_max


def _choose_e_cap(pops: List[np.ndarray], e_max: Optional[int]) -> int:
    """Smallest excitation cap with combined tail below _TAIL_TOL, from
    each factor's Fock populations; an explicit e_max is kept when at
    most _HARD_TOL lies above it."""
    conv = np.array([1.0])
    for p in pops:
        conv = np.convolve(conv, np.clip(p, 0, None))
    cum = np.cumsum(conv)
    if e_max is not None:
        tail = 1.0 - (cum[e_max] if e_max < len(cum) else cum[-1])
        if tail > _HARD_TOL:
            raise TruncationError(
                f"population {tail:.3e} above excitation cap {e_max}",
                leakage=float(tail))
        return e_max
    ok = np.nonzero(cum >= 1.0 - _TAIL_TOL)[0]
    if len(ok) == 0:
        raise TruncationError(
            f"initial state tail stays above {_TAIL_TOL:.1e} within the "
            f"retained levels", leakage=float(1.0 - cum[-1]))
    return int(ok[0])


# ----------------------------------------------------------- bright mode

def _bright_oscillator(topology: Topology, coupling: CouplingParams
                       ) -> Optional[Tuple[Topology, CouplingParams]]:
    """The one oscillator any regulator sees, as a single topology and its
    coupling: a single oscillator, or the bright mode sum_i a_i / sqrt(M)
    of a star, at lam sqrt(M); else None."""
    if topology.kind not in ("single", "star"):
        return None
    return replace(topology, kind="single", modes=1), CouplingParams(
        lam=coupling.lam * math.sqrt(topology.modes),
        detuning=coupling.detuning)


def _bright_mode(cfg: ProtocolConfig) -> Optional[Tuple[np.ndarray, float]]:
    """The weights and F scale of the one mode the regulator sees
    (`_bright_oscillator`), for `_trace_single`; None when the initial
    state does not reduce.  The caller has checked the topology: a
    single oscillator or a star, with a qudit regulator.  Only
    populations are read, so no density matrix is built, and nothing
    here depends on d or k.

    A single oscillator is its own bright mode: the weights are its Fock
    populations (`states.dst_populations`, or a density matrix's
    diagonal), cut at e_max when one is set, after the same tail check
    as every other path.

    A star with M equal DSTParams factors couples only to b; the M-1
    dark modes just pick up phases.  M identical Gaussian factors are,
    in the bright/dark basis, a bright factor displaced by sqrt(M) alpha
    times M-1 centred dark factors.  Total
    excitation is the same in both bases, so the blocked engine's
    e_b + e_d <= e_cap truncation, with e_cap chosen from the factors'
    populations as there, is kept exactly: the weights are
    c_b[e_b] S_d[e_cap - e_b], S_d the cumulative dark distribution, and
    the dark vacuum scales F by p_d[0] / S_d[e_cap]."""
    m, inputs = cfg.topology.modes, _factor_inputs(cfg)
    if cfg.topology.kind == "single":
        x, dim = inputs[0]
        pops = dst_populations(x, dim) if isinstance(x, DSTParams) \
            else np.real(np.diag(x))
        w = np.clip(pops, 0.0, None)
        if cfg.e_max is not None:
            _choose_e_cap([pops], cfg.e_max)
            w = w[:cfg.e_max + 1]
        return w, 1.0
    p = inputs[0][0]
    if not all(isinstance(x, DSTParams) and x == p for x, _ in inputs):
        return None
    e_cap = _choose_e_cap([dst_populations(p, cfg.cutoff)] * m, cfg.e_max)
    if e_cap > cfg.cutoff - 1:
        return None
    try:
        c_b = dst_populations(
            replace(p, alpha_mag=math.sqrt(m) * p.alpha_mag), cfg.cutoff)
        c_d = dst_populations(replace(p, alpha_mag=0.0), cfg.cutoff)
    except TruncationError:
        return None
    p_d = np.eye(1, e_cap + 1)[0]       # dark excitation distribution
    for _ in range(m - 1):
        p_d = np.convolve(p_d, c_d)[:e_cap + 1]
    s_d = np.cumsum(p_d)
    return c_b[:e_cap + 1] * s_d[::-1], p_d[0] / s_d[-1]


# ------------------------------------------------------------ main entry

def vacuum_modes(topology: Topology, coupling: CouplingParams,
                 k: int) -> opttime.VacuumModes:
    """The modes of lambda_0 at measurement level k: the eigenpairs of the
    excitation block e = k holding |0...0>|k>, built as the blocked
    engine builds it, less the vacuum's energy k detuning, a phase of
    lambda_0.  Folded when the block is chiral (resonant, on a coupling
    tree), whose spectrum is symmetric.  Cached at d = k + 1, as every
    d > k has the same block; a uniform star's is its bright mode's
    (k + 1 states, not about C(k + M, M): the dark modes stay empty)."""
    if not 0 <= k < topology.regulator_levels:
        raise ValueError(f"need 0 <= k <= d-1, got k={k}, "
                         f"d={topology.regulator_levels}")
    bright = _bright_oscillator(topology, coupling)
    if bright is not None:
        topology, coupling = bright
    return _vacuum_block(replace(topology, regulator_levels=max(k + 1, 2)),
                         coupling, k)


@lru_cache(maxsize=64)
def _vacuum_block(topology: Topology, coupling: CouplingParams,
                  k: int) -> opttime.VacuumModes:
    """`vacuum_modes` of the block e = k of this topology as it stands."""
    caps, bos = _sub_caps(topology, k)
    joint, rows, hops = _joint_block(k, k, caps, bos,
                                     topology.coupling_edges(coupling))
    h = _block_hamiltonian(joint, hops, coupling.detuning, topology.modes)
    vac = rows.start                # the block's one regulator-level-k row
    w, v = eigh(h - h[vac, vac] * np.eye(len(h)))
    chiral = _chiral_colours(topology, coupling) is not None
    return opttime.VacuumModes(w, v[vac] ** 2, chiral)


def default_cycle_time(topology: Topology, k: int,
                       coupling: CouplingParams = CouplingParams()
                       ) -> opttime.OptTimeResult:
    """Cycle time for measurement level k when none is set, with its
    residual and method (`opttime.OptTimeResult`).

    k >= 1: `opttime.solve_topt` on the run's own vacuum block; the run
    that uses a "fallback" warns (`_run_cells`).  A vacuum that never
    moves (lambda = 0) has no optimum, a ConfigError.
    k = 0: |0...0>|0> is stationary, so the time is "fixed": pi/2, which
    empties level 1 of a single oscillator, over sqrt(M) on a star of M
    (the full swap of one bright excitation), and pi/sqrt(2) for the
    hybrid pair, at the default coupling only."""
    if k == 0:
        t = np.pi / np.sqrt(2) if topology.kind == "hybrid" else np.pi / 2
        if topology.kind == "star":
            t /= math.sqrt(topology.modes)
        return opttime.OptTimeResult(t, 0.0, "fixed")
    try:
        return opttime.solve_topt(vacuum_modes(topology, coupling, k))
    except SearchFailureError as err:
        raise ConfigError(f"no default cycle time at k = {k} ({err}); "
                          f"set [protocol] t")


def _run_cells(base: ProtocolConfig, cells: Sequence[Tuple[
        int, int, Union[DSTParams, np.ndarray, Sequence]]]) -> List[ProtocolTrace]:
    """Traces of `base` at each (regulator dimension d, level k, initial
    system) cell, in the order given.

    Every cell is validated before any runs.  The one oscillator the
    regulator sees (`_bright_oscillator`) depends on no cell, so it is
    resolved once.  The bright-mode weights (`_bright_mode`) and,
    failing those, the blocked engine's factors and e_cap depend on no
    d or k, so each is built once per initial system.  The bright-mode
    cells of one (d, k, t) share one `effective_lambdas` call and one
    power table, sized for the longest weights among them; each cell
    weights its own columns of it (`_trace_single`).  The blocked cells
    of one initial system, k and cycle time share one `_blocked_run`."""
    cfgs = [replace(base, topology=replace(base.topology, regulator_levels=d),
                    regulator_level=k, initial_system=init)
            for d, k, init in cells]
    for cfg in cfgs:
        cfg.validate()
    reduced = _bright_oscillator(base.topology, base.coupling) \
        if base.topology.regulator_kind == "qudit" else None
    times = {}          # k -> cycle time, the same at every d
    bright = {}         # id(initial system) -> its `_bright_mode`
    tables = {}         # (d, k, t) -> bright-mode cells
    groups = {}         # (id(initial system), k, t) -> blocked cells
    for i, cfg in enumerate(cfgs):
        topo, k = cfg.topology, cfg.regulator_level
        d, sid = topo.regulator_levels, id(cfg.initial_system)
        if k not in times and cfg.cycle_time is None:
            res = default_cycle_time(topo, k, cfg.coupling)
            if res.method == "fallback":
                warnings.warn(f"no admissible cycle time for {topo.kind} at "
                              f"k={k}; using the best found t={res.t_opt:.6g} "
                              f"(residual {res.residual:.3g})", RuntimeWarning,
                              stacklevel=3)
            times[k] = res.t_opt
        times.setdefault(k, cfg.cycle_time)
        if sid not in bright:
            bright[sid] = None if reduced is None else _bright_mode(cfg)
        if bright[sid] is None:
            groups.setdefault((sid, k, times[k]), []).append(i)
        else:
            tables.setdefault((d, k, times[k]), []).append(i)

    traces = [None] * len(cfgs)
    for (d, k, t), idx in tables.items():
        modes = [bright[id(cfgs[i].initial_system)] for i in idx]
        osc = reduced[1]
        lams = effective_lambdas(d, k, t, max(len(w) for w, _ in modes),
                                 osc.lam, osc.detuning)
        pw = _power_table(lams, base.n_max)
        for i, (w, scale) in zip(idx, modes):
            fid, prob = _trace_single(pw, w)
            traces[i] = fid * scale, prob
    blocked = {}        # id(initial system) -> (factors, e_cap)
    for (sid, k, t), idx in groups.items():
        if sid not in blocked:
            factors = _resolve_factors(cfgs[idx[0]])
            blocked[sid] = factors, _choose_e_cap(
                [np.real(np.diag(f)) for f in factors], base.e_max)
        factors, e_cap = blocked[sid]
        runs = _blocked_run([cfgs[i].topology for i in idx], base.coupling,
                            k, t, factors, e_cap, base.n_max)
        for i, trace in zip(idx, runs):
            traces[i] = trace

    return [ProtocolTrace(fid, prob) for fid, prob in traces]


def run_protocol(cfg: ProtocolConfig) -> ProtocolTrace:
    """Full cooling trace F_n, P_n for n = 0..n_max; `report_cycles`
    reads a cycle count N off it."""
    cells = [(cfg.topology.regulator_levels, cfg.regulator_level,
              cfg.initial_system)]
    return _run_cells(cfg, cells)[0]


# ------------------------------------------------------- reported cycles

REPORT_MODES = ("converged", "cooled", "settled", "auto")

_SETTLE_WINDOW = 5  # consecutive quiet increments that make a trace settled

# threshold -> its range, and the range as its error message states it
_UNIT_RANGE = (lambda x: 0 < x <= 1, "lie in (0, 1]")
_TOL_RANGE = (lambda x: math.isfinite(x) and x >= 0, "be finite and >= 0")
_THRESHOLDS = {"fidelity_target": _UNIT_RANGE, "convergence_tol": _TOL_RANGE,
               "probability_floor": (lambda x: 0 <= x <= 1, "lie in [0, 1]"),
               "stop": _UNIT_RANGE, "settle_tol": _TOL_RANGE}

# mode -> the thresholds it reads: each report mode, and first_admissible,
# the energy sweep's rule
RULE_READS = {"converged": ("fidelity_target", "convergence_tol"),
              "cooled": ("stop",), "settled": ("settle_tol",),
              "auto": ("stop", "settle_tol"),
              "first_admissible": ("fidelity_target", "probability_floor")}


@dataclass(frozen=True)
class ReportRule:
    """How a cycle count N is read off a finished trace: the mode (one of
    RULE_READS) and every threshold, each default and range check held
    here alone.  A bad mode, a threshold out of range, or one off its
    default that the mode does not read (RULE_READS) is a ConfigError
    when the rule is made, before anything runs.

    converged: first cycle with |F_n - F_{n-1}| < convergence_tol and
               F_n >= fidelity_target (n_max when none).
    cooled:    the cycle before F first reaches stop.
    settled:   first cycle of a quiet fidelity window (settle_tol).
    auto:      cooled when stop is reached, else settled, else n_max.
    first_admissible: first cycle with F_n >= fidelity_target and
               P_n >= probability_floor (None when none).
    The first four are the REPORT_MODES of `report_cycles` and
    `sweep_dimension`; `sweep_energy` and `max_coolable_nbar` take only
    first_admissible."""
    mode: str = "converged"
    fidelity_target: float = 0.999
    convergence_tol: float = 1e-3
    probability_floor: float = 0.1
    stop: float = 0.9998
    settle_tol: float = 1.2e-5

    def __post_init__(self):
        if not isinstance(self.mode, str) or self.mode not in RULE_READS:
            raise ConfigError(f"mode must be one of "
                              f"{', '.join(RULE_READS)}, got {self.mode!r}")
        for f in fields(self)[1:]:          # the thresholds, after mode
            value = getattr(self, f.name)
            _check_real(value, f.name)
            ok, bound = _THRESHOLDS[f.name]
            if not ok(value):
                raise ConfigError(f"{f.name} must {bound}, got {value}")
            if f.name not in RULE_READS[self.mode] and value != f.default:
                raise ConfigError(
                    f"the {self.mode} rule reads no {f.name}, got {value!r}")

    def converged(self, fid: np.ndarray) -> Optional[int]:
        """First cycle with |F_n - F_{n-1}| < convergence_tol and
        F_n >= fidelity_target; None if that never happens."""
        conv = np.nonzero((np.abs(np.diff(fid)) < self.convergence_tol)
                          & (fid[1:] >= self.fidelity_target))[0]
        return int(conv[0]) + 1 if len(conv) else None

    def cooled(self, fid: np.ndarray) -> int:
        """The cycle before F first reaches stop, whatever F does after
        it; the last cycle n_max when the threshold is never reached (or
        already reached at n=0)."""
        above = np.nonzero(fid >= self.stop)[0]
        if len(above) == 0 or above[0] == 0:
            return len(fid) - 1
        return int(above[0]) - 1

    def settled(self, fid: np.ndarray) -> Optional[int]:
        """First cycle opening a full window of _SETTLE_WINDOW consecutive
        fidelity increments all below settle_tol; None if the trace never
        settles (a window cut short by the trace's end does not count)."""
        df = np.abs(np.diff(fid))
        for n in range(1, len(df) - _SETTLE_WINDOW + 2):
            if np.all(df[n - 1:n - 1 + _SETTLE_WINDOW] < self.settle_tol):
                return n
        return None

    def first_admissible(self, trace: ProtocolTrace) -> Optional[int]:
        """First cycle n >= 1 with F_n >= fidelity_target and
        P_n >= probability_floor; None if there is none."""
        ok = np.nonzero((trace.fidelity[1:] >= self.fidelity_target)
                        & (trace.probability[1:] >= self.probability_floor))[0]
        return int(ok[0]) + 1 if len(ok) else None


def _check_mode(rule: ReportRule, modes: Sequence[str], call: str) -> None:
    """ConfigError unless the mode of `rule` is one of the `modes` that
    `call` reads, before anything runs."""
    if rule.mode not in modes:
        raise ConfigError(f"{call} needs a rule with mode in "
                          f"{{{', '.join(modes)}}}, got {rule.mode!r}")


def report_cycles(trace: ProtocolTrace, rule: ReportRule = ReportRule()) -> int:
    """Cycle count N that `rule`'s report mode gives for a finished trace."""
    _check_mode(rule, REPORT_MODES, "report_cycles")
    f = trace.fidelity
    if rule.mode == "cooled" or (rule.mode == "auto" and f.max() >= rule.stop):
        return rule.cooled(f)
    n = rule.converged(f) if rule.mode == "converged" else rule.settled(f)
    return n if n is not None else trace.n_max


# ---------------------------------------------------------------- sweeps

@dataclass
class SweepRecord:
    d: int
    k: int
    cycles: int
    fidelity: float
    probability: float


def sweep_dimension(base_cfg: ProtocolConfig, d_list: Sequence[int],
                    k_list: Sequence[int],
                    rule: ReportRule = ReportRule()) -> List[SweepRecord]:
    """(N, F, P) per regulator dimension and measurement level, N by
    `report_cycles` under `rule`, in d_list order (repeats kept); cells
    with k >= d are skipped (a triangular grid).

    The grid and every cell are checked before any runs: both lists must
    be non-empty and hold integers (no bool), every d >= 2, and every k
    must lie in 0..max(d_list) - 1, and the rule's mode must be one of
    REPORT_MODES.  The blocked cells of one k and cycle time run in one
    pass over the excitation blocks (`_run_cells`)."""
    _check_mode(rule, REPORT_MODES, "sweep_dimension")
    if len(d_list) == 0 or len(k_list) == 0:
        raise ConfigError("empty grid: d_list and k_list must be non-empty")
    for name, values in (("d_list", d_list), ("k_list", k_list)):
        for value in values:
            if not is_int(value):
                raise ConfigError(
                    f"{name} entries must be integers, got {value!r}")
    if min(d_list) < 2:
        raise ConfigError(f"d_list: a regulator needs d >= 2, got {min(d_list)}")
    if min(k_list) < 0 or max(k_list) >= max(d_list):
        raise ConfigError(
            f"measured levels k must lie in 0..{max(d_list) - 1} for d up to "
            f"{max(d_list)}, got {min(k_list)}..{max(k_list)}")
    cells = [(d, k, base_cfg.initial_system)
             for d in d_list for k in k_list if k < d]
    out = []
    for (d, k, _), trace in zip(cells, _run_cells(base_cfg, cells)):
        n = report_cycles(trace, rule)
        out.append(SweepRecord(d, k, n, float(trace.fidelity[n]),
                               float(trace.probability[n])))
    return out


@dataclass
class EnergyRecord:
    energy: float
    cycles: Optional[int]
    fidelity: float
    probability: float


def _check_nbar(nbar, name: str) -> None:
    """ConfigError unless nbar is a finite, non-negative real (no bool)."""
    if not (is_real(nbar) and math.isfinite(nbar) and nbar >= 0):
        raise ConfigError(f"{name} must be a finite real >= 0, got {nbar!r}")


def sweep_energy(base_cfg: ProtocolConfig, nbar_grid: Sequence[float],
                 rule: ReportRule = ReportRule("first_admissible")
                 ) -> List[EnergyRecord]:
    """Cycles needed to reach the rule's fidelity target with admissible
    success probability (`ReportRule.first_admissible`), swept over the
    thermal occupation of the initial state.

    The swept state keeps the displacement and squeezing of the configured
    initial DSTParams; cycles is None when the target is unreachable
    within n_max.  The rule must be a first_admissible one.  The rule and
    the whole grid are checked before any runs, and every nbar is one
    cell of a single `_run_cells` call."""
    _check_mode(rule, ("first_admissible",), "sweep_energy")
    if not isinstance(base_cfg.initial_system, DSTParams):
        raise ConfigError("sweep_energy needs a DSTParams initial state")
    if len(nbar_grid) == 0:
        raise ConfigError("empty grid")
    for nbar in nbar_grid:
        _check_nbar(nbar, "nbar_grid: nbar")
    states = [replace(base_cfg.initial_system, nbar=float(nbar))
              for nbar in nbar_grid]
    d, k = base_cfg.topology.regulator_levels, base_cfg.regulator_level
    traces = _run_cells(base_cfg, [(d, k, p) for p in states])
    out = []
    for p, trace in zip(states, traces):
        n = rule.first_admissible(trace)
        at = n if n is not None else base_cfg.n_max
        out.append(EnergyRecord(dst_mean_energy(p), n,
                                float(trace.fidelity[at]),
                                float(trace.probability[at])))
    return out


def max_coolable_nbar(base_cfg: ProtocolConfig, nbar_lo: float = 0.05,
                      nbar_hi: float = 14.0, iters: int = 24,
                      rule: ReportRule = ReportRule("first_admissible")
                      ) -> Optional[float]:
    """Largest thermal occupation still coolable under the
    first_admissible `rule` (`sweep_energy`), by bisection; None when
    even nbar_lo fails.  When nbar_hi is itself coolable the threshold
    is not bracketed: it warns and returns nbar_hi.  Needs finite
    0 <= nbar_lo < nbar_hi and a positive integer iters."""
    _check_mode(rule, ("first_admissible",), "max_coolable_nbar")
    _check_nbar(nbar_lo, "nbar_lo")
    _check_nbar(nbar_hi, "nbar_hi")
    if not nbar_lo < nbar_hi:
        raise ConfigError(f"need nbar_lo < nbar_hi, got {nbar_lo} and {nbar_hi}")
    if not is_int(iters) or iters < 1:
        raise ConfigError(f"iters must be a positive integer, got {iters!r}")

    def coolable(nbar):
        rec = sweep_energy(base_cfg, [nbar], rule)[0]
        return rec.cycles is not None

    if not coolable(nbar_lo):
        return None
    if coolable(nbar_hi):
        warnings.warn(f"the coolable threshold is at or above nbar_hi = "
                      f"{nbar_hi:g}; raise nbar_hi to bracket it",
                      RuntimeWarning, stacklevel=2)
        return nbar_hi
    lo, hi = nbar_lo, nbar_hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if coolable(mid):
            lo = mid
        else:
            hi = mid
    return lo
