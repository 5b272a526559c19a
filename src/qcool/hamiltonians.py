"""Hamiltonian builders: single oscillator + regulator, linear and star
networks, and the hybrid oscillator/qudit system.

All interactions are excitation-conserving ladder exchanges of the form
w * (lower_i raise_j + h.c.).  Oscillator ladders carry sqrt(n) weights;
qudit ladders sum_k |k><k-1| are unweighted and truncated at the top level
(terms referencing level -1 or d are dropped).  The regulator is always
the last subsystem; in the linear chain the regulator couples to
oscillator 1 and the chain is open.

`Topology` and `CouplingParams` drive every runner.  The dense
product-space builders (`free_hamiltonian`, `interaction_linear`,
`interaction_star`, `hamiltonian_hybrid`, `total_hamiltonian`) are a test
oracle only: the runners build excitation blocks directly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from .hilbert import Oscillator, Qudit, SpaceSpec, _embed, lowering


@dataclass(frozen=True)
class CouplingParams:
    """Coupling strengths and frequencies; defaults are the resonant
    lam = lam_tilde = omega_a = omega_f = 1 convention."""
    lam: float = 1.0          # oscillator-regulator coupling
    lam_tilde: float = 1.0    # oscillator-oscillator hopping
    omega_a: float = 1.0      # qudit level spacing
    omega_f: Union[float, Sequence[float]] = 1.0   # per-oscillator frequency

    def __post_init__(self):
        wf = [self.omega_f] if np.isscalar(self.omega_f) else list(self.omega_f)
        values = [self.lam, self.lam_tilde, self.omega_a] + wf
        if not all(math.isfinite(x) for x in values):
            raise ValueError(f"coupling parameters must be finite, got {values}")

    def omega_f_list(self, n_osc: int) -> List[float]:
        if np.isscalar(self.omega_f):
            return [float(self.omega_f)] * n_osc
        wf = [float(w) for w in self.omega_f]
        if len(wf) != n_osc:
            raise ValueError(f"omega_f has {len(wf)} entries for {n_osc} oscillators")
        return wf


@dataclass(frozen=True)
class Topology:
    """Layout of the system: which subsystems exist and how they couple.

    kind: "single" | "linear" | "star" | "hybrid".  modes is the number of
    oscillators M (linear/star).  system_levels is the auxiliary qudit
    dimension d_s (hybrid only).  regulator_kind "oscillator" replaces the
    d-level regulator by a bosonic mode truncated at regulator_levels.
    """
    kind: str
    regulator_levels: int
    modes: int = 1
    system_levels: int = 2
    regulator_kind: str = "qudit"

    def __post_init__(self):
        if self.kind not in ("single", "linear", "star", "hybrid"):
            raise ValueError(f"unknown topology kind {self.kind!r}")
        if self.regulator_kind not in ("qudit", "oscillator"):
            raise ValueError(f"unknown regulator kind {self.regulator_kind!r}")
        if self.regulator_levels < 2:
            raise ValueError("regulator needs at least 2 levels")
        if self.modes < 1:
            raise ValueError("need at least one oscillator")
        if self.kind in ("single", "hybrid") and self.modes != 1:
            raise ValueError(f"{self.kind} topology is single-mode")
        if self.kind == "hybrid" and self.system_levels < 2:
            raise ValueError("hybrid system qudit needs d_s >= 2")

    def space(self, cutoff: int) -> SpaceSpec:
        """Product space with the regulator last."""
        if self.regulator_kind == "qudit":
            reg = Qudit(self.regulator_levels)
        else:
            reg = Oscillator(self.regulator_levels)
        if self.kind == "hybrid":
            subs = (Oscillator(cutoff), Qudit(self.system_levels), reg)
        else:
            subs = tuple(Oscillator(cutoff) for _ in range(self.modes)) + (reg,)
        return SpaceSpec(subs)

    def coupling_edges(self, params: CouplingParams) -> List[Tuple[int, int, float]]:
        """(i, j, w) triples meaning w * (lower_i raise_j + h.c.)."""
        reg = self.modes + 1 if self.kind == "hybrid" else self.modes
        if self.kind in ("single",):
            return [(0, reg, params.lam)]
        if self.kind == "linear":
            edges = [(0, reg, params.lam)]
            edges += [(i + 1, i, params.lam_tilde) for i in range(self.modes - 1)]
            return edges
        if self.kind == "star":
            return [(i, reg, params.lam) for i in range(self.modes)]
        # hybrid: oscillator exchanges with both the system qudit and the regulator
        return [(0, 1, params.lam), (0, 2, params.lam)]


def free_hamiltonian(space: SpaceSpec, params: CouplingParams) -> np.ndarray:
    """sum_j omega_f_j a_j^dag a_j + sum_qudits omega_a sum_k k |k><k|."""
    n_osc = sum(isinstance(s, Oscillator) for s in space.subsystems)
    wf = iter(params.omega_f_list(n_osc))
    diag = np.zeros(1)
    for s in space.subsystems:
        w = next(wf) if isinstance(s, Oscillator) else params.omega_a
        diag = (diag[:, None] + w * np.arange(s.dim)[None, :]).ravel()
    return np.diag(diag.astype(complex))


def _interaction(space: SpaceSpec, topology: Topology,
                 params: CouplingParams) -> np.ndarray:
    """Sum over coupling edges (i, j, w) of w * (lower_i raise_j + h.c.)."""
    def lower(m):
        sub = space.subsystems[m]
        return _embed(space, m, lowering(sub.dim, isinstance(sub, Oscillator)))

    h = np.zeros((space.dim, space.dim), dtype=complex)
    for i, j, w in topology.coupling_edges(params):
        term = w * (lower(i) @ lower(j).conj().T)
        h += term + term.conj().T
    return h


def _network_interaction(kind: str, space: SpaceSpec, params: CouplingParams,
                         modes: int | None) -> np.ndarray:
    """Interaction of a `kind` network on `space`, regulator last; one mode
    is the single layout."""
    m = len(space.subsystems) - 1 if modes is None else modes
    reg = space.subsystems[-1]
    topo = Topology(kind if m > 1 else "single", regulator_levels=reg.dim,
                    modes=m,
                    regulator_kind="qudit" if isinstance(reg, Qudit) else "oscillator")
    return _interaction(space, topo, params)


def interaction_linear(space: SpaceSpec, params: CouplingParams,
                       modes: int | None = None) -> np.ndarray:
    """lam sum_k a_1 |k><k-1|_R + lam_tilde sum_i a_i^dag a_{i+1} + h.c."""
    return _network_interaction("linear", space, params, modes)


def interaction_star(space: SpaceSpec, params: CouplingParams,
                     modes: int | None = None) -> np.ndarray:
    """lam sum_i a_i (sum_k |k><k-1|_R) + h.c.; no oscillator-oscillator terms."""
    return _network_interaction("star", space, params, modes)


def hamiltonian_hybrid(space: SpaceSpec, params: CouplingParams) -> np.ndarray:
    """Free terms plus lam a (raise_s + raise_R) + h.c.

    The oscillator exchanges excitations with both the system qudit and the
    regulator; the two qudits do not couple directly.
    """
    if len(space.subsystems) != 3:
        raise ValueError("hybrid space is oscillator x qudit(d_s) x regulator")
    topo = Topology("hybrid", regulator_levels=space.subsystems[2].dim,
                    system_levels=space.subsystems[1].dim)
    return free_hamiltonian(space, params) + _interaction(space, topo, params)


def total_hamiltonian(topology: Topology, params: CouplingParams,
                      cutoff: int) -> Tuple[SpaceSpec, np.ndarray]:
    """Free + interaction for the given topology on its standard space."""
    space = topology.space(cutoff)
    if topology.kind == "hybrid":
        return space, hamiltonian_hybrid(space, params)
    h = free_hamiltonian(space, params) + _interaction(space, topology, params)
    return space, h
