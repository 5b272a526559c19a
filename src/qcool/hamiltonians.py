"""Topologies and coupling parameters: single oscillator + regulator,
linear and star networks, and the hybrid oscillator/qudit system.

All interactions are excitation-conserving ladder exchanges of the form
w * (lower_i raise_j + h.c.).  Oscillator ladders carry sqrt(n) weights;
qudit ladders sum_k |k><k-1| are unweighted and truncated at the top level
(terms referencing level -1 or d are dropped).  The regulator is always
the last subsystem; in the linear chain the regulator couples to
oscillator 1 and the chain is open.

`Topology` and `CouplingParams` drive every runner; the runners build
the Hamiltonian one excitation block at a time from
`Topology.coupling_edges`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np


@dataclass(frozen=True)
class CouplingParams:
    """Coupling strengths and frequencies; defaults are the resonant
    lam = lam_tilde = omega_a = omega_f = 1 convention."""
    lam: float = 1.0          # oscillator-regulator coupling
    lam_tilde: float = 1.0    # oscillator-oscillator hopping
    omega_a: float = 1.0      # qudit level spacing
    omega_f: Union[float, Sequence[float]] = 1.0   # per-oscillator frequency

    def __post_init__(self):
        if not np.isscalar(self.omega_f):       # hashable, as the caches need
            object.__setattr__(self, "omega_f", tuple(self.omega_f))
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


TOPOLOGY_KINDS = ("single", "linear", "star", "hybrid")


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
        if self.kind not in TOPOLOGY_KINDS:
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
