"""Topologies and coupling parameters: single oscillator + regulator,
linear and star networks, and the hybrid oscillator/qudit system.

All interactions are excitation-conserving ladder exchanges of the form
w * (lower_i raise_j + h.c.).  Oscillator ladders carry sqrt(n) weights;
qudit ladders sum_k |k><k-1| are unweighted and truncated at the top level
(terms referencing level -1 or d are dropped).  The regulator is always
the last subsystem; in the linear chain the regulator couples to
oscillator 1 and the chain is open.

The exchanges conserve the total excitation E, so a frequency common to
every subsystem adds E times it to block E: one phase per block, which
cancels in every F_n, P_n and |lambda_0|.  Every run is therefore
computed in the frame rotating with the oscillators, whose free part is
detuning = omega_a - omega_f times the level of each non-oscillator
subsystem: the regulator and the hybrid's system qudit.

`Topology` and `CouplingParams` drive every runner; the runners build
the Hamiltonian one excitation block at a time from
`Topology.coupling_edges`.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Optional, Tuple

from .hilbert import check_finite_reals, is_int


@dataclass(frozen=True)
class CouplingParams:
    """Coupling strengths and the detuning omega_a - omega_f (module
    docstring); defaults are the resonant lam = lam_tilde = 1,
    detuning = 0 convention.  Every field is a finite real number (no
    bool)."""
    lam: float = 1.0          # oscillator-regulator coupling
    lam_tilde: float = 1.0    # oscillator-oscillator hopping
    detuning: float = 0.0     # qudit level spacing less the oscillators'

    def __post_init__(self):
        check_finite_reals((f.name, getattr(self, f.name))
                           for f in fields(self))


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
        for name in ("regulator_levels", "modes", "system_levels"):
            value = getattr(self, name)
            if not is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.regulator_levels < 2:
            raise ValueError("regulator needs at least 2 levels")
        if self.modes < 1:
            raise ValueError("need at least one oscillator")
        if self.kind in ("single", "hybrid") and self.modes != 1:
            raise ValueError(f"{self.kind} topology is single-mode")
        if self.kind == "hybrid" and self.system_levels < 2:
            raise ValueError("hybrid system qudit needs d_s >= 2")

    @property
    def subsystems(self) -> List[Tuple[bool, Optional[int]]]:
        """(bosonic, level bound) per subsystem, oscillators first and the
        regulator last.  An oscillator has no fixed bound (None: the run
        caps it); the hybrid's system qudit has system_levels levels, and
        the regulator regulator_levels, bosonic when regulator_kind is
        "oscillator"."""
        qudits = [(False, self.system_levels)] if self.kind == "hybrid" else []
        return [(True, None)] * self.modes + qudits + [
            (self.regulator_kind == "oscillator", self.regulator_levels)]

    def coupling_edges(self, params: CouplingParams) -> List[Tuple[int, int, float]]:
        """(i, j, w) triples meaning w * (lower_i raise_j + h.c.)."""
        reg = len(self.subsystems) - 1
        if self.kind == "star":
            return [(i, reg, params.lam) for i in range(self.modes)]
        # oscillator 0 exchanges with the regulator and the hybrid's qudit;
        # a chain's oscillators hop to their neighbours
        return [(0, j, params.lam) for j in range(self.modes, reg + 1)] + [
            (i + 1, i, params.lam_tilde) for i in range(self.modes - 1)]
