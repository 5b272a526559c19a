"""Seeded benchmark inputs: qcool configs and what each CSV must satisfy.

The seed draws only state parameters and grid values.  Everything that
sets the amount of work is fixed per workload: topology, regulator
dimensions, cutoffs, grid lengths and an explicit excitation cap `e_max`
on every blocked run (the adaptive cap moves with the state, and one
extra excitation level costs roughly 1.3x at M = 3).  State parameters
come from boxes whose excitation tail beyond that cap stays below the
program's 1e-6 hard tolerance for every phase (see selftest.py), so two
seeds give different inputs and the same work.

Every config writes its CSV through `[output] path` relative to the
directory the child runs in, so configs are byte-identical across runs.
"""
from __future__ import annotations

import math
import random
from typing import Dict, List, NamedTuple, Sequence, Tuple

WORKLOADS = ("network-m3", "energy-sweep")

HALF_PI = repr(math.pi / 2)
N_MAX = 100

# (alpha, r, nbar) box whose tail beyond M3_E_MAX stays below 1e-6
M3_BOX = {"alpha": (0.2, 0.35), "r": (0.0, 0.1), "nbar": (0.1, 0.2)}
M3_E_MAX = 16


class Config(NamedTuple):
    name: str
    text: str
    spec: Dict


def _u(rng: random.Random, lo: float, hi: float, digits: int = 6) -> float:
    return round(rng.uniform(lo, hi), digits)


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return ",".join(_fmt(x) for x in v)
    return str(v)


def _ini(sections: Dict[str, Dict]) -> str:
    out = []
    for name, keys in sections.items():
        out.append(f"[{name}]")
        out += [f"{k} = {_fmt(v)}" for k, v in keys.items()]
        out.append("")
    return "\n".join(out)


def _state(rng: random.Random, box: Dict[str, Tuple[float, float]]) -> Dict:
    return {"alpha": _u(rng, *box["alpha"]),
            "alpha_phase": _u(rng, 0.0, 2 * math.pi),
            "r": _u(rng, *box["r"]),
            "theta": _u(rng, 0.0, 2 * math.pi),
            "nbar": _u(rng, *box["nbar"])}


def _grid(rng: random.Random, n: int, lo: float, hi: float) -> List[float]:
    return sorted(_u(rng, lo, hi, 4) for _ in range(n))


def _spec(rows: int, F: Sequence[str] = (), P: Sequence[str] = (),
          N: Sequence[str] = (), nonneg: Sequence[str] = (),
          blank_N: bool = False) -> Dict:
    """Row count and column bounds: F in [0, 1], P in (0, 1],
    N an integer in [0, n_max] (blank allowed when blank_N), nonneg >= 0."""
    return {"rows": rows, "F": list(F), "P": list(P), "N": list(N),
            "nonneg": list(nonneg), "n_max": N_MAX, "blank_N": blank_N}


def network_m3(rng: random.Random) -> List[Config]:
    """Star and linear M = 3 chains, d = 3..6, k = 0, t = pi/2."""
    d_list = [3, 4, 5, 6]
    out = []
    for kind in ("star", "linear"):
        name = f"{kind}_m3"
        out.append(Config(name, _ini({
            "experiment": {"kind": "network"},
            "state": _state(rng, M3_BOX),
            "topology": {"kind": kind, "modes": 3, "regulator_kind": "qudit"},
            "protocol": {"t": HALF_PI, "cutoff": 30, "e_max": M3_E_MAX,
                         "n_max": N_MAX},
            "sweep": {"d_list": d_list, "k_list": [0], "report": "auto",
                      "stop": 0.999998, "settle_tol": 1.2e-5},
            "output": {"path": f"{name}.csv"},
        }), _spec(len(d_list), F=["F"], P=["P"], N=["N"])))
    return out


def energy_sweep(rng: random.Random) -> List[Config]:
    """Single-mode energy sweeps at cutoff 300, one per k = 0, 1, 2, then
    one small config each of the other single-mode kinds (opt-time,
    gaussian, prep) so that their layers are measured too."""
    out = []
    for d, k in ((4, 0), (5, 1), (6, 2)):
        name = f"energy_d{d}k{k}"
        state = _state(rng, {"alpha": (0.2, 0.6), "r": (0.0, 0.3),
                             "nbar": (0.0, 0.0)})
        grid = _grid(rng, 12, 0.2, 12.0)
        text = _ini({
            "experiment": {"kind": "sweep-energy"},
            "state": state,
            "topology": {"kind": "single"},
            "regulator": {"d": d, "k": k},
            "protocol": {"cutoff": 300, "n_max": N_MAX},
            "sweep": {"nbar_grid": grid},
            "output": {"path": f"{name}.csv"},
        })
        out.append(Config(name, text, _spec(len(grid), F=["F"], P=["P"],
                                            N=["N"], blank_N=True)))

    # k = 3 and 4 need the numeric search for t_opt
    k_list = list(range(5))
    name = "opt_time"
    out.append(Config(name, _ini({
        "experiment": {"kind": "opt-time"},
        "regulator": {"d": 5},
        "sweep": {"k_list": k_list},
        "output": {"path": f"{name}.csv"},
    }), _spec(len(k_list), nonneg=["t_opt", "residual"])))

    g = {"alpha1": _grid(rng, 3, 0.0, 1.0), "alpha2": _grid(rng, 2, 0.0, 0.6),
         "r": _grid(rng, 3, 0.0, 0.6), "nbar": _grid(rng, 3, 0.0, 1.0)}
    name = "gaussian"
    out.append(Config(name, _ini({
        "experiment": {"kind": "gaussian"},
        "gaussian": g,
        "output": {"path": f"{name}.csv"},
    }), _spec(math.prod(len(v) for v in g.values()), F=["fidelity"],
              P=["prob_formula", "prob_projector"])))

    kinds = ["cat", "odd-cat", "hybrid-entangled", "noon"]
    name = "prep"
    out.append(Config(name, _ini({
        "experiment": {"kind": "prep"},
        "prep": {"kinds": kinds, "alpha": _u(rng, 0.8, 1.5),
                 "n_components": 2, "d": 3, "r": _u(rng, 0.1, 0.4),
                 "cutoff": 60},
        "output": {"path": f"{name}.csv"},
    }), _spec(len(kinds), F=["fidelity"], P=["success_prob"])))
    return out


GENERATORS = {"network-m3": network_m3, "energy-sweep": energy_sweep}


def generate(workload: str, seed: int) -> List[Config]:
    """The configs of one workload round; the same seed gives the same bytes."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
