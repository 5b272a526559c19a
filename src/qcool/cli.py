"""Configuration-driven command line front end.

Three commands: `qcool run <config>` executes an experiment described by
an INI-style config and writes CSV, `qcool validate <config>` checks the
schema and prints the canonical form, `qcool list-experiments` shows the
available experiment kinds.  Exit codes: 0 success, 2 config error,
3 numeric error.
"""
from __future__ import annotations

import argparse
import configparser
import functools
import itertools
import sys
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import ConfigError, QcoolError
from .hamiltonians import CouplingParams, Topology
from .states import DSTParams
from . import gaussian as gaussmod
from . import protocol
from . import stateprep


# ------------------------------------------------------------ the schema

def _f(s): return float(s)
def _i(s): return int(s)
def _s(s): return str(s).strip()


def _list(cast):
    return lambda s: [cast(x.strip()) for x in str(s).split(",") if x.strip()]


def _optional(cast):
    return lambda s: None if str(s).strip() == "" else cast(str(s).strip())


_fl, _il, _sl = _list(float), _list(int), _list(str)
_opt_f, _opt_i = _optional(float), _optional(int)


# section -> key -> (caster, default-as-string), in canonical order
SCHEMA: Dict[str, Dict[str, tuple]] = {
    "experiment": {"kind": (_s, "cool")},
    "state": {
        "alpha": (_f, "0"), "alpha_phase": (_f, "0"), "r": (_f, "0"),
        "theta": (_f, "0"), "nbar": (_f, "0"),
    },
    "topology": {
        "kind": (_s, "single"), "modes": (_i, "1"),
        "system_levels": (_i, "2"), "regulator_kind": (_s, "qudit"),
    },
    "coupling": {
        "lambda": (_f, "1"), "lambda_tilde": (_f, "1"),
        "omega_a": (_f, "1"), "omega_f": (_f, "1"),
    },
    "regulator": {"d": (_i, "2"), "k": (_i, "0")},
    "protocol": {
        "t": (_opt_f, ""), "n_max": (_i, "100"),
        "fidelity_target": (_f, "0.999"), "probability_floor": (_f, "0.1"),
        "convergence_tol": (_f, "1e-3"), "cutoff": (_i, "50"),
        "e_max": (_opt_i, ""),
    },
    "sweep": {
        "d_list": (_il, ""), "k_list": (_il, ""), "ds_list": (_il, ""),
        "nbar_grid": (_fl, ""), "report": (_s, "converged"),
        "stop": (_f, "0.9998"), "settle_tol": (_f, "1.2e-5"),
    },
    "gaussian": {
        "alpha1": (_fl, "0"), "alpha2": (_fl, "0"), "r": (_fl, "0"),
        "nbar": (_fl, "0"),
    },
    "prep": {
        "kinds": (_sl, "cat"), "alpha": (_f, "1.2"), "r": (_f, "0.3"),
        "d": (_i, "2"), "n_components": (_i, "2"), "cutoff": (_i, "60"),
    },
    "output": {"path": (_s, "")},
}


def load_config(path) -> Dict[str, Dict]:
    """Parse and schema-check a config file; unknown keys are rejected."""
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#",))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}")
    except configparser.Error as err:
        raise ConfigError(f"malformed config: {err}")

    cfg: Dict[str, Dict] = {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in [{section}]")
    for section, keys in SCHEMA.items():
        cfg[section] = {}
        for key, (cast, default) in keys.items():
            raw = parser.get(section, key, fallback=default)
            try:
                cfg[section][key] = cast(raw)
            except (TypeError, ValueError):
                raise ConfigError(f"bad value for '{key}' in [{section}]: {raw!r}")
    kind = cfg["experiment"]["kind"]
    if kind not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment kind '{kind}'")
    return cfg


def canonical_form(cfg: Dict[str, Dict]) -> str:
    """Deterministic full serialization; parsing it back is a fixed point."""
    lines = []
    for section, keys in SCHEMA.items():
        lines.append(f"[{section}]")
        for key in keys:
            lines.append(f"{key} = {_fmt_value(cfg[section][key])}")
        lines.append("")
    return "\n".join(lines)


def _fmt_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, list):
        return ",".join(_fmt_value(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


# ---------------------------------------------------------- CSV emission

def emit_csv(header: Sequence[str], rows: List[tuple], path,
             key_cols: int) -> None:
    """Write rows with 9-significant-digit floats, sorted lexicographically
    by the first key_cols columns."""

    def sort_key(row):
        return tuple((v is None, v) for v in row[:key_cols])

    out = [",".join(header)]
    for row in sorted(rows, key=sort_key):
        out.append(",".join(_fmt_cell(v) for v in row))
    Path(path).write_text("\n".join(out) + "\n")


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.9g" % float(v)
    return str(v)


# ------------------------------------------------------------- execution

def _state_params(cfg) -> DSTParams:
    s = cfg["state"]
    try:
        return DSTParams(alpha_mag=s["alpha"], alpha_phase=s["alpha_phase"],
                         r=s["r"], theta=s["theta"], nbar=s["nbar"])
    except ValueError as err:
        raise ConfigError(f"[state]: {err}")


def _coupling(cfg) -> CouplingParams:
    c = cfg["coupling"]
    try:
        return CouplingParams(lam=c["lambda"], lam_tilde=c["lambda_tilde"],
                              omega_a=c["omega_a"], omega_f=c["omega_f"])
    except ValueError as err:
        raise ConfigError(f"[coupling]: {err}")


def _report_args(cfg):
    """[sweep] report, stop and settle_tol, range-checked."""
    s = cfg["sweep"]
    args = s["report"], s["stop"], s["settle_tol"]
    protocol.check_report(*args)
    return args


def _topology(cfg, d: Optional[int] = None) -> Topology:
    t = cfg["topology"]
    d = cfg["regulator"]["d"] if d is None else d
    try:
        return Topology(kind=t["kind"], regulator_levels=d, modes=t["modes"],
                        system_levels=t["system_levels"],
                        regulator_kind=t["regulator_kind"])
    except ValueError as err:
        raise ConfigError(f"[topology]: {err}")


def _protocol_config(cfg, **overrides) -> protocol.ProtocolConfig:
    p = cfg["protocol"]
    base = dict(
        topology=_topology(cfg), initial_system=_state_params(cfg),
        regulator_level=cfg["regulator"]["k"], cycle_time=p["t"],
        n_max=p["n_max"], fidelity_target=p["fidelity_target"],
        probability_floor=p["probability_floor"],
        convergence_tol=p["convergence_tol"], coupling=_coupling(cfg),
        cutoff=p["cutoff"], e_max=p["e_max"])
    base.update(overrides)
    return protocol.ProtocolConfig(**base)


def _out_path(cfg, config_path) -> Path:
    p = cfg["output"]["path"]
    if p:
        return Path(p)
    return Path(config_path).with_suffix(".csv")


def _run_cool(cfg, out):
    trace = protocol.run_protocol(_protocol_config(cfg))
    rows = [(n, float(trace.fidelity[n]), float(trace.probability[n]),
             float(trace.fidelity[n] * trace.probability[n]))
            for n in range(trace.n_max + 1)]
    emit_csv(("cycle", "F", "P", "FP_product"), rows, out, key_cols=1)


def _run_sweep_energy(cfg, out):
    recs = protocol.sweep_energy(_protocol_config(cfg),
                                 cfg["sweep"]["nbar_grid"])
    emit_csv(("energy", "N", "F", "P"),
             [(r.energy, r.cycles, r.fidelity, r.probability) for r in recs],
             out, key_cols=1)


def _write_grid(cfg, out, d_list, k_list):
    """One (d, k, N, F, P) row per cell of the (d, k) grid with k < d
    (`protocol.sweep_dimension` checks the grid)."""
    recs = protocol.sweep_dimension(_protocol_config(cfg), d_list, k_list,
                                    *_report_args(cfg))
    emit_csv(("d", "k", "N", "F", "P"),
             [(r.d, r.k, r.cycles, r.fidelity, r.probability) for r in recs],
             out, key_cols=2)


def _run_sweep_dim(cfg, out):
    _write_grid(cfg, out, cfg["sweep"]["d_list"], cfg["sweep"]["k_list"])


def _run_network(cfg, out):
    if cfg["topology"]["kind"] not in ("linear", "star"):
        raise ConfigError("network experiment needs a linear or star topology")
    _run_sweep_dim(cfg, out)


def _run_hybrid(cfg, out):
    if cfg["topology"]["kind"] != "hybrid":
        raise ConfigError("hybrid experiment needs topology kind = hybrid")
    s = cfg["sweep"]
    if s["ds_list"]:
        if s["d_list"] or s["k_list"]:
            raise ConfigError("[sweep] ds_list runs at [regulator] d and k; "
                              "it takes no d_list or k_list")
        if min(s["ds_list"]) < 2:
            raise ConfigError(f"[sweep] ds_list: the system qudit needs "
                              f"d_s >= 2, got {min(s['ds_list'])}")
        report, rows = _report_args(cfg), []
        for ds in s["ds_list"]:
            pc = _protocol_config(cfg)
            pc = replace(pc, topology=replace(pc.topology, system_levels=ds))
            trace = protocol.run_protocol(pc)
            n = protocol.report_cycles(trace, *report)
            rows.append((ds, n, float(trace.fidelity[n]),
                         float(trace.probability[n])))
        emit_csv(("d_s", "N", "F", "P"), rows, out, key_cols=1)
        return
    _write_grid(cfg, out, s["d_list"] or [cfg["regulator"]["d"]],
                s["k_list"] or [cfg["regulator"]["k"]])


def _run_gaussian(cfg, out):
    g = cfg["gaussian"]
    if not (g["alpha1"] and g["alpha2"] and g["r"] and g["nbar"]):
        raise ConfigError("empty grid: gaussian lists must be non-empty")
    points = list(itertools.product(g["alpha1"], g["alpha2"], g["r"],
                                    g["nbar"]))
    res = gaussmod.oneshot_stack(*zip(*points))
    rows = [p + v for p, v in zip(points, zip(
        res.fidelity, res.prob_formula, res.prob_projector))]
    emit_csv(("alpha1", "alpha2", "r", "nbar", "fidelity", "prob_formula",
              "prob_projector"), rows, out, key_cols=4)


def _run_opt_time(cfg, out):
    if cfg["protocol"]["t"] is not None:
        raise ConfigError("opt-time writes the default cycle times; "
                          "it takes no [protocol] t")
    base = _protocol_config(cfg)
    rows = []
    for k in cfg["sweep"]["k_list"] or range(base.topology.regulator_levels):
        pc = replace(base, regulator_level=k)
        pc.validate()
        res = protocol.default_cycle_time(pc.topology, k, pc.coupling)
        rows.append((k, res.t_opt, res.residual))
    emit_csv(("k", "t_opt", "residual"), rows, out, key_cols=1)


def _prep_one(kind, p, cat) -> stateprep.PrepResult:
    """One prep row; cat() gives the even cat, which odd-cat starts from."""
    if kind == "cat":
        return cat()
    if kind == "odd-cat":
        return stateprep.make_odd_cat(cat())
    if kind == "hybrid-entangled":
        return stateprep.make_hybrid_entangled(p["d"], p["r"],
                                               cutoff=p["cutoff"])
    if kind == "noon":
        return stateprep.make_noon(p["d"], cutoff=p["cutoff"])
    raise ConfigError(f"unknown prep kind '{kind}'")


def _run_prep(cfg, out):
    p = cfg["prep"]
    # the even cat, built at most once for the cat and odd-cat rows
    cat = functools.cache(lambda: stateprep.make_cat(
        p["alpha"], p["n_components"], cutoff=p["cutoff"]))
    rows = []
    for kind in p["kinds"]:
        try:
            res = _prep_one(kind, p, cat)
        except ValueError as err:     # the circuits' d/cutoff/r checks
            raise ConfigError(f"[prep] {kind}: {err}")
        rows.append((res.kind, res.d, res.param, res.target_fidelity,
                     res.success_prob))
    emit_csv(("kind", "d", "param", "fidelity", "success_prob"), rows, out,
             key_cols=3)


# experiment kind -> (runner, help line)
EXPERIMENTS = {
    "cool": (_run_cool, "single cooling run, per-cycle trace CSV"),
    "sweep-dim": (_run_sweep_dim, "cycle counts over regulator dimension and level"),
    "sweep-energy": (_run_sweep_energy, "cooling cycles versus initial mean energy"),
    "network": (_run_network, "linear/star oscillator-network cooling"),
    "hybrid": (_run_hybrid, "oscillator + qudit pair cooling"),
    "gaussian": (_run_gaussian, "covariance-matrix one-shot cooling"),
    "opt-time": (_run_opt_time, "optimal cycle times per measurement level"),
    "prep": (_run_prep, "state-preparation circuits on the cooled pair"),
}


def run(config_path) -> int:
    """Execute one experiment config; returns the process exit code."""
    try:
        cfg = load_config(config_path)
        out = _out_path(cfg, config_path)
        EXPERIMENTS[cfg["experiment"]["kind"]][0](cfg, out)
        print(f"wrote {out}")
        return 0
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (QcoolError, np.linalg.LinAlgError) as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return 3


def validate(config_path) -> int:
    try:
        cfg = load_config(config_path)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    print(canonical_form(cfg), end="")
    return 0


def list_experiments() -> int:
    for kind, (_, text) in EXPERIMENTS.items():
        print(f"{kind:14s} {text}")
    exp_dir = Path("experiments")
    if exp_dir.is_dir():
        cfgs = sorted(exp_dir.glob("*.cfg"))
        if cfgs:
            print("\nconfigs in ./experiments:")
            for c in cfgs:
                print(f"  {c}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="qcool",
        description="measurement-based cooling of oscillator networks")
    sub = ap.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_val = sub.add_parser("validate", help="schema-check a config and "
                                            "print its canonical form")
    p_val.add_argument("config")
    sub.add_parser("list-experiments", help="list experiment kinds")
    args = ap.parse_args(argv)
    if args.command == "run":
        return run(args.config)
    if args.command == "validate":
        return validate(args.config)
    return list_experiments()


if __name__ == "__main__":
    sys.exit(main())
