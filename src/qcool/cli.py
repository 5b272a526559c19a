"""Configuration-driven command line front end.

Three commands: `qcool run <config>` executes an experiment described by
an INI-style config and writes CSV, `qcool validate <config>` checks the
config and prints its canonical form, `qcool list-experiments` shows the
available experiment kinds.  Exit codes: 0 success, 2 config error,
3 numeric error.

`EXPERIMENTS` is the one table of experiment kinds.  Each entry holds
the runner, its help line, the (section, key) pairs the kind reads and
the `[topology] kind` values it accepts.  `PREP_KINDS` does the same
for the prep kinds: the `[prep]` keys each reads, and its circuit;
`REPORT_KEYS` holds the thresholds each `[sweep] report` rule reads,
derived from `protocol.RULE_READS`, which also gives the grid kinds'
and sweep-energy's threshold reads.  The grid kinds (sweep-dim,
network, hybrid) state d and k only as `[sweep] d_list` and `k_list`;
a hybrid `ds_list` runs at the one (d, k) those lists give, and stands
in for `[topology] system_levels`.  `load_config` rejects a key the
kind does not read, a topology it does not accept, a `ds_list` beside
other than one d and one k or beside a set `system_levels`, an unknown
prep kind or report rule, a `[prep]` key no listed prep kind reads and
a threshold the report rule does not read (`_narrow`), so `validate`
and `run` fail on the same configs, before anything runs.  A loaded
config holds exactly the keys its kind reads and uses, defaults filled
in, and `canonical_form` prints exactly those.  The runners pass the
loaded report rule and thresholds to one `protocol.ReportRule`
(`_report_rule`), which holds their defaults and range checks.
`SCHEMA` takes every default of a key that feeds a dataclass field
from that field: the report rule's, `DSTParams`', `Topology`'s,
`CouplingParams`' and `ProtocolConfig`'s.

Importing this module freezes the garbage collector's heap (`gc.freeze`,
at the end of the module body): every object alive once numpy, qcool and
`EXPERIMENTS` are loaded, about 22,000, moves to the permanent
generation, so neither a later collection nor interpreter exit walks
them again.  A `qcool run` process is one config, and its final
collections over that heap were most of the 12-14 ms it spent exiting.
Nothing leaks: at that point `gc.collect()` finds no unreachable
object, and objects made later, by a run, are collected as before.  The
freeze is O(1); `import qcool` alone leaves the collector untouched.
"""
from __future__ import annotations

import configparser
import dataclasses
import functools
import gc
import itertools
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Sequence, Tuple

import numpy as np

from .errors import ConfigError, QcoolError
from .hamiltonians import TOPOLOGY_KINDS, CouplingParams, Topology
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

_RULE_FIELDS = frozenset(f.name for f in dataclasses.fields(protocol.ReportRule))


def _d(default) -> str:
    """A dataclass field's default as a config value."""
    return "" if default is None else str(default)


# section -> the dataclass its keys build (`_build`) and each key's field
_FEEDS = {
    "state": (DSTParams, {"alpha": "alpha_mag", "alpha_phase": "alpha_phase",
                          "r": "r", "theta": "theta", "nbar": "nbar"}),
    "coupling": (CouplingParams, {"lambda": "lam", "lambda_tilde": "lam_tilde",
                                  "detuning": "detuning"})}


def _fed(section: str) -> Dict[str, tuple]:
    """The schema of a `_FEEDS` section: real keys, each defaulting to
    its field's default."""
    cls, fields = _FEEDS[section]
    return {key: (_f, _d(getattr(cls, name))) for key, name in fields.items()}


_RUN, _RULE = protocol.ProtocolConfig, protocol.ReportRule

# section -> key -> (caster, default-as-string), in canonical order; a run
# setting's default is that of the dataclass field it feeds
SCHEMA: Dict[str, Dict[str, tuple]] = {
    "experiment": {"kind": (_s, "cool")},
    "state": _fed("state"),
    "topology": {
        "kind": (_s, "single"), "modes": (_i, _d(Topology.modes)),
        "system_levels": (_i, _d(Topology.system_levels)),
        "regulator_kind": (_s, _d(Topology.regulator_kind)),
    },
    "coupling": _fed("coupling"),
    "regulator": {"d": (_i, "2"), "k": (_i, _d(_RUN.regulator_level))},
    "protocol": {
        "t": (_opt_f, _d(_RUN.cycle_time)), "n_max": (_i, _d(_RUN.n_max)),
        "fidelity_target": (_f, _d(_RULE.fidelity_target)),
        "probability_floor": (_f, _d(_RULE.probability_floor)),
        "convergence_tol": (_f, _d(_RULE.convergence_tol)),
        "cutoff": (_i, _d(_RUN.cutoff)), "e_max": (_opt_i, _d(_RUN.e_max)),
    },
    "sweep": {
        "d_list": (_il, ""), "k_list": (_il, ""), "ds_list": (_il, ""),
        "nbar_grid": (_fl, ""), "report": (_s, _d(_RULE.mode)),
        "stop": (_f, _d(_RULE.stop)), "settle_tol": (_f, _d(_RULE.settle_tol)),
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
    """Parse and check a config file.  Unknown sections and keys, keys
    the experiment kind does not read, a topology it does not accept, a
    `ds_list` with an entry below 2, or beside a `d_list` or `k_list`
    that does not hold exactly one entry, or beside a set `[topology]
    system_levels`, an unknown prep kind or report rule, a `[prep]` key
    no listed prep kind reads (`PREP_KINDS`) and a threshold the report
    rule does not read (`REPORT_KEYS`) are config errors; the result
    holds every key the kind reads, and only those, defaults filled in,
    in schema order, less `system_levels` beside a `ds_list`, the
    `[prep]` keys no listed kind reads and the thresholds the report
    rule does not read."""
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#",))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}")
    except configparser.Error as err:
        raise ConfigError(f"malformed config: {err}")

    kind = _s(parser.get("experiment", "kind",
                         fallback=SCHEMA["experiment"]["kind"][1]))
    if kind not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment kind '{kind}'")
    spec = EXPERIMENTS[kind]
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in [{section}]")
            if (section, key) not in spec.reads:
                raise ConfigError(
                    f"the {kind} experiment does not read [{section}] {key}")

    cfg: Dict[str, Dict] = {}
    for section, keys in SCHEMA.items():
        for key, (cast, default) in keys.items():
            if (section, key) not in spec.reads:
                continue
            raw = parser.get(section, key, fallback=default)
            try:
                cfg.setdefault(section, {})[key] = cast(raw)
            except (TypeError, ValueError):
                raise ConfigError(f"bad value for '{key}' in [{section}]: {raw!r}")
    if spec.topologies and cfg["topology"]["kind"] not in spec.topologies:
        raise ConfigError(
            f"the {kind} experiment needs [topology] kind in "
            f"{{{', '.join(spec.topologies)}}}, got '{cfg['topology']['kind']}'")
    if kind == "prep":
        _narrow(cfg, parser, "prep kind", cfg["prep"]["kinds"],
                {name: [("prep", key) for key in keys]
                 for name, (keys, _) in PREP_KINDS.items()})
    if ("sweep", "report") in spec.reads:
        _narrow(cfg, parser, "report rule", [cfg["sweep"]["report"]],
                REPORT_KEYS)
    ds_list = cfg.get("sweep", {}).get("ds_list")
    if ds_list:
        if not len(cfg["sweep"]["d_list"]) == len(cfg["sweep"]["k_list"]) == 1:
            raise ConfigError("[sweep] ds_list runs at one (d, k): it needs "
                              "one d_list and one k_list entry")
        if parser.has_option("topology", "system_levels"):
            raise ConfigError("[sweep] ds_list sets the system qudit "
                              "dimension; it takes no [topology] "
                              "system_levels")
        if min(ds_list) < 2:
            raise ConfigError(f"[sweep] ds_list: the system qudit needs "
                              f"d_s >= 2, got {min(ds_list)}")
        del cfg["topology"]["system_levels"]
    return cfg


def canonical_form(cfg: Dict[str, Dict]) -> str:
    """Deterministic serialization of a loaded config, every key its kind
    reads; parsing it back is a fixed point."""
    lines = []
    for section, keys in cfg.items():
        lines.append(f"[{section}]")
        for key, value in keys.items():
            lines.append(f"{key} = {_fmt_value(value)}")
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
    try:
        Path(path).write_text("\n".join(out) + "\n")
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err.strerror or err}")


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.9g" % float(v)
    return str(v)


# ------------------------------------------------------------- execution

def _build(cfg, section: str):
    """The dataclass of a loaded [state] or [coupling] (`_FEEDS`); its
    defaults, the vacuum for [state], when the kind reads no such section."""
    cls, fields = _FEEDS[section]
    try:
        return cls(**{fields[key]: value
                      for key, value in cfg.get(section, {}).items()})
    except ValueError as err:
        raise ConfigError(f"[{section}]: {err}")


def _report_rule(cfg) -> protocol.ReportRule:
    """The ReportRule of the loaded [sweep] report and thresholds, checked
    when made; a field the kind or its rule does not read keeps the
    rule's default."""
    given = {("mode" if key == "report" else key): value
             for section in ("protocol", "sweep")
             for key, value in cfg.get(section, {}).items()}
    return protocol.ReportRule(
        **{key: value for key, value in given.items() if key in _RULE_FIELDS})


def _protocol_config(cfg) -> protocol.ProtocolConfig:
    """The ProtocolConfig of the keys a kind reads, less the report
    thresholds (`_report_rule`); a field it does not read keeps
    ProtocolConfig's default, and so does a [topology] key it lacks
    (`system_levels` beside a `ds_list`).  The grid kinds read no
    [regulator]: each grid cell sets its own d and k, and the base holds
    d = 2 only because a Topology needs one."""
    reg = cfg.get("regulator", {})
    try:
        topology = Topology(regulator_levels=reg.get("d", 2),
                            **cfg["topology"])
    except ValueError as err:
        raise ConfigError(f"[topology]: {err}")
    fields = {("cycle_time" if key == "t" else key): value
              for key, value in cfg.get("protocol", {}).items()
              if key not in _RULE_FIELDS}
    return protocol.ProtocolConfig(
        topology=topology, initial_system=_build(cfg, "state"),
        regulator_level=reg.get("k", 0), coupling=_build(cfg, "coupling"),
        **fields)


def _out_path(cfg, config_path) -> Path:
    """[output] path, or the config's own path with a .csv suffix; its
    directory must exist and the path must name neither a directory nor
    the config file itself."""
    p = cfg["output"]["path"]
    out = Path(p) if p else Path(config_path).with_suffix(".csv")
    try:
        is_dir, in_dir = out.is_dir(), out.parent.is_dir()
        is_config = out.exists() and out.samefile(config_path)
    except OSError as err:      # a name too long, say
        raise ConfigError(f"cannot write {out}: {err.strerror or err}")
    if is_dir:
        raise ConfigError(f"cannot write {out}: it is a directory")
    if not in_dir:
        raise ConfigError(f"cannot write {out}: no directory {out.parent}")
    if is_config:
        raise ConfigError(f"cannot write {out}: it is the config file")
    return out


def _run_cool(cfg, out):
    trace = protocol.run_protocol(_protocol_config(cfg))
    rows = [(n, float(trace.fidelity[n]), float(trace.probability[n]),
             float(trace.fidelity[n] * trace.probability[n]))
            for n in range(trace.n_max + 1)]
    emit_csv(("cycle", "F", "P", "FP_product"), rows, out, key_cols=1)


def _run_sweep_energy(cfg, out):
    recs = protocol.sweep_energy(_protocol_config(cfg),
                                 cfg["sweep"]["nbar_grid"], _report_rule(cfg))
    emit_csv(("energy", "N", "F", "P"),
             [(r.energy, r.cycles, r.fidelity, r.probability) for r in recs],
             out, key_cols=1)


def _run_grid(cfg, out):
    """sweep-dim, network and hybrid: one (d, k, N, F, P) row per cell of
    the (d, k) grid with k < d (`protocol.sweep_dimension` checks the
    grid), or one (d_s, N, F, P) row per system qudit dimension of a
    hybrid `ds_list`, each the one cell of its d_s at the lists' single
    (d, k).  The kinds differ only in what they read (EXPERIMENTS):
    hybrid alone reads `ds_list`."""
    s, rule, base = cfg["sweep"], _report_rule(cfg), _protocol_config(cfg)
    if not s.get("ds_list"):
        recs = protocol.sweep_dimension(base, s["d_list"], s["k_list"], rule)
        emit_csv(("d", "k", "N", "F", "P"),
                 [(r.d, r.k, r.cycles, r.fidelity, r.probability)
                  for r in recs], out, key_cols=2)
        return
    rows = []
    for ds in s["ds_list"]:
        [r] = protocol.sweep_dimension(
            replace(base, topology=replace(base.topology, system_levels=ds)),
            s["d_list"], s["k_list"], rule)
        rows.append((ds, r.cycles, r.fidelity, r.probability))
    emit_csv(("d_s", "N", "F", "P"), rows, out, key_cols=1)


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
    """One (k, t_opt, residual) row per level of `k_list` (all levels of
    [regulator] d when empty); every k is checked before any search, and
    each distinct k is searched once.  The k = 0 time is fixed for the
    default coupling alone, so any other coupling takes no k = 0."""
    base = _protocol_config(cfg)
    levels = cfg["sweep"]["k_list"] or range(base.topology.regulator_levels)
    if 0 in levels and base.coupling != CouplingParams():
        raise ConfigError("k = 0 has a cycle time at the default [coupling] "
                          "only; list the levels k >= 1 in [sweep] k_list")
    for k in levels:
        replace(base, regulator_level=k).validate()
    times = {k: protocol.default_cycle_time(base.topology, k, base.coupling)
             for k in dict.fromkeys(levels)}
    rows = [(k, times[k].t_opt, times[k].residual) for k in levels]
    emit_csv(("k", "t_opt", "residual"), rows, out, key_cols=1)


# prep kind -> ([prep] keys it reads besides kinds and cutoff, its circuit
# from the loaded [prep] and cat(), the even cat that odd-cat starts from)
PREP_KINDS: Dict[str, Tuple[Tuple[str, ...], Callable]] = {
    "cat": (("alpha", "n_components"), lambda p, cat: cat()),
    "odd-cat": (("alpha", "n_components"),
                lambda p, cat: stateprep.make_odd_cat(cat())),
    "hybrid-entangled": (("r", "d"), lambda p, cat: (
        stateprep.make_hybrid_entangled(p["d"], p["r"], cutoff=p["cutoff"]))),
    "noon": (("d",), lambda p, cat: (
        stateprep.make_noon(p["d"], cutoff=p["cutoff"]))),
}


# rule -> the (section, key) of each threshold it reads, from
# protocol.RULE_READS; REPORT_KEYS holds those of the [sweep] report modes
_RULE_KEYS = {rule: frozenset((s, key) for key in keys
                              for s in ("protocol", "sweep")
                              if key in SCHEMA[s])
              for rule, keys in protocol.RULE_READS.items()}
REPORT_KEYS = {mode: _RULE_KEYS[mode] for mode in protocol.REPORT_MODES}


def _narrow(cfg, parser, what: str, names: List[str], reads) -> None:
    """Narrow cfg to the listed names of one table, `reads` (name -> the
    (section, key) pairs it reads): reject a name the table lacks and a
    key that some name reads, no listed name reads and the file sets;
    drop the other keys that no listed name reads."""
    for name in names:
        if name not in reads:
            raise ConfigError(f"unknown {what} '{name}'")
    unread = set().union(*reads.values()).difference(
        *(reads[name] for name in names))
    for section, key in [(s, k) for s in cfg for k in cfg[s]
                         if (s, k) in unread]:
        if parser.has_option(section, key):
            raise ConfigError(f"no listed {what} ({', '.join(names)}) reads "
                              f"[{section}] {key}")
        del cfg[section][key]


def _run_prep(cfg, out):
    p = cfg["prep"]
    # the even cat, built at most once for the cat and odd-cat rows
    cat = functools.cache(lambda: stateprep.make_cat(
        p["alpha"], p["n_components"], cutoff=p["cutoff"]))
    rows = []
    for kind in p["kinds"]:
        try:
            res = PREP_KINDS[kind][1](p, cat)
        except ValueError as err:     # the circuits' d/cutoff/r checks
            raise ConfigError(f"[prep] {kind}: {err}")
        rows.append((res.kind, res.d, res.param, res.target_fidelity,
                     res.success_prob))
    emit_csv(("kind", "d", "param", "fidelity", "success_prob"), rows, out,
             key_cols=3)


class Experiment(NamedTuple):
    """One experiment kind: its runner, its help line, the (section, key)
    pairs it reads and the [topology] kind values it accepts (none when
    it reads no [topology])."""
    runner: Callable
    help: str
    reads: FrozenSet[Tuple[str, str]]
    topologies: Tuple[str, ...] = ()


def _reads(*sections, **keys) -> FrozenSet[Tuple[str, str]]:
    """Every key of the named sections and the listed keys of the keyword
    ones; every kind also reads [experiment] and [output]."""
    whole = sections + ("experiment", "output")
    return frozenset([(s, k) for s in whole for k in SCHEMA[s]]
                     + [(s, k) for s, ks in keys.items() for k in ks])


_COOL = _reads("state", "topology", "coupling", "regulator",
               protocol=("t", "n_max", "cutoff", "e_max"))
_GRID = _reads("state", "topology", "coupling",
               protocol=("t", "n_max", "cutoff", "e_max"),
               sweep=("d_list", "k_list", "report")
               ).union(*REPORT_KEYS.values())

EXPERIMENTS: Dict[str, Experiment] = {
    "cool": Experiment(_run_cool, "single cooling run, per-cycle trace CSV",
                       _COOL, TOPOLOGY_KINDS),
    "sweep-dim": Experiment(
        _run_grid, "cycle counts over regulator dimension and level",
        _GRID, TOPOLOGY_KINDS),
    "sweep-energy": Experiment(
        _run_sweep_energy, "cooling cycles versus initial mean energy",
        _COOL | _reads(sweep=("nbar_grid",)) | _RULE_KEYS["first_admissible"],
        TOPOLOGY_KINDS),
    "network": Experiment(_run_grid, "linear/star oscillator-network cooling",
                          _GRID, ("linear", "star")),
    "hybrid": Experiment(_run_grid, "oscillator + qudit pair cooling",
                         _GRID | _reads(sweep=("ds_list",)), ("hybrid",)),
    "gaussian": Experiment(_run_gaussian, "covariance-matrix one-shot cooling",
                           _reads("gaussian")),
    "opt-time": Experiment(
        _run_opt_time, "optimal cycle times per measurement level",
        _reads("topology", "coupling", regulator=("d",), sweep=("k_list",)),
        TOPOLOGY_KINDS),
    "prep": Experiment(_run_prep,
                       "state-preparation circuits on the cooled pair",
                       _reads("prep")),
}


def run(config_path) -> int:
    """Execute one experiment config; returns the process exit code."""
    try:
        cfg = load_config(config_path)
        out = _out_path(cfg, config_path)
        EXPERIMENTS[cfg["experiment"]["kind"]].runner(cfg, out)
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
    for kind, spec in EXPERIMENTS.items():
        print(f"{kind:14s} {spec.help}")
    exp_dir = Path("experiments")
    if exp_dir.is_dir():
        cfgs = sorted(exp_dir.glob("*.cfg"))
        if cfgs:
            print("\nconfigs in ./experiments:")
            for c in cfgs:
                print(f"  {c}")
    return 0


def main(argv=None) -> int:
    import argparse     # here, not at the top: `run` never parses arguments

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


# the import-time heap is never garbage: take it out of every later
# collection, the interpreter's final ones included (module docstring)
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())
