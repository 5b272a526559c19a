import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qcool import gaussian, protocol, stateprep
from qcool.cli import (EXPERIMENTS, REPORT_KEYS, SCHEMA, canonical_form,
                       emit_csv, load_config, main, validate)
from qcool.errors import ConfigError
from qcool.hamiltonians import CouplingParams, Topology
from qcool.states import DSTParams


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


COOL_CFG = """
[experiment]
kind = cool

[state]
alpha = 0.4
alpha_phase = 1.5707963267948966
r = 0.1
nbar = 0.4

[regulator]
d = 3
k = 0

[protocol]
n_max = 10
cutoff = 30
"""


def test_run_cool_trace(tmp_path):
    cfg = _write(tmp_path, "cool.cfg", COOL_CFG)
    assert main(["run", str(cfg)]) == 0
    out = tmp_path / "cool.csv"
    lines = out.read_text().splitlines()
    assert lines[0] == "cycle,F,P,FP_product"
    assert len(lines) == 12
    fp = [float(l.split(",")[3]) for l in lines[1:]]
    assert max(fp) - min(fp) < 1e-9


def test_rerun_is_byte_identical(tmp_path):
    cfg = _write(tmp_path, "cool.cfg", COOL_CFG)
    main(["run", str(cfg)])
    first = (tmp_path / "cool.csv").read_bytes()
    main(["run", str(cfg)])
    assert (tmp_path / "cool.csv").read_bytes() == first


def test_output_path_override(tmp_path):
    cfg = _write(tmp_path, "cool.cfg",
                 COOL_CFG + f"\n[output]\npath = {tmp_path}/other.csv\n")
    assert main(["run", str(cfg)]) == 0
    assert (tmp_path / "other.csv").exists()


def test_canonical_form_is_fixed_point(tmp_path):
    cfg_path = _write(tmp_path, "a.cfg", COOL_CFG)
    text = canonical_form(load_config(cfg_path))
    again = _write(tmp_path, "b.cfg", text)
    assert canonical_form(load_config(again)) == text


def test_validate_prints_canonical(tmp_path, capsys):
    cfg = _write(tmp_path, "a.cfg", COOL_CFG)
    assert main(["validate", str(cfg)]) == 0
    got = capsys.readouterr().out
    assert got == canonical_form(load_config(cfg))


def test_unknown_key_rejected(tmp_path):
    cfg = _write(tmp_path, "bad.cfg", "[protocol]\nncycles = 5\n")
    assert main(["run", str(cfg)]) == 2
    with pytest.raises(ConfigError):
        load_config(cfg)


@pytest.mark.parametrize("key", ["omega_a", "omega_f"])
def test_frequencies_are_unknown_keys(tmp_path, capsys, monkeypatch, key):
    # only their difference, [coupling] detuning, can change a run
    calls = _forbid(monkeypatch, (protocol, "_run_cells"))
    cfg = _write(tmp_path, "f.cfg", COOL_CFG + f"[coupling]\n{key} = 1.0\n")
    for command in ("validate", "run"):
        assert main([command, str(cfg)]) == 2
        assert capsys.readouterr().err == \
            f"config error: unknown key '{key}' in [coupling]\n"
    assert calls == []


def test_unknown_section_rejected(tmp_path):
    cfg = _write(tmp_path, "bad.cfg", "[solver]\nx = 1\n")
    assert main(["run", str(cfg)]) == 2


def test_unknown_kind_rejected(tmp_path):
    cfg = _write(tmp_path, "bad.cfg", "[experiment]\nkind = anneal\n")
    assert main(["run", str(cfg)]) == 2


def test_empty_grid_rejected(tmp_path):
    cfg = _write(tmp_path, "sweep.cfg", "[experiment]\nkind = sweep-dim\n")
    assert main(["run", str(cfg)]) == 2


def test_truncation_exits_3(tmp_path):
    cfg = _write(tmp_path, "leak.cfg", """
[experiment]
kind = cool
[state]
alpha = 2.5
[regulator]
d = 3
[protocol]
cutoff = 4
n_max = 3
""")
    assert main(["run", str(cfg)]) == 3


def test_sweep_rows_sorted(tmp_path):
    cfg = _write(tmp_path, "sw.cfg", """
[experiment]
kind = sweep-dim
[state]
alpha = 0.4
alpha_phase = 1.5707963267948966
r = 0.1
nbar = 0.4
[protocol]
n_max = 5
cutoff = 30
[sweep]
d_list = 4,2,3
k_list = 1,0
""")
    assert main(["run", str(cfg)]) == 0
    lines = (tmp_path / "sw.csv").read_text().splitlines()
    assert lines[0] == "d,k,N,F,P"
    dk = [tuple(int(x) for x in l.split(",")[:2]) for l in lines[1:]]
    assert dk == sorted(dk)
    assert (2, 1) in dk and len(dk) == 6   # k < d only, but k=1,d=2 is valid


def test_opt_time_csv(tmp_path):
    cfg = _write(tmp_path, "ot.cfg", """
[experiment]
kind = opt-time
[regulator]
d = 4
[sweep]
k_list = 0,1,2
""")
    assert main(["run", str(cfg)]) == 0
    lines = (tmp_path / "ot.csv").read_text().splitlines()
    assert lines[0] == "k,t_opt,residual"
    t = [float(l.split(",")[1]) for l in lines[1:]]
    assert t == pytest.approx([np.pi / 2, np.pi, 2 * np.pi / np.sqrt(3)])


def test_opt_time_reads_topology_and_coupling(tmp_path, capsys, monkeypatch):
    # the rule of the default cycle time: a star of M = 3 at lambda = 2
    # sees its bright mode at 2 sqrt(3), so k = 1 takes pi / (2 sqrt(3))
    text = ("[experiment]\nkind = opt-time\n[topology]\nkind = star\n"
            "modes = 3\n[coupling]\nlambda = 2\n[regulator]\nd = 3\n"
            "[sweep]\nk_list = {}\n")
    cfg = _write(tmp_path, "ot.cfg", text.format("1,2"))
    assert main(["run", str(cfg)]) == 0
    rows = [l.split(",") for l in (tmp_path / "ot.csv").read_text().splitlines()]
    assert [r[0] for r in rows[1:]] == ["1", "2"]
    assert float(rows[1][1]) == pytest.approx(np.pi / (2 * np.sqrt(3)),
                                              rel=1e-8)
    # k = 2: the single oscillator's 2 pi / sqrt(3), over 2 sqrt(3)
    assert float(rows[2][1]) == pytest.approx(np.pi / 3, rel=1e-8)
    # k = 0 has no time of its own at this coupling, whether listed or
    # implied by an empty k_list; rejected before any search
    calls = _forbid(monkeypatch, (protocol, "default_cycle_time"))
    for k_list in ("0,1", ""):
        cfg = _write(tmp_path, "ot.cfg", text.format(k_list))
        assert main(["run", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "config error: k = 0 has a cycle time at the default [coupling] "
            "only; list the levels k >= 1 in [sweep] k_list\n")
    assert calls == []


def test_zero_coupling_without_time_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "z.cfg", COOL_CFG.replace(
        "k = 0", "k = 1") + "[coupling]\nlambda = 0\n")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "set [protocol] t" in err
    assert not (tmp_path / "z.csv").exists()


def test_opt_time_default_levels(tmp_path):
    # an empty k_list measures every level of the configured regulator
    cfg = _write(tmp_path, "ot.cfg",
                 "[experiment]\nkind = opt-time\n[regulator]\nd = 3\n")
    assert main(["run", str(cfg)]) == 0
    lines = (tmp_path / "ot.csv").read_text().splitlines()
    assert [l.split(",")[0] for l in lines[1:]] == ["0", "1", "2"]


def test_opt_time_searches_each_level_once(tmp_path, monkeypatch):
    # a repeated k keeps its rows (sorted by k), from one search of that k
    text = ("[experiment]\nkind = opt-time\n[regulator]\nd = 5\n"
            "[sweep]\nk_list = {}\n")
    assert main(["run", str(_write(tmp_path, "ot.cfg", text.format("3,4")))]) == 0
    once = (tmp_path / "ot.csv").read_text().splitlines()
    searched = []
    search = protocol.default_cycle_time

    def spy(topology, k, coupling):
        searched.append(k)
        return search(topology, k, coupling)

    monkeypatch.setattr(protocol, "default_cycle_time", spy)
    cfg = _write(tmp_path, "ot.cfg", text.format("3,3,4,3"))
    assert main(["run", str(cfg)]) == 0
    assert searched == [3, 4]
    lines = (tmp_path / "ot.csv").read_text().splitlines()
    assert lines == once[:1] + 3 * once[1:2] + once[2:]


def test_gaussian_grid_csv(tmp_path):
    cfg = _write(tmp_path, "g.cfg", """
[experiment]
kind = gaussian
[gaussian]
alpha1 = 0,0.4
alpha2 = 0
r = 0,0.2
nbar = 0.5
""")
    assert main(["run", str(cfg)]) == 0
    lines = (tmp_path / "g.csv").read_text().splitlines()
    assert lines[0] == "alpha1,alpha2,r,nbar,fidelity,prob_formula,prob_projector"
    assert len(lines) == 5
    for l in lines[1:]:
        vals = [float(x) for x in l.split(",")[4:]]
        assert vals[0] == pytest.approx(1.0, abs=1e-9)
        # 9-significant-digit printing limits the achievable agreement
        assert vals[1] == pytest.approx(vals[2] / np.pi, rel=1e-8)


def test_prep_csv_ordered_by_kind(tmp_path):
    cfg = _write(tmp_path, "p.cfg", """
[experiment]
kind = prep
[prep]
kinds = noon,cat,hybrid-entangled,odd-cat
alpha = 1.2
d = 3
r = 0.3
n_components = 2
""")
    assert main(["run", str(cfg)]) == 0
    lines = (tmp_path / "p.csv").read_text().splitlines()
    assert lines[0] == "kind,d,param,fidelity,success_prob"
    kinds = [l.split(",")[0] for l in lines[1:]]
    assert kinds == ["cat", "hybrid-entangled", "noon", "odd-cat"]


def test_prep_builds_the_cat_once(tmp_path, monkeypatch):
    # the cat and odd-cat rows share one even cat
    calls = []
    make_cat = stateprep.make_cat

    def spy(*args, **kw):
        calls.append((args, kw))
        return make_cat(*args, **kw)

    monkeypatch.setattr(stateprep, "make_cat", spy)
    exp = Path(__file__).resolve().parents[1] / "experiments"
    shutil.copy(exp / "prep_demo.cfg", tmp_path)
    assert main(["run", str(tmp_path / "prep_demo.cfg")]) == 0
    assert calls == [((1.2, 2), {"cutoff": 60})]
    assert (tmp_path / "prep_demo.csv").read_bytes() == \
        (exp / "prep_demo.csv").read_bytes()


PREP_MAKERS = ("make_cat", "make_odd_cat", "make_hybrid_entangled",
               "make_noon")


@pytest.mark.parametrize("text,message", [
    ("kinds = noon\nalpha = 7.5\nr = 2.0\nn_components = 6\n",
     "no listed prep kind (noon) reads [prep] alpha"),
    ("kinds = cat,bogus\n", "unknown prep kind 'bogus'"),
    ("kinds = cat,odd-cat\nd = 3\n",
     "no listed prep kind (cat, odd-cat) reads [prep] d"),
    ("kinds = hybrid-entangled\nn_components = 4\n",
     "no listed prep kind (hybrid-entangled) reads [prep] n_components"),
    ("kinds = noon,cat\nr = 0.3\n",
     "no listed prep kind (noon, cat) reads [prep] r")],
    ids=["noon-unread", "unknown-kind", "cat-d", "hybrid-n-components",
         "noon-cat-r"])
def test_prep_rejects_kinds_and_keys_before_any_circuit(tmp_path, text,
                                                        message, capsys,
                                                        monkeypatch):
    calls = _forbid(monkeypatch, *[(stateprep, m) for m in PREP_MAKERS])
    cfg = _write(tmp_path, "p.cfg", "[experiment]\nkind = prep\n[prep]\n"
                 + text)
    for command in ("validate", "run"):
        assert main([command, str(cfg)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
    assert calls == []
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("kinds,keys", [
    ("noon", ["kinds", "d", "cutoff"]),
    ("cat", ["kinds", "alpha", "n_components", "cutoff"]),
    ("odd-cat,noon", ["kinds", "alpha", "d", "n_components", "cutoff"]),
    ("hybrid-entangled", ["kinds", "r", "d", "cutoff"]),
    ("cat,odd-cat,hybrid-entangled,noon",
     ["kinds", "alpha", "r", "d", "n_components", "cutoff"])])
def test_prep_config_holds_what_its_kinds_read(tmp_path, kinds, keys):
    cfg = _write(tmp_path, "p.cfg",
                 f"[experiment]\nkind = prep\n[prep]\nkinds = {kinds}\n")
    loaded = load_config(cfg)
    assert list(loaded["prep"]) == keys
    again = _write(tmp_path, "q.cfg", canonical_form(loaded))
    assert load_config(again) == loaded


GRID_CFG = "[experiment]\nkind = sweep-dim\n[sweep]\nd_list = 3\nk_list = 0\n"


def test_report_rules_are_protocol_modes():
    assert tuple(REPORT_KEYS) == protocol.REPORT_MODES


@pytest.mark.parametrize("rule,protocol_keys,sweep_keys", [
    ("converged", "fidelity_target = 0.3\nconvergence_tol = 0.5\n", ""),
    ("cooled", "", "stop = 0.5\n"),
    ("settled", "", "settle_tol = 0.3\n"),
    ("auto", "", "stop = 0.5\nsettle_tol = 0.3\n")])
def test_report_rule_loads_only_its_keys(tmp_path, rule, protocol_keys,
                                         sweep_keys, capsys):
    # validate prints the rule's thresholds, at the file's values, and no
    # other threshold
    cfg = _write(tmp_path, "g.cfg", GRID_CFG + f"report = {rule}\n"
                 + sweep_keys + "[protocol]\n" + protocol_keys)
    assert main(["validate", str(cfg)]) == 0
    out = capsys.readouterr().out
    for section, key in set().union(*REPORT_KEYS.values()):
        assert (f"\n{key} = " in out) == ((section, key) in REPORT_KEYS[rule])
    for line in (protocol_keys + sweep_keys).splitlines():
        assert f"\n{line}\n" in out


@pytest.mark.parametrize("rule,text,message", [
    ("auto", "[protocol]\nconvergence_tol = 0.5\n",
     "no listed report rule (auto) reads [protocol] convergence_tol"),
    ("auto", "[protocol]\nfidelity_target = 0.3\n",
     "no listed report rule (auto) reads [protocol] fidelity_target"),
    ("converged", "stop = 0.5\n",
     "no listed report rule (converged) reads [sweep] stop"),
    ("converged", "settle_tol = 0.3\n",
     "no listed report rule (converged) reads [sweep] settle_tol"),
    ("cooled", "settle_tol = 0.3\n",
     "no listed report rule (cooled) reads [sweep] settle_tol"),
    ("settled", "stop = 0.5\n",
     "no listed report rule (settled) reads [sweep] stop"),
    ("bogus", "", "unknown report rule 'bogus'"),
    # the energy sweep's rule is no [sweep] report value
    ("first_admissible", "", "unknown report rule 'first_admissible'")],
    ids=["auto-tol", "auto-target", "converged-stop", "converged-settle-tol",
         "cooled-settle-tol", "settled-stop", "unknown-rule",
         "first-admissible"])
def test_report_rule_rejects_keys_it_does_not_read(tmp_path, rule, text,
                                                   message, capsys,
                                                   monkeypatch):
    calls = _forbid(monkeypatch, (protocol, "_run_cells"))
    cfg = _write(tmp_path, "g.cfg", GRID_CFG + f"report = {rule}\n" + text)
    for command in ("validate", "run"):
        assert main([command, str(cfg)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
    assert calls == []
    assert not (tmp_path / "g.csv").exists()


GRID_STATE = ("[state]\nalpha = 0.4\nalpha_phase = 1.5707963267948966\n"
              "r = 0.1\nnbar = 0.4\n")
GRID_BASE = protocol.ProtocolConfig(
    Topology("single", 2), DSTParams(0.4, 1.5707963267948966, 0.1, nbar=0.4),
    n_max=60, cutoff=40)


@pytest.mark.parametrize("rule", protocol.REPORT_MODES)
def test_unset_thresholds_are_the_rules_defaults(tmp_path, rule):
    # a grid config that sets no threshold writes the rows of the library
    # sweep under ReportRule(rule), whose defaults stand in for every one
    cfg = _write(tmp_path, "g.cfg", "[experiment]\nkind = sweep-dim\n"
                 + GRID_STATE + "[protocol]\nn_max = 60\ncutoff = 40\n"
                 f"[sweep]\nd_list = 2,3,4,6\nk_list = 0,1,2\nreport = {rule}\n")
    assert main(["run", str(cfg)]) == 0
    recs = protocol.sweep_dimension(GRID_BASE, [2, 3, 4, 6], [0, 1, 2],
                                    protocol.ReportRule(rule))
    emit_csv(("d", "k", "N", "F", "P"),
             [(r.d, r.k, r.cycles, r.fidelity, r.probability) for r in recs],
             tmp_path / "lib.csv", key_cols=2)
    assert (tmp_path / "g.csv").read_text() == \
        (tmp_path / "lib.csv").read_text()


def test_unset_energy_thresholds_are_the_rules_defaults(tmp_path):
    grid = [0.1, 0.4, 2.0, 6.0, 9.5]
    # every nbar_grid entry stands in for [state] nbar, which stays 0
    state = GRID_STATE.replace("nbar = 0.4\n", "")
    cfg = _write(tmp_path, "e.cfg", "[experiment]\nkind = sweep-energy\n"
                 + state + "[regulator]\nd = 4\nk = 1\n"
                 "[protocol]\nn_max = 60\ncutoff = 300\n"
                 f"[sweep]\nnbar_grid = {','.join(map(str, grid))}\n")
    assert main(["run", str(cfg)]) == 0
    base = replace(GRID_BASE, topology=Topology("single", 4),
                   regulator_level=1, cutoff=300)
    recs = protocol.sweep_energy(base, grid)
    assert any(r.cycles is None for r in recs)
    assert any(r.cycles is not None for r in recs)
    emit_csv(("energy", "N", "F", "P"),
             [(r.energy, r.cycles, r.fidelity, r.probability) for r in recs],
             tmp_path / "lib.csv", key_cols=1)
    assert (tmp_path / "e.csv").read_text() == \
        (tmp_path / "lib.csv").read_text()


ENERGY_NBAR_CFG = ("[experiment]\nkind = sweep-energy\n[state]\nnbar = {}\n"
                   "[sweep]\nnbar_grid = 0.5\n")


def test_sweep_energy_state_nbar_stays_zero(tmp_path, capsys, monkeypatch):
    # every nbar_grid entry replaces [state] nbar, so a value other than
    # its default 0 would change nothing: validate and run reject it
    calls = _forbid(monkeypatch, (protocol, "_run_cells"))
    cfg = _write(tmp_path, "e.cfg", ENERGY_NBAR_CFG.format(7))
    for command in ("validate", "run"):
        assert main([command, str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "config error: [sweep] nbar_grid sets the thermal occupation; "
            "[state] nbar must stay 0, got 7.0\n")
    assert calls == []
    assert not (tmp_path / "e.csv").exists()
    for nbar in ("0", "0.0"):
        cfg = _write(tmp_path, "e.cfg", ENERGY_NBAR_CFG.format(nbar))
        assert load_config(cfg)["state"]["nbar"] == 0.0


def test_schema_report_defaults_are_the_rules():
    # every SCHEMA default of a key that feeds a dataclass field is that
    # field's default: the report rule's, and the run's
    for section, key, cls, name in (
            ("sweep", "report", protocol.ReportRule, "mode"),
            ("sweep", "stop", protocol.ReportRule, "stop"),
            ("sweep", "settle_tol", protocol.ReportRule, "settle_tol"),
            ("protocol", "fidelity_target", protocol.ReportRule,
             "fidelity_target"),
            ("protocol", "convergence_tol", protocol.ReportRule,
             "convergence_tol"),
            ("protocol", "probability_floor", protocol.ReportRule,
             "probability_floor"),
            ("state", "alpha", DSTParams, "alpha_mag"),
            ("state", "alpha_phase", DSTParams, "alpha_phase"),
            ("state", "r", DSTParams, "r"),
            ("state", "theta", DSTParams, "theta"),
            ("state", "nbar", DSTParams, "nbar"),
            ("topology", "modes", Topology, "modes"),
            ("topology", "system_levels", Topology, "system_levels"),
            ("topology", "regulator_kind", Topology, "regulator_kind"),
            ("coupling", "lambda", CouplingParams, "lam"),
            ("coupling", "lambda_tilde", CouplingParams, "lam_tilde"),
            ("coupling", "detuning", CouplingParams, "detuning"),
            ("regulator", "k", protocol.ProtocolConfig, "regulator_level"),
            ("protocol", "t", protocol.ProtocolConfig, "cycle_time"),
            ("protocol", "n_max", protocol.ProtocolConfig, "n_max"),
            ("protocol", "cutoff", protocol.ProtocolConfig, "cutoff"),
            ("protocol", "e_max", protocol.ProtocolConfig, "e_max")):
        cast, default = SCHEMA[section][key]
        assert cast(default) == getattr(cls, name), key


def test_threshold_reads_follow_the_rule_table():
    # the grid kinds read every report mode's thresholds and sweep-energy
    # those of first_admissible, each as protocol.RULE_READS lists them
    thresholds = {(s, k) for s in SCHEMA for k in SCHEMA[s]
                  if k in protocol._THRESHOLDS}
    for mode in protocol.REPORT_MODES:
        assert {k for _, k in REPORT_KEYS[mode]} == \
            set(protocol.RULE_READS[mode])
    for kind in ("sweep-dim", "network", "hybrid"):
        assert EXPERIMENTS[kind].reads & thresholds == thresholds - {
            ("protocol", "probability_floor")}
    assert {k for _, k in EXPERIMENTS["sweep-energy"].reads & thresholds} \
        == set(protocol.RULE_READS["first_admissible"])


UNDERFLOW_CFG = ("[state]\nalpha = 0.4\nnbar = 0.4\n"
                 "[topology]\nkind = linear\nmodes = 2\n"
                 "[protocol]\nt = 1.0\ncutoff = 20\nn_max = 3000\n")


@pytest.mark.parametrize("kind,extra", [
    ("cool", "[regulator]\nd = 3\nk = 1\n"),
    ("sweep-dim", "[sweep]\nd_list = 3\nk_list = 1\nreport = auto\n")])
def test_underflowing_probability_exits_3(tmp_path, kind, extra, capsys):
    # P_n falls below the smallest normal double at cycle 1568: a numeric
    # error, and no CSV of NaN rows or N read off them
    cfg = _write(tmp_path, "u.cfg", f"[experiment]\nkind = {kind}\n"
                 + UNDERFLOW_CFG + extra)
    assert main(["run", str(cfg)]) == 3
    assert capsys.readouterr().err.startswith(
        "numeric error: P_n underflows at cycle 1568 ")
    assert not (tmp_path / "u.csv").exists()


def test_network_requires_network_topology(tmp_path):
    cfg = _write(tmp_path, "n.cfg", """
[experiment]
kind = network
[sweep]
d_list = 3
k_list = 0
""")
    assert main(["run", str(cfg)]) == 2


def _forbid(monkeypatch, *targets):
    """Replace each (module, name) by a recorder; returns the calls."""
    calls = []
    for module, name in targets:
        monkeypatch.setattr(module, name,
                            lambda *a, _name=name, **kw: calls.append(_name))
    return calls


@pytest.mark.parametrize("text,unread", [
    ("kind = cool\n[protocol]\nfidelity_target = 0.99\n",
     "[protocol] fidelity_target"),
    ("kind = sweep-energy\n[protocol]\nconvergence_tol = 1e-4\n",
     "[protocol] convergence_tol"),
    ("kind = sweep-dim\n[regulator]\nd = 3\n", "[regulator] d"),
    ("kind = network\n[topology]\nkind = star\n[sweep]\nds_list = 2\n",
     "[sweep] ds_list"),
    ("kind = hybrid\n[topology]\nkind = hybrid\n[protocol]\n"
     "probability_floor = 0.2\n", "[protocol] probability_floor"),
    # a hybrid states d and k only as its grid lists
    ("kind = hybrid\n[topology]\nkind = hybrid\n[regulator]\nd = 4\n"
     "[sweep]\nd_list = 3,5\nk_list = 0\n", "[regulator] d"),
    ("kind = hybrid\n[topology]\nkind = hybrid\n[regulator]\nk = 1\n"
     "[sweep]\nd_list = 3\nk_list = 0\nds_list = 2,3\n", "[regulator] k"),
    ("kind = gaussian\n[state]\nalpha = 1\n", "[state] alpha"),
    ("kind = opt-time\n[regulator]\nk = 1\n", "[regulator] k"),
    # whole sections the kind never reads; the first one set is named
    ("kind = opt-time\n[regulator]\nd = 4\n[state]\nalpha = 3\nnbar = 2\n"
     "[protocol]\nn_max = 7\ncutoff = 5\n[gaussian]\nnbar = 4\n",
     "[state] alpha"),
    ("kind = prep\n[topology]\nkind = single\n", "[topology] kind")],
    ids=["cool", "sweep-energy", "sweep-dim", "network", "hybrid",
         "hybrid-regulator-d", "hybrid-regulator-k", "gaussian", "opt-time",
         "opt-time-sections", "prep"])
def test_every_kind_rejects_a_key_it_does_not_read(tmp_path, text, unread,
                                                    capsys, monkeypatch):
    calls = _forbid(monkeypatch, (protocol, "_run_cells"),
                    (protocol, "default_cycle_time"),
                    (gaussian, "oneshot_stack"), (stateprep, "make_cat"))
    cfg = _write(tmp_path, "u.cfg", "[experiment]\n" + text)
    kind = text.split("\n")[0].split(" = ")[1]
    for command in ("validate", "run"):
        assert main([command, str(cfg)]) == 2
        assert capsys.readouterr().err == \
            f"config error: the {kind} experiment does not read {unread}\n"
    assert calls == []
    assert not (tmp_path / "u.csv").exists()


@pytest.mark.parametrize("kind,topology,accepted", [
    ("network", "hybrid", "{linear, star}"),
    ("network", "single", "{linear, star}"),
    ("hybrid", "star\nmodes = 2", "{hybrid}"),
    ("sweep-dim", "ring", "{single, linear, star, hybrid}")])
def test_topology_outside_the_kind_rejected(tmp_path, kind, topology,
                                            accepted, capsys, monkeypatch):
    calls = _forbid(monkeypatch, (protocol, "_run_cells"))
    cfg = _write(tmp_path, "t.cfg", f"[experiment]\nkind = {kind}\n"
                 f"[topology]\nkind = {topology}\n[sweep]\nd_list = 3\n"
                 f"k_list = 0\n")
    got = topology.split("\n")[0]
    for command in ("validate", "run"):
        assert main([command, str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"config error: the {kind} experiment needs [topology] kind in "
            f"{accepted}, got '{got}'\n")
    assert calls == []


def test_opt_time_checks_every_level_first(tmp_path, capsys, monkeypatch):
    # k = 5 lies outside d = 5; the valid k = 3 before it is not searched
    calls = _forbid(monkeypatch, (protocol, "default_cycle_time"))
    cfg = _write(tmp_path, "ot.cfg", "[experiment]\nkind = opt-time\n"
                 "[regulator]\nd = 5\n[sweep]\nk_list = 3,5\n")
    assert main(["run", str(cfg)]) == 2
    assert "regulator_level must lie in 0..4, got 5" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "ot.csv").exists()


def test_loaded_config_holds_only_read_keys(tmp_path, capsys):
    # the table is the whole story: each kind loads exactly its read set,
    # and validate prints exactly that
    for kind, spec in EXPERIMENTS.items():
        text = f"[experiment]\nkind = {kind}\n"
        if spec.topologies:
            text += f"[topology]\nkind = {spec.topologies[0]}\n"
        cfg = load_config(_write(tmp_path, "k.cfg", text))
        reads = spec.reads
        if kind == "prep":      # the default kinds = cat reads no r or d
            reads = reads - {("prep", "r"), ("prep", "d")}
        # the default report = converged reads no stop or settle_tol
        if ("sweep", "report") in reads:
            reads = reads - {("sweep", "stop"), ("sweep", "settle_tol")}
        assert {(s, k) for s in cfg for k in cfg[s]} == reads, kind
    # a ds_list sets the system qudit dimension: no system_levels is loaded
    cfg = load_config(_write(tmp_path, "h.cfg", "[experiment]\nkind = hybrid\n"
                             "[topology]\nkind = hybrid\n[sweep]\nd_list = 4\n"
                             "k_list = 1\nds_list = 2,3\n"))
    assert cfg["topology"] == {"kind": "hybrid", "modes": 1,
                               "regulator_kind": "qudit"}
    cfg = _write(tmp_path, "ot.cfg",
                 "[experiment]\nkind = opt-time\n[regulator]\nd = 4\n")
    assert main(["validate", str(cfg)]) == 0
    assert capsys.readouterr().out == (
        "[experiment]\nkind = opt-time\n\n"
        "[topology]\nkind = single\nmodes = 1\nsystem_levels = 2\n"
        "regulator_kind = qudit\n\n"
        "[coupling]\nlambda = 1.0\nlambda_tilde = 1.0\ndetuning = 0.0\n\n"
        "[regulator]\nd = 4\n\n[sweep]\nk_list = \n\n[output]\npath = \n")


def test_read_sets_cover_the_schema():
    # every schema key is read by some kind, and every read key exists
    read = set().union(*(spec.reads for spec in EXPERIMENTS.values()))
    assert read == {(s, k) for s in SCHEMA for k in SCHEMA[s]}


@pytest.mark.parametrize("text,message", [
    ("kind = sweep-energy\n[sweep]\nnbar_grid = 0.4\n[protocol]\n"
     "fidelity_target = 2.0\n", "fidelity_target must lie in (0, 1], got 2.0"),
    ("kind = sweep-energy\n[sweep]\nnbar_grid = 0.4\n[protocol]\n"
     "probability_floor = nan\n",
     "probability_floor must lie in [0, 1], got nan"),
    ("kind = sweep-energy\n[sweep]\nnbar_grid = 0.4\n[protocol]\n"
     "probability_floor = -0.1\n",
     "probability_floor must lie in [0, 1], got -0.1"),
    ("kind = sweep-dim\n[sweep]\nd_list = 3\nk_list = 0\n[protocol]\n"
     "convergence_tol = -1\n",
     "convergence_tol must be finite and >= 0, got -1.0"),
    ("kind = network\n[topology]\nkind = star\nmodes = 2\n[sweep]\n"
     "d_list = 3\nk_list = 0\n[protocol]\nconvergence_tol = inf\n",
     "convergence_tol must be finite and >= 0, got inf"),
    ("kind = hybrid\n[topology]\nkind = hybrid\n[sweep]\nd_list = 3\n"
     "k_list = 0\n[protocol]\nfidelity_target = 0\n",
     "fidelity_target must lie in (0, 1], got 0.0")],
    ids=["energy-target", "energy-floor-nan", "energy-floor-negative",
         "grid-tol-negative", "network-tol-inf", "hybrid-target-zero"])
def test_read_protocol_values_are_range_checked(tmp_path, text, message,
                                                capsys, monkeypatch):
    # the target, floor and tolerance keys reach ProtocolConfig.validate
    # on the kinds that read them, before any cell's state is built
    calls = _forbid(monkeypatch, (protocol, "_bright_mode"))
    cfg = _write(tmp_path, "r.cfg", "[experiment]\n" + text)
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert calls == []


def test_unwritable_output_exits_2_before_the_run(tmp_path, capsys,
                                                  monkeypatch):
    calls = _forbid(monkeypatch, (protocol, "_run_cells"),
                    (protocol, "default_cycle_time"))
    # the path names an existing directory
    cfg = _write(tmp_path, "c.cfg", COOL_CFG + f"[output]\npath = {tmp_path}\n")
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == \
        f"config error: cannot write {tmp_path}: it is a directory\n"
    # the path's directory does not exist
    missing = tmp_path / "missing" / "x.csv"
    cfg = _write(tmp_path, "ot.cfg", "[experiment]\nkind = opt-time\n"
                 f"[regulator]\nd = 4\n[output]\npath = {missing}\n")
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == (f"config error: cannot write {missing}: "
                                       f"no directory {missing.parent}\n")
    # a name too long to look up
    long = tmp_path / ("x" * 300 + ".csv")
    cfg = _write(tmp_path, "c.cfg", COOL_CFG + f"[output]\npath = {long}\n")
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == \
        f"config error: cannot write {long}: File name too long\n"
    # the path names the config file itself, set or by default
    cfg = tmp_path / "c.cfg"
    text = COOL_CFG + f"[output]\npath = {cfg}\n"
    cfg.write_text(text)
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == \
        f"config error: cannot write {cfg}: it is the config file\n"
    assert cfg.read_text() == text
    cfg = _write(tmp_path, "c.csv", COOL_CFG)
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == \
        f"config error: cannot write {cfg}: it is the config file\n"
    assert cfg.read_text() == COOL_CFG
    assert calls == []
    assert not missing.parent.exists()


def test_failed_write_exits_2(tmp_path, capsys):
    # the checks pass, the write itself fails: a link to a missing file
    link = tmp_path / "link.csv"
    link.symlink_to(tmp_path / "missing" / "g.csv")
    cfg = _write(tmp_path, "g.cfg", "[experiment]\nkind = gaussian\n"
                 f"[gaussian]\nnbar = 0.5\n[output]\npath = {link}\n")
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == \
        f"config error: cannot write {link}: No such file or directory\n"


def test_list_experiments(capsys):
    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    for kind in EXPERIMENTS:
        assert kind in out


def test_emit_csv_formats(tmp_path):
    p = tmp_path / "x.csv"
    emit_csv(("a", "b"), [(2, 0.123456789123), (1, None)], p, key_cols=1)
    assert p.read_text() == "a,b\n1,\n2,0.123456789\n"


@pytest.mark.parametrize("line", [
    "t = nan", "t = -1", "fidelity_target = 2.0", "convergence_tol = -1",
    "convergence_tol = inf", "e_max = -1", "probability_floor = nan",
    "probability_floor = 1.5", "probability_floor = -0.1",
    "t = 1\n[coupling]\nlambda = nan",
    "t = 1\n[coupling]\nlambda_tilde = inf",
    # no longer keys: only their difference, detuning, is
    "t = 1\n[coupling]\nomega_a = nan", "t = 1\n[coupling]\nomega_f = inf",
    "t = 1\n[coupling]\ndetuning = nan", "t = 1\n[coupling]\ndetuning = inf",
    "t = 1\n[coupling]\nlambda_tilde = 3", "t = 1\n[topology]\nsystem_levels = 7"],
    ids=["t = nan", "t = -1", "fidelity_target = 2.0", "convergence_tol = -1",
         "convergence_tol = inf", "e_max = -1", "probability_floor = nan",
         "probability_floor = 1.5", "probability_floor = -0.1", "lambda = nan",
         "lambda_tilde = inf", "omega_a = nan", "omega_f = inf",
         "detuning = nan", "detuning = inf",
         "single-lambda_tilde = 3", "single-system_levels = 7"])
def test_bad_protocol_values_exit_2(tmp_path, line, capsys):
    # COOL_CFG ends in [protocol]; a coupling line opens its own section
    cfg = _write(tmp_path, "bad.cfg", COOL_CFG + line + "\n")
    assert main(["run", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("cutoff", [-3, 0])
def test_bad_cutoff_exits_2(tmp_path, cutoff, capsys):
    cfg = _write(tmp_path, "bad.cfg",
                 COOL_CFG.replace("cutoff = 30", f"cutoff = {cutoff}"))
    assert main(["run", str(cfg)]) == 2
    assert "cutoff must be >= 1" in capsys.readouterr().err


def test_coupling_needs_explicit_time(tmp_path):
    text = COOL_CFG + "\n[coupling]\nlambda = 2\n"
    assert main(["run", str(_write(tmp_path, "c.cfg", text))]) == 2
    text = text.replace("[protocol]\n", "[protocol]\nt = 1.0\n")
    assert main(["run", str(_write(tmp_path, "c.cfg", text))]) == 0


@pytest.mark.parametrize("old,new", [
    ("nbar = 0.4", "nbar = -1"), ("r = 0.1", "r = -0.1"),
    ("[regulator]", "[topology]\nkind = single\nmodes = 2\n[regulator]"),
    ("[regulator]", "[topology]\nkind = ring\n[regulator]"),
    ("nbar = 0.4", "nbar = nan"), ("nbar = 0.4", "nbar = inf"),
    ("r = 0.1", "r = inf"), ("alpha = 0.4", "alpha = nan"),
    ("alpha_phase = 1.5707963267948966", "alpha_phase = nan")],
    ids=["nbar", "r", "single-modes", "kind", "nbar-nan", "nbar-inf",
         "r-inf", "alpha-nan", "alpha-phase-nan"])
def test_bad_state_or_topology_exits_2(tmp_path, old, new):
    cfg = _write(tmp_path, "bad.cfg", COOL_CFG.replace(old, new))
    assert main(["run", str(cfg)]) == 2


@pytest.mark.parametrize("old,new,message", [
    ("nbar = 0.4", "nbar = nan",
     "[state]: nbar must be a finite real number, got nan"),
    ("cutoff = 30", "cutoff = 30\nt = 1\n[coupling]\nlambda = inf",
     "[coupling]: lam must be a finite real number, got inf")],
    ids=["state", "coupling"])
def test_state_and_coupling_errors_name_the_field(tmp_path, old, new,
                                                  message, capsys):
    cfg = _write(tmp_path, "bad.cfg", COOL_CFG.replace(old, new))
    assert main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


# bad ds_list configs that load_config, and so validate, rejects too, each
# with its message
DS_HEAD = "[experiment]\nkind = hybrid\n[topology]\nkind = hybrid\n"
DS_NOT_ONE_CELL = ("[sweep] ds_list runs at one (d, k): it needs one d_list "
                   "and one k_list entry")
DS_BELOW_2 = DS_HEAD + "[sweep]\nds_list = 1\nd_list = 3\nk_list = 0\n"
DS_WITH_D_LIST = DS_HEAD + "[sweep]\nds_list = 2,3\nd_list = 3,4\nk_list = 0\n"
DS_WITH_K_LIST = DS_HEAD + "[sweep]\nds_list = 2,3\nd_list = 3\nk_list = 0,1\n"
DS_EMPTY_K_LIST = DS_HEAD + "[sweep]\nds_list = 2,3\nd_list = 3\n"
DS_WITH_SYSTEM_LEVELS = (DS_HEAD + "system_levels = 3\n[sweep]\n"
                         "ds_list = 2,3\nd_list = 3\nk_list = 0\n")
DS_MESSAGES = {
    DS_BELOW_2: "[sweep] ds_list: the system qudit needs d_s >= 2, got 1",
    DS_WITH_D_LIST: DS_NOT_ONE_CELL, DS_WITH_K_LIST: DS_NOT_ONE_CELL,
    DS_EMPTY_K_LIST: DS_NOT_ONE_CELL,
    DS_WITH_SYSTEM_LEVELS: "[sweep] ds_list sets the system qudit dimension; "
                           "it takes no [topology] system_levels"}


@pytest.mark.parametrize("text", [
    "[experiment]\nkind = opt-time\n[regulator]\nd = 4\n[sweep]\nk_list = -1,0\n",
    "[experiment]\nkind = prep\n[prep]\nkinds = cat\nn_components = 3\n",
    "[experiment]\nkind = prep\n[prep]\nkinds = noon\nd = 5\ncutoff = 4\n",
    "[experiment]\nkind = prep\n[prep]\nkinds = hybrid-entangled\nd = 0\n",
    # a per-oscillator omega_f: no key, and detuning is one number
    "[experiment]\nkind = cool\n[coupling]\nomega_f = 1,1.1\n[protocol]\nt = 1\n",
    "[experiment]\nkind = cool\n[coupling]\ndetuning = 1,1.1\n[protocol]\nt = 1\n",
    "[experiment]\nkind = sweep-dim\n[sweep]\nd_list = 1,2\nk_list = 0\n",
    DS_BELOW_2,
    "[experiment]\nkind = sweep-energy\n[sweep]\nnbar_grid = -1\n",
    "[experiment]\nkind = opt-time\n[regulator]\nd = 4\n[sweep]\nk_list = 0,4\n",
    "[experiment]\nkind = opt-time\n[regulator]\nd = 0\n",
    "[experiment]\nkind = gaussian\n[gaussian]\nnbar = 0.5,-0.1\n",
    "[experiment]\nkind = sweep-dim\n[sweep]\nd_list = 3\nk_list = 0,5\n",
    "[experiment]\nkind = sweep-dim\n[sweep]\nd_list = 2,3\nk_list = 3\n",
    "[experiment]\nkind = sweep-dim\n[sweep]\nd_list = 3\nk_list = -1,0\n",
    "[experiment]\nkind = network\n[topology]\nkind = star\nmodes = 2\n"
    "[sweep]\nd_list = 3\nk_list = 0,3\n",
    "[experiment]\nkind = hybrid\n[topology]\nkind = hybrid\n[sweep]\n"
    "d_list = 3\nk_list = 3\n",
    "[experiment]\nkind = sweep-energy\n[sweep]\nnbar_grid = 1.0,nan\n",
    "[experiment]\nkind = sweep-energy\n[sweep]\nnbar_grid = inf\n",
    "[experiment]\nkind = gaussian\n[gaussian]\nnbar = 0.5,nan\n",
    "[experiment]\nkind = gaussian\n[gaussian]\nr = inf\n",
    "[experiment]\nkind = sweep-dim\n[sweep]\nd_list = 3\nk_list = 0\n"
    "report = cooled\nstop = nan\n",
    "[experiment]\nkind = sweep-dim\n[sweep]\nd_list = 3\nk_list = 0\n"
    "report = auto\nstop = 1.5\n",
    "[experiment]\nkind = sweep-dim\n[sweep]\nd_list = 3\nk_list = 0\n"
    "report = cooled\nstop = 0\n",
    "[experiment]\nkind = sweep-dim\n[sweep]\nd_list = 3\nk_list = 0\n"
    "report = settled\nsettle_tol = nan\n",
    "[experiment]\nkind = hybrid\n[topology]\nkind = hybrid\n[sweep]\n"
    "ds_list = 2\nd_list = 3\nk_list = 0\nreport = settled\n"
    "settle_tol = -1\n",
    "[experiment]\nkind = sweep-dim\n[sweep]\nd_list = 3\nk_list = 0\n"
    "report = bogus\n",
    "[experiment]\nkind = opt-time\n[regulator]\nd = 3\n[protocol]\nt = 1.0\n",
    DS_WITH_D_LIST,
    DS_WITH_K_LIST,
    DS_EMPTY_K_LIST,
    DS_WITH_SYSTEM_LEVELS,
    "[experiment]\nkind = prep\n[prep]\nkinds = cat\nalpha = nan\n",
    "[experiment]\nkind = prep\n[prep]\nkinds = odd-cat\nalpha = inf\n",
    "[experiment]\nkind = prep\n[prep]\nkinds = hybrid-entangled\nr = nan\n",
    "[experiment]\nkind = prep\n[prep]\nkinds = cat\ncutoff = 0\n",
    "[experiment]\nkind = opt-time\n[topology]\nkind = star\nmodes = 2\n"
    "[coupling]\nlambda_tilde = 3\n[regulator]\nd = 3\n[sweep]\nk_list = 1\n",
    "[experiment]\nkind = opt-time\n[topology]\nkind = star\nmodes = 2\n"
    "system_levels = 7\n[regulator]\nd = 3\n[sweep]\nk_list = 1\n"],
    ids=["opt-time-k", "prep-cat", "prep-cutoff", "prep-d", "omega-f-list",
         "detuning-list",
         "d-list", "ds-list", "nbar-grid", "opt-time-k-above-d",
         "opt-time-d", "gaussian-nbar", "sweep-k-above-d", "sweep-k-equal-d",
         "sweep-k-negative", "network-k-above-d", "hybrid-k-above-d",
         "nbar-grid-nan", "nbar-grid-inf", "gaussian-nbar-nan",
         "gaussian-r-inf", "sweep-stop-nan", "sweep-stop-above-1",
         "sweep-stop-zero", "sweep-settle-tol-nan",
         "hybrid-settle-tol-negative", "sweep-report-unknown", "opt-time-t",
         "ds-list-with-d-list", "ds-list-with-k-list",
         "ds-list-empty-k-list", "ds-list-with-system-levels",
         "prep-alpha-nan",
         "prep-alpha-inf", "prep-r-nan", "prep-cutoff-zero",
         "star-lambda-tilde", "star-system-levels"])
def test_bad_sweep_or_prep_values_exit_2(tmp_path, text, capsys, monkeypatch):
    # every cooling run, sweep or single, goes through _run_cells
    runs = []
    run_cells = protocol._run_cells

    def spy(base, cells):
        runs.append(cells)
        return run_cells(base, cells)

    monkeypatch.setattr(protocol, "_run_cells", spy)
    cfg = _write(tmp_path, "bad.cfg", text)
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert runs == []
    assert not (tmp_path / "bad.csv").exists()
    if text in DS_MESSAGES:
        assert err == f"config error: {DS_MESSAGES[text]}\n"
        assert validate(str(cfg)) == 2
        assert capsys.readouterr() == ("", err)


def test_program_errors_are_not_numeric_errors(tmp_path, monkeypatch):
    # a ValueError from a bug propagates instead of exiting 3
    def broken(cfg, out):
        raise ValueError("bug")

    monkeypatch.setitem(EXPERIMENTS, "cool",
                        EXPERIMENTS["cool"]._replace(runner=broken))
    with pytest.raises(ValueError, match="bug"):
        main(["run", str(_write(tmp_path, "c.cfg", COOL_CFG))])


NO_SCIPY_CONFIGS = ("optimal_times", "network_star_m2", "gaussian_oneshot",
                    "prep_demo")
NO_SCIPY_SCRIPT = """
import sys
import qcool.cli

def loaded():
    return [m for m in sys.modules if m.split(".")[0] == "scipy"
            or m.startswith("numpy.polynomial")]

assert not loaded(), ("import", loaded())
for config in sys.argv[1:]:
    assert qcool.cli.run(config) == 0, config
assert not loaded(), ("run", loaded())
"""


def _src_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_import_and_runs_load_no_scipy(tmp_path):
    # numpy is the only runtime dependency: neither the import nor a run
    # of the opt-time, star, Gaussian and prep experiments loads scipy,
    # nor numpy.polynomial, which only the tests' Hermite check uses
    experiments = Path(__file__).resolve().parent.parent / "experiments"
    configs = []
    for name in NO_SCIPY_CONFIGS:
        configs.append(str(tmp_path / f"{name}.cfg"))
        shutil.copy(experiments / f"{name}.cfg", configs[-1])
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, *configs],
                          env=_src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for config in configs:
        assert Path(config).with_suffix(".csv").exists()


def test_import_loads_no_argparse(tmp_path):
    # only `main` parses arguments, so `run` never pays for argparse's
    # import; the command line and `python -m qcool.cli` still work
    script = ("import sys\nimport qcool.cli\n"
              "assert 'argparse' not in sys.modules\n"
              "sys.exit(qcool.cli.main())\n")
    cfg = str(tmp_path / "cool_trace.cfg")
    shutil.copy(Path(__file__).resolve().parent.parent / "experiments"
                / "cool_trace.cfg", cfg)
    for cmd in ([sys.executable, "-c", script, "validate", cfg],
                [sys.executable, "-m", "qcool.cli", "run", cfg]):
        proc = subprocess.run(cmd, env=_src_env(), capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"wrote {Path(cfg).with_suffix('.csv')}\n"


def _python(script, *args):
    """Run a script in a fresh interpreter on this checkout's src."""
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          env=_src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_qcool_leaves_the_collector_alone():
    # only the command line freezes the import-time heap; a library user
    # keeps the collector as it was
    _python("import gc\nimport qcool\n"
            "assert gc.isenabled() and gc.get_freeze_count() == 0\n")


def test_cli_import_freezes_the_import_heap(tmp_path):
    # `import qcool.cli` moves the import-time heap to the permanent
    # generation and leaves the collector on; runs freeze nothing more,
    # so the garbage they make is collected as before
    cfg = str(tmp_path / "cool_trace.cfg")
    shutil.copy(Path(__file__).resolve().parent.parent / "experiments"
                / "cool_trace.cfg", cfg)
    script = ("import gc, sys, weakref\nimport qcool.cli\n"
              "frozen = gc.get_freeze_count()\n"
              "assert gc.isenabled() and frozen > 0\n"
              "for _ in range(2):\n"
              "    assert qcool.cli.run(sys.argv[1]) == 0\n"
              "assert gc.get_freeze_count() == frozen\n"
              "class Node: pass\n"
              "node = Node()\nnode.self = node\nalive = weakref.ref(node)\n"
              "del node\ngc.collect()\nassert alive() is None\n")
    out = _python(script, cfg)
    assert out == f"wrote {Path(cfg).with_suffix('.csv')}\n" * 2
