import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qcool import protocol
from qcool.cli import (EXPERIMENTS, canonical_form, emit_csv, load_config,
                       main)
from qcool.errors import ConfigError


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


def test_opt_time_default_levels(tmp_path):
    # an empty k_list measures every level of the configured regulator
    cfg = _write(tmp_path, "ot.cfg",
                 "[experiment]\nkind = opt-time\n[regulator]\nd = 3\n")
    assert main(["run", str(cfg)]) == 0
    lines = (tmp_path / "ot.csv").read_text().splitlines()
    assert [l.split(",")[0] for l in lines[1:]] == ["0", "1", "2"]


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


def test_network_requires_network_topology(tmp_path):
    cfg = _write(tmp_path, "n.cfg", """
[experiment]
kind = network
[sweep]
d_list = 3
k_list = 0
""")
    assert main(["run", str(cfg)]) == 2


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
    "t = 1\n[coupling]\nomega_a = nan", "t = 1\n[coupling]\nomega_f = inf"],
    ids=["t = nan", "t = -1", "fidelity_target = 2.0", "convergence_tol = -1",
         "convergence_tol = inf", "e_max = -1", "probability_floor = nan",
         "probability_floor = 1.5", "probability_floor = -0.1", "lambda = nan",
         "lambda_tilde = inf", "omega_a = nan", "omega_f = inf"])
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


@pytest.mark.parametrize("text", [
    "[experiment]\nkind = opt-time\n[regulator]\nd = 4\n[sweep]\nk_list = -1,0\n",
    "[experiment]\nkind = prep\n[prep]\nkinds = cat\nn_components = 3\n",
    "[experiment]\nkind = prep\n[prep]\nkinds = noon\nd = 5\ncutoff = 4\n",
    "[experiment]\nkind = prep\n[prep]\nkinds = hybrid-entangled\nd = 0\n",
    "[experiment]\nkind = cool\n[coupling]\nomega_f = 1,1.1\n[protocol]\nt = 1\n",
    "[experiment]\nkind = sweep-dim\n[sweep]\nd_list = 1,2\nk_list = 0\n",
    "[experiment]\nkind = hybrid\n[topology]\nkind = hybrid\n[sweep]\n"
    "ds_list = 1\n",
    "[experiment]\nkind = sweep-energy\n[sweep]\nnbar_grid = -1\n",
    "[experiment]\nkind = opt-time\n[regulator]\nd = 4\n[sweep]\nk_list = 0,4\n",
    "[experiment]\nkind = opt-time\n[regulator]\nd = 0\n",
    "[experiment]\nkind = gaussian\n[gaussian]\nnbar = 0.5,-0.1\n",
    "[experiment]\nkind = sweep-dim\n[sweep]\nd_list = 3\nk_list = 0,5\n",
    "[experiment]\nkind = sweep-dim\n[sweep]\nd_list = 2,3\nk_list = 3\n",
    "[experiment]\nkind = sweep-dim\n[sweep]\nd_list = 3\nk_list = -1,0\n",
    "[experiment]\nkind = network\n[topology]\nkind = star\nmodes = 2\n"
    "[sweep]\nd_list = 3\nk_list = 0,3\n",
    "[experiment]\nkind = hybrid\n[topology]\nkind = hybrid\n[regulator]\n"
    "d = 3\nk = 3\n",
    "[experiment]\nkind = sweep-energy\n[sweep]\nnbar_grid = 1.0,nan\n",
    "[experiment]\nkind = sweep-energy\n[sweep]\nnbar_grid = inf\n",
    "[experiment]\nkind = gaussian\n[gaussian]\nnbar = 0.5,nan\n",
    "[experiment]\nkind = gaussian\n[gaussian]\nr = inf\n",
    "[experiment]\nkind = sweep-dim\n[sweep]\nd_list = 3\nk_list = 0\n"
    "report = cooled\nstop = nan\n",
    "[experiment]\nkind = sweep-dim\n[sweep]\nd_list = 3\nk_list = 0\n"
    "stop = 1.5\n",
    "[experiment]\nkind = sweep-dim\n[sweep]\nd_list = 3\nk_list = 0\n"
    "stop = 0\n",
    "[experiment]\nkind = sweep-dim\n[sweep]\nd_list = 3\nk_list = 0\n"
    "report = settled\nsettle_tol = nan\n",
    "[experiment]\nkind = hybrid\n[topology]\nkind = hybrid\n[sweep]\n"
    "ds_list = 2\nsettle_tol = -1\n",
    "[experiment]\nkind = sweep-dim\n[sweep]\nd_list = 3\nk_list = 0\n"
    "report = bogus\n"],
    ids=["opt-time-k", "prep-cat", "prep-cutoff", "prep-d", "omega-f-list",
         "d-list", "ds-list", "nbar-grid", "opt-time-k-above-d",
         "opt-time-d", "gaussian-nbar", "sweep-k-above-d", "sweep-k-equal-d",
         "sweep-k-negative", "network-k-above-d", "hybrid-k-above-d",
         "nbar-grid-nan", "nbar-grid-inf", "gaussian-nbar-nan",
         "gaussian-r-inf", "sweep-stop-nan", "sweep-stop-above-1",
         "sweep-stop-zero", "sweep-settle-tol-nan",
         "hybrid-settle-tol-negative", "sweep-report-unknown"])
def test_bad_sweep_or_prep_values_exit_2(tmp_path, text, capsys, monkeypatch):
    # every cooling run, sweep or single, goes through _run_cells
    runs = []
    run_cells = protocol._run_cells

    def spy(base, cells):
        runs.append(cells)
        return run_cells(base, cells)

    monkeypatch.setattr(protocol, "_run_cells", spy)
    assert main(["run", str(_write(tmp_path, "bad.cfg", text))]) == 2
    assert "config error" in capsys.readouterr().err
    assert runs == []
    assert not (tmp_path / "bad.csv").exists()


def test_program_errors_are_not_numeric_errors(tmp_path, monkeypatch):
    # a ValueError from a bug propagates instead of exiting 3
    def broken(cfg, out):
        raise ValueError("bug")

    monkeypatch.setitem(EXPERIMENTS, "cool", (broken, ""))
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


def test_import_and_runs_load_no_scipy(tmp_path):
    # numpy is the only runtime dependency: neither the import nor a run
    # of the opt-time, star, Gaussian and prep experiments loads scipy,
    # nor numpy.polynomial, which only the tests' Hermite check uses
    experiments = Path(__file__).resolve().parent.parent / "experiments"
    configs = []
    for name in NO_SCIPY_CONFIGS:
        configs.append(str(tmp_path / f"{name}.cfg"))
        shutil.copy(experiments / f"{name}.cfg", configs[-1])
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, *configs],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for config in configs:
        assert Path(config).with_suffix(".csv").exists()
