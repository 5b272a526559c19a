"""Tests of the benchmark itself (not part of the qcool test suite).

    python3 -m pytest -q perfbench/selftest.py

The traced-run tests start the benchmark as a subprocess for one round
of each workload and seed, about a minute in all.
"""
import itertools
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from qcool.states import DSTParams, displaced_squeezed_thermal  # noqa: E402

HARD_TOL = 1e-6   # qcool's tolerance on population above an explicit e_max


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def traced():
    """Last-line results of one traced round per workload and seed."""
    out = {}
    for workload, seed in itertools.product(workloads.WORKLOADS, (0, 7)):
        proc = _run("--workload", workload, "--seed", str(seed),
                    "--seconds", "0", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        out[workload, seed] = json.loads(proc.stdout.splitlines()[-1])
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_bytes(workload, tmp_path):
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        for cfg in workloads.generate(workload, 3):
            (tmp_path / run / f"{cfg.name}.cfg").write_text(cfg.text)
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_other_inputs(workload):
    a = [c.text for c in workloads.generate(workload, 0)]
    b = [c.text for c in workloads.generate(workload, 7)]
    assert len(a) == len(b) and a != b


def _worst_tail(box, modes, cutoff, e_max):
    """Largest population above e_max over the box's corners and a grid of
    displacement and squeezing phases."""
    worst = 0.0
    phases = np.linspace(0.0, 2 * np.pi, 9)
    for alpha, r, nbar, ph, th in itertools.product(
            box["alpha"], box["r"], box["nbar"], phases, phases):
        rho = displaced_squeezed_thermal(DSTParams(alpha, ph, r, th, nbar),
                                         cutoff)
        dist = np.array([1.0])
        for f in [rho] * modes:
            dist = np.convolve(dist, np.clip(np.real(np.diag(f)), 0, None))
        worst = max(worst, 1.0 - dist[:e_max + 1].sum())
    return worst


def test_state_box_within_excitation_cap():
    assert _worst_tail(workloads.M3_BOX, 3, 30, workloads.M3_E_MAX) < HARD_TOL


def _reference_case():
    cfg = workloads.generate("network-m3", 0)[0]
    ref = HERE / "reference" / "network-m3" / f"{cfg.name}.csv"
    return cfg, ref, ref.read_text().splitlines()


def test_check_accepts_reference():
    cfg, ref, _ = _reference_case()
    assert check.check_csv(ref, cfg.spec, ref) == []


def test_check_rejects_changed_fidelity(tmp_path):
    cfg, ref, lines = _reference_case()
    header = lines[0].split(",")
    cells = lines[1].split(",")
    f = header.index("F")
    cells[f] = repr(float(cells[f]) + 1e-6)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
    assert check.check_invariants(*check.read_csv(bad), cfg.spec) == []
    assert check.check_csv(bad, cfg.spec, ref)


def test_check_rejects_missing_row(tmp_path):
    cfg, ref, lines = _reference_case()
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines[:-1]) + "\n")
    assert check.check_invariants(*check.read_csv(bad), cfg.spec)
    assert check.check_csv(bad, cfg.spec, ref)


def test_metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_work_is_independent_of_seed(traced, workload):
    a, b = traced[workload, 0], traced[workload, 7]
    for res in (a, b):
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0
    for name in ("linalg.eigh.n3_sum", "states.dst.calls"):
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"]


def test_every_layer_metric_measured(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for m in spec["per_layer"]:
        values = [res["metrics"][m["name"]]["value"] for res in traced.values()]
        assert all(math.isfinite(v) for v in values)
        assert any(v > 0 for v in values), m["name"]


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*",
                                                  "out"))
    proc = _run("--workload", "energy-sweep", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
