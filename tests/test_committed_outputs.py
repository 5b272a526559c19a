"""Every experiment config with a committed CSV reproduces that CSV.

Integer and text cells must match exactly, floats to an absolute 1e-8
(the CSVs print 9 significant digits, so the last digit may move with
the BLAS build)."""
import configparser
import math
from dataclasses import replace
from pathlib import Path

import pytest

from qcool.cli import _protocol_config, load_config, main
from qcool.protocol import default_cycle_time

EXPERIMENTS = Path(__file__).resolve().parent.parent / "experiments"
COMMITTED = sorted(c for c in EXPERIMENTS.glob("*.cfg")
                   if c.with_suffix(".csv").exists())
# every config whose runner runs the cooling protocol or its time rule
PROTOCOL_CONFIGS = [c for c in sorted(EXPERIMENTS.glob("*.cfg"))
                    if load_config(c)["experiment"]["kind"]
                    not in ("gaussian", "prep")]


def _same_cell(ref: str, got: str) -> bool:
    for cast in (int, float):
        try:
            a, b = cast(ref), cast(got)
        except ValueError:
            continue
        return a == b if cast is int else abs(a - b) <= 1e-8
    return ref == got


def test_all_committed_configs_found():
    assert len(COMMITTED) == 10


@pytest.mark.parametrize("config", COMMITTED, ids=lambda c: c.stem)
def test_committed_csv_reproduces(tmp_path, config):
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#",))
    parser.read(config)
    if not parser.has_section("output"):
        parser.add_section("output")
    out = tmp_path / config.with_suffix(".csv").name
    parser["output"]["path"] = str(out)
    copy = tmp_path / config.name
    with open(copy, "w") as fh:
        parser.write(fh)
    assert main(["run", str(copy)]) == 0

    ref = config.with_suffix(".csv").read_text().splitlines()
    got = out.read_text().splitlines()
    assert got[0] == ref[0]
    assert len(got) == len(ref)
    for ref_row, got_row in zip(ref[1:], got[1:]):
        ref_cells, got_cells = ref_row.split(","), got_row.split(",")
        assert len(got_cells) == len(ref_cells)
        assert all(_same_cell(a, b) for a, b in zip(ref_cells, got_cells)), \
            (ref_row, got_row)


def _runs(cfg):
    """The protocol config of every run, or time, a config asks for; a
    loaded config holds only the sections and keys its kind reads."""
    kind = cfg["experiment"]["kind"]
    s, reg = cfg.get("sweep", {}), cfg.get("regulator", {})
    if kind == "opt-time":
        grid = [(reg["d"], k) for k in s["k_list"] or range(reg["d"])]
    elif kind in ("cool", "sweep-energy") or s.get("ds_list"):
        grid = [(reg["d"], reg["k"])]
    else:
        grid = [(d, k) for d in s["d_list"] or [reg["d"]]
                for k in s["k_list"] or [reg["k"]] if k < d]
    base = _protocol_config(cfg)
    return [replace(base, regulator_level=k, topology=replace(
                base.topology, regulator_levels=d, system_levels=ds))
            for ds in s.get("ds_list") or [base.topology.system_levels]
            for d, k in grid]


@pytest.mark.parametrize("config", PROTOCOL_CONFIGS, ids=lambda c: c.stem)
def test_every_config_validates(config):
    # each run is valid and has a cycle time, resolved without running;
    # the one inadmissible default is optimal_times' k = 5 row
    runs = _runs(load_config(config))
    assert runs
    fallbacks = []
    for pc in runs:
        pc.validate()
        t = pc.cycle_time
        if t is None:
            r = default_cycle_time(pc.topology, pc.regulator_level, pc.coupling)
            assert (r.method == "fixed") == (pc.regulator_level == 0)
            if r.method == "fallback":
                fallbacks.append(pc.regulator_level)
            t = r.t_opt
        assert math.isfinite(t) and t > 0
    assert fallbacks == ([5] if config.stem == "optimal_times" else [])
