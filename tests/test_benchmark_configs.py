"""Every config the benchmark generates loads under the experiment
table's read sets, and its report rule, where its kind's runner builds
one, passes the rule's own construction check, so no benchmark round
fails on a key its kind does not read or a threshold its rule does not
read.  perfbench/workloads.py is run from its source, read-only:
no bytecode is written next to it."""
import types
from pathlib import Path

import pytest

from qcool import cli

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads():
    module = types.ModuleType("bench_workloads")
    module.__file__ = str(WORKLOADS_PY)
    exec(compile(WORKLOADS_PY.read_text(), str(WORKLOADS_PY), "exec"),
         module.__dict__)
    return module


workloads = _workloads()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_benchmark_configs_load(tmp_path, workload, seed):
    configs = workloads.generate(workload, seed)
    assert configs
    rules = 0
    for config in configs:
        path = tmp_path / f"{config.name}.cfg"
        path.write_text(config.text)
        cfg = cli.load_config(path)
        assert cfg["output"]["path"] == f"{config.name}.csv"
        # the grid and energy-sweep runners build a ReportRule from the
        # loaded config, which checks its reads when made
        if cli.EXPERIMENTS[cfg["experiment"]["kind"]].runner in (
                cli._run_grid, cli._run_sweep_energy):
            cli._report_rule(cfg)
            rules += 1
    assert rules
