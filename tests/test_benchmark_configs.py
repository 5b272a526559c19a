"""Every config the benchmark generates loads under the experiment
table's read sets, so no benchmark round fails on a key its kind does
not read.  perfbench/workloads.py is run from its source, read-only:
no bytecode is written next to it."""
import types
from pathlib import Path

import pytest

from qcool.cli import load_config

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
    for config in configs:
        path = tmp_path / f"{config.name}.cfg"
        path.write_text(config.text)
        cfg = load_config(path)
        assert cfg["output"]["path"] == f"{config.name}.csv"
