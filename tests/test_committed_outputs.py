"""Every experiment config with a committed CSV reproduces that CSV.

Integer and text cells must match exactly, floats to an absolute 1e-8
(the CSVs print 9 significant digits, so the last digit may move with
the BLAS build)."""
import configparser
from pathlib import Path

import pytest

from qcool.cli import main

EXPERIMENTS = Path(__file__).resolve().parent.parent / "experiments"
COMMITTED = sorted(c for c in EXPERIMENTS.glob("*.cfg")
                   if c.with_suffix(".csv").exists())


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
