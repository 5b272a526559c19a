"""Output checks for one benchmark CSV.

Every seed: the row count matches the generated grid, F in [0, 1],
P in (0, 1], N an integer in [0, n_max].  The default seed additionally
compares against the reference CSVs recorded at the seed commit: integer
and text cells exactly, float cells to an absolute 1e-8.
"""
from __future__ import annotations

import csv
import re
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ATOL = 1e-8
_INT = re.compile(r"-?\d+\Z")
_RANGE = {"F": lambda x: 0.0 <= x <= 1.0,
          "P": lambda x: 0.0 < x <= 1.0,
          "nonneg": lambda x: x >= 0.0}


def read_csv(path) -> Tuple[List[str], List[List[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def _num(cell: str) -> Optional[float]:
    try:
        return float(cell)
    except ValueError:
        return None


def check_invariants(header: List[str], rows: List[List[str]],
                     spec: Dict) -> List[str]:
    """Problems found in a CSV against its generated spec; empty when fine."""
    problems = []
    if len(rows) != spec["rows"]:
        problems.append(f"{len(rows)} rows, expected {spec['rows']}")
    col = {name: i for i, name in enumerate(header)}
    bounds = [(c, kind) for kind in ("F", "P", "N", "nonneg")
              for c in spec[kind]]
    for name, kind in bounds:
        if name not in col:
            problems.append(f"missing column {name}")
            continue
        for r, row in enumerate(rows):
            cell = row[col[name]] if col[name] < len(row) else ""
            if kind == "N":
                ok = (cell == "" and spec["blank_N"]) or (
                    _INT.match(cell) is not None
                    and 0 <= int(cell) <= spec["n_max"])
            else:
                v = _num(cell)
                ok = v is not None and _RANGE[kind](v)
            if not ok:
                problems.append(f"row {r}: {name} = {cell!r} out of range")
    return problems


def compare_reference(header: List[str], rows: List[List[str]],
                      ref_header: List[str],
                      ref_rows: List[List[str]]) -> List[str]:
    """Differences from a reference CSV: integer and text columns exactly,
    float columns within ATOL.  A column is integer when every reference
    cell in it is an integer or blank."""
    if header != ref_header:
        return [f"header {header} differs from reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    if any(len(row) != len(header) for row in rows):
        return ["row with a wrong number of cells"]
    problems = []
    for c, name in enumerate(header):
        ref_col = [row[c] for row in ref_rows]
        is_int = all(x == "" or _INT.match(x) for x in ref_col)
        for r, (got, want) in enumerate(zip((row[c] for row in rows), ref_col)):
            a, b = _num(got), _num(want)
            if is_int or a is None or b is None:
                same = got == want
            else:
                same = abs(a - b) <= ATOL
            if not same:
                problems.append(f"row {r}: {name} = {got}, reference {want}")
    return problems


def check_csv(path: Path, spec: Dict,
              reference: Optional[Path] = None) -> List[str]:
    """All problems with one child's CSV; a missing file is one problem."""
    if not Path(path).is_file():
        return [f"missing CSV {path}"]
    header, rows = read_csv(path)
    problems = check_invariants(header, rows, spec)
    if reference is not None and not Path(reference).is_file():
        problems.append(f"missing reference {reference}")
    elif reference is not None:
        problems += compare_reference(header, rows, *read_csv(reference))
    return problems
