"""Layer spans for a traced benchmark child, recorded from outside qcool.

`install` replaces qcool layer functions, and the LAPACK entry points they
call, with wrappers that record a span per call: name, start, end, parent
span and the config's trace id.  A LAPACK function is replaced both in its
library module and in every qcool module that bound it by name (`from
scipy.linalg import eigh`), since those names were bound at import time.
Spans stay in memory; the child writes them out when it exits.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_MAKE = ("make_cat", "make_odd_cat", "make_hybrid_entangled", "make_noon")
_NP_OTHER = ("inv", "solve", "svd", "cond", "lstsq", "det", "eigvals",
             "eigvalsh", "qr", "cholesky", "pinv")
_SP_OTHER = ("inv", "solve", "svd", "expm", "lu", "qr", "cholesky")

# (span name, module, attribute)
TARGETS = (
    [("cli.load_config", "qcool.cli", "load_config"),
     ("cli.emit_csv", "qcool.cli", "emit_csv"),
     ("states.dst", "qcool.states", "displaced_squeezed_thermal"),
     ("protocol.run_protocol", "qcool.protocol", "run_protocol"),
     ("opttime.solve_topt", "qcool.opttime", "solve_topt"),
     ("opttime.minimize_scalar", "scipy.optimize", "minimize_scalar"),
     ("gaussian.theorem3_oneshot", "qcool.gaussian", "theorem3_oneshot")]
    + [("stateprep.make", "qcool.stateprep", f) for f in _MAKE]
    + [("linalg.eigh", "scipy.linalg", "eigh"),
       ("linalg.eigh", "numpy.linalg", "eigh"),
       ("linalg.eig", "scipy.linalg", "eig"),
       ("linalg.eig", "numpy.linalg", "eig"),
       ("linalg.eigh_tridiagonal", "scipy.linalg", "eigh_tridiagonal")]
    + [("linalg.other", "numpy.linalg", f) for f in _NP_OTHER]
    + [("linalg.other", "scipy.linalg", f) for f in _SP_OTHER])

# run_protocol's self time excludes children in these layers
_PROTOCOL_CHILDREN = ("states.", "linalg.", "opttime.")


def _family(name: str) -> str:
    return "linalg" if name.startswith("linalg.") else name


def _dim(args, kwargs) -> int:
    """Matrix order of a LAPACK call (length of the diagonal for
    eigh_tridiagonal)."""
    a = args[0] if args else next(iter(kwargs.values()), None)
    shape = getattr(a, "shape", None)
    if shape:
        return int(shape[0])
    try:
        return len(a)
    except TypeError:
        return 0


def _file_bytes(args, kwargs) -> int:
    path = args[2] if len(args) > 2 else kwargs.get("path")
    return os.path.getsize(path) if os.path.isfile(path) else 0


class Tracer:
    """Spans of one child process; nested calls within one family (a
    LAPACK routine calling another, make_odd_cat's cat) fold into the
    outer span."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: List[Dict] = []
        self._open: List[tuple] = []
        self._next_id = 0

    def wrap(self, name: str, fn: Callable,
             size: Optional[Callable] = None) -> Callable:
        family = _family(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._open and self._open[-1][1] == family:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = self._open[-1][0] if self._open else None
            self._open.append((sid, family))
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                self._open.pop()
                self.spans.append({
                    "trace": self.trace_id, "id": sid, "parent": parent,
                    "name": name, "start": start, "end": end,
                    "size": size(args, kwargs) if size else None})
        return wrapper


def install(trace_id: str) -> Tracer:
    """Wrap every target; call after `import qcool.cli`."""
    tracer = Tracer(trace_id)
    replaced = {}   # id(original) -> wrapper; the wrapper keeps it alive
    for name, modname, attr in TARGETS:
        # a module qcool has not imported stays unimported: importing it
        # here would add its import cost to a run that never pays it
        fn = getattr(sys.modules.get(modname), attr, None)
        if fn is None:
            continue
        if id(fn) not in replaced:
            size = _dim if name.startswith("linalg.") else (
                _file_bytes if name == "cli.emit_csv" else None)
            replaced[id(fn)] = tracer.wrap(name, fn, size)
        setattr(sys.modules[modname], attr, replaced[id(fn)])
    for modname, mod in list(sys.modules.items()):
        if modname != "qcool" and not modname.startswith("qcool."):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in replaced:
                setattr(mod, attr, replaced[id(value)])
    return tracer


def span_overhead(repeats: int = 20000) -> float:
    """Seconds one recorded span adds to a call, measured on a no-op."""
    def noop():
        return None
    wrapped = Tracer("probe").wrap("probe", noop)
    t0 = time.monotonic()
    for _ in range(repeats):
        noop()
    t1 = time.monotonic()
    for _ in range(repeats):
        wrapped()
    t2 = time.monotonic()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / repeats)


def layer_sums(spans: List[Dict]) -> Dict[str, float]:
    """Per-layer totals of one child: calls, seconds, operation counts."""
    out: Dict[str, float] = defaultdict(float)
    child_time: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None and s["name"].startswith(_PROTOCOL_CHILDREN):
            child_time[s["parent"]] += s["end"] - s["start"]
    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += dur
        if name.startswith("linalg."):
            out[f"{name}.n3_sum"] += s["size"] ** 3
            out[f"{name}.max_n"] = max(out[f"{name}.max_n"], s["size"])
        elif name == "cli.emit_csv":
            out["cli.emit_csv.bytes"] += s["size"]
        elif name == "protocol.run_protocol":
            out["protocol.self_s"] += dur - child_time[s["id"]]
    return dict(out)
