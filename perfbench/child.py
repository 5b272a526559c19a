"""One benchmark round: the workload's configs run one after another in
a single process, each the equivalent of `qcool run <config>`, timed.

    python3 child.py <result.json> [--trace <round id>] <config>...
    python3 child.py --env

Set-up ends once `qcool.cli` is imported; the parent subtracts the time
it spawned the process.  Both read CLOCK_MONOTONIC, which is system-wide.
Only `sys` and `time` load before qcool, so set-up is the interpreter's
start and qcool's import.  With a round id the qcool layers are wrapped
(tracing.py) after set-up, each config's spans carry the trace id
`<round id>/<config>`, and the spans go into the result file.
"""
import sys
import time


def run(result_path: str, configs, round_id=None) -> int:
    t0 = time.monotonic()
    import qcool.cli
    ready = time.monotonic()
    tracer = None
    if round_id is not None:
        import tracing
        tracer = tracing.install(round_id)
    done = []
    for config in configs:
        name = config[:-len(".cfg")] if config.endswith(".cfg") else config
        if tracer is not None:
            tracer.trace_id = f"{round_id}/{name}"
        t1 = time.monotonic()
        rc = qcool.cli.run(config)
        done.append({"name": name, "rc": rc, "solve_s": time.monotonic() - t1})

    import json
    import resource
    result = {"ready": ready, "import_qcool_s": ready - t0, "configs": done,
              "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        cache = qcool.protocol.effective_lambdas.cache_info()
        result.update(spans=tracer.spans,
                      layers=tracing.layer_sums(tracer.spans),
                      lambdas_hits=cache.hits, lambdas_misses=cache.misses,
                      span_overhead_s=tracing.span_overhead())
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return max((c["rc"] for c in done), key=abs, default=0)


def _blas_threads(module):
    """Thread count reported by the OpenBLAS bundled with numpy or scipy;
    None when it cannot be found."""
    import ctypes
    import glob
    import os
    site = os.path.dirname(os.path.dirname(module.__file__))
    for lib in glob.glob(os.path.join(site, module.__name__ + ".libs",
                                      "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import os
    import platform
    import numpy
    import scipy
    import qcool.cli
    blas = {}
    for module in (numpy, scipy):
        dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[module.__name__] = {"name": dep.get("name"),
                                 "version": dep.get("version"),
                                 "threads": _blas_threads(module)}
    return {"nproc": len(os.sched_getaffinity(0)), "blas": blas,
            "blas_thread_env": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "qcool_path": qcool.__file__}


if __name__ == "__main__":
    if sys.argv[1:] == ["--env"]:
        import json
        print(json.dumps(environment()))
        sys.exit(0)
    args = sys.argv[1:]
    trace = None
    if args[1:2] == ["--trace"]:
        trace = args[2]
        del args[1:3]
    sys.exit(run(args[0], args[1:], trace))
