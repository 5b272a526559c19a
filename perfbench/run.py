"""qcool benchmark: seeded workloads, end-to-end timings with output
checks, and a traced per-layer split.

    python3 perfbench/run.py --workload network-m3 --seed 0 --seconds 55 --trace 0

Run from the root of a qcool checkout; qcool is imported from its `src`.
The seed generates the workload's configs (workloads.py).  The run then
repeats rounds until --seconds have passed: a round is one child process
(child.py) that runs every config in turn, each the equivalent of
`qcool run`, and the run then checks each CSV (check.py).  wall_s and
solve_s are means over rounds, setup_s and the per-layer metrics are
medians, and peak_rss_mb is the largest child.  With
--trace 1 the children record layer spans (tracing.py) and the run
reports the per-layer metrics instead, and writes the spans to
perfbench/out/.

Metric names and units come from BENCHMARK.json.  The last line of
standard output is the result object; earlier lines are for people.
Configs and CSVs live in a temporary directory inside perfbench/ that
is removed at exit.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

import check
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"
OUT = HERE / "out"
DEFAULT_SEED = 0
RUN_LIMIT_S = 170.0     # a hung child is killed so the run ends in time
BLAS_THREADS = 1


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # an installed qcool keeps its bytecode cache; so do the children
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # one BLAS thread: on a 2-vCPU VM with OpenBLAS 0.3.31, two threads
    # made the network-m3 solve 1.7x slower
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def git_commit() -> str:
    """HEAD of the checkout read from .git, 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(env: Dict[str, str]) -> Dict:
    """Machine and library record from a child; also warms the bytecode
    and file caches before anything is timed."""
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), "--env"],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import qcool: {proc.stderr.strip()}")
    record = json.loads(proc.stdout)
    if not Path(record["qcool_path"]).is_relative_to(ROOT / "src"):
        raise RuntimeError(f"qcool imported from {record['qcool_path']}")
    record["git_commit"] = git_commit()
    return record


def import_seconds(stderr: str, module: str) -> float:
    """Cumulative import time of `module` from `-X importtime` output."""
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            fields = line[len("import time:"):].split("|")
            if len(fields) == 3 and fields[2].strip() == module:
                return int(fields[1]) / 1e6
    return 0.0


def run_round(configs: List[workloads.Config], work: Path,
              env: Dict[str, str], round_id: Optional[str],
              ref_dir: Optional[Path], deadline: float) -> Dict:
    """Run one round in its own process and check every CSV.  Each config
    gets a list of problems; a config the child did not finish fails."""
    result_path = work / "round.result.json"
    result_path.unlink(missing_ok=True)
    for cfg in configs:
        (work / f"{cfg.name}.csv").unlink(missing_ok=True)
    cmd = [sys.executable] + (["-X", "importtime"] if round_id else [])
    cmd += [str(HERE / "child.py"), str(result_path)]
    cmd += ["--trace", round_id] if round_id else []
    cmd += [f"{cfg.name}.cfg" for cfg in configs]
    out: Dict = {"problems": {cfg.name: [] for cfg in configs}}
    spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, text=True,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=max(1.0, deadline - spawn))
    except subprocess.TimeoutExpired:
        for problems in out["problems"].values():
            problems.append("timed out")
        return out
    res = json.loads(result_path.read_text()) if result_path.is_file() else {}
    finished = {c["name"]: c for c in res.get("configs", [])}
    if proc.returncode != 0 or not res:
        errors = [ln for ln in proc.stderr.splitlines()
                  if not ln.startswith("import time:")]
        for problems in out["problems"].values():
            problems.append(f"round exit {proc.returncode}: "
                            + " | ".join(errors[-3:]))
    if res:
        out.update(res, setup_s=res["ready"] - spawn,
                   solve_s=sum(c["solve_s"] for c in finished.values()))
    if round_id:
        out["import_scipy_optimize_s"] = import_seconds(proc.stderr,
                                                        "scipy.optimize")
    for cfg in configs:
        problems = out["problems"][cfg.name]
        if cfg.name not in finished:
            problems.append("not run")
            continue
        if finished[cfg.name]["rc"] != 0:
            problems.append(f"exit {finished[cfg.name]['rc']}")
        problems += check.check_csv(work / f"{cfg.name}.csv", cfg.spec,
                                    ref_dir / f"{cfg.name}.csv"
                                    if ref_dir else None)
    return out


def end_to_end(rounds: List[Dict], walls: List[float]) -> Dict[str, float]:
    problems = [p for rnd in rounds for p in rnd["problems"].values()]
    # wall_s and solve_s average over the run: the host's speed switches
    # between levels for tens of seconds at a time, and a median over a
    # few rounds jumps with whichever level held most of them
    return {
        "wall_s": statistics.fmean(walls),
        "setup_s": statistics.median(rnd.get("setup_s", 0.0) for rnd in rounds),
        "solve_s": statistics.fmean(rnd.get("solve_s", 0.0) for rnd in rounds),
        "peak_rss_mb": max(rnd.get("maxrss_kib", 0) for rnd in rounds) / 1024,
        "ok_rate": sum(1 for p in problems if not p) / len(problems),
    }


def per_layer(rounds: List[Dict]) -> Dict[str, float]:
    per_round = []
    for rnd in rounds:
        tot = dict(rnd.get("layers", {}))
        hits = rnd.get("lambdas_hits", 0)
        calls = hits + rnd.get("lambdas_misses", 0)
        tot["protocol.effective_lambdas.hit_ratio"] = hits / calls if calls else 0.0
        tot["setup.import_qcool_s"] = rnd.get("import_qcool_s", 0.0)
        tot["setup.import_scipy_optimize_s"] = rnd.get(
            "import_scipy_optimize_s", 0.0)
        spans = rnd.get("spans", [])
        tot["trace.spans"] = len(spans)
        tot["trace.overhead_s"] = len(spans) * rnd.get("span_overhead_s", 0.0)
        tot["trace.solve_s"] = rnd.get("solve_s", 0.0)
        per_round.append(tot)
    keys = set().union(*per_round)
    return {k: statistics.median(r.get(k, 0.0) for r in per_round) for k in keys}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true",
                    help="run one round of the default seed and store its "
                         "CSVs as the reference")
    args = ap.parse_args(argv)
    if args.record_reference and args.seed != DEFAULT_SEED:
        ap.error(f"references are recorded for seed {DEFAULT_SEED} only")
    if not (ROOT / "src" / "qcool" / "__init__.py").is_file():
        print(f"error: no qcool source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    specs = json.loads((ROOT / "BENCHMARK.json").read_text())
    configs = workloads.generate(args.workload, args.seed)
    ref_dir = REFERENCE / args.workload
    compare = args.seed == DEFAULT_SEED and not args.record_reference
    env = child_env()
    try:
        record = environment(env)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print("# env " + json.dumps(record, sort_keys=True))

    rounds: List[Dict] = []
    walls: List[float] = []
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as tmp:
        work = Path(tmp)
        for cfg in configs:
            (work / f"{cfg.name}.cfg").write_text(cfg.text)
        start = time.monotonic()
        deadline = start + RUN_LIMIT_S
        # a round starts only when a typical round still ends in time
        while not rounds or (not args.record_reference and time.monotonic()
                             - start + statistics.median(walls) <= args.seconds):
            t0 = time.monotonic()
            rnd = run_round(configs, work, env,
                            f"r{len(rounds)}" if args.trace else None,
                            ref_dir if compare else None, deadline)
            walls.append(time.monotonic() - t0)
            rounds.append(rnd)
            print(f"# round {len(rounds) - 1}: wall {walls[-1]:.3f} s, setup "
                  f"{rnd.get('setup_s', 0.0):.3f} s, solve "
                  f"{rnd.get('solve_s', 0.0):.3f} s", flush=True)
            if time.monotonic() > deadline:
                break
        failures = [(name, problems) for rnd in rounds
                    for name, problems in rnd["problems"].items() if problems]
        if args.record_reference and not failures:
            ref_dir.mkdir(parents=True, exist_ok=True)
            for cfg in configs:
                shutil.copyfile(work / f"{cfg.name}.csv",
                                ref_dir / f"{cfg.name}.csv")
            print(f"# recorded {len(configs)} reference CSVs in {ref_dir}")

    for name, problems in failures:
        print(f"FAILED {name}: " + "; ".join(problems[:5]), file=sys.stderr)
    if args.trace:
        values, declared = per_layer(rounds), specs["per_layer"]
        OUT.mkdir(exist_ok=True)
        spans = [s for rnd in rounds for s in rnd.get("spans", [])]
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"env": record, "spans": spans}))
        print(f"# {len(spans)} spans written to {trace_file.relative_to(ROOT)}")
    else:
        values, declared = end_to_end(rounds, walls), specs["end_to_end"]
    print(f"# rounds {len(rounds)}, configs per round {len(configs)}")
    metrics = {}
    for m in declared:
        v = float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"{m['name']:40s} {v:14.6g} {m['unit']}")
    attempted = sum(len(rnd["problems"]) for rnd in rounds)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
