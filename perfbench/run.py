"""nkoszul benchmark: end-to-end metrics per workload, or a traced run.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all        # every workload in turn

Each operation runs in a fresh worker process (worker.py), one at a time,
so a run is a closed loop of batch jobs.  With --trace 0 operations repeat
until S seconds have passed; the run reports the median wall, CPU, peak
memory and set-up time of the operations that passed their checks, and the
share of failed operations.
With --trace 1 it runs one untraced and one traced operation on the same
input and reports the per-layer metrics from the spans (spans.py).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Every run also writes its full
record (machine, samples, quartiles, failures) under .perfbench/results.
Exit codes: 0 done, 2 the nkoszul sources are missing, 3 too little memory.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
sys.path.insert(0, str(HERE))

from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "setup_s": "s"}
# Set-up-only workers per run, on top of one set-up per operation.
SETUP_SAMPLES = 6
# A run ends within this many seconds even when operations are slow.
DEADLINE_S = 170.0
# Memory a workload needs beyond its recorded peak before it may start.
MEMORY_HEADROOM = 1.25


class Refused(Exception):
    """The run cannot start here; the message says why."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def available_mb() -> float:
    """MemAvailable, lowered to what the memory cgroup still allows."""
    avail = float("inf")
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemAvailable:"):
            avail = int(line.split()[1]) / 1024
    limit = _read("/sys/fs/cgroup/memory.max").strip()
    used = _read("/sys/fs/cgroup/memory.current").strip()
    if limit.isdigit() and used.isdigit():
        avail = min(avail, (int(limit) - int(used)) / 2**20)
    return avail


def environment(name, params, seed) -> dict:
    import numpy as np
    cpu = next((ln.split(":", 1)[1].strip()
                for ln in _read("/proc/cpuinfo").splitlines()
                if ln.startswith("model name")), platform.processor())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        blas = {}
    return {
        "nproc": nproc(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": nproc(),
        "mem_available_mb": round(available_mb(), 1),
        "workload": name, "params": params, "seed": seed,
    }


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    threads = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def spawn(name, params, seed, mode="op", trace=False, spans_path=None,
          timeout=DEADLINE_S) -> dict:
    """Run one worker and return its record, with setup_s added.  A worker
    that crashes or times out yields a record with a failure."""
    spec = json.dumps({"workload": name, "params": params, "seed": seed,
                       "mode": mode, "trace": trace,
                       "spans_path": str(spans_path) if spans_path else None})
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), spec], cwd=ROOT,
            env=worker_env(), capture_output=True, text=True,
            timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        return {"failures": [f"worker timed out after {timeout:.0f} s"],
                "seed": seed}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"failures": [f"worker exit {proc.returncode}: "
                             + proc.stderr.strip()[-2000:]], "seed": seed}
    rec = json.loads(lines[-1])
    rec["setup_s"] = rec.pop("t_ready") - t_spawn
    rec["seed"] = seed
    return rec


def preflight(wl) -> None:
    if wl.peak_mb is None:
        return
    need = wl.peak_mb * MEMORY_HEADROOM
    have = available_mb()
    if have < need:
        raise Refused(f"{wl.name} peaks near {wl.peak_mb} MB; it needs "
                      f"{need:.0f} MB available and {have:.0f} MB are")


def op_seeds(wl, seed):
    """Seeds of successive operations: drawn from the run seed for seeded
    workloads, so a run averages over several inputs."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31) if wl.seeded else seed


def summary(values) -> dict:
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def run_untraced(wl, params, seed, seconds) -> dict:
    start = time.monotonic()
    seeds = op_seeds(wl, seed)
    setups = [spawn(wl.name, params, seed, mode="setup")
              for _ in range(SETUP_SAMPLES)]
    ops = []
    t0 = time.monotonic()
    while len(ops) < wl.min_ops or time.monotonic() - t0 < seconds:
        left = DEADLINE_S - (time.monotonic() - start)
        if ops and left < 1.5 * max(o.get("wall_s", 0) for o in ops):
            break
        preflight(wl)
        ops.append(spawn(wl.name, params, next(seeds), timeout=left))
    # A failed operation may have stopped early, so only passing ones count.
    passed = [r for r in ops if not r["failures"]]
    samples = {m: [r[m] for r in passed]
               for m in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = [r["setup_s"] for r in setups + passed
                          if "setup_s" in r]
    stats = {m: summary(v) for m, v in samples.items() if v}
    failed = len(ops) - len(passed)
    return {"ops": ops, "setups": setups, "stats": stats,
            "attempted": len(ops), "failed": failed,
            "setup_failed": sum(1 for r in setups if r["failures"])}


def reference_digests() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def run_traced(wl, params, seed, spans_path) -> dict:
    """One untraced and one traced operation on the same seed, and for a
    seeded workload one more untraced operation at the default seed 0,
    whose report digests are compared with reference.json."""
    start = time.monotonic()
    op_seed = next(op_seeds(wl, seed))
    left = lambda: DEADLINE_S - (time.monotonic() - start)  # noqa: E731
    preflight(wl)
    plain = spawn(wl.name, params, op_seed, timeout=left())
    preflight(wl)
    traced = spawn(wl.name, params, op_seed, trace=True,
                   spans_path=spans_path, timeout=left())
    ops = [plain, traced]
    ref_op = plain
    if wl.seeded and op_seed != 0:
        preflight(wl)
        ref_op = spawn(wl.name, params, 0, timeout=left())
        ops.append(ref_op)
    if "trace" in traced and plain.get("digests") != traced.get("digests"):
        traced["failures"].append("traced and untraced reports differ")
    failed = sum(1 for o in ops if o["failures"])
    metrics = {}
    if not plain["failures"] and not traced["failures"]:
        metrics = dict(traced["trace"]["metrics"])
        metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
        ref = reference_digests().get(wl.name, {})
        got = ref_op.get("digests", {})
        metrics["docio.report_digest_mismatch"] = sum(
            got.get(k) != v for k, v in ref.items())
    return {"ops": ops, "metrics": metrics, "attempted": len(ops),
            "failed": failed}


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def measure(name, seed, seconds, trace, out_dir) -> dict:
    wl = WORKLOADS[name]
    params = wl.params
    env = environment(name, params, seed)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    tag = f"{name}_seed{seed}_trace{int(trace)}_{stamp}_{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    if trace:
        res = run_traced(wl, params, seed, out_dir / f"{tag}.spans.jsonl.gz")
        metrics = {k: {"value": res["metrics"][k], "unit": u}
                   for k, u in PER_LAYER.items() if k in res["metrics"]}
        for k, m in metrics.items():
            print(f"{name} {k} = {_fmt(m['value'])} {m['unit']}")
    else:
        res = run_untraced(wl, params, seed, seconds)
        metrics = {}
        for k, u in END_TO_END.items():
            if k in res["stats"]:
                s = res["stats"][k]
                metrics[k] = {"value": s["median"], "unit": u}
                print(f"{name} {k} median={_fmt(s['median'])} "
                      f"q1={_fmt(s['q1'])} q3={_fmt(s['q3'])} n={s['n']} {u}")
    rate = res["failed"] / max(1, res["attempted"])
    print(f"{name} error_rate = {rate:.6g} ({res['failed']} of "
          f"{res['attempted']} operations failed)")
    for op in res["ops"] + res.get("setups", []):
        for f in op["failures"]:
            print(f"{name} failure (seed {op['seed']}): {f}", file=sys.stderr)
    record = {"env": env, "seconds": seconds, "trace": bool(trace),
              "started": stamp, **res, "metrics": metrics,
              "error_rate": rate}
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1))
    complete = set(metrics) == (set(PER_LAYER) if trace else set(END_TO_END))
    ok = res["failed"] == 0 and not res.get("setup_failed") and complete
    return {"correct": ok,
            "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=".perfbench/results",
                    help="result directory, relative to the repository root")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "nkoszul" / "__init__.py").is_file():
        print(f"no nkoszul sources under {ROOT / 'src'}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    out_dir = ROOT / args.out
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds,
                                    bool(args.trace), out_dir)
    except Refused as e:
        print(f"refused: {e}", file=sys.stderr)
        return 3
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
