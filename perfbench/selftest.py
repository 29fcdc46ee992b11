"""Self-test of the benchmark harness on smoke-sized workloads.

Usage: python3 perfbench/selftest.py

For every workload at its smoke size (resolve at bound 4, slices at window
9, suites at 2 trials, membership on one_loop_n3) it runs one untraced and
one traced operation and checks that
- both pass the workload's output checks;
- their reports are byte-identical, so the wrappers do not change results;
- the spans nest: no span has negative self time, and the self times add up
  to no more than the traced wall time.
It also checks that BENCHMARK.json names exactly the metrics run.py and
spans.py report and only workloads of workloads.py, that the memory
pre-flight refuses a workload whose peak does not fit, that the benchmark
fails without printing a result in a
directory that holds only BENCHMARK.json and perfbench/, and that
compare.py pairs runs by seed and calls no change a gain when it fails
more operations.
Exits 0 when every check holds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCRATCH = run.ROOT / ".perfbench" / "selftest"


def check_workload(wl) -> list:
    problems = []
    plain = run.spawn(wl.name, wl.smoke, 1)
    traced = run.spawn(wl.name, wl.smoke, 1, trace=True,
                       spans_path=SCRATCH / f"{wl.name}.spans.jsonl.gz")
    for label, rec in (("untraced", plain), ("traced", traced)):
        problems += [f"{label}: {f}" for f in rec["failures"]]
    if plain.get("digests") != traced.get("digests"):
        problems.append("traced and untraced reports differ")
    tr = traced.get("trace")
    if tr is None:
        return problems + ["traced run returned no spans"]
    if tr["spans"] == 0:
        problems.append("no spans recorded")
    if tr["min_self_ns"] < 0:
        problems.append(f"negative self time {tr['min_self_ns']} ns")
    if tr["sum_self_ns"] > tr["wall_ns"]:
        problems.append(f"self times {tr['sum_self_ns']} ns exceed the "
                        f"traced wall {tr['wall_ns']} ns")
    print(f"{wl.name}: {tr['spans']} spans, self {tr['sum_self_ns'] / 1e9:.3f}"
          f" s of {tr['wall_ns'] / 1e9:.3f} s traced wall, untraced wall "
          f"{plain.get('wall_s', float('nan')):.3f} s")
    return problems


def check_benchmark_json() -> list:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if e2e != run.END_TO_END:
        problems.append(f"end_to_end {e2e} != run.END_TO_END")
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if layer != PER_LAYER:
        problems.append("per_layer differs from spans.PER_LAYER: "
                        f"{sorted(set(layer) ^ set(PER_LAYER))}")
    unknown = {w["name"] for w in bench["workloads"]} - set(WORKLOADS)
    if unknown:
        problems.append(f"workloads not in workloads.WORKLOADS: {unknown}")
    return problems


def check_preflight() -> list:
    class Huge:
        name, peak_mb = "huge", 10**9
    try:
        run.preflight(Huge)
    except run.Refused:
        return []
    return ["memory pre-flight let a 1 PB workload start"]


def check_compare() -> list:
    def rec(seed, wall, failed=0):
        return {"env": {"seed": seed}, "attempted": 2, "failed": failed,
                "metrics": {"wall_s": {"value": wall, "unit": "s"}}}
    parent = [rec(s, 10.0 + s / 100) for s in range(10)]
    faster = [rec(s, 8.0) for s in range(9, -1, -1)]
    failing = [rec(s, 5.0, failed=s == 0) for s in range(10)]
    problems = []
    pairs = compare.seed_pairs(parent, faster[:5], "wall_s")
    if pairs != [(10.0 + s / 100, 8.0) for s in range(5, 10)]:
        problems.append(f"runs paired by seed wrongly: {pairs}")
    pv = [r["metrics"]["wall_s"]["value"] for r in parent]
    row = compare.verdict(pv, [8.0] * 10,
                          compare.seed_pairs(parent, faster, "wall_s"), 0.25)
    if row["flag"] != "gain":
        problems.append(f"a 20 % faster change reads {row['flag']!r}")
    more = (compare.failure_share(failing) > compare.failure_share(parent))
    row = compare.verdict(pv, [5.0] * 10,
                          compare.seed_pairs(parent, failing, "wall_s"), 0.25,
                          more_failures=more)
    if row["flag"] != "MORE FAILURES":
        problems.append(f"a change with failures reads {row['flag']!r}")
    return problems


def check_bare_tree() -> list:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suites",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare tree: exit {proc.returncode}, stdout "
                f"{proc.stdout.strip()[:200]!r}"]
    return []


def main() -> int:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    problems = (check_benchmark_json() + check_preflight() + check_compare()
                + check_bare_tree())
    for wl in WORKLOADS.values():
        problems += [f"{wl.name}: {p}" for p in check_workload(wl)]
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
