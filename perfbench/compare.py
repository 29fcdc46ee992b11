"""Compare benchmark results of a parent commit and a change.

Usage:
  python3 perfbench/compare.py pairs --parent DIR --change DIR \\
      --workload NAME [--pairs 10] [--seed0 N] [--out RESULTS]
  python3 perfbench/compare.py report PARENT_RESULTS CHANGE_RESULTS

``pairs`` runs the benchmark in two checkouts in alternating order (parent
first in even pairs, change first in odd ones), with the same seed for both
sides of a pair and the run length of BENCHMARK.json, and stores the
records under RESULTS/parent and RESULTS/change.  RESULTS defaults to a
fresh directory under .perfbench/compare; a given one must be empty or
absent.  Both checkouts must hold identical benchmark files.

``report`` prints one row per workload and end-to-end metric: each side's
median and quartiles over its runs, the change's wins over the runs paired
by seed, and a verdict.  The verdict follows the benchmark's bounds
(BENCHMARK.json):
- MORE FAILURES: the change's share of failed operations is above the
  parent's, so its times do not count;
- unresolved: the parent's run-to-run spread (q3 - q1, over its median) is
  wider than the bound, unless every change run beats every parent run;
- REGRESSION: the change's median is worse than the parent's by more than
  the bound;
- gain: the change wins at least nine tenths of the pairs and the medians
  differ by more than the parent's q3 - q1;
- no change: otherwise.
The exit code is 1 when any row is a regression or has more failures.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from run import summary

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _quartiles(vals):
    s = summary(vals)
    return s["q1"], s["median"], s["q3"]


def load(results_dir) -> dict:
    """Untraced run records by workload, in the order they were made."""
    out: dict = {}
    for path in sorted(Path(results_dir).glob("*_trace0_*.json")):
        rec = json.loads(path.read_text())
        out.setdefault(rec["env"]["workload"], []).append(rec)
    for recs in out.values():
        recs.sort(key=lambda r: r["started"])
    return out


def seed_pairs(parent, change, name):
    """(parent, change) values of metric ``name`` from runs with the same
    seed, in the order the runs were made."""
    by_seed: dict = {}
    for r in change:
        if name in r["metrics"]:
            by_seed.setdefault(r["env"]["seed"], []).append(
                r["metrics"][name]["value"])
    pairs = []
    for r in parent:
        waiting = by_seed.get(r["env"]["seed"])
        if name in r["metrics"] and waiting:
            pairs.append((r["metrics"][name]["value"], waiting.pop(0)))
    return pairs


def failure_share(recs) -> float:
    return (sum(r["failed"] for r in recs)
            / max(1, sum(r["attempted"] for r in recs)))


def verdict(parent, change, pairs, bound, lower_better=True,
            more_failures=False):
    """Row for one workload and metric from the per-run values and the
    (parent, change) values of runs paired by seed."""
    sign = 1 if lower_better else -1
    q1p, p, q3p = _quartiles(sorted(parent))
    q1c, c, q3c = _quartiles(sorted(change))
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    worse = sign * (c - p) / p
    spread = (q3p - q1p) / p
    all_better = (max(change) < min(parent) if lower_better
                  else min(change) > max(parent))
    if more_failures:
        flag = "MORE FAILURES"
    elif spread > bound and not all_better:
        flag = "unresolved"
    elif worse > bound:
        flag = "REGRESSION"
    elif pairs and wins >= 0.9 * len(pairs) and sign * (p - c) > q3p - q1p:
        flag = "gain"
    else:
        flag = "no change"
    return {"parent": (p, q1p, q3p, len(parent)),
            "change": (c, q1c, q3c, len(change)), "change_over_parent": c / p,
            "wins": wins, "pairs": len(pairs), "spread": spread,
            "flag": flag}


def report(parent_dir, change_dir) -> int:
    parent, change = load(parent_dir), load(change_dir)
    bad = 0
    print(f"{'workload':<11} {'metric':<12} {'parent median [q1, q3] n':<32} "
          f"{'change median [q1, q3] n':<32} {'ratio':>6} {'wins':>6}  verdict")
    for wl in sorted(set(parent) & set(change)):
        fp, fc = failure_share(parent[wl]), failure_share(change[wl])
        print(f"{wl:<11} failed share: parent {fp:.4g}, change {fc:.4g}")
        for m in BENCH["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name]["value"] for r in parent[wl]
                  if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in change[wl]
                  if name in r["metrics"]]
            if not pv or not cv:
                continue
            row = verdict(pv, cv, seed_pairs(parent[wl], change[wl], name),
                          m["bound"], m["better"] == "lower", fc > fp)
            bad += row["flag"] in ("REGRESSION", "MORE FAILURES")
            side = lambda t: f"{t[0]:.4g} [{t[1]:.4g}, {t[2]:.4g}] {t[3]}"  # noqa: E731
            print(f"{wl:<11} {name:<12} {side(row['parent']):<32} "
                  f"{side(row['change']):<32} "
                  f"{row['change_over_parent']:>6.3f} "
                  f"{row['wins']:>3}/{row['pairs']:<2}  {row['flag']} "
                  f"(bound {m['bound']}, parent spread {row['spread']:.3f})")
    return 1 if bad else 0


def _bench_digest(checkout: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((checkout / "perfbench").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(checkout).as_posix().encode())
            h.update(path.read_bytes())
    h.update((checkout / "BENCHMARK.json").read_bytes())
    return h.hexdigest()


def pairs(args) -> int:
    sides = {"parent": Path(args.parent).resolve(),
             "change": Path(args.change).resolve()}
    if _bench_digest(sides["parent"]) != _bench_digest(sides["change"]):
        print("the two checkouts hold different benchmark files",
              file=sys.stderr)
        return 2
    if args.out is None:
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        args.out = f".perfbench/compare/{args.workload}_{stamp}_{os.getpid()}"
    out = Path(args.out).resolve()
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty; give a fresh --out", file=sys.stderr)
        return 2
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            cmd = [sys.executable, "perfbench/run.py", "--workload",
                   args.workload, "--seed", str(args.seed0 + i),
                   "--seconds", str(BENCH["run_seconds"]), "--trace", "0",
                   "--out", str(out / side)]
            proc = subprocess.run(cmd, cwd=sides[side], capture_output=True,
                                  text=True)
            print(f"pair {i} {side}: exit {proc.returncode} "
                  f"{proc.stdout.strip().splitlines()[-1:]}", flush=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
    print(f"results in {out}")
    return report(out / "parent", out / "change")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("pairs")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=0)
    p.add_argument("--out", default=None)
    r = sub.add_parser("report")
    r.add_argument("parent_dir")
    r.add_argument("change_dir")
    args = ap.parse_args(argv)
    if args.cmd == "report":
        return report(args.parent_dir, args.change_dir)
    return pairs(args)


if __name__ == "__main__":
    sys.exit(main())
