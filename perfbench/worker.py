"""One benchmark operation in a fresh process.

Usage: python3 perfbench/worker.py SPEC_JSON

SPEC_JSON holds ``workload``, ``params``, ``seed``, ``mode`` ("op" runs the
timed call, "setup" stops after set-up), ``trace`` (wrap the layers in
spans first) and ``spans_path`` (where a traced run writes its spans).
The worker prints one JSON line: the monotonic time set-up ended, and for
an operation its wall and CPU seconds, peak resident memory, report
digests, failed checks and, when traced, the span summary.
"""
from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback

from workloads import WORKLOADS


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    spec = json.loads(sys.argv[1])
    wl = WORKLOADS[spec["workload"]]
    params = spec["params"]
    wl.setup(params)
    tracer = None
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    out = {"t_ready": time.monotonic(), "failures": []}
    if spec["mode"] == "op":
        cpu0 = _cpu_s()
        t0 = time.perf_counter_ns()
        try:
            result = wl.run(params, spec["seed"])
            error = None
        except Exception:
            error = traceback.format_exc()
        wall_ns = time.perf_counter_ns() - t0
        out["cpu_s"] = _cpu_s() - cpu0
        out["wall_s"] = wall_ns / 1e9
        out["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            # Before the checks, whose serialisation would add spans.
            out["trace"] = spans.summarize(tracer, wall_ns)
            spans.dump(tracer, spec["spans_path"])
        if error is None:
            out["failures"] = wl.check(result, params)
            out["digests"] = {
                k: hashlib.sha256(text.encode()).hexdigest()
                for k, text in wl.reports(result).items()}
        else:
            out["failures"] = [error]
            out["digests"] = {}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
