"""The four benchmark workloads: parameters, the timed operation, checks.

Each workload is run through the public API or the CLI entry point, in a
fresh worker process per operation (see worker.py).  ``setup`` is what a
batch user pays before the first call: importing nkoszul (with numpy) and,
for the CLI workloads, reading the JSON document.  ``run`` is the timed
call.  ``reports`` serialises the outputs for digests, and ``check``
returns the failed semantic checks.

Why these four: each uses the F_p kernel (linalg) in a different way, so a
kernel change that helps one use and hurts another shows on one of them.
- resolve: a few huge int64 products inside grmod.submodule_as_module lead
  it; the mechanism workload for an exact BLAS product.
- membership: led by grmod.hom_space with linalg.null_space/rref on large
  systems; mat_mul is under 1 %, so a product change should not move it.
- slices: led by PathAlgebra slice construction (rref on tall ideal
  matrices), the only workload led by the algebra layer.
- suites: tens of thousands of tiny rref/mat_mul/hom_space calls, where
  per-call overhead dominates.

BENCHMARK.json lists resolve, membership and slices, the workloads a change
is accepted or refused on.  It leaves suites out: suites is pure interpreter
work, which a neighbour on a shared host slows by 10-60 % for stretches of
tens of seconds, so its run-to-run spread is wider than the bound.  It
still runs with --workload suites or all and in compare.py.
"""
from __future__ import annotations

import contextlib
import io
import json

# Generator counts of the minimal resolution of the degree-0 part of
# two_loop_n3, per homological degree.
TWO_LOOP_GENERATORS = [1, 2, 8, 16, 64, 128, 512]

FAST_SUITES = ("dual_agreement", "functor_oracle", "torsion_classes",
               "torsion_transport", "contraction", "even_presentation",
               "dimensions", "equivalence", "dual_equivalence")

# Window 13 takes about 35 s; at window 14 the ideal matrix alone needs
# about 8 GB.
MAX_SLICES_WINDOW = 12


def _cli(argv):
    from nkoszul import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_report(result):
    code, text = result
    return json.loads(text) if code in (0, 1) and text else {}


class Resolve:
    """koszul.minimal_projective_resolution of the degree-0 part of a corpus
    algebra.  Deterministic: the seed is not used."""

    name = "resolve"
    params = {"algebra": "two_loop_n3", "bound": 6}
    smoke = {"algebra": "two_loop_n3", "bound": 4}
    seeded = False
    peak_mb = None
    min_ops = 1

    def setup(self, params):
        from nkoszul import koszul, verify  # noqa: F401

    def run(self, params, seed):
        from nkoszul import koszul, verify
        lam = verify.corpus(params["algebra"])["lam"]
        return koszul.minimal_projective_resolution(
            koszul.semisimple_module(lam), params["bound"])

    def reports(self, seg):
        from nkoszul.docio import dump_report
        return {"resolution": dump_report({
            "gen_lists": seg.gen_lists,
            "term_dims": [pm.total_dim() for pm in seg.pmods]})}

    def check(self, seg, params):
        from nkoszul.algebra import DegreeMap
        bound = params["bound"]
        fails = []
        counts = [len(g) for g in seg.gen_lists]
        if counts != TWO_LOOP_GENERATORS[:bound + 1]:
            fails.append(f"generator counts {counts}")
        dmap = DegreeMap(0, 3)
        for j, gens in enumerate(seg.gen_lists):
            if any(d != dmap.delta(j) for _, d in gens):
                fails.append(f"generator degrees at j={j} leave DegreeMap(0,3)")
        return fails


class Membership:
    """`nkoszul check --predicate in_Y --object F(X)`, run in process."""

    name = "membership"
    params = {"input": "inputs/two_loop_n3.json", "predicate": "in_Y",
              "object": "F(X)"}
    smoke = {"input": "inputs/one_loop_n3.json", "predicate": "in_Y",
             "object": "F(X)"}
    seeded = True
    peak_mb = 1110
    min_ops = 3

    def setup(self, params):
        from nkoszul import cli  # noqa: F401
        from nkoszul.docio import load_document
        load_document(params["input"])

    def run(self, params, seed):
        return _cli(["check", params["input"], "--predicate",
                     params["predicate"], "--object", params["object"],
                     "--seed", str(seed)])

    def reports(self, result):
        return {"report": result[1]}

    def check(self, result, params):
        code = result[0]
        rep = _cli_report(result)
        fails = []
        if code != 0:
            fails.append(f"exit code {code}")
        if rep.get("verdict") is not True:
            fails.append(f"verdict {rep.get('verdict')!r}")
        return fails


class Slices:
    """`nkoszul dual --window -W W`, run in process.  Deterministic."""

    name = "slices"
    params = {"input": "inputs/commutative_n2.json", "window": 12}
    smoke = {"input": "inputs/commutative_n2.json", "window": 9}
    seeded = False
    peak_mb = 1160
    min_ops = 2

    def setup(self, params):
        if params["window"] > MAX_SLICES_WINDOW:
            raise ValueError(f"slices window above {MAX_SLICES_WINDOW}")
        from nkoszul import cli  # noqa: F401
        from nkoszul.docio import load_document
        load_document(params["input"])

    def run(self, params, seed):
        w = params["window"]
        return _cli(["dual", params["input"], "--window", str(-w), str(w)])

    def reports(self, result):
        return {"report": result[1]}

    def check(self, result, params):
        code = result[0]
        rep = _cli_report(result)
        fails = []
        if code != 0:
            fails.append(f"exit code {code}")
        if rep.get("agreement") is not True:
            fails.append(f"agreement {rep.get('agreement')!r}")
        want = list(range(1, params["window"] + 2))
        if rep.get("dual_dims") != want:
            fails.append(f"dual_dims {rep.get('dual_dims')!r}")
        return fails


class Suites:
    """The nine fast verify suites at their default trials and the default
    seed 0, which the acceptance tests use.  The run seed is not used: the
    suites' own cost swings with their seed (dual_agreement alone takes
    0.02 s to 5.9 s over seeds 100-115), so a run over a few seeds would
    measure which seeds it drew rather than the code."""

    name = "suites"
    params = {"suites": list(FAST_SUITES), "trials": None, "seed": 0}
    smoke = {"suites": list(FAST_SUITES), "trials": 2, "seed": 0}
    seeded = False
    peak_mb = None
    min_ops = 2

    def setup(self, params):
        from nkoszul import verify  # noqa: F401

    def run(self, params, seed):
        from nkoszul import verify
        return [verify.run_suite(s, trials=params["trials"],
                                 seed=params["seed"])
                for s in params["suites"]]

    def reports(self, reps):
        from nkoszul.docio import dump_report
        return {r["suite"]: dump_report(r) for r in reps}

    def check(self, reps, params):
        return [f"suite {r['suite']} failed" for r in reps
                if r.get("passed") is not True]


WORKLOADS = {w.name: w for w in (Resolve(), Membership(), Slices(), Suites())}
