"""Command line surface.

Subcommands: dual, functor, contract, check, verify.  Inputs are JSON
documents (see FORMAT.md); reports are JSON, deterministic for a fixed
(input, seed) pair.  Exit codes: 0 success, 1 verification failure,
2 input error.
"""
from __future__ import annotations

import argparse
import sys

from . import complexes as cpx
from . import verify as vf
from .algebra import (AlgebraError, USupportAlgebra, build_dual, build_slices,
                      compute_orthogonal, compute_orthogonal_via_ordering,
                      yoneda_regrade)
from .docio import (DocumentError, complex_json, dump_report, load_document,
                    module_json, parse_module)
from .complexes import ComplexError
from .grmod import (GradedModule, ModuleError, TorsionParams, in_G, in_L,
                    in_L_E, in_Lo, is_torsionfree, opposite_algebra,
                    regrade, torsion_submodule)
from .linalg import LinAlgError
from .quiver import QuiverError


def _window_top(dom, args) -> int:
    lo, hi = dom["window"]
    if args.window:
        lo, hi = args.window
    return max(abs(lo), abs(hi), dom["n"] + 1)


class _Context:
    """Lazily built algebra tower for one input document."""

    def __init__(self, dom, args):
        self.dom = dom
        self.args = args
        self.top = _window_top(dom, args)
        self.lam = build_slices(dom["presentation"], self.top)
        self._dual = None
        self._ualg = None
        self._freeop = None

    @property
    def dual(self):
        if self._dual is None:
            self._dual = build_dual(self.lam, self.top)
        return self._dual

    @property
    def ualg(self):
        if self._ualg is None:
            self._ualg = USupportAlgebra(self.dual, self.dom["n"])
        return self._ualg

    @property
    def ealg(self):
        return yoneda_regrade(self.ualg)

    @property
    def freeop(self):
        if self._freeop is None:
            self._freeop = vf._free_op_algebra(
                self.dom["quiver"], self.dom["n"], self.top)
        return self._freeop

    def params(self) -> TorsionParams:
        m = self.args.m if self.args.m is not None else self.dom["m"]
        r = self.args.r if self.args.r is not None else self.dom["r"]
        return TorsionParams(self.dom["n"], r, m)

    def module(self, name: str) -> GradedModule:
        specs = self.dom["modules"]
        if name not in specs:
            raise DocumentError(f"no module named {name!r} in the input")
        spec = dict(specs[name])
        over = spec.pop("over", "dual")
        algebras = {"dual": lambda: self.dual, "free": lambda: self.freeop,
                    "u": lambda: self.ualg, "e": lambda: self.ealg,
                    "algebra": lambda: self.lam}
        if over not in algebras:
            raise DocumentError(
                f"module {name!r}: unknown algebra tag {over!r} "
                "(expected dual, free, u, e, or algebra)")
        return parse_module(spec, algebras[over](), f"modules.{name}")

    def complex(self, name: str):
        """A named complex, or a functor image written nu(M) / psi(M) /
        F(M)."""
        for fn_name in ("nu", "psi", "F"):
            if name.startswith(fn_name + "(") and name.endswith(")"):
                inner = name[len(fn_name) + 1:-1]
                mod = self.module(inner)
                allow = self.args.allow_windowed_dual
                if fn_name == "nu":
                    return cpx.nu(mod, self.lam, allow_windowed=allow)
                if fn_name == "psi":
                    return cpx.psi(mod, self.lam, allow_windowed=allow)
                return cpx.equivalence_F(mod, self.lam, self.params(),
                                         allow_windowed=allow)
        raise DocumentError(
            f"unknown complex {name!r}: use nu(MODULE), psi(MODULE) or "
            "F(MODULE)")


def _echo(args) -> dict:
    skip = {"report", "func"}
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}


def cmd_dual(ctx: _Context, args) -> tuple:
    lam = ctx.lam
    n = ctx.dom["n"]
    direct = compute_orthogonal(lam)
    data = compute_orthogonal_via_ordering(lam)
    agree = direct == data.orthogonal
    top = min(ctx.top, 12)
    dual = ctx.dual
    ualg = ctx.ualg
    ealg = ctx.ealg
    qop = ctx.dom["quiver"].opposite()
    report = {
        "agreement": bool(agree),
        "orthogonal_rank": int(direct.dim),
        "orthogonal_basis_kernel": direct.basis.dense().tolist(),
        "orthogonal_basis_ordered": [
            {pa.name_in(qop): int(cv) for pa, cv in h.coeffs.items()}
            for h in data.h_basis],
        "dual_dims": [int(dual.dim(k)) for k in range(top + 1)],
        "support_dims": [int(ualg.dim(k)) for k in range(top + 1)],
        "yoneda_dims": [int(ealg.dim(j))
                        for j in range(2 * (top // n) + 1)],
    }
    return report, (0 if agree else 1)


def cmd_functor(ctx: _Context, args) -> tuple:
    mod = ctx.module(args.module)
    n = ctx.dom["n"]
    if args.which == "psi":
        c = cpx.psi(mod, ctx.lam, allow_windowed=args.allow_windowed_dual)
    else:
        c = cpx.nu(mod, ctx.lam, allow_windowed=args.allow_windowed_dual)
    verdict = cpx.is_n_complex(c, n)
    free_mod = GradedModule(ctx.freeop, dict(mod.verts),
                            mod.stored_actions())
    oracle = vf.annihilates_orthogonal(free_mod, ctx.lam)
    report = {
        "functor": args.which,
        "module": args.module,
        "is_n_complex": bool(verdict),
        "orthogonal_annihilates": bool(oracle),
        "complex": complex_json(c),
    }
    return report, (0 if verdict == oracle else 1)


def cmd_contract(ctx: _Context, args) -> tuple:
    c = ctx.complex(args.complex)
    n = ctx.dom["n"]
    params = ctx.params()
    if not cpx.is_n_complex(c, n):
        raise DocumentError(
            f"{args.complex} is not an {n}-complex; contraction needs one")
    if args.direction == "H":
        out = cpx.contract_H(c, params.m, n)
    else:
        out = cpx.contract_G(c, params.m, n)
    squares = cpx.is_n_complex(out, 2)
    report = {
        "complex": args.complex,
        "direction": args.direction,
        "m": params.m,
        "is_2_complex": bool(squares),
        "in_T_star": bool(cpx.in_T_star(out, params))
        if args.direction == "H" else None,
        "contracted": complex_json(out),
    }
    return report, (0 if squares else 1)


_MODULE_PREDICATES = {"in_L", "in_L_E", "in_Lo", "in_G", "is_torsionfree",
                      "torsion_submodule"}
_COMPLEX_PREDICATES = {"in_Y", "in_Yo", "in_G_star", "in_T_star"}
_TORSION_PREDICATES = {"is_torsionfree", "torsion_submodule", "in_G"}


def cmd_check(ctx: _Context, args) -> tuple:
    pred = args.predicate
    params = ctx.params()
    if params.r != 1 and pred not in _TORSION_PREDICATES:
        raise DocumentError(
            f"r = {params.r} is only accepted by torsion predicates")
    report = {"predicate": pred, "object": args.object}
    if pred in _MODULE_PREDICATES:
        mod = ctx.module(args.object)
        if pred == "in_L":
            report["verdict"] = bool(in_L(mod, params))
        elif pred == "in_L_E":
            # in_L_E reads a module over the regraded algebra E
            if not isinstance(mod.algebra, USupportAlgebra):
                raise DocumentError(
                    f"in_L_E needs a module over the support-restricted "
                    f"dual (\"over\": \"u\") or its regrading (\"over\": "
                    f"\"e\"); {args.object!r} is not")
            report["verdict"] = bool(in_L_E(regrade(mod, ctx.ealg)))
        elif pred == "in_Lo":
            report["verdict"] = bool(in_Lo(mod, params))
        elif pred == "in_G":
            report["verdict"] = bool(in_G(mod, params))
        elif pred == "is_torsionfree":
            report["verdict"] = bool(is_torsionfree(mod, params))
        else:
            t = torsion_submodule(mod, params)
            report["verdict"] = bool(t)
            report["torsion_dims"] = {str(d): int(s.dim)
                                      for d, s in sorted(t.items())}
    elif pred in _COMPLEX_PREDICATES:
        c = ctx.complex(args.object)
        if pred == "in_Y":
            ok, wit = cpx.in_Y(c, ctx.ualg, params)
            report["verdict"] = bool(ok)
            report["witness"] = module_json(wit) if ok else None
        elif pred == "in_Yo":
            report["verdict"] = bool(
                cpx.in_Yo(c, opposite_algebra(ctx.ualg)[0], params))
        elif pred == "in_G_star":
            report["verdict"] = bool(cpx.in_G_star(c, params))
        else:
            report["verdict"] = bool(cpx.in_T_star(c, params))
    else:
        raise DocumentError(
            f"unknown predicate {pred!r}; module predicates: "
            + ", ".join(sorted(_MODULE_PREDICATES))
            + "; complex predicates: "
            + ", ".join(sorted(_COMPLEX_PREDICATES)))
    return report, 0


def cmd_verify(args) -> tuple:
    try:
        report = vf.run_suite(args.suite, trials=args.trials,
                              seed=args.seed)
    except ValueError as e:
        raise DocumentError(str(e))
    return report, (0 if report["passed"] else 1)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nkoszul",
        description="Exact duality computations for n-homogeneous "
                    "path-algebra quotients over a prime field.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", help="JSON input document")
        p.add_argument("--modulus", type=int, default=101,
                       help="field modulus when the document omits one")
        p.add_argument("--window", type=int, nargs=2, metavar=("LO", "HI"),
                       help="override the degree window")
        p.add_argument("--m", type=int, default=None,
                       help="support offset (default from the document)")
        p.add_argument("--r", type=int, default=None,
                       help="support width, torsion predicates only")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--report", metavar="PATH",
                       help="also write the JSON report to this file")
        p.add_argument("--allow-windowed-dual", action="store_true",
                       help="permit windowed functor images over an "
                            "infinite-dimensional algebra")

    p = sub.add_parser("dual", help="dual algebra from both algorithms")
    common(p)
    p.set_defaults(func="dual")

    p = sub.add_parser("functor", help="apply a complex-valued functor")
    common(p)
    p.add_argument("--which", choices=("psi", "nu"), required=True)
    p.add_argument("--module", required=True,
                   help="module name from the input document")
    p.set_defaults(func="functor")

    p = sub.add_parser("contract", help="contract an n-complex to period 2")
    common(p)
    p.add_argument("--complex", required=True,
                   help="nu(MODULE), psi(MODULE) or F(MODULE)")
    p.add_argument("--direction", choices=("H", "G"), default="H")
    p.set_defaults(func="contract")

    p = sub.add_parser("check", help="run a membership predicate")
    common(p)
    p.add_argument("--predicate", required=True)
    p.add_argument("--object", required=True,
                   help="module name, or nu/psi/F of one")
    p.set_defaults(func="check")

    p = sub.add_parser("verify", help="run a seeded property suite on the "
                                      "built-in corpus")
    p.add_argument("--suite", required=True,
                   choices=sorted(vf.SUITES))
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", metavar="PATH")
    p.set_defaults(func="verify")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.func == "verify":
            report, code = cmd_verify(args)
        else:
            dom = load_document(args.input, args.modulus)
            args.modulus = dom["modulus"]  # the echo shows the one in effect
            ctx = _Context(dom, args)
            if args.func == "dual":
                report, code = cmd_dual(ctx, args)
            elif args.func == "functor":
                report, code = cmd_functor(ctx, args)
            elif args.func == "contract":
                report, code = cmd_contract(ctx, args)
            else:
                report, code = cmd_check(ctx, args)
    except (DocumentError, ModuleError, ComplexError, AlgebraError,
            QuiverError, LinAlgError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print("input error: out of memory; try a smaller window",
              file=sys.stderr)
        return 2
    report = {"command": args.func, "echo": _echo(args), **report}
    text = dump_report(report, args.report)
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
